//! Node state as the Galois-Java DES benchmark keeps it: one **ordered**
//! event queue per node (Java's `PriorityQueue`; here an ordered map so
//! speculative removal is possible) and per-port receive clocks, around
//! the shared circuit node state ([`NodeState`]: latched inputs, NULL
//! flag, waveform). The paper's §4.5.1 attributes ~50% of the HJ
//! version's win to replacing exactly this per-node priority queue with
//! per-port deques.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use circuit::{Logic, NodeKind, PortIx};
use des::event::{Event, Timestamp, NULL_TS};
use des::node::NodeState;

/// Orders events within a node's queue: time-major, then insertion
/// sequence (keeps per-driver FIFO for equal timestamps).
pub type EventKey = (Timestamp, u64);

/// One node of the Galois simulation: the shared node state (reached
/// through `Deref`) plus the Galois-Java queue and clocks.
#[derive(Debug)]
pub struct GNode {
    pub state: NodeState,
    /// The per-node ordered event queue (PriorityQueue equivalent).
    pub queue: BTreeMap<EventKey, (PortIx, Logic)>,
    /// Next insertion sequence number.
    pub next_seq: u64,
    /// Per-port "last received" clocks.
    pub last_ts: Vec<Timestamp>,
}

impl GNode {
    /// Fresh state for a node of the given kind.
    pub fn new(kind: NodeKind, delay: u64) -> Self {
        GNode {
            state: NodeState::with_delay(kind, delay),
            queue: BTreeMap::new(),
            next_seq: 0,
            last_ts: vec![0; kind.num_inputs()],
        }
    }

    /// Local clock: minimum last-received over ports ([`NULL_TS`] for
    /// port-less input nodes).
    #[inline]
    pub fn clock(&self) -> Timestamp {
        self.last_ts.iter().copied().min().unwrap_or(NULL_TS)
    }

    /// Insert a delivered event; returns the key (for undo logging).
    pub fn insert(&mut self, port: PortIx, event: Event) -> EventKey {
        debug_assert!(event.time >= self.last_ts[port as usize]);
        debug_assert!(self.last_ts[port as usize] != NULL_TS, "event after NULL");
        let key = (event.time, self.next_seq);
        self.next_seq += 1;
        let prev = self.queue.insert(key, (port, event.value));
        debug_assert!(prev.is_none(), "sequence numbers are unique");
        self.last_ts[port as usize] = event.time;
        key
    }

    /// Receive the NULL message on `port`; returns the previous clock (for
    /// undo logging).
    pub fn receive_null(&mut self, port: PortIx) -> Timestamp {
        let old = self.last_ts[port as usize];
        debug_assert!(old != NULL_TS, "duplicate NULL");
        self.last_ts[port as usize] = NULL_TS;
        old
    }

    /// Pop the next ready event (head of queue if its time ≤ clock).
    pub fn pop_ready(&mut self) -> Option<(EventKey, PortIx, Logic)> {
        let clock = self.clock();
        let (&key, _) = self.queue.first_key_value()?;
        if key.0 <= clock {
            let (port, value) = self.queue.remove(&key).expect("key just seen");
            Some((key, port, value))
        } else {
            None
        }
    }

    /// Is this node active (ready events pending, or NULL forwarding owed)?
    pub fn is_active(&self) -> bool {
        if matches!(self.kind, NodeKind::Input) {
            return !self.null_sent;
        }
        let clock = self.clock();
        match self.queue.first_key_value() {
            Some((&(t, _), _)) => t <= clock,
            None => clock == NULL_TS && !self.null_sent,
        }
    }
}

impl Deref for GNode {
    type Target = NodeState;

    fn deref(&self) -> &NodeState {
        &self.state
    }
}

impl DerefMut for GNode {
    fn deref_mut(&mut self) -> &mut NodeState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::GateKind;

    fn ev(t: Timestamp) -> Event {
        Event::new(t, Logic::One)
    }

    #[test]
    fn insert_orders_by_time_then_seq() {
        let mut n = GNode::new(NodeKind::Gate(GateKind::And), 2);
        n.insert(0, ev(5));
        n.insert(1, ev(3));
        n.insert(0, ev(5));
        // Clock is min(5, 3) = 3 → only the t=3 event is ready.
        assert_eq!(n.clock(), 3);
        let (key, port, _) = n.pop_ready().unwrap();
        assert_eq!((key.0, port), (3, 1));
        assert!(n.pop_ready().is_none());
    }

    #[test]
    fn null_releases_pending_events() {
        let mut n = GNode::new(NodeKind::Gate(GateKind::Or), 2);
        n.insert(0, ev(7));
        assert!(n.pop_ready().is_none()); // port 1 clock is 0
        n.receive_null(1);
        assert_eq!(n.clock(), 7);
        assert!(n.pop_ready().is_some());
        assert_eq!(n.clock(), 7);
    }

    #[test]
    fn activity_transitions() {
        let mut n = GNode::new(NodeKind::Gate(GateKind::Not), 1);
        assert!(!n.is_active()); // nothing received
        n.insert(0, ev(2));
        assert!(n.is_active());
        let _ = n.pop_ready().unwrap();
        assert!(!n.is_active()); // drained but port still open
        n.receive_null(0);
        assert!(n.is_active()); // owes NULL forward
        n.null_sent = true;
        assert!(!n.is_active());
    }

    #[test]
    fn input_nodes_active_until_null_sent() {
        let mut n = GNode::new(NodeKind::Input, 0);
        assert!(n.is_active());
        n.null_sent = true;
        assert!(!n.is_active());
    }
}
