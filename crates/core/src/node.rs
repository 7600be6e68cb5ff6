//! A circuit node, defined once for every engine.
//!
//! **What a node is and does.** [`NodeState`] is a node's whole
//! simulation state apart from its event queues: kind, delay, latched
//! inputs, whether its terminal NULL went out, and (for circuit outputs)
//! the observed waveform. [`NodeState::fire`] is the paper's per-event
//! SIMULATE, the one firing rule every engine runs; [`NodeState::final_value`]
//! and [`final_outputs`] are the one way a run's node values and waveforms
//! are read back. Engines differ only in how they queue, schedule, lock,
//! route and undo around these.
//!
//! **Per-port queues.** Per paper §4.1/§4.5.1: each node keeps one FIFO
//! deque **per input port** (events on one port arrive in nondecreasing
//! timestamp order, so a plain deque suffices — this is the
//! ArrayDeque-vs-PriorityQueue optimization), a per-port "last received"
//! clock, and latched input values. The node's local clock is the
//! minimum of the per-port clocks; queued events no later than the clock
//! are *ready*.
//!
//! Storage is arena-backed: a queue holds `(timestamp, EventRef)` pairs
//! while the events themselves live in the caller's [`EventArena`]
//! (one per engine run or shard thread). The representation is sealed —
//! every mutation goes through [`PortQueue::push`] /
//! [`PortQueue::pop_ready`] and friends, so the arena layout can change
//! without touching any engine. Timestamps are mirrored into the queue
//! so the read-only clock helpers ([`PortQueue::head_ts`],
//! [`local_clock`], [`is_active`]) never need the arena.

use std::collections::VecDeque;

use circuit::{Circuit, DelayModel, Logic, NodeKind, PortIx};

use crate::arena::{EventArena, EventRef};
use crate::event::{Event, Timestamp, NULL_TS};
use crate::monitor::Waveform;

/// The delay a node of `kind` adds to every event it emits.
#[inline]
pub fn node_delay(kind: NodeKind, delays: &DelayModel) -> u64 {
    match kind {
        NodeKind::Input => delays.input,
        NodeKind::Output => delays.output,
        NodeKind::Gate(gate) => delays.of(gate),
    }
}

/// A circuit node's simulation state, whatever queues an engine keeps
/// its pending events in.
#[derive(Debug, Clone)]
pub struct NodeState {
    pub kind: NodeKind,
    /// Added to the time of every event the node emits.
    pub delay: u64,
    /// Latched input values; input and output nodes latch on port 0.
    pub latch: Latch,
    /// The node has forwarded its terminal NULL.
    pub null_sent: bool,
    /// Circuit outputs: every observed event, in order.
    pub waveform: Waveform,
}

impl NodeState {
    /// Fresh state for a node of `kind` under `delays`.
    pub fn new(kind: NodeKind, delays: &DelayModel) -> Self {
        Self::with_delay(kind, node_delay(kind, delays))
    }

    /// Fresh state for a node of `kind` with an explicit `delay`.
    pub fn with_delay(kind: NodeKind, delay: u64) -> Self {
        NodeState {
            kind,
            delay,
            latch: Latch::new(),
            null_sent: false,
            waveform: Waveform::new(),
        }
    }

    /// SIMULATE one event arriving on `port` (a stimulus event for an
    /// input node, port 0): latch its value, then an input forwards it
    /// and a gate evaluates, both emitting at `time + delay`; an output
    /// records it. Returns the event to send to every fanout target.
    /// Runs once per event in every engine's hot loop, so it is always
    /// inlined.
    #[inline(always)]
    pub fn fire(&mut self, port: PortIx, event: Event) -> Option<Event> {
        self.latch.set(port, event.value);
        let value = match self.kind {
            NodeKind::Input => event.value,
            NodeKind::Gate(gate) => gate.eval(self.latch.values(gate.arity())),
            NodeKind::Output => {
                self.waveform.record(event);
                return None;
            }
        };
        Some(Event::new(event.time + self.delay, value))
    }

    /// The node's settled value: the last value an input drove or an
    /// output observed, a gate's evaluation of its latched inputs.
    pub fn final_value(&self) -> Logic {
        match self.kind {
            NodeKind::Input | NodeKind::Output => self.latch.0[0],
            NodeKind::Gate(gate) => gate.eval(self.latch.values(gate.arity())),
        }
    }
}

/// A run's observables from every node's final state, given in node
/// order: the settled value of each node, and the waveform of each
/// circuit output in `circuit.outputs()` order.
pub fn final_outputs(
    circuit: &Circuit,
    states: impl IntoIterator<Item = NodeState>,
) -> (Vec<Logic>, Vec<Waveform>) {
    let mut waveform_of: Vec<Option<Waveform>> = vec![None; circuit.num_nodes()];
    let values = states
        .into_iter()
        .enumerate()
        .map(|(i, state)| {
            let value = state.final_value();
            if matches!(state.kind, NodeKind::Output) {
                waveform_of[i] = Some(state.waveform);
            }
            value
        })
        .collect();
    let waveforms = circuit
        .outputs()
        .iter()
        .map(|o| waveform_of[o.index()].take().expect("every output has a state"))
        .collect();
    (values, waveforms)
}

/// A node on per-port FIFO queues: the node of `seq-workset` and of each
/// sharded core.
#[derive(Debug)]
pub(crate) struct PortNode {
    pub(crate) state: NodeState,
    pub(crate) ports: Vec<PortQueue>,
}

impl PortNode {
    pub(crate) fn new(kind: NodeKind, delays: &DelayModel) -> Self {
        PortNode {
            state: NodeState::new(kind, delays),
            ports: (0..kind.num_inputs()).map(|_| PortQueue::new()).collect(),
        }
    }

    /// Has ready events, or owes its NULL forward (an input node is
    /// active until it has run).
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        is_active(&self.ports, self.state.null_sent)
    }

    /// Pop every ready event into `temp` (see [`drain_ready`]).
    #[inline]
    pub(crate) fn drain_ready(&mut self, arena: &mut EventArena, temp: &mut Vec<(PortIx, Event)>) {
        let clock = local_clock(&self.ports);
        drain_ready(&mut self.ports, arena, clock, temp);
    }

    /// Every port is closed and drained but the NULL has not gone out:
    /// the caller forwards it now.
    #[inline]
    pub(crate) fn owes_null(&self) -> bool {
        !self.state.null_sent
            && local_clock(&self.ports) == NULL_TS
            && self.ports.iter().all(PortQueue::is_empty)
    }
}

/// One input port: its FIFO event queue and receive clock.
///
/// The queue owns handles, not events; pass the owning arena to any
/// method that moves an event in or out.
#[derive(Debug, Clone)]
pub struct PortQueue {
    /// Pending events as `(time, handle)`, in arrival (= nondecreasing
    /// timestamp) order. The mirrored time keeps clock reads arena-free.
    refs: VecDeque<(Timestamp, EventRef)>,
    /// Timestamp of the last message received on this port; [`NULL_TS`]
    /// once the NULL message arrived.
    last_ts: Timestamp,
}

impl PortQueue {
    /// A fresh port: nothing received yet.
    pub fn new() -> Self {
        PortQueue {
            refs: VecDeque::new(),
            last_ts: 0,
        }
    }

    /// Deliver a payload event (must not regress this port's clock).
    #[inline]
    pub fn push(&mut self, arena: &mut EventArena, event: Event) {
        debug_assert!(
            event.time >= self.last_ts,
            "per-port arrivals must be nondecreasing ({} < {})",
            event.time,
            self.last_ts
        );
        debug_assert!(self.last_ts != NULL_TS, "event after NULL message");
        self.last_ts = event.time;
        let time = event.time;
        self.refs.push_back((time, arena.alloc(event)));
    }

    /// Deliver the NULL message: no more events will ever arrive here.
    #[inline]
    pub fn push_null(&mut self) {
        debug_assert!(self.last_ts != NULL_TS, "duplicate NULL message");
        self.last_ts = NULL_TS;
    }

    /// Timestamp at the head of the queue ([`NULL_TS`] when empty).
    #[inline]
    pub fn head_ts(&self) -> Timestamp {
        self.refs.front().map_or(NULL_TS, |&(t, _)| t)
    }

    /// Timestamp of the head event, `None` when the queue is empty —
    /// the peek half of the pop-if-ready protocol.
    #[inline]
    pub fn peek(&self) -> Option<Timestamp> {
        self.refs.front().map(|&(t, _)| t)
    }

    /// This port's receive clock ([`NULL_TS`] once closed).
    #[inline]
    pub fn last_ts(&self) -> Timestamp {
        self.last_ts
    }

    /// Queued (undelivered) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Conservative lower bound on the next event this port can deliver:
    /// the head timestamp when events are queued, the receive clock when
    /// drained (nothing can arrive earlier than what was promised).
    #[inline]
    pub fn next_event_bound(&self) -> Timestamp {
        match self.refs.front() {
            Some(&(t, _)) => t,
            None => self.last_ts,
        }
    }

    /// Advance this port's clock to `ts` without delivering an event — a
    /// *lookahead NULL* from the sharded engine's cross-shard protocol:
    /// the sender promises no event earlier than `ts` will arrive here.
    /// Stale promises (`ts` at or behind the clock) and promises after
    /// the terminal NULL are ignored; a terminal NULL itself must use
    /// [`PortQueue::push_null`].
    #[inline]
    pub fn advance_clock(&mut self, ts: Timestamp) {
        debug_assert!(ts != NULL_TS, "terminal NULL must use push_null");
        if self.last_ts != NULL_TS && ts > self.last_ts {
            self.last_ts = ts;
        }
    }

    /// Pop the head event if its timestamp is ≤ `bound`, reclaiming its
    /// arena slot. The single-event safe-to-process primitive.
    #[inline]
    pub fn pop_ready(&mut self, arena: &mut EventArena, bound: Timestamp) -> Option<Event> {
        match self.refs.front() {
            Some(&(t, _)) if t != NULL_TS && t <= bound => {
                let (_, r) = self.refs.pop_front().expect("head exists");
                Some(arena.take(r))
            }
            _ => None,
        }
    }

    /// Move *all* queued events out in order (regardless of readiness),
    /// reclaiming their arena slots: cross-arena handoff (migration) and
    /// teardown. The receive clock is left untouched.
    pub fn take_events(&mut self, arena: &mut EventArena) -> Vec<Event> {
        self.refs.drain(..).map(|(_, r)| arena.take(r)).collect()
    }

    /// Copy the queued events out in order, leaving the queue untouched
    /// (checkpoint capture).
    pub fn snapshot_events(&self, arena: &EventArena) -> Vec<Event> {
        self.refs.iter().map(|&(_, r)| *arena.get(r)).collect()
    }

    /// Rebuild a port from checkpointed state: `events` are re-homed
    /// into `arena` verbatim and the receive clock is restored exactly
    /// (bypassing the push-time monotonicity bookkeeping, which already
    /// held when the snapshot was taken).
    pub fn restore(
        arena: &mut EventArena,
        last_ts: Timestamp,
        events: impl IntoIterator<Item = Event>,
    ) -> Self {
        let refs = events
            .into_iter()
            .map(|ev| {
                let t = ev.time;
                (t, arena.alloc(ev))
            })
            .collect();
        PortQueue { refs, last_ts }
    }
}

impl Default for PortQueue {
    fn default() -> Self {
        Self::new()
    }
}

/// The local clock: minimum "last received" over all ports ([`NULL_TS`]
/// for nodes without input ports, i.e. circuit inputs).
#[inline]
pub fn local_clock(ports: &[PortQueue]) -> Timestamp {
    ports.iter().map(|p| p.last_ts).min().unwrap_or(NULL_TS)
}

/// Pop all ready events (timestamp ≤ `clock`) from the per-port queues
/// into `temp`, merged in (timestamp, port) order — the paper's
/// "temporary queue" of §4.5.1, batched per node wakeup. `temp` is the
/// caller's reusable scratch buffer. Returns the number of events moved.
#[inline]
pub fn drain_ready(
    ports: &mut [PortQueue],
    arena: &mut EventArena,
    clock: Timestamp,
    temp: &mut Vec<(PortIx, Event)>,
) -> usize {
    let before = temp.len();
    loop {
        // Find the port with the smallest head timestamp (ties: lowest
        // port index, keeping the merge deterministic for distinct ports).
        let mut best: Option<(usize, Timestamp)> = None;
        for (i, port) in ports.iter().enumerate() {
            let h = port.head_ts();
            if h != NULL_TS && h <= clock && best.is_none_or(|(_, bh)| h < bh) {
                best = Some((i, h));
            }
        }
        match best {
            Some((i, h)) => {
                let e = ports[i].pop_ready(arena, h).expect("head exists");
                temp.push((i as PortIx, e));
            }
            None => break,
        }
    }
    temp.len() - before
}

/// True when the node is *active*: it has ready events, or it has drained
/// completely after receiving NULL on every port and still owes its own
/// NULL message downstream (`null_sent == false`).
#[inline]
pub fn is_active(ports: &[PortQueue], null_sent: bool) -> bool {
    let clock = local_clock(ports);
    let min_head = ports.iter().map(|p| p.head_ts()).min().unwrap_or(NULL_TS);
    if min_head != NULL_TS && min_head <= clock {
        return true;
    }
    clock == NULL_TS && min_head == NULL_TS && !null_sent
}

/// Latched input values of a gate (ports default to logic zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latch(pub [Logic; 2]);

impl Latch {
    pub fn new() -> Self {
        Latch([Logic::Zero; 2])
    }

    #[inline]
    pub fn set(&mut self, port: PortIx, value: Logic) {
        self.0[port as usize] = value;
    }

    #[inline]
    pub fn values(&self, arity: usize) -> &[Logic] {
        &self.0[..arity]
    }
}

impl Default for Latch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Timestamp) -> Event {
        Event::new(t, Logic::One)
    }

    #[test]
    fn push_advances_clock() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        assert_eq!(p.last_ts(), 0);
        p.push(&mut arena, ev(5));
        assert_eq!(p.last_ts(), 5);
        assert_eq!(p.head_ts(), 5);
        assert_eq!(p.peek(), Some(5));
        p.push(&mut arena, ev(5)); // equal timestamps allowed
        p.push(&mut arena, ev(9));
        assert_eq!(p.last_ts(), 9);
        assert_eq!(p.len(), 3);
        assert_eq!(arena.live(), 3);
    }

    #[test]
    fn null_closes_port() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.push(&mut arena, ev(3));
        p.push_null();
        assert_eq!(p.last_ts(), NULL_TS);
        assert_eq!(p.head_ts(), 3); // queued event still pending
    }

    #[test]
    fn clock_is_min_over_ports() {
        let mut arena = EventArena::new();
        let mut a = PortQueue::new();
        let mut b = PortQueue::new();
        a.push(&mut arena, ev(10));
        b.push(&mut arena, ev(4));
        assert_eq!(local_clock(&[a.clone(), b.clone()]), 4);
        b.push_null();
        assert_eq!(local_clock(&[a, b]), 10);
    }

    #[test]
    fn drain_ready_merges_by_time_then_port() {
        let mut arena = EventArena::new();
        let mut ports = vec![PortQueue::new(), PortQueue::new()];
        ports[0].push(&mut arena, ev(2));
        ports[0].push(&mut arena, ev(6));
        ports[1].push(&mut arena, ev(2));
        ports[1].push(&mut arena, ev(4));
        // clock 5: events at 2 (port 0 first), 2, 4 are ready; 6 is not.
        let mut temp = Vec::new();
        let n = drain_ready(&mut ports, &mut arena, 5, &mut temp);
        assert_eq!(n, 3);
        let order: Vec<(PortIx, Timestamp)> = temp.iter().map(|(p, e)| (*p, e.time)).collect();
        assert_eq!(order, vec![(0, 2), (1, 2), (1, 4)]);
        assert_eq!(ports[0].len(), 1);
        assert_eq!(arena.live(), 1, "drained slots returned to the arena");
    }

    #[test]
    fn drain_respects_clock_boundary_inclusive() {
        let mut arena = EventArena::new();
        let mut ports = vec![PortQueue::new()];
        ports[0].push(&mut arena, ev(5));
        let mut temp = Vec::new();
        assert_eq!(drain_ready(&mut ports, &mut arena, 4, &mut temp), 0);
        assert_eq!(drain_ready(&mut ports, &mut arena, 5, &mut temp), 1);
    }

    #[test]
    fn pop_ready_respects_bound() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.push(&mut arena, ev(2));
        p.push(&mut arena, ev(4));
        p.push(&mut arena, ev(9));
        assert!(p.pop_ready(&mut arena, 1).is_none());
        assert_eq!(p.pop_ready(&mut arena, 4).map(|e| e.time), Some(2));
        assert_eq!(p.pop_ready(&mut arena, 4).map(|e| e.time), Some(4));
        assert!(p.pop_ready(&mut arena, 4).is_none());
        assert_eq!(p.pop_ready(&mut arena, 100).map(|e| e.time), Some(9));
        assert!(p.is_empty());
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.push(&mut arena, ev(3));
        p.push(&mut arena, ev(8));
        let events = p.snapshot_events(&arena);
        assert_eq!(events.len(), 2);
        assert_eq!(p.len(), 2, "snapshot leaves the queue intact");

        let mut arena2 = EventArena::new();
        let mut q = PortQueue::restore(&mut arena2, p.last_ts(), events);
        assert_eq!(q.last_ts(), 8);
        assert_eq!(q.head_ts(), 3);
        assert_eq!(q.pop_ready(&mut arena2, 100).map(|e| e.time), Some(3));
        assert_eq!(q.pop_ready(&mut arena2, 100).map(|e| e.time), Some(8));
    }

    #[test]
    fn restore_preserves_null_clock() {
        // A port that had already received NULL restores as closed even
        // with events still queued (push would reject this — restore
        // bypasses the arrival bookkeeping by design).
        let mut arena = EventArena::new();
        let q: PortQueue = PortQueue::restore(&mut arena, NULL_TS, [ev(3)]);
        assert_eq!(q.last_ts(), NULL_TS);
        assert_eq!(q.head_ts(), 3);
    }

    #[test]
    fn next_event_bound_uses_head_then_clock() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.advance_clock(4);
        assert_eq!(p.next_event_bound(), 4);
        p.push(&mut arena, ev(6));
        assert_eq!(p.next_event_bound(), 6);
    }

    #[test]
    fn activity_rules() {
        // Ready event → active.
        let mut arena = EventArena::new();
        let mut ports = vec![PortQueue::new(), PortQueue::new()];
        ports[0].push(&mut arena, ev(3));
        ports[1].push(&mut arena, ev(3));
        assert!(is_active(&ports, false));
        // Pending but not ready (other port's clock behind) → inactive.
        let mut ports = vec![PortQueue::new(), PortQueue::new()];
        ports[0].push(&mut arena, ev(3));
        assert!(!is_active(&ports, false));
        // Fully drained after NULLs, null not yet forwarded → active.
        let mut ports = vec![PortQueue::new()];
        ports[0].push_null();
        assert!(is_active(&ports, false));
        assert!(!is_active(&ports, true));
    }

    #[test]
    fn advance_clock_is_monotone_and_respects_null() {
        let mut p = PortQueue::new();
        p.advance_clock(5);
        assert_eq!(p.last_ts(), 5);
        p.advance_clock(3); // stale promise: ignored
        assert_eq!(p.last_ts(), 5);
        p.advance_clock(9);
        assert_eq!(p.last_ts(), 9);
        p.push_null();
        p.advance_clock(100); // port closed: ignored
        assert_eq!(p.last_ts(), NULL_TS);
    }

    #[test]
    fn advance_clock_then_push_at_promise_time() {
        // A promise of t allows a later event at exactly t.
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.advance_clock(7);
        p.push(&mut arena, ev(7));
        assert_eq!(p.head_ts(), 7);
    }

    #[test]
    fn latch_defaults_to_zero() {
        let mut l = Latch::new();
        assert_eq!(l.values(2), &[Logic::Zero, Logic::Zero]);
        l.set(1, Logic::One);
        assert_eq!(l.values(2), &[Logic::Zero, Logic::One]);
    }

    #[test]
    fn fire_follows_the_node_kind() {
        use circuit::{DelayModel, GateKind};
        let delays = DelayModel::standard();

        let mut input = NodeState::new(NodeKind::Input, &delays);
        let out = input.fire(0, Event::new(4, Logic::One));
        assert_eq!(out, Some(Event::new(4 + delays.input, Logic::One)));
        assert_eq!(input.final_value(), Logic::One, "an input latches what it drove");

        let mut and = NodeState::new(NodeKind::Gate(GateKind::And), &delays);
        let t = delays.of(GateKind::And);
        assert_eq!(and.fire(0, Event::new(2, Logic::One)), Some(Event::new(2 + t, Logic::Zero)));
        assert_eq!(and.fire(1, Event::new(3, Logic::One)), Some(Event::new(3 + t, Logic::One)));
        assert_eq!(and.final_value(), Logic::One);

        let mut output = NodeState::new(NodeKind::Output, &delays);
        assert_eq!(output.fire(0, Event::new(9, Logic::One)), None);
        assert_eq!(output.waveform.events(), &[Event::new(9, Logic::One)]);
        assert_eq!(output.final_value(), Logic::One);
    }

    #[test]
    fn final_outputs_follow_node_and_output_order() {
        use circuit::{CircuitBuilder, DelayModel};
        let delays = DelayModel::standard();
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let y = b.add_output("y", a);
        let z = b.add_output("z", a);
        let c = b.build().expect("valid circuit");
        let mut states: Vec<NodeState> =
            c.nodes().iter().map(|n| NodeState::new(n.kind, &delays)).collect();
        states[a.index()].fire(0, Event::new(1, Logic::One));
        states[z.index()].fire(0, Event::new(5, Logic::One));
        let (values, waveforms) = final_outputs(&c, states);
        assert_eq!(values[a.index()], Logic::One);
        assert_eq!(values[y.index()], Logic::Zero);
        assert_eq!(values[z.index()], Logic::One);
        let order: Vec<usize> = c.outputs().iter().map(|o| o.index()).collect();
        assert_eq!(order, vec![y.index(), z.index()]);
        assert!(waveforms[0].is_empty());
        assert_eq!(waveforms[1].events(), &[Event::new(5, Logic::One)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn regressing_push_rejected_in_debug() {
        let mut arena = EventArena::new();
        let mut p = PortQueue::new();
        p.push(&mut arena, ev(5));
        p.push(&mut arena, ev(4));
    }
}
