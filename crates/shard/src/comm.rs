//! Cross-shard communication: bounded mailboxes carrying timestamped
//! events and NULL messages.
//!
//! Each shard owns one bounded inbox; every other shard holds a handle
//! to it. Because each circuit input port is fed by exactly one edge,
//! and the source node emits on each of its out-edges in nondecreasing
//! timestamp order, FIFO delivery per (source shard, destination shard)
//! preserves the per-port nondecreasing-arrival invariant the
//! Chandy–Misra cores rely on — no reordering buffer is needed at the
//! receiver.
//!
//! Two message kinds cross a cut edge:
//!
//! * [`ShardMsg::Event`] — a payload event for one input port;
//! * [`ShardMsg::Null`] — a clock promise for one input port: "no event
//!   earlier than `time` will ever arrive here". `time == `[`NULL_TS`]
//!   is the terminal Chandy–Misra NULL (the port is closed forever);
//!   any smaller value is a *lookahead* null derived from the sender's
//!   local clock plus the source node's delay, letting the receiving
//!   shard advance its local clocks — and process events that were
//!   already safe — without waiting for a payload event.
//!
//! ## The batched fabric
//!
//! [`fabric`] builds the mailboxes the engines run on, generic over the
//! message type (`ShardMsg` for the circuit engines, the model layer's
//! own message for `model-sharded`). A [`Mailbox`] *stages* outgoing
//! messages per destination and *publishes* a staged run with one
//! synchronising operation — one lock of the destination inbox, however
//! many messages ride along — when the staging buffer fills and whenever
//! the owner calls [`Mailbox::flush`] (end of a sweep or node run, and
//! before any blocking wait). The receiver takes everything published
//! with one operation too. What the per-message channel guaranteed still
//! holds:
//!
//! * **FIFO per (source, destination)**: staging is per destination and
//!   published from the front, so a control marker can never overtake a
//!   payload message staged before it;
//! * **bounded**: an inbox holds at most `capacity` published messages
//!   and a staging buffer at most `min(capacity, MAX_BATCH)`; both are
//!   allocated once, at exactly that size, so the message path allocates
//!   nothing;
//! * **backpressure**: [`Mailbox::try_send`] answers
//!   [`TrySendError::Full`] when the destination has no room. The caller
//!   must drain its own inbox before retrying, which is what keeps the
//!   shard-level cycle `A ⇄ B` deadlock-free even though both mailboxes
//!   may momentarily be full.
//!
//! With `capacity == 1` every send publishes on its own: the fabric
//! degrades to the per-message hand-off.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use circuit::{Circuit, Logic, NodeId, Target};
use crossbeam::channel::{bounded, Receiver, Sender};

use crate::partition::{Partition, ShardId};

// The canonical simulated-time vocabulary lives in `circuit::time`;
// re-exported here so the message protocol and the engines share one
// definition instead of drifting copies.
pub use circuit::{Timestamp, NULL_TS};

/// One message crossing a shard boundary.
///
/// The first two variants carry simulation traffic for one input port.
/// The rest are *control* messages for the epoch-barrier rebalancing
/// protocol (see `des::engine::sharded`): they ride the same FIFO
/// mailboxes as payload traffic, so a barrier marker received from a
/// peer proves every pre-barrier message from that peer has already
/// been delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMsg {
    /// A payload event for `target`'s input port.
    Event {
        target: Target,
        time: Timestamp,
        value: Logic,
    },
    /// Clock promise for `target`'s input port: no event earlier than
    /// `time` will ever arrive. [`NULL_TS`] closes the port for good.
    Null { target: Target, time: Timestamp },
    /// Ask the barrier leader (shard 0) to start epoch `epoch`: the
    /// sender's telemetry counters crossed the epoch threshold.
    BarrierRequest { from: ShardId, epoch: u64 },
    /// Epoch-barrier marker: `from` has flushed all pre-barrier traffic
    /// for `epoch` and reports its telemetry (events processed this
    /// epoch, inbox depth at the marker).
    Barrier {
        from: ShardId,
        epoch: u64,
        load: u64,
        depth: u64,
    },
    /// `from` has parked every node it donates in epoch `epoch` on the
    /// migration bus; receivers may take their arrivals once they hold
    /// one of these from every active peer.
    Transferred { from: ShardId, epoch: u64 },
    /// `from` has finished (all its nodes forwarded terminal NULLs) and
    /// will never participate in another barrier.
    Retire { from: ShardId },
}

impl ShardMsg {
    /// The destination node/port, for simulation traffic. Control
    /// messages address the receiving shard itself, not a port.
    pub fn target(&self) -> Option<Target> {
        match *self {
            ShardMsg::Event { target, .. } | ShardMsg::Null { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// One shard's end of the unbatched crossbeam fabric [`endpoints`]
/// builds: its own inbox plus a sender to every shard (index =
/// destination shard id).
pub struct Endpoint {
    /// This endpoint's shard id.
    pub shard: ShardId,
    /// The shard's inbox.
    pub rx: Receiver<ShardMsg>,
    /// Senders to every shard's inbox, indexed by shard id.
    pub txs: Vec<Sender<ShardMsg>>,
}

/// Build a K×K fabric of plain bounded channels: one channel operation
/// per message. No engine runs on it any more (see [`fabric`]); it stays
/// as the per-message reference the repository benchmark's
/// `shard.mailbox_ns_per_msg` probe times. Returns one [`Endpoint`] per
/// shard plus one depth probe per inbox (a cloned sender to read `len()`
/// from).
pub fn endpoints(num_shards: usize, capacity: usize) -> (Vec<Endpoint>, Vec<Sender<ShardMsg>>) {
    assert!(num_shards > 0 && capacity > 0);
    let mut txs = Vec::with_capacity(num_shards);
    let mut rxs = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let (tx, rx) = bounded(capacity);
        txs.push(tx);
        rxs.push(rx);
    }
    let probes = txs.clone();
    let endpoints = rxs
        .into_iter()
        .enumerate()
        .map(|(shard, rx)| Endpoint {
            shard,
            rx,
            txs: txs.clone(),
        })
        .collect();
    (endpoints, probes)
}

// ---------------------------------------------------------------------------
// The batched fabric.

/// Most messages one publish carries. Past a few hundred messages the
/// synchronising operation is already amortised to nothing, and a larger
/// staging buffer would only delay delivery and cost memory per directed
/// pair.
const MAX_BATCH: usize = 256;

/// How long a blocking receive polls for a publish before it parks. A
/// park plus the publisher's wake-up call cost tens of microseconds
/// between them; shards that trade clock promises every few microseconds
/// usually have the answer on its way already.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(20);

/// Why [`Mailbox::try_send`] did not take the message.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<M> {
    /// The destination inbox has no room; the message is handed back so
    /// the caller can drain its own inbox and retry.
    Full(M),
    /// The destination shard dropped its mailbox (it exited, or the run
    /// is being torn down).
    Disconnected,
}

/// Why a non-blocking receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing is published to this inbox right now.
    Empty,
    /// Every other mailbox is gone; nothing will ever arrive.
    Disconnected,
}

/// Why a bounded-wait receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing was published within the wait.
    Timeout,
    /// Every other mailbox is gone; nothing will ever arrive.
    Disconnected,
}

struct InboxState<M> {
    /// Published and not yet taken, in publish order.
    queue: VecDeque<M>,
    /// The owner is blocked on `not_empty`: a publisher must notify.
    /// Tracked so that a publish nobody waits for costs no wake-up call.
    parked: bool,
}

/// A value alone on a 128-byte line: no other field shares the pair of
/// 64-byte cache lines an adjacent-line prefetcher moves together.
#[repr(align(128))]
struct OwnLine<T>(T);

/// One shard's inbox. `repr(C)` fixes the layout: `taken` first, on its
/// own line, and everything peers touch after it. The owner stores
/// `taken` on every message it consumes; on a line shared with `alive`,
/// which every peer reads on every `try_send`, each of those stores
/// would pull the line away from the peers. Aligning the whole inbox to
/// 128 keeps neighbouring inboxes apart the same way.
#[repr(C, align(128))]
struct Inbox<M> {
    /// Messages the owner has taken but not yet consumed (its local
    /// remainder of the last take); the other half of the depth.
    taken: OwnLine<AtomicUsize>,
    state: Mutex<InboxState<M>>,
    not_empty: Condvar,
    /// `state.queue.len()`, stored under the lock and read without it:
    /// by the owner, to skip the lock while nothing is published, and by
    /// depth probes.
    published: AtomicUsize,
    /// Live mailboxes of *other* shards.
    senders: AtomicUsize,
    /// False once the owning mailbox is dropped.
    alive: AtomicBool,
}

impl<M> Inbox<M> {
    fn lock(&self) -> MutexGuard<'_, InboxState<M>> {
        // Only queue moves within preallocated capacity run under this
        // lock, so a poisoned guard still protects a consistent queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn depth(&self) -> usize {
        self.published.load(Ordering::Relaxed) + self.taken.0.load(Ordering::Relaxed)
    }
}

struct Shared<M> {
    inboxes: Vec<Inbox<M>>,
    capacity: usize,
}

/// One shard's handle on the batched fabric: its inbox plus a staging
/// buffer toward every shard. See the module docs for the contract.
pub struct Mailbox<M> {
    shard: ShardId,
    shared: Arc<Shared<M>>,
    /// Staged, unpublished messages, indexed by destination shard.
    stage: Vec<Vec<M>>,
    /// Messages staged over all destinations, so that a flush with
    /// nothing to do costs one comparison.
    staged: usize,
    /// Capacity of each staging buffer.
    batch: usize,
    /// The owner's remainder of the last take, oldest first.
    taken: VecDeque<M>,
}

/// Read-only view of every inbox's depth, for watchdogs. Depths are in
/// *messages*: published ones plus what the owner took in its last
/// receive operation and has not consumed yet.
pub struct DepthProbe<M> {
    shared: Arc<Shared<M>>,
}

impl<M> DepthProbe<M> {
    /// Depth of every inbox, indexed by shard id.
    pub fn depths(&self) -> Vec<usize> {
        self.shared.inboxes.iter().map(Inbox::depth).collect()
    }
}

/// Build the batched K×K fabric: one [`Mailbox`] per shard, each inbox
/// holding at most `capacity` published messages, plus a depth probe.
pub fn fabric<M>(num_shards: usize, capacity: usize) -> (Vec<Mailbox<M>>, DepthProbe<M>) {
    assert!(num_shards > 0 && capacity > 0);
    let shared = Arc::new(Shared {
        inboxes: (0..num_shards)
            .map(|_| Inbox {
                taken: OwnLine(AtomicUsize::new(0)),
                state: Mutex::new(InboxState {
                    queue: VecDeque::with_capacity(capacity),
                    parked: false,
                }),
                not_empty: Condvar::new(),
                published: AtomicUsize::new(0),
                senders: AtomicUsize::new(num_shards - 1),
                alive: AtomicBool::new(true),
            })
            .collect(),
        capacity,
    });
    let batch = capacity.min(MAX_BATCH);
    let mailboxes = (0..num_shards)
        .map(|shard| Mailbox {
            shard,
            shared: Arc::clone(&shared),
            stage: (0..num_shards)
                .map(|dst| Vec::with_capacity(if dst == shard { 0 } else { batch }))
                .collect(),
            staged: 0,
            batch,
            taken: VecDeque::with_capacity(capacity),
        })
        .collect();
    (mailboxes, DepthProbe { shared })
}

impl<M> Mailbox<M> {
    /// The shard this mailbox belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Stage `msg` toward shard `dst` without blocking; a staging buffer
    /// that fills is published at once. `Full` means the buffer is full
    /// *and* `dst`'s inbox has no room for any of it: drain your own
    /// inbox, then retry.
    pub fn try_send(&mut self, dst: ShardId, msg: M) -> Result<(), TrySendError<M>> {
        if !self.shared.inboxes[dst].alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected);
        }
        if self.stage[dst].len() >= self.batch {
            self.publish(dst);
            if self.stage[dst].len() >= self.batch {
                return Err(TrySendError::Full(msg));
            }
        }
        self.stage[dst].push(msg);
        self.staged += 1;
        if self.stage[dst].len() >= self.batch {
            self.publish(dst);
        }
        Ok(())
    }

    /// Publish every staged message its destination has room for.
    /// Returns `true` once nothing remains staged, `false` if some inbox
    /// was full (drain your own inbox and call again).
    pub fn flush(&mut self) -> bool {
        for dst in 0..self.stage.len() {
            if self.staged == 0 {
                break;
            }
            if !self.stage[dst].is_empty() {
                self.publish(dst);
            }
        }
        self.staged == 0
    }

    /// Move as many staged messages as fit into `dst`'s inbox, oldest
    /// first: one lock, whatever the count. Messages staged toward a
    /// mailbox that has since been dropped are discarded, exactly as
    /// messages queued in a channel nobody will read again.
    fn publish(&mut self, dst: ShardId) {
        let stage = &mut self.stage[dst];
        let inbox = &self.shared.inboxes[dst];
        let mut st = inbox.lock();
        if !inbox.alive.load(Ordering::Acquire) {
            self.staged -= stage.len();
            stage.clear();
            return;
        }
        let room = self.shared.capacity - st.queue.len();
        let n = room.min(stage.len());
        if n == 0 {
            return;
        }
        self.staged -= n;
        st.queue.extend(stage.drain(..n));
        inbox.published.store(st.queue.len(), Ordering::Release);
        let wake = st.parked;
        drop(st);
        if wake {
            inbox.not_empty.notify_one();
        }
    }

    /// Pop the next message without blocking. Takes everything published
    /// in one operation when the local remainder runs out.
    pub fn try_recv(&mut self) -> Result<M, TryRecvError> {
        if let Some(msg) = self.pop_taken() {
            return Ok(msg);
        }
        let inbox = &self.shared.inboxes[self.shard];
        // `senders` before `published`: a mailbox publishes what it has
        // before it counts itself out, so "no senders" read first makes
        // "nothing published" final.
        let gone = inbox.senders.load(Ordering::Acquire) == 0;
        if inbox.published.load(Ordering::Acquire) == 0 {
            return Err(if gone {
                TryRecvError::Disconnected
            } else {
                TryRecvError::Empty
            });
        }
        Self::take(&mut self.taken, inbox, inbox.lock());
        Ok(self.pop_taken().expect("took a non-empty queue"))
    }

    /// Pop the next message, waiting up to `timeout` for a publish.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<M, RecvTimeoutError> {
        if let Some(msg) = self.pop_taken() {
            return Ok(msg);
        }
        let start = Instant::now();
        let deadline = start + timeout;
        let inbox = &self.shared.inboxes[self.shard];
        // Poll briefly before parking.
        let spin_until = start + timeout.min(SPIN_BEFORE_PARK);
        while inbox.published.load(Ordering::Acquire) == 0 && Instant::now() < spin_until {
            std::thread::yield_now();
        }
        let mut st = inbox.lock();
        while st.queue.is_empty() {
            if inbox.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked = true;
            st = inbox
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.parked = false;
        }
        Self::take(&mut self.taken, inbox, st);
        Ok(self.pop_taken().expect("took a non-empty queue"))
    }

    /// Messages waiting for this shard: published plus taken and not yet
    /// consumed.
    pub fn inbox_len(&self) -> usize {
        self.shared.inboxes[self.shard].depth()
    }

    /// Swap the owner's (empty) local remainder with the published
    /// queue: the whole batch changes hands in one operation.
    fn take(taken: &mut VecDeque<M>, inbox: &Inbox<M>, mut st: MutexGuard<'_, InboxState<M>>) {
        debug_assert!(taken.is_empty());
        std::mem::swap(taken, &mut st.queue);
        inbox.taken.0.store(taken.len(), Ordering::Relaxed);
        inbox.published.store(0, Ordering::Release);
    }

    fn pop_taken(&mut self) -> Option<M> {
        let msg = self.taken.pop_front()?;
        self.shared.inboxes[self.shard]
            .taken
            .0
            .store(self.taken.len(), Ordering::Relaxed);
        Some(msg)
    }
}

impl<M> Drop for Mailbox<M> {
    fn drop(&mut self) {
        for (shard, inbox) in self.shared.inboxes.iter().enumerate() {
            if shard == self.shard {
                // Under the lock, so that a publisher either sees the
                // flag or finishes its publish before it is set.
                let _st = inbox.lock();
                inbox.alive.store(false, Ordering::Release);
            } else if inbox.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: a parked owner must wake up to see
                // it. Taking the lock orders this after its check.
                let wake = inbox.lock().parked;
                if wake {
                    inbox.not_empty.notify_one();
                }
            }
        }
    }
}

/// One outgoing cut edge of a shard: the owned source node, the foreign
/// target port, and the shard owning it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutEdge {
    pub src: NodeId,
    pub target: Target,
    pub dst_shard: ShardId,
}

/// All cut edges leaving `shard`, in deterministic (source id, fanout
/// order) order. The engine walks this list to emit lookahead nulls.
pub fn outgoing_cut_edges(circuit: &Circuit, partition: &Partition, shard: ShardId) -> Vec<CutEdge> {
    let mut edges = Vec::new();
    for id in partition.nodes_of(shard) {
        for &target in &circuit.node(id).fanout {
            let dst_shard = partition.shard_of(target.node);
            if dst_shard != shard {
                edges.push(CutEdge {
                    src: id,
                    target,
                    dst_shard,
                });
            }
        }
    }
    edges
}

/// All cut edges *entering* `shard`, as `(source shard, local target
/// port)` pairs in deterministic (source node id, fanout order) order —
/// the mirror of [`outgoing_cut_edges`]. The engine scans this list
/// when idle to attribute a blocked-on-NULL wait to the upstream shard
/// whose channel clock is holding it back.
pub fn incoming_cut_edges(
    circuit: &Circuit,
    partition: &Partition,
    shard: ShardId,
) -> Vec<(ShardId, Target)> {
    let mut edges = Vec::new();
    for ix in 0..circuit.num_nodes() {
        let id = NodeId(ix as u32);
        let src_shard = partition.shard_of(id);
        if src_shard == shard {
            continue;
        }
        for &target in &circuit.node(id).fanout {
            if partition.shard_of(target.node) == shard {
                edges.push((src_shard, target));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use circuit::generators::{c17, kogge_stone_adder};

    #[test]
    fn fabric_routes_between_shards_in_fifo_order() {
        let (mut eps, probes) = endpoints(3, 8);
        let target = Target {
            node: NodeId(4),
            port: 1,
        };
        let e2 = eps.pop().unwrap();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        for t in [5, 7, 7, 9] {
            e0.txs[2]
                .try_send(ShardMsg::Event {
                    target,
                    time: t,
                    value: Logic::One,
                })
                .unwrap();
        }
        e1.txs[2]
            .try_send(ShardMsg::Null {
                target,
                time: NULL_TS,
            })
            .unwrap();
        assert_eq!(probes[2].len(), 5);
        let times: Vec<Timestamp> = (0..4)
            .map(|_| match e2.rx.try_recv().unwrap() {
                ShardMsg::Event { time, .. } => time,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(times, vec![5, 7, 7, 9]);
        assert!(matches!(
            e2.rx.try_recv(),
            Ok(ShardMsg::Null { time: NULL_TS, .. })
        ));
        assert_eq!(probes[0].len(), 0);
    }

    #[test]
    fn capacity_exerts_backpressure() {
        let (eps, _probes) = endpoints(2, 2);
        let target = Target {
            node: NodeId(0),
            port: 0,
        };
        let msg = ShardMsg::Null { target, time: 3 };
        eps[0].txs[1].try_send(msg).unwrap();
        eps[0].txs[1].try_send(msg).unwrap();
        assert!(eps[0].txs[1].try_send(msg).is_err());
    }

    #[test]
    fn the_owner_written_depth_has_a_line_of_its_own() {
        use std::mem::{align_of, offset_of, size_of};
        type I = Inbox<u64>;
        assert!(align_of::<I>() >= 128, "neighbouring inboxes share a line");
        let taken = offset_of!(I, taken);
        assert!(size_of::<OwnLine<AtomicUsize>>() >= 128);
        for (field, at) in [
            ("alive", offset_of!(I, alive)),
            ("senders", offset_of!(I, senders)),
            ("published", offset_of!(I, published)),
        ] {
            assert!(
                at.abs_diff(taken) >= 64,
                "{field} at {at} is within a line of taken at {taken}"
            );
            assert_ne!(
                at / 128,
                taken / 128,
                "{field} shares taken's 128-byte line"
            );
        }
    }

    #[test]
    fn cut_edges_partition_the_cut() {
        for k in [2, 4] {
            let c = kogge_stone_adder(16);
            let p = Partition::build(&c, k, PartitionStrategy::GreedyCut);
            let total: usize = (0..k)
                .map(|s| outgoing_cut_edges(&c, &p, s).len())
                .sum();
            assert_eq!(total, p.metrics(&c).cut_edges);
            for s in 0..k {
                for e in outgoing_cut_edges(&c, &p, s) {
                    assert_eq!(p.shard_of(e.src), s);
                    assert_ne!(p.shard_of(e.target.node), s);
                }
            }
        }
    }

    #[test]
    fn single_shard_has_no_cut_edges() {
        let c = c17();
        let p = Partition::build(&c, 1, PartitionStrategy::RoundRobin);
        assert!(outgoing_cut_edges(&c, &p, 0).is_empty());
        assert!(incoming_cut_edges(&c, &p, 0).is_empty());
    }

    #[test]
    fn incoming_cut_edges_mirror_outgoing() {
        let c = kogge_stone_adder(16);
        let k = 4;
        let p = Partition::build(&c, k, PartitionStrategy::GreedyCut);
        let mut out: Vec<(ShardId, ShardId, Target)> = Vec::new();
        for s in 0..k {
            for e in outgoing_cut_edges(&c, &p, s) {
                out.push((s, e.dst_shard, e.target));
            }
        }
        let mut inc: Vec<(ShardId, ShardId, Target)> = Vec::new();
        for s in 0..k {
            for (src, target) in incoming_cut_edges(&c, &p, s) {
                assert_ne!(src, s);
                assert_eq!(p.shard_of(target.node), s);
                inc.push((src, s, target));
            }
        }
        out.sort_by_key(|&(a, b, t)| (a, b, t.node.index(), t.port));
        inc.sort_by_key(|&(a, b, t)| (a, b, t.node.index(), t.port));
        assert_eq!(out, inc, "every outgoing cut edge is someone's incoming");
    }
}
