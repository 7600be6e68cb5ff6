//! Lock-free fixed-capacity trace ring buffers.
//!
//! Each traced thread owns one [`TraceRing`]: a circular array of
//! fixed-size [`TraceRecord`]s written with relaxed atomic stores and a
//! single monotonically increasing head counter. Pushing never
//! allocates, never locks, and never blocks — once the ring is full the
//! oldest records are overwritten, so a ring always holds the *last*
//! `capacity` records, which is exactly what a stall snapshot or a
//! post-run trace export wants.
//!
//! Readers ([`TraceRing::snapshot`]) are expected to run at quiesce
//! points (after the run, or from the watchdog while workers are
//! wedged). A snapshot raced against a writer can observe a *torn*
//! record — fields from two different pushes — which is acceptable for
//! diagnostics and kept well-defined (no UB) by storing every field as
//! a relaxed atomic rather than through an `UnsafeCell`.
//!
//! The ring is multi-producer capable (the head is claimed with a
//! `fetch_add`): most engines give each worker thread its own ring, but
//! the task-pool engines (`hj`), whose tasks migrate between pool
//! threads, share one ring across workers.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a trace record describes. Kept in sync with the engines'
/// instrumentation points; exporters render [`SpanKind::label`].
///
/// Codes 10 and 14 are retired and must not be reused: sampled trace
/// records and fleet blobs carry the raw byte, so an old trace would
/// decode them as whatever kind took the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A payload event was delivered to a port (`a` = node, `b` = time).
    EventDeliver = 0,
    /// A node body ran (`a` = node or batch id, `b` = events processed).
    NodeRun = 1,
    /// First `try_lock_all` attempt for a node (`a` = node).
    TrylockAttempt = 2,
    /// A bounded-retry `try_lock_all` re-attempt (`a` = node, `b` = attempt).
    TrylockRetry = 3,
    /// A backoff wait between lock retries (`a` = node).
    Backoff = 4,
    /// A NULL message was sent (`a` = destination shard/node, `b` = time).
    NullSend = 5,
    /// A NULL message was received (`a` = source shard, `b` = time).
    NullRecv = 6,
    /// A cross-shard send blocked on a full mailbox (`a` = dst shard).
    MailboxStall = 7,
    /// A rebalance epoch barrier (`a` = epoch).
    RebalanceBarrier = 8,
    /// A node migrated between shards (`a` = node, `b` = dst shard).
    Migration = 9,
    /// The transport flushed a batch frame (`a` = peer, `b` = bytes).
    NetFlush = 11,
    /// One replication run of a scenario sweep (`a` = task id, `b` =
    /// worker id). Emitted as a Begin on the submitting thread when the
    /// task is enqueued and an End on whichever worker finished it, so
    /// pairing the two ([`crate::span::pair_spans`]) yields the
    /// cross-thread queue+execute latency per run.
    RunExec = 12,
    /// One wire frame crossing a rank boundary (`a` = globally unique
    /// frame id `src_process << 32 | seq`, `b` = message count).
    /// Emitted as a Begin on the sending rank when the frame is framed
    /// and an End on the receiving rank when it is decoded, so pairing
    /// the two over an offset-corrected fleet merge
    /// ([`crate::fleet`]) yields cross-rank wire latency spans.
    WireSpan = 13,
}

impl SpanKind {
    /// Stable human-readable name used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::EventDeliver => "event_deliver",
            SpanKind::NodeRun => "node_run",
            SpanKind::TrylockAttempt => "trylock_attempt",
            SpanKind::TrylockRetry => "trylock_retry",
            SpanKind::Backoff => "backoff",
            SpanKind::NullSend => "null_send",
            SpanKind::NullRecv => "null_recv",
            SpanKind::MailboxStall => "mailbox_stall",
            SpanKind::RebalanceBarrier => "rebalance_barrier",
            SpanKind::Migration => "migration",
            SpanKind::NetFlush => "net_flush",
            SpanKind::RunExec => "run_exec",
            SpanKind::WireSpan => "wire_span",
        }
    }

    /// Inverse of `kind as u8`; `None` for bytes from a torn record.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::EventDeliver,
            1 => SpanKind::NodeRun,
            2 => SpanKind::TrylockAttempt,
            3 => SpanKind::TrylockRetry,
            4 => SpanKind::Backoff,
            5 => SpanKind::NullSend,
            6 => SpanKind::NullRecv,
            7 => SpanKind::MailboxStall,
            8 => SpanKind::RebalanceBarrier,
            9 => SpanKind::Migration,
            11 => SpanKind::NetFlush,
            12 => SpanKind::RunExec,
            13 => SpanKind::WireSpan,
            _ => return None,
        })
    }
}

/// Span phase: a point event, one end of a duration span, or a whole
/// span in one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Phase {
    /// A point-in-time marker.
    #[default]
    Instant = 0,
    /// Duration span opens.
    Begin = 1,
    /// Duration span closes.
    End = 2,
    /// A complete span: `ts_ns` is the start, `dur_ns` the duration.
    /// One record per span means an overwrite-oldest ring can never
    /// orphan a begin from its end, so exported spans always carry their
    /// duration — the property cross-thread critical-path analysis needs.
    Complete = 3,
}

impl Phase {
    /// Inverse of `phase as u8` (defaults torn bytes to `Instant`).
    pub fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Begin,
            2 => Phase::End,
            3 => Phase::Complete,
            _ => Phase::Instant,
        }
    }
}

/// One fixed-size trace record. `ts_ns` is nanoseconds since the
/// recorder's epoch; `a`/`b` carry kind-specific payloads (node ids,
/// shard ids, depths — see [`SpanKind`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the owning recorder was created.
    pub ts_ns: u64,
    /// `SpanKind as u8` (decode with [`SpanKind::from_u8`]).
    pub kind: u8,
    /// `Phase as u8` (decode with [`Phase::from_u8`]).
    pub phase: u8,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Span duration in nanoseconds; meaningful only for
    /// [`Phase::Complete`] records, zero otherwise.
    pub dur_ns: u64,
}

impl TraceRecord {
    /// Decoded kind, `None` if the byte came from a torn read.
    pub fn span_kind(&self) -> Option<SpanKind> {
        SpanKind::from_u8(self.kind)
    }
}

/// One slot of the ring: every field a relaxed atomic so concurrent
/// snapshot reads are defined behavior (torn, but never UB).
#[derive(Default)]
struct Slot {
    ts_ns: AtomicU64,
    /// `kind | phase << 8`, packed so a record costs four stores.
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    dur_ns: AtomicU64,
}

/// Fixed-capacity overwrite-oldest trace ring. See the module docs for
/// the concurrency contract.
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding the last `capacity` records (`capacity >= 1`).
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity >= 1, "trace ring capacity must be >= 1");
        TraceRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of records this ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (not capped by capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Append a record, overwriting the oldest once full. Lock-free and
    /// allocation-free; five relaxed stores plus one `fetch_add`.
    #[inline]
    pub fn push(&self, rec: TraceRecord) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.ts_ns.store(rec.ts_ns, Ordering::Relaxed);
        slot.meta
            .store(rec.kind as u64 | (rec.phase as u64) << 8, Ordering::Relaxed);
        slot.a.store(rec.a, Ordering::Relaxed);
        slot.b.store(rec.b, Ordering::Relaxed);
        slot.dur_ns.store(rec.dur_ns, Ordering::Relaxed);
    }

    /// Copy out the retained records, oldest first. Run this at a
    /// quiesce point; a racing writer can tear individual records.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let n = head.min(cap);
        let mut out = Vec::with_capacity(n as usize);
        for seq in (head - n)..head {
            let slot = &self.slots[(seq % cap) as usize];
            let meta = slot.meta.load(Ordering::Relaxed);
            out.push(TraceRecord {
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                kind: (meta & 0xff) as u8,
                phase: ((meta >> 8) & 0xff) as u8,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            });
        }
        out
    }
}

/// The retained records of one traced thread, captured at a quiesce
/// point — attached to stall snapshots and fed to the Perfetto export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ThreadTraceDump {
    /// Thread name as registered with the recorder (e.g. `"shard-3"`).
    pub thread: String,
    /// Stable per-recorder thread id (Perfetto `tid`).
    pub tid: u32,
    /// Total records the thread ever pushed (wraps are `pushed -
    /// records.len()`).
    pub pushed: u64,
    /// Retained records, oldest first.
    pub records: Vec<TraceRecord>,
}

impl ThreadTraceDump {
    /// The last `n` records, oldest first (for compact stall reports).
    pub fn last(&self, n: usize) -> &[TraceRecord] {
        let start = self.records.len().saturating_sub(n);
        &self.records[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: i,
            kind: SpanKind::NodeRun as u8,
            phase: Phase::Instant as u8,
            a: i * 10,
            b: i * 100,
            dur_ns: 0,
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let ring = TraceRing::new(4);
        assert_eq!(ring.snapshot(), vec![]);
        for i in 0..3 {
            ring.push(rec(i));
        }
        // Below capacity: everything retained in push order.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], rec(0));
        assert_eq!(snap[2], rec(2));

        for i in 3..11 {
            ring.push(rec(i));
        }
        // Wrapped twice: the last 4 pushes survive, oldest first.
        assert_eq!(ring.pushed(), 11);
        let snap = ring.snapshot();
        assert_eq!(snap, vec![rec(7), rec(8), rec(9), rec(10)]);
    }

    #[test]
    fn wraps_exactly_at_capacity_boundary() {
        let ring = TraceRing::new(2);
        ring.push(rec(0));
        ring.push(rec(1));
        assert_eq!(ring.snapshot(), vec![rec(0), rec(1)]);
        ring.push(rec(2)); // overwrites rec(0)
        assert_eq!(ring.snapshot(), vec![rec(1), rec(2)]);
    }

    #[test]
    fn capacity_one_ring_keeps_only_latest() {
        let ring = TraceRing::new(1);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.snapshot(), vec![rec(4)]);
        assert_eq!(ring.pushed(), 5);
    }

    #[test]
    fn kind_round_trips_through_u8() {
        for kind in [
            SpanKind::EventDeliver,
            SpanKind::NodeRun,
            SpanKind::TrylockAttempt,
            SpanKind::TrylockRetry,
            SpanKind::Backoff,
            SpanKind::NullSend,
            SpanKind::NullRecv,
            SpanKind::MailboxStall,
            SpanKind::RebalanceBarrier,
            SpanKind::Migration,
            SpanKind::NetFlush,
            SpanKind::RunExec,
            SpanKind::WireSpan,
        ] {
            assert_eq!(SpanKind::from_u8(kind as u8), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(SpanKind::from_u8(10), None, "retired: Rollback");
        assert_eq!(SpanKind::from_u8(14), None, "retired: NullWait");
        assert_eq!(SpanKind::from_u8(200), None);
    }

    #[test]
    fn dump_last_clamps() {
        let dump = ThreadTraceDump {
            thread: "t".into(),
            tid: 1,
            pushed: 3,
            records: vec![rec(0), rec(1), rec(2)],
        };
        assert_eq!(dump.last(2), &[rec(1), rec(2)]);
        assert_eq!(dump.last(10).len(), 3);
    }
}
