//! Structured failure values for the fallible engine API.

use std::fmt;
use std::time::Duration;

/// Per-worker diagnostic state captured when a stall is detected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerSnapshot {
    /// Worker index.
    pub id: usize,
    /// Free-form state description, e.g. `"parked"` or `"retrying node 12"`.
    pub state: String,
    /// Depth of this worker's local queue, if it has one.
    pub queue_depth: Option<usize>,
    /// Events queued on the ports this worker owns, if it owns any.
    pub queued_events: Option<usize>,
}

/// Per-transport-link diagnostic state captured when a stall is detected
/// (distributed engines only; in-process fabrics report no links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Peer process id this link connects to.
    pub peer: usize,
    /// Messages coalesced in outbound batches, not yet framed.
    pub outbox_msgs: usize,
    /// Bytes queued toward the wire (coalesced + framed, unwritten).
    pub outbox_bytes: usize,
    /// Encoded frames sitting in the writer queue.
    pub inflight_frames: usize,
}

impl fmt::Display for LinkSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link ->{}: outbox {} msgs / {} bytes, {} frames in flight",
            self.peer, self.outbox_msgs, self.outbox_bytes, self.inflight_frames
        )
    }
}

/// Diagnostic snapshot of a run that stopped making progress.
///
/// Captured by the [`Watchdog`](crate::Watchdog) at the moment it trips, so
/// the numbers describe the wedged state, not the state after teardown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallSnapshot {
    /// Engine or kernel that stalled.
    pub engine: String,
    /// Wall-clock time since the last observed progress tick.
    pub stalled_for: Duration,
    /// Value of the progress counter when the watchdog tripped.
    pub progress_ticks: u64,
    /// Per-worker states at the moment of the stall.
    pub workers: Vec<WorkerSnapshot>,
    /// Lock ids still held according to the lock registry.
    pub held_locks: Vec<usize>,
    /// Depths of the shared queues (injector, per-channel, ...).
    pub queue_depths: Vec<usize>,
    /// Per-peer transport link depths (distributed engines only).
    pub links: Vec<LinkSnapshot>,
    /// Number of items in the global workset, if the engine has one.
    pub workset_size: usize,
    /// Anything else the engine wants on the record.
    pub notes: Vec<String>,
    /// Last trace records per registered thread at the moment of the
    /// stall (empty when the run's observability recorder is off).
    pub traces: Vec<obs::ThreadTraceDump>,
    /// Blocked-on-NULL wait totals per (waiting shard, awaited peer
    /// shard), worst first — "who stalled whom" at the moment of the
    /// stall. Empty on engines without NULL-wait accounting.
    pub null_waits: Vec<NullWaitEntry>,
}

/// One cell of the blocked-on-NULL wait matrix: how long `waiter_shard`
/// sat idle attributable to missing clock promises from `peer_shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NullWaitEntry {
    /// Shard that sat waiting.
    pub waiter_shard: usize,
    /// Shard whose NULL promise it was waiting on.
    pub peer_shard: usize,
    /// Total nanoseconds of attributed wait.
    pub wait_ns: u64,
}

impl fmt::Display for NullWaitEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} blocked {:.3} ms on NULLs from shard {}",
            self.waiter_shard,
            self.wait_ns as f64 / 1e6,
            self.peer_shard
        )
    }
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine '{}' made no progress for {:?} (progress_ticks={})",
            self.engine, self.stalled_for, self.progress_ticks
        )?;
        writeln!(
            f,
            "  workset_size={} queue_depths={:?} held_locks={:?}",
            self.workset_size, self.queue_depths, self.held_locks
        )?;
        for w in &self.workers {
            write!(f, "  worker {}: {}", w.id, w.state)?;
            if let Some(d) = w.queue_depth {
                write!(f, " (queue depth {d})")?;
            }
            if let Some(n) = w.queued_events {
                write!(f, " [{n} queued]")?;
            }
            writeln!(f)?;
        }
        for link in &self.links {
            writeln!(f, "  {link}")?;
        }
        for wait in &self.null_waits {
            writeln!(f, "  {wait}")?;
        }
        if let Some(top) = self.null_waits.first() {
            writeln!(
                f,
                "  => straggler: shard {} (stalled shard {} longest)",
                top.peer_shard, top.waiter_shard
            )?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        for dump in &self.traces {
            write!(
                f,
                "  trace {} ({} records, {} pushed):",
                dump.thread,
                dump.records.len(),
                dump.pushed
            )?;
            // The last few records are what explain a wedge; the full
            // dump stays available on the snapshot value itself.
            for rec in dump.last(4) {
                let kind = rec
                    .span_kind()
                    .map(|k| k.label())
                    .unwrap_or("torn_record");
                write!(f, " {kind}(a={},b={})@{}ns", rec.a, rec.b, rec.ts_ns)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Which side of a transport link a failure was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// Failure reading from the peer (its writer died or the socket EOF'd).
    Inbound,
    /// Failure writing toward the peer (its reader died or the send stalled).
    Outbound,
}

impl fmt::Display for LinkDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkDirection::Inbound => write!(f, "inbound"),
            LinkDirection::Outbound => write!(f, "outbound"),
        }
    }
}

/// Structured error returned by `Engine::try_run` and `model::try_run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A simulation task panicked. The engine caught the panic at the task
    /// boundary, drained the run, and released all locks before returning.
    TaskPanicked {
        /// Node the task was simulating, when the engine knows it.
        node: Option<usize>,
        /// Stringified panic payload.
        payload: String,
    },
    /// The run stopped making progress and the watchdog aborted it.
    NoProgress {
        /// Diagnostics captured at the moment the watchdog tripped.
        snapshot: Box<StallSnapshot>,
    },
    /// An internal invariant did not hold (e.g. a queue's head mirror said
    /// non-empty but the queue was empty).
    InvariantViolation {
        /// Where and what: enough to locate the broken invariant.
        context: String,
    },
    /// A transport link failed: a peer process disconnected mid-run, a
    /// wire frame failed to decode, or the termination handshake timed
    /// out. Distributed engines return this instead of hanging.
    Transport {
        /// Peer process id, when the failure is attributable to one.
        peer: Option<usize>,
        /// Which side of the link observed the failure, when known.
        direction: Option<LinkDirection>,
        /// Last barrier epoch this rank had completed when the link died
        /// (`None` when the failure predates the first epoch, or the
        /// engine has no epoch machinery running).
        epoch: Option<u64>,
        /// What happened on the link.
        context: String,
    },
}

impl SimError {
    /// Convenience constructor used at former `expect(...)` sites.
    pub fn invariant(context: impl Into<String>) -> Self {
        SimError::InvariantViolation {
            context: context.into(),
        }
    }

    /// Convenience constructor for transport failures with no link
    /// attribution (setup-time errors, listener binds, handshake I/O).
    pub fn transport(peer: Option<usize>, context: impl Into<String>) -> Self {
        SimError::Transport {
            peer,
            direction: None,
            epoch: None,
            context: context.into(),
        }
    }

    /// Turn a payload from `catch_unwind` into a `TaskPanicked` error.
    pub fn from_panic(node: Option<usize>, payload: &(dyn std::any::Any + Send)) -> Self {
        let text = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        SimError::TaskPanicked {
            node,
            payload: text,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TaskPanicked { node, payload } => match node {
                Some(n) => write!(f, "simulation task for node {n} panicked: {payload}"),
                None => write!(f, "simulation task panicked: {payload}"),
            },
            SimError::NoProgress { snapshot } => {
                write!(f, "no progress: {snapshot}")
            }
            SimError::InvariantViolation { context } => {
                write!(f, "invariant violation: {context}")
            }
            SimError::Transport {
                peer,
                direction,
                epoch,
                context,
            } => {
                write!(f, "transport failure")?;
                if let Some(p) = peer {
                    write!(f, " (peer {p}")?;
                    if let Some(d) = direction {
                        write!(f, ", {d}")?;
                    }
                    if let Some(e) = epoch {
                        write!(f, ", last epoch {e}")?;
                    }
                    write!(f, ")")?;
                }
                write!(f, ": {context}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::TaskPanicked {
            node: Some(7),
            payload: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("node 7") && s.contains("boom"), "{s}");

        let e = SimError::invariant("hj.pump: head mirror desync at node 3");
        assert!(e.to_string().contains("head mirror desync"), "{e}");
    }

    #[test]
    fn transport_display_carries_link_context() {
        let e = SimError::Transport {
            peer: Some(2),
            direction: Some(LinkDirection::Inbound),
            epoch: Some(7),
            context: "peer closed connection mid-run".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("peer 2") && s.contains("inbound") && s.contains("last epoch 7"),
            "{s}"
        );
        // The no-attribution constructor still renders cleanly.
        let s = SimError::transport(None, "listener bind failed").to_string();
        assert!(s.contains("transport failure: listener bind failed"), "{s}");
    }

    #[test]
    fn from_panic_extracts_str_and_string() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static boom");
        match SimError::from_panic(None, p.as_ref()) {
            SimError::TaskPanicked { payload, .. } => assert_eq!(payload, "static boom"),
            other => panic!("wrong variant: {other:?}"),
        }
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned boom"));
        match SimError::from_panic(Some(1), p.as_ref()) {
            SimError::TaskPanicked { node, payload } => {
                assert_eq!(node, Some(1));
                assert_eq!(payload, "owned boom");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn stall_snapshot_display_lists_workers() {
        let snap = StallSnapshot {
            engine: "hj".into(),
            stalled_for: Duration::from_millis(250),
            progress_ticks: 42,
            workers: vec![WorkerSnapshot {
                id: 0,
                state: "parked".into(),
                queue_depth: Some(3),
                queued_events: Some(17),
            }],
            held_locks: vec![5],
            queue_depths: vec![1, 0],
            links: vec![LinkSnapshot {
                peer: 1,
                outbox_msgs: 2,
                outbox_bytes: 64,
                inflight_frames: 1,
            }],
            workset_size: 4,
            notes: vec!["wedge injected".into()],
            traces: vec![obs::ThreadTraceDump {
                thread: "shard-0".into(),
                tid: 1,
                pushed: 9,
                records: vec![obs::TraceRecord {
                    ts_ns: 1234,
                    kind: obs::SpanKind::MailboxStall as u8,
                    phase: obs::Phase::Instant as u8,
                    a: 2,
                    b: 0,
                    dur_ns: 0,
                }],
            }],
            null_waits: vec![NullWaitEntry {
                waiter_shard: 0,
                peer_shard: 1,
                wait_ns: 2_500_000,
            }],
        };
        let text = snap.to_string();
        assert!(text.contains("hj") && text.contains("parked") && text.contains("wedge"));
        assert!(text.contains("[17 queued]"), "{text}");
        assert!(text.contains("link ->1") && text.contains("64 bytes"), "{text}");
        assert!(
            text.contains("trace shard-0") && text.contains("mailbox_stall(a=2,b=0)@1234ns"),
            "{text}"
        );
        assert!(
            text.contains("shard 0 blocked 2.500 ms on NULLs from shard 1")
                && text.contains("=> straggler: shard 1"),
            "{text}"
        );
    }
}
