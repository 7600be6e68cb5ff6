//! Which thread runs which shard: the one spawn/join discipline every
//! sharded engine uses (`sharded`, each `tcp-sharded`/`des-node` rank,
//! and `model-sharded`).
//!
//! [`ShardThreads::run`] is the HJlib `finish` around K `async`s, with
//! the parent doing the last piece of work itself instead of spawning a
//! redundant task (paper §4.5(c)): shards 0 to K−2 each get a scoped
//! thread and the calling thread runs shard K−1. The caller's heap is
//! already warm, so that shard allocates from memory the process keeps
//! rather than from a fresh thread arena the allocator hands back to the
//! OS after every run, and one spawn/join per run goes away.
//!
//! The OS places every shard thread, as HJlib's runtime places its
//! `async` tasks: nothing here binds a thread to a core. A panic in any
//! shard is contained at the shard boundary and recorded as
//! [`SimError::TaskPanicked`] in the run's [`RunCtl`], and the per-shard
//! done/queued-events state the threads publish feeds one watchdog stall
//! snapshot ([`ShardThreads::watch`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fault::{FaultPlan, RunCtl, SimError, StallSnapshot, Watchdog, WorkerSnapshot};
use obs::Recorder;

use crate::engine::config::EngineConfig;

/// The threads of one run's shards: what each has published for the
/// watchdog.
pub struct ShardThreads {
    slots: Vec<ShardSlot>,
}

/// What one shard thread publishes lock-free for the watchdog's stall
/// snapshot.
pub(crate) struct ShardSlot {
    done: AtomicBool,
    /// `usize::MAX` until the shard first records its queue.
    queued_events: AtomicUsize,
}

impl ShardSlot {
    fn new() -> Self {
        ShardSlot {
            done: AtomicBool::new(false),
            queued_events: AtomicUsize::new(usize::MAX),
        }
    }

    /// Publish how many events are queued on the shard's ports now.
    pub(crate) fn record_queued(&self, events: usize) {
        self.queued_events.store(events, Ordering::Relaxed);
    }

    fn queued(&self) -> Option<usize> {
        match self.queued_events.load(Ordering::Relaxed) {
            usize::MAX => None,
            v => Some(v),
        }
    }
}

impl ShardThreads {
    /// Threads for `shards` shards.
    pub fn new(shards: usize) -> Arc<ShardThreads> {
        Arc::new(ShardThreads {
            slots: (0..shards).map(|_| ShardSlot::new()).collect(),
        })
    }

    /// Shard `i`'s published state (`i` in run order).
    pub(crate) fn slot(&self, i: usize) -> &ShardSlot {
        &self.slots[i]
    }

    /// True once every shard's closure has returned or unwound.
    pub(crate) fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.done.load(Ordering::Acquire))
    }

    /// Run `shard` once per item, item `i` as shard `i`: items 0 to K−2
    /// on scoped threads, the last on the calling thread. Returns the
    /// results in item order once every shard has finished.
    ///
    /// Errors take precedence in the order they were recorded in `ctl`
    /// (the first wins): a shard's panic, a shard's own failure, or the
    /// watchdog's. The harness never arms or disarms a watchdog; callers
    /// that keep theirs armed past the run (a distributed rank's
    /// termination waits) just hold on to it.
    pub fn run<I, R>(
        &self,
        ctl: &RunCtl,
        mut items: Vec<I>,
        shard: impl Fn(I) -> R + Sync,
    ) -> Result<Vec<R>, SimError>
    where
        I: Send,
        R: Send,
    {
        assert_eq!(items.len(), self.slots.len(), "one item per shard");
        let run_one = |i: usize, item: I| {
            // Contained at the shard boundary: an unwind drops whatever
            // the shard owned (peers observe its endpoint disconnect and
            // retire), and the scope joins every thread before we return.
            let result = catch_unwind(AssertUnwindSafe(|| shard(item)));
            self.slots[i].done.store(true, Ordering::Release);
            result
                .map_err(|payload| ctl.record_error(SimError::from_panic(None, payload.as_ref())))
                .ok()
        };
        let last = items.pop().expect("at least one shard");
        let outcomes: Vec<Option<R>> = std::thread::scope(|scope| {
            let run_one = &run_one;
            let handles: Vec<_> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| scope.spawn(move || run_one(i, item)))
                .collect();
            let own = run_one(handles.len(), last);
            let mut outcomes: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or(None))
                .collect();
            outcomes.push(own);
            outcomes
        });
        if let Some(err) = ctl.take_error() {
            return Err(err);
        }
        outcomes.into_iter().collect::<Option<_>>().ok_or_else(|| {
            SimError::invariant("a shard produced no outcome without recording an error")
        })
    }

    /// Arm `cfg`'s no-progress watchdog (if any) over `ctl`. On a stall
    /// it captures each shard's running/done state and queued events,
    /// with `fabric` filling in what only the engine's transport knows:
    /// inbox depths (counted in messages), per-peer links, wait
    /// attribution, notes.
    pub fn watch(
        self: &Arc<Self>,
        engine: &str,
        ctl: &Arc<RunCtl>,
        cfg: &EngineConfig,
        fabric: impl Fn(&mut StallSnapshot) + Send + 'static,
    ) -> Option<Watchdog> {
        let deadline = cfg.watchdog()?;
        let threads = Arc::clone(self);
        let engine = engine.to_string();
        let fault = Arc::clone(cfg.fault());
        let recorder = cfg.recorder();
        Some(Watchdog::arm(
            Arc::clone(ctl),
            deadline,
            move |stalled_for, ticks| {
                threads.stall_snapshot(&engine, &fault, &recorder, stalled_for, ticks, &fabric)
            },
        ))
    }

    /// The watchdog's diagnostic snapshot: per-shard running/done state
    /// and queued events beside whatever `fabric` reports,
    /// all read without touching simulation state.
    pub(crate) fn stall_snapshot(
        &self,
        engine: &str,
        fault: &FaultPlan,
        recorder: &Recorder,
        stalled_for: Duration,
        ticks: u64,
        fabric: &dyn Fn(&mut StallSnapshot),
    ) -> StallSnapshot {
        let mut snap = StallSnapshot {
            engine: engine.to_string(),
            stalled_for,
            progress_ticks: ticks,
            traces: recorder.recent_traces(16),
            ..StallSnapshot::default()
        };
        fabric(&mut snap);
        snap.workset_size = snap.queue_depths.iter().sum();
        snap.workers = self
            .slots
            .iter()
            .enumerate()
            .map(|(id, s)| WorkerSnapshot {
                id,
                state: if s.done.load(Ordering::Acquire) {
                    "done"
                } else {
                    "running"
                }
                .into(),
                queue_depth: snap.queue_depths.get(id).copied(),
                queued_events: s.queued(),
            })
            .collect();
        if fault.is_active() {
            snap.notes
                .push(format!("fault injection active: {:?}", fault.injected()));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn the_last_shard_runs_on_the_calling_thread() {
        for k in [1usize, 2, 4] {
            let threads = ShardThreads::new(k);
            let ids: Vec<ThreadId> = threads
                .run(&RunCtl::new(), (0..k).collect(), |_| {
                    std::thread::current().id()
                })
                .unwrap();
            let me = std::thread::current().id();
            assert_eq!(ids[k - 1], me, "k={k}");
            assert!(ids[..k - 1].iter().all(|&id| id != me), "k={k}");
            assert!(threads.all_done());
        }
    }

    #[test]
    fn a_panic_in_the_first_or_last_shard_is_recorded_while_the_rest_finish() {
        for bad in [0usize, 3] {
            let threads = ShardThreads::new(4);
            let ctl = RunCtl::new();
            let finished = AtomicU64::new(0);
            let err = threads
                .run(&ctl, (0..4).collect(), |i: usize| {
                    if i == bad {
                        panic!("shard {i} blew up");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
                .expect_err("the panic must fail the run");
            match err {
                SimError::TaskPanicked {
                    node: None,
                    payload,
                } => {
                    assert!(payload.contains(&format!("shard {bad}")), "{payload}")
                }
                other => panic!("bad={bad}: expected TaskPanicked, got {other:?}"),
            }
            assert_eq!(finished.load(Ordering::Relaxed), 3, "bad={bad}");
            assert!(threads.all_done(), "bad={bad}");
        }
    }

    #[test]
    fn snapshot_reports_each_shard_beside_the_fabric() {
        let threads = ShardThreads::new(2);
        threads.slots[0].done.store(true, Ordering::Release);
        threads.slot(1).record_queued(5);
        let snap = threads.stall_snapshot(
            "test",
            &FaultPlan::seeded(1).wedged(),
            Recorder::noop(),
            Duration::from_millis(10),
            3,
            &|snap| {
                snap.queue_depths = vec![2, 7];
                snap.notes.push("fabric note".into());
            },
        );
        assert_eq!(snap.workset_size, 9);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].state, "done");
        assert_eq!(snap.workers[1].state, "running");
        assert_eq!(snap.workers[1].queue_depth, Some(7));
        assert_eq!(snap.workers[1].queued_events, Some(5));
        assert_eq!(snap.workers[0].queued_events, None);
        assert_eq!(snap.notes[0], "fabric note");
        assert!(
            snap.notes[1].contains("fault injection"),
            "{:?}",
            snap.notes
        );
    }
}
