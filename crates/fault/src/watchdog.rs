//! No-progress watchdog: one monitor thread per process watches every
//! armed run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use crate::{RunCtl, SimError, StallSnapshot};

type SnapshotFn = Box<dyn Fn(Duration, u64) -> StallSnapshot + Send>;

/// Aborts a run (via cooperative cancellation) when the shared progress
/// counter stops advancing for longer than `deadline`.
///
/// Every armed `Watchdog` is an entry in one process-wide monitor: the
/// first [`arm`](Watchdog::arm) starts its thread (`sim-watchdog`), which
/// never exits. Arming costs one lock and one push, disarming one lock
/// and one removal; no thread is spawned or joined per run.
///
/// The watchdog never kills threads: on a stall it captures a
/// [`StallSnapshot`] through the engine-supplied closure, records
/// [`SimError::NoProgress`] in the [`RunCtl`], and sets the cancellation
/// flag. Worker loops observe the flag at their retry/reschedule points
/// and retire, so the engine's quiescence protocol still runs and every
/// lock is released through the normal RAII paths. A snapshot closure
/// that panics is contained: the run still gets `NoProgress` (with the
/// panic message in `notes`) and the monitor keeps serving.
pub struct Watchdog {
    id: u64,
}

struct Entry {
    id: u64,
    ctl: Arc<RunCtl>,
    deadline: Duration,
    poll: Duration,
    last_progress: u64,
    last_change: Instant,
    next_check: Instant,
    snapshot: SnapshotFn,
}

struct State {
    entries: Vec<Entry>,
    next_id: u64,
    /// When the monitor wakes next by itself; `None` while it waits
    /// untimed or has not started waiting.
    wake_at: Option<Instant>,
    /// The run whose snapshot is being taken (with the lock released).
    tripping: Option<u64>,
}

struct Monitor {
    state: Mutex<State>,
    /// Wakes the monitor for an entry due before `wake_at`.
    wake: Condvar,
    /// Wakes a disarm that waits for its run's trip to finish.
    tripped: Condvar,
}

static MONITOR: Monitor = Monitor {
    state: Mutex::new(State {
        entries: Vec::new(),
        next_id: 0,
        wake_at: None,
        tripping: None,
    }),
    wake: Condvar::new(),
    tripped: Condvar::new(),
};

impl Monitor {
    /// Start the monitor's thread unless it is already running.
    fn start() {
        static STARTED: Once = Once::new();
        STARTED.call_once(|| {
            std::thread::Builder::new()
                .name("sim-watchdog".into())
                .spawn(|| MONITOR.serve())
                .expect("spawn watchdog thread");
        });
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn serve(&self) -> ! {
        let mut st = self.lock();
        loop {
            let now = Instant::now();
            let mut stalled = None;
            for (i, e) in st.entries.iter_mut().enumerate() {
                if e.next_check > now {
                    continue;
                }
                e.next_check = now + e.poll;
                let progress = e.ctl.progress();
                if progress != e.last_progress {
                    e.last_progress = progress;
                    e.last_change = now;
                } else if now - e.last_change >= e.deadline {
                    stalled = Some(i);
                    break;
                }
            }
            if let Some(i) = stalled {
                let e = st.entries.swap_remove(i);
                st.tripping = Some(e.id);
                drop(st);
                trip(e, now);
                st = self.lock();
                st.tripping = None;
                self.tripped.notify_all();
                continue;
            }
            match st.entries.iter().map(|e| e.next_check).min() {
                None => {
                    st.wake_at = None;
                    st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(next) => {
                    st.wake_at = Some(next);
                    let timeout = next.saturating_duration_since(now);
                    st = self
                        .wake
                        .wait_timeout(st, timeout)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }
}

/// Take `e`'s snapshot on the monitor thread, record `NoProgress` and
/// cancel the run. A panicking snapshot still cancels the run.
fn trip(e: Entry, now: Instant) {
    let stalled_for = now - e.last_change;
    let ticks = e.last_progress;
    let snap = catch_unwind(AssertUnwindSafe(|| (e.snapshot)(stalled_for, ticks))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            StallSnapshot {
                stalled_for,
                progress_ticks: ticks,
                notes: vec![format!("stall snapshot panicked: {msg}")],
                ..StallSnapshot::default()
            }
        },
    );
    e.ctl.record_error(SimError::NoProgress {
        snapshot: Box::new(snap),
    });
}

impl Watchdog {
    /// Arm a watchdog over `ctl`. `snapshot` runs on the watchdog thread
    /// exactly once, at the moment the stall is detected; it must only
    /// read shared state (atomics, lock registry counters), never block
    /// on simulation locks.
    pub fn arm(
        ctl: Arc<RunCtl>,
        deadline: Duration,
        snapshot: impl Fn(Duration, u64) -> StallSnapshot + Send + 'static,
    ) -> Watchdog {
        // Poll often enough to detect the stall well inside `deadline`
        // but rarely enough to stay invisible in profiles.
        let poll = (deadline / 10).clamp(Duration::from_millis(1), Duration::from_millis(50));
        Monitor::start();
        let now = Instant::now();
        let next_check = now + poll;
        let mut st = MONITOR.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.entries.push(Entry {
            id,
            last_progress: ctl.progress(),
            ctl,
            deadline,
            poll,
            last_change: now,
            next_check,
            snapshot: Box::new(snapshot),
        });
        // A monitor that will wake before this entry's first check
        // picks it up then; back-to-back runs send no wake-up at all.
        if st.wake_at.is_none_or(|at| next_check < at) {
            MONITOR.wake.notify_one();
        }
        Watchdog { id }
    }

    /// Stop watching the run. Call after the run drains, whether it
    /// succeeded or was cancelled; dropping the `Watchdog` does the same.
    pub fn disarm(self) {}
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let mut st = MONITOR.lock();
        if let Some(i) = st.entries.iter().position(|e| e.id == self.id) {
            let e = st.entries.swap_remove(i);
            // The snapshot closure may hold the run's last references;
            // free them outside the lock.
            drop(st);
            drop(e);
            return;
        }
        // Not an entry any more: it tripped, or is tripping right now.
        // Return only once its `NoProgress` is recorded.
        while st.tripping == Some(self.id) {
            st = MONITOR.tripped.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_snapshot(stalled_for: Duration, ticks: u64) -> StallSnapshot {
        StallSnapshot {
            engine: "test".into(),
            stalled_for,
            progress_ticks: ticks,
            ..StallSnapshot::default()
        }
    }

    /// Wait up to `limit` for `ctl` to be cancelled; true if it was.
    fn cancelled_within(ctl: &RunCtl, limit: Duration) -> bool {
        let start = Instant::now();
        while !ctl.is_cancelled() && start.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(2));
        }
        ctl.is_cancelled()
    }

    #[test]
    fn trips_on_stall_and_captures_snapshot() {
        let ctl = Arc::new(RunCtl::new());
        ctl.tick_n(10);
        let dog = Watchdog::arm(Arc::clone(&ctl), Duration::from_millis(30), test_snapshot);
        // No ticks from here on: the dog must trip well within a second.
        assert!(
            cancelled_within(&ctl, Duration::from_secs(5)),
            "watchdog never tripped"
        );
        match ctl.take_error() {
            Some(SimError::NoProgress { snapshot }) => {
                assert_eq!(snapshot.engine, "test");
                assert_eq!(snapshot.progress_ticks, 10);
                assert!(snapshot.stalled_for >= Duration::from_millis(30));
            }
            other => panic!("unexpected: {other:?}"),
        }
        dog.disarm();
    }

    #[test]
    fn does_not_trip_while_progress_flows() {
        let ctl = Arc::new(RunCtl::new());
        let dog = Watchdog::arm(Arc::clone(&ctl), Duration::from_millis(40), test_snapshot);
        for _ in 0..20 {
            ctl.tick();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!ctl.is_cancelled(), "watchdog tripped despite progress");
        dog.disarm();
        assert!(ctl.take_error().is_none());
    }

    #[test]
    fn disarm_before_deadline_is_clean() {
        let ctl = Arc::new(RunCtl::new());
        let dog = Watchdog::arm(Arc::clone(&ctl), Duration::from_secs(60), |_, _| {
            StallSnapshot::default()
        });
        dog.disarm();
        assert!(!ctl.is_cancelled());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_thread_serves_every_armed_run() {
        let dogs: Vec<_> = (0..8)
            .map(|_| {
                let ctl = Arc::new(RunCtl::new());
                Watchdog::arm(ctl, Duration::from_secs(60), |_, _| {
                    StallSnapshot::default()
                })
            })
            .collect();
        let watchdogs = std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "sim-watchdog")
            .count();
        assert_eq!(watchdogs, 1, "expected one monitor thread for 8 armed runs");
        drop(dogs);
    }

    #[test]
    fn a_stalled_run_trips_beside_runs_that_progress() {
        let ticking = Arc::new(RunCtl::new());
        let stalled = Arc::new(RunCtl::new());
        let dog_ticking = Watchdog::arm(
            Arc::clone(&ticking),
            Duration::from_millis(40),
            test_snapshot,
        );
        let dog_stalled = Watchdog::arm(
            Arc::clone(&stalled),
            Duration::from_millis(80),
            test_snapshot,
        );
        let start = Instant::now();
        while !stalled.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            ticking.tick();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(stalled.is_cancelled(), "the stalled run never tripped");
        assert!(matches!(
            stalled.take_error(),
            Some(SimError::NoProgress { .. })
        ));
        assert!(!ticking.is_cancelled(), "the ticking run tripped");
        dog_ticking.disarm();
        dog_stalled.disarm();
        assert!(ticking.take_error().is_none());
    }

    /// A short-deadline run armed beside a long one is checked at its own
    /// poll interval, not the long run's.
    #[test]
    fn a_short_deadline_armed_after_a_long_one_trips_on_time() {
        let long = Arc::new(RunCtl::new());
        let short = Arc::new(RunCtl::new());
        let dog_long = Watchdog::arm(Arc::clone(&long), Duration::from_secs(60), test_snapshot);
        let dog_short = Watchdog::arm(Arc::clone(&short), Duration::from_millis(30), test_snapshot);
        assert!(
            cancelled_within(&short, Duration::from_secs(1)),
            "the 30 ms run did not trip within 1 s"
        );
        assert!(!long.is_cancelled());
        dog_short.disarm();
        dog_long.disarm();
    }

    /// An `arm` that finds the monitor in its untimed wait must wake it,
    /// or the run is never checked.
    #[test]
    fn a_run_armed_on_an_idle_monitor_trips() {
        // Leave the monitor with no entry, so it settles into its untimed
        // wait unless another test has a run armed.
        drop(Watchdog::arm(
            Arc::new(RunCtl::new()),
            Duration::from_millis(1),
            |_, _| StallSnapshot::default(),
        ));
        std::thread::sleep(Duration::from_millis(20));
        let ctl = Arc::new(RunCtl::new());
        let dog = Watchdog::arm(Arc::clone(&ctl), Duration::from_millis(30), test_snapshot);
        assert!(
            cancelled_within(&ctl, Duration::from_secs(1)),
            "a run armed on an idle monitor did not trip within 1 s"
        );
        dog.disarm();
    }

    #[test]
    fn a_panicking_snapshot_still_trips_and_the_monitor_survives() {
        let first = Arc::new(RunCtl::new());
        let dog = Watchdog::arm(Arc::clone(&first), Duration::from_millis(30), |_, _| {
            panic!("snapshot exploded")
        });
        assert!(
            cancelled_within(&first, Duration::from_secs(5)),
            "a run whose snapshot panics was never cancelled"
        );
        match first.take_error() {
            Some(SimError::NoProgress { snapshot }) => {
                assert!(
                    snapshot
                        .notes
                        .iter()
                        .any(|n| n.contains("snapshot exploded")),
                    "notes do not name the panic: {:?}",
                    snapshot.notes
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        dog.disarm();

        let second = Arc::new(RunCtl::new());
        let dog = Watchdog::arm(
            Arc::clone(&second),
            Duration::from_millis(30),
            test_snapshot,
        );
        assert!(
            cancelled_within(&second, Duration::from_secs(5)),
            "the watchdog stopped serving after a panicking snapshot"
        );
        assert!(matches!(
            second.take_error(),
            Some(SimError::NoProgress { .. })
        ));
        dog.disarm();
    }
}
