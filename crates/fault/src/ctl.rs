//! Shared per-run control block: progress, cancellation, first error.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::SimError;

/// Run control shared between an engine's workers, its watchdog, and the
/// `try_run` caller.
///
/// * Workers publish progress with [`tick`](RunCtl::tick) /
///   [`tick_n`](RunCtl::tick_n) once per unit of work (a node run, a
///   sweep, a committed iteration), not once per delivered event, and
///   never for a unit that did none: a worker that only spins must leave
///   the counter still so the watchdog can see the stall. Debug builds
///   count publications ([`publications`](RunCtl::publications)) so
///   engines can assert it.
/// * The watchdog or a failing worker calls [`cancel`](RunCtl::cancel);
///   worker loops poll [`is_cancelled`](RunCtl::is_cancelled) at their
///   retry/reschedule points and retire, letting the run drain cleanly.
/// * The first error recorded via [`record_error`](RunCtl::record_error)
///   wins; `try_run` collects it with [`take_error`](RunCtl::take_error)
///   after quiescence.
#[derive(Debug, Default)]
pub struct RunCtl {
    progress: AtomicU64,
    #[cfg(debug_assertions)]
    publications: AtomicU64,
    cancelled: AtomicBool,
    error: Mutex<Option<SimError>>,
}

impl RunCtl {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one unit of forward progress.
    pub fn tick(&self) {
        self.tick_n(1);
    }

    /// Record `n` units of forward progress.
    pub fn tick_n(&self, n: u64) {
        self.progress.fetch_add(n, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        self.publications.fetch_add(1, Ordering::Relaxed);
    }

    /// How many times progress was published (`tick`/`tick_n` calls).
    /// Debug builds only: it exists to bound how often engines write the
    /// shared counter, not to measure anything.
    #[cfg(debug_assertions)]
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::Relaxed)
    }

    /// Current progress counter value.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Ask every worker loop to retire at its next cancellation point.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Polled by worker loops at retry/reschedule points.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Record an error; the first recorded error is kept, later ones are
    /// dropped (the first failure is the primary cause, the rest are
    /// usually cascading). Also cancels the run.
    pub fn record_error(&self, err: SimError) {
        {
            let mut slot = self.error.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.cancel();
    }

    /// True if an error has been recorded.
    pub fn has_error(&self) -> bool {
        self.error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Take the recorded error, leaving the slot empty.
    pub fn take_error(&self) -> Option<SimError> {
        self.error.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins_and_cancels() {
        let ctl = RunCtl::new();
        assert!(!ctl.is_cancelled());
        ctl.record_error(SimError::invariant("first"));
        ctl.record_error(SimError::invariant("second"));
        assert!(ctl.is_cancelled());
        match ctl.take_error() {
            Some(SimError::InvariantViolation { context }) => assert_eq!(context, "first"),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(ctl.take_error().is_none());
    }

    #[test]
    fn progress_accumulates() {
        let ctl = RunCtl::new();
        ctl.tick();
        ctl.tick_n(4);
        assert_eq!(ctl.progress(), 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn publications_count_calls_not_units() {
        let ctl = RunCtl::new();
        ctl.tick();
        ctl.tick_n(40);
        assert_eq!(ctl.publications(), 2);
    }
}
