//! The [`HjRuntime`] — entry point to the Habanero-style execution model.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::scheduler::{build_pool, Shared};
use crate::scope::Scope;

/// Name prefix for worker threads (`hj-worker-0`, `hj-worker-1`, ...).
const THREAD_NAME: &str = "hj-worker";

/// A racy, best-effort observation of the scheduler's queues, taken by
/// [`HjRuntime::observe_scheduler`]. Intended for diagnostics (watchdog
/// stall snapshots); the fields are sampled independently and do not form
/// a consistent cut of the scheduler state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerObservation {
    /// Jobs waiting in the global injector queue.
    pub injector_depth: usize,
    /// Depth of each worker's local deque, in worker order.
    pub worker_queue_depths: Vec<usize>,
    /// Workers currently parked waiting for work.
    pub sleeping_workers: usize,
}

/// A fixed pool of worker threads executing HJ tasks with work stealing and
/// load balancing (paper §3).
///
/// Dropping the runtime shuts the workers down after draining queued tasks.
/// Runtimes are independent: multiple may coexist in one process.
pub struct HjRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl HjRuntime {
    /// Create a runtime with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        let (shared, handles) = build_pool(workers, THREAD_NAME);
        HjRuntime { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.num_workers()
    }

    /// Execute `body` inside a finish scope: returns only after every task
    /// transitively spawned via [`Scope::spawn`] has completed (paper §3.1).
    ///
    /// If a task panics, the scope still drains completely and the first
    /// panic is then re-raised here. If `body` itself panics, quiescence is
    /// likewise awaited before the panic resumes — this is what makes
    /// environment borrows in tasks sound.
    pub fn finish<'env, F, R>(&self, body: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope::new(Arc::clone(&self.shared));
        let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
        scope.wait_quiescent();
        match result {
            Ok(value) => {
                scope.rethrow_task_panic();
                value
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Racy snapshot of the scheduler queues, for stall diagnostics.
    pub fn observe_scheduler(&self) -> SchedulerObservation {
        let (injector_depth, worker_queue_depths, sleeping_workers) =
            self.shared.queue_snapshot();
        SchedulerObservation {
            injector_depth,
            worker_queue_depths,
            sleeping_workers,
        }
    }
}

impl Drop for HjRuntime {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for HjRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HjRuntime")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_debug_is_printable() {
        let rt = HjRuntime::new(1);
        let s = format!("{rt:?}");
        assert!(s.contains("workers"));
    }

    #[test]
    fn drop_joins_workers() {
        // Just ensure Drop terminates promptly with queued-then-drained work.
        let rt = HjRuntime::new(3);
        rt.finish(|scope| {
            for _ in 0..100 {
                scope.spawn(|| std::hint::black_box(()));
            }
        });
        drop(rt);
    }
}
