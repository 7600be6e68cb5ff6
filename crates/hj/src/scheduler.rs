//! Work-stealing scheduler internals.
//!
//! One OS thread per worker. Each worker owns a [`crossbeam_deque::Worker`]
//! deque (LIFO for its own pops — Habanero's *work-first* local policy — and
//! FIFO for thieves), plus there is one global [`Injector`] for submissions
//! from threads outside the pool. Idle workers park on a condition variable
//! with a short timeout, so a missed notification costs at most one timeout
//! period rather than a hang.
//!
//! The pool also owns the condition variable that a thread outside the pool
//! waits on for a `finish` scope to end. It lives here, not in the scope,
//! because the pool outlives every scope: the last task of a scope wakes
//! that waiter after the scope may already be gone (see
//! [`Shared::notify_scope_done`]).

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use crossbeam_utils::Backoff;
use parking_lot::{Condvar, Mutex};

/// A unit of work: a boxed run-to-completion closure.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker sleeps before re-polling for work.
///
/// Short enough that a lost wakeup is invisible in benchmarks, long enough
/// that an idle pool does not burn a core (important on the single-core
/// evaluation host).
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// How long a thread outside the pool waits for a scope to end before it
/// re-checks. The wait cannot lose a wake-up (see
/// [`Shared::wait_external`]); the timeout is a backstop only.
const EXTERNAL_WAIT_TIMEOUT: Duration = Duration::from_millis(1);

/// State shared by all workers of one runtime.
pub(crate) struct Shared {
    injector: Injector<Job>,
    stealers: Box<[Stealer<Job>]>,
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    /// Signalled under `sleep_lock` when a scope's last task finishes.
    scope_done: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn num_workers(&self) -> usize {
        self.stealers.len()
    }

    /// Racy snapshot of the queue state for diagnostics: the global
    /// injector depth, each worker's local deque depth, and how many
    /// workers are currently parked. Reads are unsynchronized — the
    /// numbers are a best-effort picture for watchdog stall reports, not
    /// a consistent cut.
    pub(crate) fn queue_snapshot(&self) -> (usize, Vec<usize>, usize) {
        let locals = self.stealers.iter().map(|s| s.len()).collect();
        (
            self.injector.len(),
            locals,
            self.sleepers.load(Ordering::Relaxed),
        )
    }

    /// Submit a job from any thread. Jobs from worker threads go to the
    /// worker's own deque; others to the global injector.
    pub(crate) fn spawn_job(&self, job: Job) {
        let mut job = Some(job);
        WorkerCtx::with_current(|ctx| {
            // Only use the local deque if the current worker belongs to
            // *this* runtime; a task running on another runtime's worker
            // must not capture the job in a foreign deque.
            if ptr::eq(Arc::as_ptr(&ctx.shared), self) {
                ctx.local.push(job.take().expect("job taken twice"));
            }
        });
        if let Some(job) = job {
            self.injector.push(job);
        }
        self.notify_one();
    }

    pub(crate) fn notify_one(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep_lock.lock();
            self.wake.notify_one();
        }
    }

    pub(crate) fn notify_all(&self) {
        let _guard = self.sleep_lock.lock();
        self.wake.notify_all();
    }

    /// Wake every thread outside the pool that waits in
    /// [`Shared::wait_external`]. Called by the last task of a scope right
    /// after its decrement of the scope's count, which may free the scope:
    /// this touches only the pool.
    pub(crate) fn notify_scope_done(&self) {
        let _guard = self.sleep_lock.lock();
        self.scope_done.notify_all();
    }

    /// Block a thread outside the pool until `done()` is true.
    ///
    /// No wake-up is lost: `done()` is checked with `sleep_lock` held, and
    /// [`Shared::notify_scope_done`] takes that lock after the change that
    /// makes `done()` true. So either the check sees the change, or this
    /// thread is already waiting when the notification is sent.
    pub(crate) fn wait_external(&self, done: &dyn Fn() -> bool) {
        let mut guard = self.sleep_lock.lock();
        while !done() {
            self.scope_done.wait_for(&mut guard, EXTERNAL_WAIT_TIMEOUT);
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.notify_all();
    }

    /// Run jobs on the calling (worker) thread until `done()` is true.
    ///
    /// This is Habanero's *help-first* join: a worker waiting for a finish
    /// scope executes other tasks instead of blocking its thread, so nested
    /// `finish` cannot starve the pool.
    pub(crate) fn help_until(&self, done: &dyn Fn() -> bool) {
        let backoff = Backoff::new();
        while !done() {
            match WorkerCtx::with_current(|ctx| ctx.find_job()).flatten() {
                Some(job) => {
                    job();
                    backoff.reset();
                }
                None => self.idle(&backoff, done),
            }
        }
    }

    /// One idle step of a worker that found no job: snooze while `backoff`
    /// lasts, then park for at most [`PARK_TIMEOUT`] unless `done()` holds
    /// under the sleep lock. The caller re-polls for work either way.
    fn idle(&self, backoff: &Backoff, done: &dyn Fn() -> bool) {
        if !backoff.is_completed() {
            backoff.snooze();
            return;
        }
        let mut guard = self.sleep_lock.lock();
        if done() {
            return;
        }
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        self.wake.wait_for(&mut guard, PARK_TIMEOUT);
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    fn steal_external(&self, local: &Worker<Job>, start: usize) -> Option<Job> {
        // First drain the injector, then try the other workers round-robin
        // starting from a per-worker offset to spread contention.
        loop {
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        let n = self.stealers.len();
        let mut retry = true;
        while retry {
            retry = false;
            for k in 0..n {
                let victim = (start + k) % n;
                match self.stealers[victim].steal_batch_and_pop(local) {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
        }
        None
    }
}

/// Per-worker context, reachable via thread-local storage while the worker
/// loop (or a task it runs) is on the stack.
pub(crate) struct WorkerCtx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) local: Worker<Job>,
    pub(crate) index: usize,
}

thread_local! {
    static CURRENT: Cell<*const WorkerCtx> = const { Cell::new(ptr::null()) };
}

impl WorkerCtx {
    /// Run `f` with the current worker context, if the calling thread is a
    /// pool worker.
    pub(crate) fn with_current<R>(f: impl FnOnce(&WorkerCtx) -> R) -> Option<R> {
        CURRENT.with(|cell| {
            let p = cell.get();
            if p.is_null() {
                None
            } else {
                // SAFETY: the pointer is installed by `worker_main` for the
                // duration of the worker loop and cleared (via guard) before
                // the referent is dropped.
                Some(f(unsafe { &*p }))
            }
        })
    }

    /// True if the calling thread is a worker of `shared`'s pool.
    pub(crate) fn on_pool(shared: &Shared) -> bool {
        Self::with_current(|ctx| ptr::eq(Arc::as_ptr(&ctx.shared), shared)).unwrap_or(false)
    }

    pub(crate) fn find_job(&self) -> Option<Job> {
        if let Some(job) = self.local.pop() {
            return Some(job);
        }
        self.shared.steal_external(&self.local, self.index + 1)
    }
}

struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|cell| cell.set(ptr::null()));
    }
}

fn worker_main(shared: Arc<Shared>, local: Worker<Job>, index: usize) {
    let ctx = WorkerCtx {
        shared,
        local,
        index,
    };
    CURRENT.with(|cell| cell.set(&ctx as *const WorkerCtx));
    let _guard = CtxGuard;

    // Queued jobs drain before shutdown is honoured.
    let shutdown = || ctx.shared.is_shutdown();
    let backoff = Backoff::new();
    loop {
        match ctx.find_job() {
            Some(job) => {
                job();
                backoff.reset();
            }
            None if shutdown() => break,
            None => ctx.shared.idle(&backoff, &shutdown),
        }
    }
}

/// Build a pool: the shared state plus its worker thread handles.
pub(crate) fn build_pool(
    workers: usize,
    thread_name: &str,
) -> (Arc<Shared>, Vec<std::thread::JoinHandle<()>>) {
    assert!(workers >= 1, "an HjRuntime needs at least one worker");
    let worker_deques: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Box<[Stealer<Job>]> = worker_deques.iter().map(|w| w.stealer()).collect();
    let shared = Arc::new(Shared {
        injector: Injector::new(),
        stealers,
        sleepers: AtomicUsize::new(0),
        sleep_lock: Mutex::new(()),
        wake: Condvar::new(),
        scope_done: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });
    let handles = worker_deques
        .into_iter()
        .enumerate()
        .map(|(index, local)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{thread_name}-{index}"))
                .spawn(move || worker_main(shared, local, index))
                .expect("failed to spawn worker thread")
        })
        .collect();
    (shared, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_executes_injected_jobs() {
        let (shared, handles) = build_pool(2, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            shared.spawn_job(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Wait for completion (tests only; real code uses finish scopes).
        while counter.load(Ordering::Relaxed) < 64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.begin_shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn shutdown_drains_then_exits() {
        let (shared, handles) = build_pool(1, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            shared.spawn_job(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        while counter.load(Ordering::Relaxed) < 16 {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.begin_shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = build_pool(0, "test");
    }
}
