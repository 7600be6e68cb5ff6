//! `finish` scopes and `async` task spawning.
//!
//! [`Scope`] mirrors HJlib's async/finish model (paper §3.1): `finish`
//! executes a body and then waits until every task transitively spawned
//! within it has completed; `async` (here [`Scope::spawn`]) creates a
//! lightweight child task that may run before, after, or in parallel with
//! the remainder of its parent.
//!
//! Like [`std::thread::scope`], a `Scope` lets tasks borrow from the
//! enclosing environment (`'env`): soundness follows from `finish` never
//! returning — even on panic — before the scope is quiescent.

use std::any::Any;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::scheduler::{Job, Shared, WorkerCtx};

/// Synchronization state of one finish scope.
pub(crate) struct ScopeInner {
    /// Number of spawned-but-not-finished tasks in this scope.
    pending: AtomicUsize,
    /// First panic payload raised by a task of this scope, if any.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ScopeInner {
    fn new() -> Self {
        ScopeInner {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    fn task_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task: wake any external waiter. Taking the lock orders
            // the notify after the waiter's predicate check.
            let _guard = self.done_lock.lock();
            self.done_cv.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// A live finish scope. Obtained from [`crate::HjRuntime::finish`]; spawn
/// tasks with [`Scope::spawn`].
///
/// The two lifetimes follow [`std::thread::scope`]: `'scope` is the period
/// during which tasks may run, `'env` the environment borrowed by tasks.
pub struct Scope<'scope, 'env: 'scope> {
    inner: ScopeInner,
    pool: Arc<Shared>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub(crate) fn new(pool: Arc<Shared>) -> Self {
        Scope {
            inner: ScopeInner::new(),
            pool,
            _scope: PhantomData,
            _env: PhantomData,
        }
    }

    /// Spawn an `async` task in this scope.
    ///
    /// The task is pushed onto the current worker's deque (or the global
    /// injector when called from outside the pool) and is eligible to be
    /// stolen by any idle worker. The enclosing `finish` will not return
    /// until the task — and any tasks it spawns — completes.
    ///
    /// A panicking task does not abort the process: the scope drains and
    /// the first panic is re-raised from `finish`.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.pending.fetch_add(1, Ordering::Relaxed);
        // The wrapper needs a stable pointer to `ScopeInner`. The Scope
        // lives on the stack frame of `finish`, which does not return until
        // `pending == 0`, so the pointer outlives every wrapper execution.
        let inner_ptr = &self.inner as *const ScopeInner as usize;
        let wrapper = move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // SAFETY: see above — `finish` keeps the ScopeInner alive until
            // this task (counted in `pending`) has run `task_done`.
            let inner = unsafe { &*(inner_ptr as *const ScopeInner) };
            if let Err(payload) = result {
                inner.record_panic(payload);
            }
            inner.task_done();
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapper);
        // SAFETY: extending the closure lifetime to 'static is sound because
        // `finish` blocks until the scope is quiescent before any borrow in
        // `'scope`/`'env` can end (the same argument as std::thread::scope).
        let job: Job = unsafe { mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.spawn_job(job);
    }

    /// Block until the scope is quiescent. Worker threads help execute
    /// tasks; external threads wait on a condition variable.
    pub(crate) fn wait_quiescent(&self) {
        if self.inner.is_quiescent() {
            return;
        }
        if WorkerCtx::on_pool(&self.pool) {
            self.pool.help_until(&|| self.inner.is_quiescent());
        } else {
            let mut guard = self.inner.done_lock.lock();
            while !self.inner.is_quiescent() {
                // The timeout guards against the (benign) race where the
                // last task_done fires between our predicate check and wait.
                self.inner
                    .done_cv
                    .wait_for(&mut guard, Duration::from_millis(1));
            }
        }
    }

    /// Re-raise the first panic recorded by a task of this scope, if any.
    pub(crate) fn rethrow_task_panic(&self) {
        if let Some(payload) = self.inner.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::HjRuntime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn finish_waits_for_all_tasks() {
        let rt = HjRuntime::new(2);
        let counter = AtomicUsize::new(0);
        rt.finish(|scope| {
            for _ in 0..1000 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn tasks_can_spawn_recursively() {
        // Parallel fib via recursive spawning: every level re-spawns.
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let rt = HjRuntime::new(2);
        let total = AtomicUsize::new(0);
        rt.finish(|scope| {
            fn go<'s>(scope: &'s crate::Scope<'s, '_>, n: u64, total: &'s AtomicUsize) {
                if n < 2 {
                    total.fetch_add(n as usize, Ordering::Relaxed);
                } else {
                    scope.spawn(move || go(scope, n - 1, total));
                    scope.spawn(move || go(scope, n - 2, total));
                }
            }
            go(scope, 12, &total);
        });
        assert_eq!(total.load(Ordering::Relaxed) as u64, fib(12));
    }

    #[test]
    fn tasks_borrow_environment() {
        let rt = HjRuntime::new(2);
        let data = [1u64, 2, 3, 4, 5];
        let sum = AtomicUsize::new(0);
        rt.finish(|scope| {
            for chunk in data.chunks(2) {
                scope.spawn(|| {
                    let s: u64 = chunk.iter().sum();
                    sum.fetch_add(s as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn nested_finish_from_within_task() {
        let rt = HjRuntime::new(2);
        let counter = AtomicUsize::new(0);
        rt.finish(|scope| {
            let rt_ref = &rt;
            let counter_ref = &counter;
            scope.spawn(move || {
                rt_ref.finish(|inner| {
                    for _ in 0..10 {
                        inner.spawn(|| {
                            counter_ref.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                // All 10 inner tasks are done before this line.
                assert!(counter_ref.load(Ordering::Relaxed) >= 10);
                counter_ref.fetch_add(100, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 110);
    }

    #[test]
    fn empty_finish_returns_immediately() {
        let rt = HjRuntime::new(1);
        let r = rt.finish(|_| 42);
        assert_eq!(r, 42);
    }

    #[test]
    fn task_panic_propagates_after_quiescence() {
        let rt = HjRuntime::new(2);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let c = std::sync::Arc::clone(&counter);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.finish(|scope| {
                let c = &c;
                scope.spawn(|| panic!("task boom"));
                for _ in 0..50 {
                    scope.spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // The scope still drained every healthy task before re-raising.
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        // Runtime is reusable after a panicked scope.
        let ok = rt.finish(|_| true);
        assert!(ok);
    }

    #[test]
    fn many_small_scopes() {
        let rt = HjRuntime::new(2);
        for round in 0..100 {
            let counter = AtomicUsize::new(0);
            rt.finish(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 8, "round {round}");
        }
    }
}
