//! Stress tests for the runtime: large task counts, deep recursion,
//! nesting, cross-runtime interaction, reuse, and scope lifetime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hj::prelude::*;

#[test]
fn hundred_thousand_tasks_complete() {
    let rt = HjRuntime::new(4);
    let counter = AtomicUsize::new(0);
    rt.finish(|scope| {
        for _ in 0..100_000 {
            scope.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 100_000);
}

#[test]
fn deep_spawn_chain() {
    // Each task spawns the next: 10_000-long dependency-free chain.
    let rt = HjRuntime::new(2);
    let counter = AtomicUsize::new(0);
    rt.finish(|scope| {
        fn step<'s>(scope: &'s hj::Scope<'s, '_>, counter: &'s AtomicUsize, left: usize) {
            counter.fetch_add(1, Ordering::Relaxed);
            if left > 0 {
                scope.spawn(move || step(scope, counter, left - 1));
            }
        }
        scope.spawn(|| step(scope, &counter, 9_999));
    });
    assert_eq!(counter.load(Ordering::Relaxed), 10_000);
}

#[test]
fn binary_spawn_tree() {
    let rt = HjRuntime::new(4);
    let counter = AtomicUsize::new(0);
    rt.finish(|scope| {
        fn node<'s>(scope: &'s hj::Scope<'s, '_>, counter: &'s AtomicUsize, depth: usize) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                scope.spawn(move || node(scope, counter, depth - 1));
                scope.spawn(move || node(scope, counter, depth - 1));
            }
        }
        node(scope, &counter, 14);
    });
    assert_eq!(counter.load(Ordering::Relaxed), (1 << 15) - 1);
}

#[test]
fn deeply_nested_finish_scopes() {
    // finish inside finish inside finish … on worker threads (helping).
    let rt = HjRuntime::new(2);
    fn nest(rt: &HjRuntime, depth: usize) -> usize {
        if depth == 0 {
            return 1;
        }
        let total = AtomicUsize::new(0);
        rt.finish(|scope| {
            let total = &total;
            scope.spawn(move || {
                let inner = nest(rt, depth - 1);
                total.fetch_add(inner, Ordering::Relaxed);
            });
            scope.spawn(move || {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        total.load(Ordering::Relaxed) + 1
    }
    // nest(0) = 1 and each level adds 2 → nest(20) = 41.
    assert_eq!(nest(&rt, 20), 41);
}

#[test]
fn two_runtimes_do_not_interfere() {
    let rt_a = Arc::new(HjRuntime::new(2));
    let rt_b = Arc::new(HjRuntime::new(2));
    let count_a = AtomicUsize::new(0);
    let count_b = AtomicUsize::new(0);
    // Tasks on A spawn work into B (cross-runtime submission goes through
    // B's injector, never A's local deques).
    rt_a.finish(|scope| {
        let rt_b = &rt_b;
        let count_a = &count_a;
        let count_b = &count_b;
        for _ in 0..50 {
            scope.spawn(move || {
                count_a.fetch_add(1, Ordering::Relaxed);
                rt_b.finish(|inner| {
                    for _ in 0..10 {
                        inner.spawn(|| {
                            count_b.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(count_a.load(Ordering::Relaxed), 50);
    assert_eq!(count_b.load(Ordering::Relaxed), 500);
}

#[test]
fn runtime_survives_many_scope_generations() {
    let rt = HjRuntime::new(3);
    for generation in 0..500 {
        let count = AtomicUsize::new(0);
        rt.finish(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16, "generation {generation}");
    }
}

/// One finish scope of `tasks` tasks in its own stack frame, so the next
/// frame on this stack reuses the scope's memory once `finish` returns.
#[inline(never)]
fn counted_scope(rt: &HjRuntime, tasks: usize) -> usize {
    let ran = AtomicUsize::new(0);
    rt.finish(|scope| {
        for _ in 0..tasks {
            scope.spawn(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    ran.load(Ordering::Relaxed)
}

/// A finish scope whose one task runs `counted_scope` on a worker, so the
/// inner scope is awaited by helping rather than by blocking.
#[inline(never)]
fn nested_scope(rt: &HjRuntime, tasks: usize) -> usize {
    let ran = AtomicUsize::new(0);
    rt.finish(|scope| {
        scope.spawn(|| {
            let inner = counted_scope(rt, tasks);
            scribble_stack();
            ran.fetch_add(inner, Ordering::Relaxed);
        });
    });
    ran.load(Ordering::Relaxed)
}

/// Overwrite the stack just below the caller, where the last scope lived.
/// A task that still touches its scope after `finish` returned then reads
/// garbage instead of a stale but intact scope.
#[inline(never)]
fn scribble_stack() {
    let mut bytes = [0xA5u8; 512];
    std::hint::black_box(&mut bytes);
}

/// A task must not touch its scope after the decrement that lets `finish`
/// return. Many short scopes from a thread outside the pool, each freed
/// and overwritten at once, turn such an access into a crash or a hang.
/// The scopes run on a helper thread so a hang fails the test instead of
/// wedging the suite.
#[test]
fn finished_scopes_are_not_touched_again() {
    const SCOPES: usize = 300_000;
    let (tx, rx) = mpsc::channel();
    let churn = std::thread::Builder::new()
        .name("scope-churn".into())
        .spawn(move || {
            let rt = HjRuntime::new(2);
            let mut ran = 0;
            for i in 0..SCOPES {
                let tasks = 1 + i % 3;
                ran += if i % 4 == 3 {
                    nested_scope(&rt, tasks)
                } else {
                    counted_scope(&rt, tasks)
                };
                scribble_stack();
            }
            tx.send(ran).expect("test thread waits for the count");
        })
        .expect("spawn the scope-churn thread");
    let ran = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("scope churn hung or panicked");
    churn.join().expect("scope-churn thread ended cleanly");
    let expected: usize = (0..SCOPES).map(|i| 1 + i % 3).sum();
    assert_eq!(ran, expected);
}
