//! # hj-runtime — a Habanero-style task-parallel runtime for Rust
//!
//! This crate reimplements the execution model of the Habanero-Java library
//! (HJlib) that the PMAM'15 paper *"Parallelizing a Discrete Event Simulation
//! Application Using the Habanero-Java Multicore Library"* builds on:
//!
//! * **async/finish** — lightweight tasks spawned into a work-stealing
//!   scheduler ([`HjRuntime::finish`], [`Scope::spawn`]). A `finish` scope is
//!   a generalized join: it returns only after every task transitively
//!   spawned inside it has completed.
//! * **fine-grained locking extension** (paper §3.2) — [`LockRegistry`] with
//!   `TRYLOCK(var)` / `RELEASEALLLOCKS()` semantics: compare-and-swap
//!   `AtomicBool` locks that are *never* blocked on, preserving Habanero's
//!   deadlock-freedom guarantee. Ascending-ID acquisition order
//!   ([`Locker::try_lock_all`]) provides the paper's livelock
//!   avoidance.
//!
//! These are the only HJlib constructs the paper's algorithms use. The
//! runtime keeps no run-wide counters: a shared write per task would be a
//! scheduling cost of its own, so callers count per task and merge once.
//!
//! The scheduler follows the classic Habanero/Cilk design: one worker thread
//! per core, a per-worker [`crossbeam_deque::Worker`] deque (LIFO pops, FIFO
//! steals), a global injector for external submissions, and *help-first*
//! joins — a worker waiting on a `finish` scope executes other tasks instead
//! of blocking its thread.
//!
//! ## Example
//!
//! ```
//! use hj::HjRuntime;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let rt = HjRuntime::new(4);
//! let counter = AtomicUsize::new(0);
//! rt.finish(|scope| {
//!     for _ in 0..100 {
//!         scope.spawn(|| {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(counter.load(Ordering::Relaxed), 100);
//! ```

pub mod locks;
pub mod runtime;
mod scheduler;
pub mod scope;

pub use locks::{LockId, LockRegistry, Locker};
pub use runtime::{HjRuntime, SchedulerObservation};
pub use scope::Scope;

/// Commonly used items.
pub mod prelude {
    pub use crate::locks::{LockId, LockRegistry, Locker};
    pub use crate::runtime::HjRuntime;
    pub use crate::scope::Scope;
}
