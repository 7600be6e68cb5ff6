//! Deterministic fault injection and failure semantics for the simulator.
//!
//! This crate is the robustness backbone shared by every engine in the
//! workspace:
//!
//! * [`FaultPlan`] — a seeded, counter-based description of which faults to
//!   inject into a run (task panics, forced `try_lock` failures, straggler
//!   delays, forced Galois conflicts, a deliberate wedge). Decisions are
//!   pure functions of `(seed, decision counter)`, so a plan replayed with
//!   the same seed injects the same number of faults at the same decision
//!   indices regardless of thread interleaving.
//! * [`SimError`] — the structured error type returned by the fallible
//!   engine API (`Engine::try_run`). Engines translate task panics, stalls
//!   and broken invariants into these variants instead of aborting the
//!   process or hanging.
//! * [`RunCtl`] — shared per-run control block: a progress counter fed by
//!   workers, a cooperative cancellation flag checked in engine task
//!   loops, and a first-error slot.
//! * [`Watchdog`] — a monitor thread that trips when the progress counter
//!   stops advancing for longer than a deadline, captures a
//!   [`StallSnapshot`] and cancels the run so `try_run` can return
//!   [`SimError::NoProgress`] instead of hanging forever.

mod ctl;
mod error;
mod plan;
mod policy;
mod watchdog;

pub use ctl::RunCtl;
pub use error::{LinkDirection, LinkSnapshot, NullWaitEntry, SimError, StallSnapshot, WorkerSnapshot};
pub use plan::{splitmix64, FaultKind, FaultPlan, InjectionCounts};
pub use policy::{RunPolicy, DEFAULT_WATCHDOG};
pub use watchdog::Watchdog;
