//! The engine abstraction and its implementations.
//!
//! All engines simulate the same model (paper §4.1) and must agree on the
//! deterministic observables (see [`crate::validate`]):
//!
//! * [`seq::SeqWorksetEngine`] — Algorithm 1, the sequential workset
//!   implementation the HJ version derives from.
//! * [`seq_heap::SeqHeapEngine`] — a classic global-event-list sequential
//!   simulator; the simplest possible reference oracle.
//! * [`hj::HjEngine`] — Algorithm 2: the parallel HJlib implementation
//!   with the §4.5 optimizations (each individually toggleable).
//! * [`sharded::ShardedEngine`] — partitioned conservative simulation:
//!   one sequential Chandy–Misra core per shard on its own thread (the
//!   caller's for the last shard), exchanging events and lookahead
//!   NULLs over bounded mailboxes
//!   (`sim-shard` crate).
//! * `galois-rt`'s `GaloisEngine` — the optimistic baseline (separate
//!   crate; implements the same [`Engine`] trait).

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod hj;
pub mod pin;
pub(crate) mod probe;
pub mod seq;
pub mod seq_heap;
pub mod sharded;
pub mod threads;

pub use config::{build, try_build, EngineConfig, ENGINE_NAMES};

use circuit::{Circuit, DelayModel, Logic, Stimulus};
use fault::SimError;

use crate::monitor::Waveform;
use crate::stats::SimStats;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutput {
    /// Run counters; `stats.events_delivered` is Table 1's "# total events".
    pub stats: SimStats,
    /// One waveform per circuit output, in [`Circuit::outputs`] order.
    pub waveforms: Vec<Waveform>,
    /// Final settled output value of every node (indexed by
    /// `NodeId::index`): for inputs the last driven value, for gates the
    /// evaluation of the final latched inputs, for outputs the last
    /// received value. Deterministic across engines.
    pub node_values: Vec<Logic>,
}

/// A discrete event simulator for logic circuits.
pub trait Engine {
    /// Short name for reports ("hj", "galois", "seq", …).
    fn name(&self) -> String;

    /// Simulate `circuit` driven by `stimulus` under `delays`, to
    /// completion (all events processed, NULL messages propagated).
    ///
    /// This is the fallible entry point: a task panic, a watchdog-detected
    /// stall, or a broken internal invariant is returned as a structured
    /// [`SimError`] instead of aborting the process or hanging. Engines
    /// guarantee that on `Err` the run has fully drained — no simulation
    /// task is still executing, and every simulation lock has been
    /// released — so the engine (and any shared runtime) is reusable.
    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError>;

    /// Infallible convenience wrapper around [`Engine::try_run`]: panics
    /// with the engine name and the structured error on failure. This is
    /// what benchmarks and the differential tests use — under a no-fault
    /// plan a correct engine never fails.
    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, delays: &DelayModel) -> SimOutput {
        match self.try_run(circuit, stimulus, delays) {
            Ok(output) => output,
            Err(err) => panic!("engine '{}' failed: {err}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::generators::c17;

    #[test]
    fn engines_are_object_safe() {
        // Compile-time check: `dyn Engine` must be usable for the harness.
        fn _takes(_: &dyn Engine) {}
        let e = seq::SeqWorksetEngine::new();
        _takes(&e);
        assert_eq!(e.name(), "seq-workset");
        let _ = c17();
    }
}
