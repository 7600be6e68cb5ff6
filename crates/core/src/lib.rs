//! # des-core — conservative parallel discrete event simulation
//!
//! The primary contribution of the reproduced paper: Chandy–Misra logic
//! circuit simulation with several interchangeable engines.
//!
//! * [`engine::seq::SeqWorksetEngine`] — Algorithm 1 (sequential workset);
//! * [`engine::seq_heap::SeqHeapEngine`] — global-event-list reference;
//! * [`engine::hj::HjEngine`] — Algorithm 2: parallel async/finish tasks +
//!   fine-grained trylock locks, with the §4.5 optimizations toggleable
//!   via [`engine::hj::HjEngineConfig`];
//! * [`engine::sharded::ShardedEngine`] — partitioned conservative
//!   simulation: the `sim-shard` crate splits the netlist into K shards,
//!   each running a sequential Chandy–Misra core on its own thread, with
//!   events and lookahead NULLs crossing the cut over bounded mailboxes;
//! * `galois-rt`'s `GaloisEngine` — the optimistic baseline (sibling
//!   crate).
//!
//! Supporting modules: [`event`] (events/timestamps/NULL), [`node`]
//! (per-port deques, local clocks, ready-event draining), [`monitor`]
//! (output waveforms and the deterministic settled view), [`stats`]
//! (run counters incl. Table 1's "# total events"), [`profile`]
//! (Figure 1's available-parallelism curve), [`validate`]
//! (cross-engine equivalence checking) and [`vcd`] (waveform export for
//! standard viewers).
//!
//! Engines are built through the unified [`engine::EngineConfig`] and
//! the [`engine::build`] factory:
//!
//! ```
//! use circuit::{generators, DelayModel, Stimulus};
//! use des::engine::{build, EngineConfig};
//! use des::validate::check_equivalent;
//!
//! let circuit = generators::kogge_stone_adder(8);
//! let stimulus = Stimulus::random_vectors(&circuit, 10, 5, 42);
//! let delays = DelayModel::standard();
//!
//! let cfg = EngineConfig::default().with_workers(2);
//! let seq = build("seq-workset", &cfg).run(&circuit, &stimulus, &delays);
//! let par = build("hj", &cfg).run(&circuit, &stimulus, &delays);
//! check_equivalent(&seq, &par).expect("engines agree");
//! ```

pub mod arena;
pub mod engine;
pub mod event;
pub mod monitor;
pub mod node;
pub mod profile;
pub mod stats;
pub mod validate;
pub mod vcd;

pub use arena::{EventArena, EventRef};
pub use engine::checkpoint::{latest_consistent_epoch, CheckpointConfig};
pub use engine::pin::PinPolicy;
pub use engine::dist::{config_digest, run_node, DistConfig, TcpShardedEngine};
pub use engine::{build, try_build, Engine, EngineConfig, SimOutput, ENGINE_NAMES};
pub use fault::{
    FaultPlan, InjectionCounts, LinkSnapshot, RunCtl, RunPolicy, SimError, StallSnapshot,
    Watchdog, WorkerSnapshot,
};
pub use event::{Event, Timestamp, NULL_TS};
// Observability vocabulary, re-exported so harnesses configure tracing
// and read metrics without a direct `sim-obs` dependency.
pub use obs::{ObsConfig, Recorder, SpanKind, ThreadTraceDump, TraceRecord, Tracer};
pub use monitor::Waveform;
pub use profile::{available_parallelism, ParallelismProfile};
// Partitioning and rebalancing vocabulary of the sharded engine,
// re-exported so engine users don't need a direct `sim-shard` dependency.
pub use shard::{Partition, PartitionMetrics, PartitionStrategy, RebalancePolicy};
pub use stats::SimStats;
