//! # sim-replicate — the massive-replication layer
//!
//! The paper parallelizes a *single* simulation run; the dominant
//! production axis is the embarrassingly-parallel one: thousands of
//! independently seeded replications of the same model (PARSIR's
//! argument, and rs-sim's rayon-over-replications shape). This crate
//! is that layer, grown into a long-lived service:
//!
//! * [`spec`] — a [`spec::JobSpec`] is a seed sweep × parameter grid
//!   over `sim-model` workloads (PHOLD, M/M/c), with a versioned total
//!   codec and a pure `(base_seed, cell, rep) → seed` derivation.
//! * [`executor`] — the one run pool: workers claiming `(cell, rep)`
//!   runs off one ready list of admitted batches, fewest unclaimed
//!   runs first, each run under the `EngineConfig`'s
//!   `fault::RunPolicy`, with cross-thread `RunExec` spans for
//!   critical-path attribution.
//! * [`store`] — a hand-rolled columnar run store: per-metric column
//!   chunks, varint+CRC32 framing, two-phase tmp+fsync+rename writes;
//!   the reader re-validates every CRC and re-aggregates to the same
//!   digest or errors.
//! * [`agg`] — mergeable log₂ histograms (sim-obs bucket layout)
//!   yielding p50/p95/p99 per scenario cell; merging is associative,
//!   so any local/remote split aggregates identically.
//! * [`proto`] / [`service`] — the `des-svc` job service: Hello-fenced
//!   versioned frames over TCP, every submitted job admitted to the
//!   pool at once (small jobs pass big ones), remote worker ranks
//!   pulling chunks from the same ordering, progress exposed through
//!   the sim-obs Prometheus endpoint.
//!
//! Determinism contract (DESIGN.md §14): every metric column except
//! wall-clock is a pure function of the run seed, so repeat runs of
//! the same spec produce **bit-identical aggregates** — same p50/p95/
//! p99, same [`agg::JobAggregate::digest`] — regardless of thread
//! count, scheduling order, or worker placement.

pub mod agg;
pub mod executor;
pub(crate) mod frame;
pub mod proto;
pub mod service;
pub mod spec;
pub mod store;

pub use agg::{fnv1a, CellAgg, JobAggregate, MergeHist, WALL_COL};
pub use executor::{execute_run, run_slice, run_sweep, Progress, RunRow, SweepOutcome};
pub use proto::{JobState, SvcFrame, SVC_MAGIC, SVC_VERSION};
pub use service::{Service, SvcClient, SvcConfig, SvcError};
pub use spec::{JobSpec, ScenarioCell, WorkloadSpec, SPEC_VERSION};
pub use store::{RunStoreReader, RunStoreWriter, StoreError};
