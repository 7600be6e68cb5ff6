//! The unified engine configuration and factory.
//!
//! Every engine used to grow its own constructor vocabulary —
//! `HjEngine::new(workers)`, `ShardedEngine::with_strategy(k, s)`,
//! `TcpShardedEngine::new(k, p)` — which made harnesses (the repro
//! binary, the benches, the differential tests) repeat the same
//! plumbing per engine and made cross-engine sweeps awkward.
//! [`EngineConfig`] is the superset of every engine's knobs in one
//! builder; [`build`] (or the fallible [`try_build`]) turns a config
//! plus an engine name into a ready `Box<dyn Engine>`.
//!
//! Engines read only the fields that apply to them (the `hj` engine
//! ignores `shards`, the sharded engines ignore `workers`, only
//! `sharded` honors `rebalance`, …); unused fields are simply inert, so
//! one config can drive a sweep across all engines.
//!
//! `galois-rt`'s `GaloisEngine` is deliberately absent: that crate
//! depends on `des-core` for the [`Engine`] trait, so this factory
//! cannot name it without a dependency cycle. Harnesses that want it
//! add it next to the factory output.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fault::{FaultPlan, RunPolicy};
use obs::{ObsConfig, Recorder};
use shard::{PartitionStrategy, RebalancePolicy};

use crate::engine::checkpoint::CheckpointConfig;
use crate::engine::dist::TcpShardedEngine;
use crate::engine::hj::HjEngine;
use crate::engine::seq::SeqWorksetEngine;
use crate::engine::seq_heap::SeqHeapEngine;
use crate::engine::sharded::{ShardedEngine, DEFAULT_MAILBOX_CAPACITY};
use crate::engine::Engine;

/// Every engine name [`build`] accepts, in reporting order.
pub const ENGINE_NAMES: [&str; 5] = ["seq-workset", "seq-heap", "hj", "sharded", "tcp-sharded"];

/// One configuration for every engine family: thread counts, sharding,
/// transport sizing, fault/watchdog policy, and rebalancing. See the
/// module docs for which engines read which fields.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    workers: usize,
    shards: usize,
    processes: usize,
    strategy: PartitionStrategy,
    mailbox_capacity: usize,
    batch_msgs: usize,
    policy: RunPolicy,
    rebalance: Option<RebalancePolicy>,
    checkpoint: Option<CheckpointConfig>,
    restore: bool,
    recovery_attempts: usize,
    rank: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            shards: 2,
            processes: 2,
            strategy: PartitionStrategy::default(),
            mailbox_capacity: DEFAULT_MAILBOX_CAPACITY,
            batch_msgs: net::DEFAULT_BATCH_MSGS,
            policy: RunPolicy::new(),
            rebalance: None,
            checkpoint: None,
            restore: false,
            recovery_attempts: 0,
            rank: None,
        }
    }
}

impl EngineConfig {
    /// The default configuration (2 workers, 2 shards, 2 processes, no
    /// faults, default watchdog, rebalancing off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads for the shared-memory parallel engine (`hj`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1);
        self.workers = workers;
        self
    }

    /// Shard count for the sharded engines.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Process (rank) count for the distributed engine.
    pub fn with_processes(mut self, processes: usize) -> Self {
        assert!(processes >= 1);
        self.processes = processes;
        self
    }

    /// Partition strategy for the sharded engines.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Per-shard inbox capacity for the sharded engines.
    pub fn with_mailbox_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1);
        self.mailbox_capacity = capacity;
        self
    }

    /// Cross-process message batching threshold (1 disables coalescing;
    /// distributed engine only).
    pub fn with_batch_msgs(mut self, batch: usize) -> Self {
        assert!(batch >= 1);
        self.batch_msgs = batch;
        self
    }

    /// Install a fault plan (decision counters reset on every run).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.policy = self.policy.with_fault_plan(plan);
        self
    }

    /// Set (or with `None` disable) the no-progress watchdog deadline.
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.policy = self.policy.with_watchdog(deadline);
        self
    }

    /// Configure observability (tracing + metrics). A disabled config —
    /// the default — installs the no-op recorder: engines then pay one
    /// branch per instrumentation point and allocate nothing.
    pub fn with_obs(mut self, cfg: &ObsConfig) -> Self {
        self.policy = self.policy.with_obs(cfg);
        self
    }

    /// Share an existing recorder (a harness keeps its own clone to read
    /// metrics, traces, and exports after the run).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.policy = self.policy.with_recorder(recorder);
        self
    }

    /// Enable (or with `None` disable) dynamic repartitioning. Honored
    /// by the in-process `sharded` engine only; the distributed engine
    /// always keeps its static partition.
    pub fn with_rebalance(mut self, policy: Option<RebalancePolicy>) -> Self {
        self.rebalance = policy;
        self
    }

    /// Write a deterministic checkpoint to `dir` every `every_events`
    /// delivered events per shard (DESIGN.md §12). Honored by the
    /// `sharded` and `tcp-sharded` engines; mutually exclusive with
    /// rebalancing on `sharded`.
    pub fn with_checkpoints(mut self, every_events: u64, dir: impl Into<PathBuf>) -> Self {
        assert!(every_events >= 1);
        self.checkpoint = Some(CheckpointConfig {
            every_events,
            dir: dir.into(),
        });
        self
    }

    /// Start from the newest consistent checkpoint in the configured
    /// directory instead of from the stimulus.
    pub fn with_restore(mut self, restore: bool) -> Self {
        self.restore = restore;
        self
    }

    /// How many times the `tcp-sharded` in-process harness restarts a
    /// failed run from the newest checkpoint (0 disables recovery).
    pub fn with_recovery_attempts(mut self, attempts: usize) -> Self {
        self.recovery_attempts = attempts;
        self
    }

    /// Tag every `sim_*` metric this config's runs emit with a `rank`
    /// label — the uniform identity scheme for fleets where several
    /// processes' metrics are aggregated side by side (`des-node`
    /// ranks, `des-svc` worker ranks). `None` (the default) omits the
    /// label, keeping single-process exports unchanged.
    pub fn with_rank(mut self, rank: Option<u64>) -> Self {
        self.rank = rank;
        self
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Process (rank) count.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// Partition strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Per-shard inbox capacity.
    pub fn mailbox_capacity(&self) -> usize {
        self.mailbox_capacity
    }

    /// Cross-process batching threshold.
    pub fn batch_msgs(&self) -> usize {
        self.batch_msgs
    }

    /// The fault/watchdog policy (clones share the fault plan).
    pub fn run_policy(&self) -> RunPolicy {
        self.policy.clone()
    }

    /// The configured fault plan.
    pub fn fault(&self) -> &Arc<FaultPlan> {
        self.policy.fault()
    }

    /// The watchdog deadline, if armed.
    pub fn watchdog(&self) -> Option<Duration> {
        self.policy.watchdog()
    }

    /// The rebalance policy, if dynamic repartitioning is on.
    pub fn rebalance(&self) -> Option<RebalancePolicy> {
        self.rebalance
    }

    /// The checkpoint configuration, if checkpointing is on.
    pub fn checkpoint(&self) -> Option<CheckpointConfig> {
        self.checkpoint.clone()
    }

    /// Whether the run starts from the newest consistent checkpoint.
    pub fn restore(&self) -> bool {
        self.restore
    }

    /// Checkpoint-recovery retry budget for the in-process harness.
    pub fn recovery_attempts(&self) -> usize {
        self.recovery_attempts
    }

    /// The observability recorder (a clone; all clones share storage).
    pub fn recorder(&self) -> Recorder {
        self.policy.recorder().clone()
    }

    /// The metric `rank` label, if one is configured.
    pub fn rank(&self) -> Option<u64> {
        self.rank
    }
}

/// Build the engine named `name` (one of [`ENGINE_NAMES`]) from `cfg`.
/// Returns an error string listing the valid names on an unknown name.
pub fn try_build(name: &str, cfg: &EngineConfig) -> Result<Box<dyn Engine>, String> {
    match name {
        "seq-workset" => Ok(Box::new(SeqWorksetEngine::from_config(cfg))),
        "seq-heap" => Ok(Box::new(SeqHeapEngine::from_config(cfg))),
        "hj" => Ok(Box::new(HjEngine::from_config(cfg))),
        "sharded" => Ok(Box::new(ShardedEngine::from_config(cfg))),
        "tcp-sharded" => Ok(Box::new(TcpShardedEngine::from_config(cfg))),
        other => Err(format!(
            "unknown engine '{other}' (expected one of {})",
            ENGINE_NAMES.join(", ")
        )),
    }
}

/// Infallible [`try_build`]: panics on an unknown engine name.
pub fn build(name: &str, cfg: &EngineConfig) -> Box<dyn Engine> {
    try_build(name, cfg).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_equivalent;
    use circuit::generators::c17;
    use circuit::{DelayModel, Stimulus};

    #[test]
    fn every_name_builds_and_reports_itself() {
        let cfg = EngineConfig::default();
        for name in ENGINE_NAMES {
            let engine = build(name, &cfg);
            assert!(
                engine.name().starts_with(name),
                "factory name '{name}' vs engine name '{}'",
                engine.name()
            );
        }
        assert!(try_build("no-such-engine", &cfg).is_err());
        let err = try_build("timewarp", &cfg)
            .err()
            .expect("timewarp is not an engine");
        assert_eq!(
            err,
            "unknown engine 'timewarp' (expected one of seq-workset, seq-heap, hj, sharded, tcp-sharded)"
        );
    }

    #[test]
    fn factory_engines_agree_on_observables() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 6, 4, 3);
        let delays = DelayModel::standard();
        let cfg = EngineConfig::default();
        let reference = build("seq-workset", &cfg).run(&c, &s, &delays);
        for name in ENGINE_NAMES {
            let out = build(name, &cfg).run(&c, &s, &delays);
            check_equivalent(&reference, &out).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn config_round_trips_every_knob() {
        let reb = RebalancePolicy {
            epoch_events: 100,
            min_imbalance_pct: 10,
            max_moves: 8,
        };
        let cfg = EngineConfig::new()
            .with_workers(4)
            .with_shards(8)
            .with_processes(2)
            .with_strategy(PartitionStrategy::RoundRobin)
            .with_mailbox_capacity(32)
            .with_batch_msgs(16)
            .with_watchdog(Some(Duration::from_millis(750)))
            .with_rebalance(Some(reb))
            .with_checkpoints(5_000, "/tmp/ckpt")
            .with_restore(true)
            .with_recovery_attempts(3)
            .with_rank(Some(3));
        assert_eq!(cfg.workers(), 4);
        assert_eq!(cfg.shards(), 8);
        assert_eq!(cfg.processes(), 2);
        assert_eq!(cfg.strategy(), PartitionStrategy::RoundRobin);
        assert_eq!(cfg.mailbox_capacity(), 32);
        assert_eq!(cfg.batch_msgs(), 16);
        assert_eq!(cfg.watchdog(), Some(Duration::from_millis(750)));
        assert_eq!(cfg.rebalance(), Some(reb));
        let ckpt = cfg.checkpoint().expect("checkpoints configured");
        assert_eq!(ckpt.every_events, 5_000);
        assert_eq!(ckpt.dir, PathBuf::from("/tmp/ckpt"));
        assert!(cfg.restore());
        assert_eq!(cfg.recovery_attempts(), 3);
        assert_eq!(cfg.rank(), Some(3));
        assert!(!cfg.fault().is_active());
    }

    #[test]
    fn factory_honors_fault_plan_and_watchdog() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 4, 5, 11);
        let delays = DelayModel::standard();
        let cfg = EngineConfig::default()
            .with_fault_plan(FaultPlan::seeded(3).wedged())
            .with_watchdog(Some(Duration::from_millis(200)));
        // A wedged run must be cut short by the watchdog, not hang: the
        // factory threaded both knobs through.
        let engine = build("sharded", &cfg);
        let err = engine
            .try_run(&c, &s, &delays)
            .expect_err("wedged run must fail");
        assert!(
            matches!(err, fault::SimError::NoProgress { .. }),
            "expected NoProgress, got {err:?}"
        );
    }

    #[test]
    fn factory_names_cover_the_engine_list() {
        // Guard against the factory and the constant drifting apart.
        let cfg = EngineConfig::default();
        for name in ENGINE_NAMES {
            try_build(name, &cfg).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
