//! Fault-injection suite: every parallel engine must surface injected
//! task panics, forced lock failures, and deliberate wedges as structured
//! [`SimError`]s from `try_run` — never a hang, never a process abort —
//! and leave its runtime reusable for a subsequent clean run.
//!
//! Injection decisions are seeded and counter-based (see `sim-fault`), so
//! each of these tests exercises the same decision stream on every run
//! regardless of thread interleaving.

use std::sync::Arc;
use std::time::{Duration, Instant};

use circuit::generators::{c17, kogge_stone_adder};
use circuit::{Circuit, DelayModel, Stimulus};
use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::timewarp::TimeWarpEngine;
use des::engine::{Engine, EngineConfig};
use des::validate::check_equivalent;
use des::{FaultPlan, SimError};
use galois::GaloisEngine;
use hj::HjRuntime;

const WORKERS: usize = 2;

/// Deadline for the deliberately wedged runs. The suite asserts the
/// watchdog fires well within an order of magnitude of this.
const WEDGE_DEADLINE: Duration = Duration::from_millis(300);

fn cfg(workers: usize) -> EngineConfig {
    EngineConfig::default().with_workers(workers)
}

fn bench_circuit() -> (Circuit, Stimulus) {
    let c = c17();
    let s = Stimulus::random_vectors(&c, 8, 3, 11);
    (c, s)
}

/// Assert `result` is a structured task-panic error (and specifically not
/// an invariant violation: the engines escalate leaked locks to
/// `InvariantViolation`, so a `TaskPanicked` here also proves the failed
/// run released everything it held).
fn assert_task_panicked(result: Result<des::SimOutput, SimError>, engine: &str) {
    match result {
        Err(SimError::TaskPanicked { payload, .. }) => {
            assert!(
                payload.contains("fault injection") || payload.contains("injected"),
                "{engine}: unexpected panic payload: {payload}"
            );
        }
        Err(other) => panic!("{engine}: expected TaskPanicked, got: {other}"),
        Ok(_) => panic!("{engine}: expected the injected panic to surface, got Ok"),
    }
}

/// Assert a wedged run tripped the watchdog with a populated snapshot,
/// within a small multiple of the configured deadline.
fn assert_no_progress(result: Result<des::SimOutput, SimError>, elapsed: Duration, engine: &str) {
    assert!(
        elapsed < Duration::from_secs(8),
        "{engine}: wedged run took {elapsed:?}; watchdog did not fire in time"
    );
    match result {
        Err(SimError::NoProgress { snapshot }) => {
            assert!(!snapshot.engine.is_empty(), "{engine}: snapshot missing engine name");
            assert!(
                snapshot.stalled_for >= WEDGE_DEADLINE,
                "{engine}: stall {:?} shorter than deadline",
                snapshot.stalled_for
            );
        }
        Err(other) => panic!("{engine}: expected NoProgress, got: {other}"),
        Ok(_) => panic!("{engine}: expected the wedge to trip the watchdog, got Ok"),
    }
}

// ---------------------------------------------------------------------
// Injected task panics → Err(TaskPanicked), runtime reusable afterwards.
// ---------------------------------------------------------------------

#[test]
fn hj_engine_panic_surfaces_and_runtime_survives() {
    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();
    let rt = Arc::new(HjRuntime::new(WORKERS));

    let faulty = HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default())
        .with_fault_plan(FaultPlan::seeded(7).panic_on_spawn(3));
    assert_task_panicked(faulty.try_run(&c, &s, &delays), "hj");

    // The shared runtime must survive the failed run.
    let clean = HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default());
    let out = clean.try_run(&c, &s, &delays).expect("clean run after failure");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

#[test]
fn timewarp_engine_panic_surfaces_and_engine_survives() {
    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();

    let faulty =
        TimeWarpEngine::from_config(&cfg(WORKERS)).with_fault_plan(FaultPlan::seeded(7).panic_on_spawn(3));
    assert_task_panicked(faulty.try_run(&c, &s, &delays), "timewarp");

    let out = TimeWarpEngine::from_config(&cfg(WORKERS))
        .try_run(&c, &s, &delays)
        .expect("clean run after failure");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

#[test]
fn galois_engine_panic_surfaces_and_engine_survives() {
    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();

    let faulty =
        GaloisEngine::new(WORKERS).with_fault_plan(FaultPlan::seeded(7).panic_on_spawn(3));
    assert_task_panicked(faulty.try_run(&c, &s, &delays), "galois");

    let out = GaloisEngine::new(WORKERS)
        .try_run(&c, &s, &delays)
        .expect("clean run after failure");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

// ---------------------------------------------------------------------
// The sharded conservative engine: panics are contained at the shard
// boundary, and the cross-shard mailbox fabric must drain on every
// failure path (a leaked mailbox would deadlock the next run's threads).
// ---------------------------------------------------------------------

#[test]
fn sharded_engine_panic_surfaces_and_engine_survives() {
    use des::engine::sharded::ShardedEngine;

    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();

    let faulty = ShardedEngine::from_config(
        &EngineConfig::default()
            .with_shards(4)
            .with_fault_plan(FaultPlan::seeded(7).panic_on_spawn(3)),
    );
    assert_task_panicked(faulty.try_run(&c, &s, &delays), "sharded");
    assert_eq!(faulty.fault_plan().injected().panics, 1);

    // The same engine value must be reusable after the contained panic.
    let clean = ShardedEngine::from_config(&EngineConfig::default().with_shards(4));
    let out = clean.try_run(&c, &s, &delays).expect("clean run after failure");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

#[test]
fn sharded_engine_shard_panic_is_contained() {
    // Kill one whole shard core (not just one node task): the other
    // shards' threads must still be joined and the error surfaced.
    use des::engine::sharded::ShardedEngine;

    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();
    for target_shard in [0, 1, 3] {
        let faulty = ShardedEngine::from_config(
            &EngineConfig::default()
                .with_shards(4)
                .with_fault_plan(FaultPlan::seeded(7).panic_in_shard(target_shard)),
        );
        assert_task_panicked(
            faulty.try_run(&c, &s, &delays),
            &format!("sharded (shard {target_shard} killed)"),
        );
    }
}

#[test]
fn sharded_engine_straggler_delays_do_not_change_observables() {
    use des::engine::sharded::ShardedEngine;

    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();
    let engine = ShardedEngine::from_config(
        &EngineConfig::default()
            .with_shards(4)
            .with_fault_plan(FaultPlan::seeded(5).straggler(0.2, Duration::from_millis(1))),
    );
    let out = engine.try_run(&c, &s, &delays).expect("stragglers are benign");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

// ---------------------------------------------------------------------
// Forced trylock failures: bounded retry keeps the run correct, and the
// retry/backoff work is visible in the stats.
// ---------------------------------------------------------------------

#[test]
fn hj_engine_completes_under_forced_trylock_failures() {
    let c = kogge_stone_adder(4);
    let s = Stimulus::random_vectors(&c, 4, 2, 13);
    let delays = DelayModel::standard();

    let engine = HjEngine::from_config(&cfg(WORKERS))
        .with_fault_plan(FaultPlan::seeded(21).fail_trylock(0.5));
    let out = engine
        .try_run(&c, &s, &delays)
        .expect("bounded retry must ride out a 50% trylock failure rate");
    assert!(
        out.stats.lock_failures > 0,
        "injected lock failures should be counted"
    );
    assert!(out.stats.lock_retries > 0, "retries should be counted");
    assert!(out.stats.backoff_waits > 0, "backoff waits should be counted");

    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

#[test]
fn hj_engine_straggler_delays_do_not_change_observables() {
    let (c, s) = bench_circuit();
    let delays = DelayModel::standard();
    let engine = HjEngine::from_config(&cfg(WORKERS))
        .with_fault_plan(FaultPlan::seeded(5).straggler(0.2, Duration::from_millis(1)));
    let out = engine.try_run(&c, &s, &delays).expect("stragglers are benign");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
}

// ---------------------------------------------------------------------
// Deliberate wedge → watchdog trips within its deadline, with a
// populated stall snapshot.
// ---------------------------------------------------------------------

#[test]
fn hj_engine_wedge_trips_watchdog() {
    let (c, s) = bench_circuit();
    let engine = HjEngine::from_config(&cfg(WORKERS))
        .with_fault_plan(FaultPlan::seeded(1).wedged())
        .with_watchdog(Some(WEDGE_DEADLINE));
    let start = Instant::now();
    let result = engine.try_run(&c, &s, &DelayModel::standard());
    assert_no_progress(result, start.elapsed(), "hj");
}

#[test]
fn timewarp_engine_wedge_trips_watchdog() {
    let (c, s) = bench_circuit();
    let engine = TimeWarpEngine::from_config(&cfg(WORKERS))
        .with_fault_plan(FaultPlan::seeded(1).wedged())
        .with_watchdog(Some(WEDGE_DEADLINE));
    let start = Instant::now();
    let result = engine.try_run(&c, &s, &DelayModel::standard());
    assert_no_progress(result, start.elapsed(), "timewarp");
}

#[test]
fn sharded_engine_wedge_trips_watchdog() {
    // Every shard wedges at its first node activation; lookahead promises
    // must not count as progress, so the cross-shard stall is detected.
    use des::engine::sharded::ShardedEngine;

    let (c, s) = bench_circuit();
    let engine = ShardedEngine::from_config(
        &EngineConfig::default()
            .with_shards(4)
            .with_fault_plan(FaultPlan::seeded(1).wedged())
            .with_watchdog(Some(WEDGE_DEADLINE)),
    );
    let start = Instant::now();
    let result = engine.try_run(&c, &s, &DelayModel::standard());
    if let Err(SimError::NoProgress { snapshot }) = &result {
        // One inbox depth per shard, in messages; every shard wedged at
        // its first node, before anything crossed the cut.
        assert_eq!(snapshot.queue_depths, vec![0; 4]);
    }
    assert_no_progress(result, start.elapsed(), "sharded");
}

#[test]
fn sharded_engine_migration_panic_surfaces_and_engine_survives() {
    // Kill a shard mid-migration (at the epoch barrier, after the plan is
    // agreed but before node state moves): the failure must surface as a
    // structured error, and the same engine must complete a clean run
    // afterwards with observables matching the sequential reference.
    use des::engine::sharded::ShardedEngine;
    use des::RebalancePolicy;

    let c = kogge_stone_adder(16);
    let s = Stimulus::skewed_vectors(&c, 48, 2, 0xD15EA5E, 3);
    let delays = DelayModel::standard();
    let policy = RebalancePolicy {
        epoch_events: 32,
        min_imbalance_pct: 5,
        max_moves: 16,
    };
    let base = EngineConfig::default().with_shards(4).with_rebalance(Some(policy));
    let faulty = ShardedEngine::from_config(
        &base.clone().with_fault_plan(FaultPlan::seeded(7).panic_on_migration(1)),
    );
    match faulty.try_run(&c, &s, &delays) {
        Err(SimError::TaskPanicked { payload, .. }) => {
            assert!(
                payload.contains("migration epoch"),
                "unexpected panic payload: {payload}"
            );
        }
        Err(other) => panic!("expected TaskPanicked, got: {other}"),
        Ok(_) => panic!("expected the injected migration panic to surface"),
    }
    assert_eq!(faulty.fault_plan().injected().panics, 1);

    // The mailbox fabric and migration bus must have drained: a clean
    // engine with the same rebalancing config runs to completion.
    let clean = ShardedEngine::from_config(&base);
    let out = clean.try_run(&c, &s, &delays).expect("clean run after failure");
    let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
    check_equivalent(&seq, &out).unwrap();
    assert!(out.stats.rebalances >= 1, "rebalancing active on the clean run");
}

#[test]
fn galois_engine_wedge_trips_watchdog() {
    let (c, s) = bench_circuit();
    let engine = GaloisEngine::new(WORKERS)
        .with_fault_plan(FaultPlan::seeded(1).wedged())
        .with_watchdog(Some(WEDGE_DEADLINE));
    let start = Instant::now();
    let result = engine.try_run(&c, &s, &DelayModel::standard());
    assert_no_progress(result, start.elapsed(), "galois");
}
