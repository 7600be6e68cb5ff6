//! Cross-engine differential tests: every engine must produce identical
//! deterministic observables on every circuit family.

use std::sync::Arc;

use circuit::generators::{
    c17, fanout_tree, full_adder, inverter_chain, kogge_stone_adder, ripple_carry_adder,
    wallace_multiplier,
};
use circuit::{Circuit, DelayModel, Stimulus};
use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::seq_heap::SeqHeapEngine;
use des::engine::sharded::ShardedEngine;
use des::engine::{build, Engine, EngineConfig};
use des::validate::{check_against_oracle, check_conservation, check_equivalent};
use des::PartitionStrategy;
use galois::{GaloisEngine, GaloisSeqEngine};
use hj::HjRuntime;

fn all_engines(workers: usize) -> Vec<Box<dyn Engine>> {
    let rt = Arc::new(HjRuntime::new(workers));
    let cfg = EngineConfig::default().with_workers(workers);
    let sharded = |k: usize, s: PartitionStrategy| {
        ShardedEngine::from_config(&cfg.clone().with_shards(k).with_strategy(s))
    };
    vec![
        Box::new(SeqWorksetEngine::new()),
        Box::new(SeqHeapEngine::new()),
        Box::new(GaloisSeqEngine::new()),
        Box::new(HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default())),
        Box::new(GaloisEngine::new(workers)),
        build("timewarp", &cfg),
        // The sharded conservative engine, across shard counts and all
        // three partition strategies (K=1 degenerates to a sequential
        // core with zero cut traffic).
        Box::new(ShardedEngine::from_config(&cfg.clone().with_shards(1))),
        Box::new(sharded(2, PartitionStrategy::RoundRobin)),
        Box::new(sharded(4, PartitionStrategy::BfsLayered)),
        Box::new(sharded(8, PartitionStrategy::GreedyCut)),
    ]
}

fn check_all(circuit: &Circuit, stimulus: &Stimulus, workers: usize) {
    let delays = DelayModel::standard();
    let reference = SeqWorksetEngine::new().run(circuit, stimulus, &delays);
    check_conservation(&reference).unwrap();
    check_against_oracle(circuit, stimulus, &reference).unwrap();
    for engine in all_engines(workers) {
        let out = engine.run(circuit, stimulus, &delays);
        check_conservation(&out)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        check_equivalent(&reference, &out)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
    }
}

#[test]
fn equivalence_on_c17() {
    let c = c17();
    check_all(&c, &Stimulus::random_vectors(&c, 12, 3, 101), 2);
}

#[test]
fn equivalence_on_full_adder() {
    let c = full_adder();
    check_all(&c, &Stimulus::random_vectors(&c, 16, 2, 102), 3);
}

#[test]
fn equivalence_on_inverter_chain() {
    let c = inverter_chain(40);
    check_all(&c, &Stimulus::random_vectors(&c, 10, 1, 103), 2);
}

#[test]
fn equivalence_on_fanout_tree() {
    let c = fanout_tree(4, 3);
    check_all(&c, &Stimulus::random_vectors(&c, 5, 4, 104), 4);
}

#[test]
fn equivalence_on_kogge_stone_16() {
    let c = kogge_stone_adder(16);
    check_all(&c, &Stimulus::random_vectors(&c, 4, 6, 105), 4);
}

#[test]
fn equivalence_on_ripple_adder() {
    let c = ripple_carry_adder(16);
    check_all(&c, &Stimulus::random_vectors(&c, 4, 2, 106), 2);
}

#[test]
fn equivalence_on_multiplier_8() {
    let c = wallace_multiplier(8);
    check_all(&c, &Stimulus::random_vectors(&c, 2, 5, 107), 4);
}

#[test]
fn equivalence_with_dense_timestamp_ties() {
    // period 1 maximizes simultaneous events: the hardest tie-ordering
    // regime for cross-engine agreement.
    let c = kogge_stone_adder(8);
    check_all(&c, &Stimulus::random_vectors(&c, 20, 1, 108), 4);
}

#[test]
fn equivalence_with_empty_stimulus() {
    let c = c17();
    check_all(&c, &Stimulus::empty(c.inputs().len()), 2);
}

#[test]
fn equivalence_with_partial_stimulus() {
    // Only some inputs driven: silent inputs still send NULLs, and the
    // engines must agree on the resulting partial activity.
    let c = c17();
    let mut events = vec![Vec::new(); c.inputs().len()];
    events[0] = vec![
        circuit::TimedValue { time: 1, value: circuit::Logic::One },
        circuit::TimedValue { time: 5, value: circuit::Logic::Zero },
    ];
    events[3] = vec![circuit::TimedValue { time: 2, value: circuit::Logic::One }];
    check_all(&c, &Stimulus::from_events(events), 2);
}

#[test]
fn equivalence_single_event() {
    let c = full_adder();
    let mut events = vec![Vec::new(); 3];
    events[1] = vec![circuit::TimedValue { time: 7, value: circuit::Logic::One }];
    check_all(&c, &Stimulus::from_events(events), 2);
}

#[test]
fn galois_forced_conflicts_preserve_observables() {
    // Abort-heavy differential test: force ~30% of ownership
    // acquisitions to conflict, driving the speculative abort / rollback
    // / retry machinery far harder than organic contention ever does.
    // Committed observables must still match the sequential oracle, and
    // the injected conflicts must be visible in the stats.
    use des::FaultPlan;

    let c = kogge_stone_adder(8);
    let s = Stimulus::random_vectors(&c, 6, 2, 109);
    let delays = DelayModel::standard();
    let reference = SeqWorksetEngine::new().run(&c, &s, &delays);

    let engine = GaloisEngine::new(3)
        .with_fault_plan(FaultPlan::seeded(29).force_conflicts(0.3));
    let out = engine
        .try_run(&c, &s, &delays)
        .expect("forced conflicts only abort-and-retry; the run must still complete");
    assert!(out.stats.aborts > 0, "forced conflicts should cause aborts");
    assert!(
        out.stats.lock_failures > 0,
        "injected conflicts should be counted as lock failures"
    );
    check_conservation(&out).unwrap();
    check_equivalent(&reference, &out).unwrap();
    check_against_oracle(&c, &s, &out).unwrap();
}
