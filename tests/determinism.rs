//! Determinism: the parallel engines may interleave differently on every
//! run, but the deterministic observables must never change — across
//! repetitions, worker counts, and optimization configurations.

use std::sync::Arc;

use circuit::generators::{kogge_stone_adder, wallace_multiplier};
use circuit::{DelayModel, Stimulus};
use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::sharded::ShardedEngine;
use des::engine::{build, Engine, EngineConfig};
use des::validate::observables;
use des::PartitionStrategy;
use galois::GaloisEngine;
use hj::HjRuntime;

#[test]
fn hj_engine_is_deterministic_across_runs() {
    let c = kogge_stone_adder(12);
    let s = Stimulus::random_vectors(&c, 6, 2, 7);
    let d = DelayModel::standard();
    let engine = build("hj", &EngineConfig::default().with_workers(4));
    let first = observables(&engine.run(&c, &s, &d));
    for rep in 0..5 {
        let again = observables(&engine.run(&c, &s, &d));
        assert_eq!(first, again, "repetition {rep} diverged");
    }
}

#[test]
fn observables_independent_of_worker_count() {
    let c = wallace_multiplier(6);
    let s = Stimulus::random_vectors(&c, 3, 3, 8);
    let d = DelayModel::standard();
    let reference = observables(&SeqWorksetEngine::new().run(&c, &s, &d));
    for workers in [1, 2, 3, 8] {
        let cfg = EngineConfig::default().with_workers(workers);
        let hj = observables(&build("hj", &cfg).run(&c, &s, &d));
        assert_eq!(reference, hj, "hj with {workers} workers");
        let ga = observables(&GaloisEngine::new(workers).run(&c, &s, &d));
        assert_eq!(reference, ga, "galois with {workers} workers");
    }
}

#[test]
fn observables_independent_of_hj_config() {
    let c = kogge_stone_adder(8);
    let s = Stimulus::random_vectors(&c, 8, 1, 9); // dense ties
    let d = DelayModel::standard();
    let reference = observables(&SeqWorksetEngine::new().run(&c, &s, &d));
    let rt = Arc::new(HjRuntime::new(3));
    for per_port in [false, true] {
        for early in [false, true] {
            for avoid in [false, true] {
                let config = HjEngineConfig {
                    per_port_locks: per_port,
                    early_port_release: early,
                    avoid_redundant_spawns: avoid,
                };
                let engine = HjEngine::with_config(Arc::clone(&rt), config);
                let got = observables(&engine.run(&c, &s, &d));
                assert_eq!(reference, got, "config {config:?}");
            }
        }
    }
}

#[test]
fn sharded_engine_is_deterministic_across_runs() {
    // The cross-shard interleaving (mailbox arrival order, lookahead
    // promise timing) varies freely between runs; the observables must
    // not.
    let c = kogge_stone_adder(12);
    let s = Stimulus::random_vectors(&c, 6, 2, 7);
    let d = DelayModel::standard();
    let engine = build("sharded", &EngineConfig::default().with_shards(4));
    let first = observables(&engine.run(&c, &s, &d));
    for rep in 0..5 {
        let again = observables(&engine.run(&c, &s, &d));
        assert_eq!(first, again, "repetition {rep} diverged");
    }
}

#[test]
fn sharded_observables_independent_of_shard_count_and_strategy() {
    let c = wallace_multiplier(6);
    let s = Stimulus::random_vectors(&c, 3, 3, 8);
    let d = DelayModel::standard();
    let reference = observables(&SeqWorksetEngine::new().run(&c, &s, &d));
    for strategy in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::BfsLayered,
        PartitionStrategy::GreedyCut,
    ] {
        for k in [1, 2, 3, 8] {
            let engine = ShardedEngine::from_config(
                &EngineConfig::default().with_shards(k).with_strategy(strategy),
            );
            let got = observables(&engine.run(&c, &s, &d));
            assert_eq!(reference, got, "sharded k={k} {strategy:?}");
        }
    }
}

#[test]
fn total_events_match_path_count_law() {
    // Analytic cross-check of the "# total events" determinism: delivered
    // events = Σ over vectors of Σ over edges of (paths from inputs to the
    // edge's source) … computed directly by a DAG sweep.
    let c = kogge_stone_adder(8);
    let vectors = 3;
    let s = Stimulus::random_vectors(&c, vectors, 5, 10);
    let d = DelayModel::standard();
    let out = SeqWorksetEngine::new().run(&c, &s, &d);

    // paths[v] = number of initial events that reach v per vector
    // (inputs emit 1 per vector; every node re-emits the sum of its
    // in-edge arrivals on each out-edge).
    let mut emitted = vec![0u64; c.num_nodes()];
    for &i in c.inputs() {
        emitted[i.index()] = 1;
    }
    for &id in c.topo_order() {
        let node = c.node(id);
        if !node.fanin.is_empty() {
            let received: u64 = node.fanin.iter().map(|s| emitted[s.index()]).sum();
            emitted[id.index()] = received;
        }
    }
    let per_vector: u64 = c
        .edges()
        .map(|(src, _)| emitted[src.index()])
        .sum::<u64>()
        // plus the initial events delivered to the input nodes themselves
        + c.inputs().len() as u64;
    assert_eq!(out.stats.events_delivered, per_vector * vectors as u64);
}
