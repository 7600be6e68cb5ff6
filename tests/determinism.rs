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

/// FNV-1a over everything a deterministic circuit engine hands back:
/// every raw waveform event `(time, value)` (glitches included, not only
/// the settled view), every node value, and the four run counters that
/// fix the event order (`events_delivered`, `events_processed`,
/// `nulls_sent`, `node_runs`).
fn raw_digest(out: &des::engine::SimOutput) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for wf in &out.waveforms {
        feed(wf.len() as u64);
        for e in wf.events() {
            feed(e.time);
            feed(e.value.as_bit());
        }
    }
    for v in &out.node_values {
        feed(v.as_bit());
    }
    let st = &out.stats;
    for n in [st.events_delivered, st.events_processed, st.nulls_sent, st.node_runs] {
        feed(n);
    }
    h
}

/// The deterministic circuit engines' raw output is pinned bit for bit:
/// ks64 under random vectors and `full_adder` at period 1 (every vector
/// lands on the previous one's tail, so equal timestamps are dense).
/// `check_equivalent` compares only settled waveforms, so this is the
/// check that a change to a node's firing rule, its final-value rule or
/// an engine's scheduling left every event in its order.
#[test]
fn raw_output_of_deterministic_engines_is_pinned() {
    use circuit::generators::full_adder;
    use des::engine::seq_heap::SeqHeapEngine;
    use galois::GaloisSeqEngine;

    let d = DelayModel::standard();
    let ks64 = kogge_stone_adder(64);
    let ks64_s = Stimulus::random_vectors(&ks64, 20, 10, 3);
    let fa = full_adder();
    let fa_s = Stimulus::random_vectors(&fa, 25, 1, 3);
    let engines: [(&str, Box<dyn Engine>); 4] = [
        ("seq-workset", Box::new(SeqWorksetEngine::new())),
        ("seq-heap", Box::new(SeqHeapEngine::new())),
        ("galois-seq", Box::new(GaloisSeqEngine::new())),
        (
            "sharded-k1",
            Box::new(ShardedEngine::from_config(&EngineConfig::default().with_shards(1))),
        ),
    ];
    let expected: [(&str, u64, u64); 4] = [
        ("seq-workset", 0xc1be_07da_8cd9_1886, 0xeba5_c304_c082_57b4),
        ("seq-heap", 0x5317_2591_ac68_96e2, 0xbed6_f392_0a19_286b),
        ("galois-seq", 0xe683_ff0d_f615_25b3, 0x2ff1_1974_b314_51ad),
        ("sharded-k1", 0xc1be_07da_8cd9_1886, 0xeba5_c304_c082_57b4),
    ];
    let got: Vec<(&str, u64, u64)> = engines
        .iter()
        .map(|(name, engine)| {
            let ks = raw_digest(&engine.run(&ks64, &ks64_s, &d));
            let fa = raw_digest(&engine.run(&fa, &fa_s, &d));
            (*name, ks, fa)
        })
        .collect();
    assert_eq!(got, expected, "(engine, ks64 digest, full_adder digest)");
}
