//! The batched mailbox fabric must be invisible in the results: whatever
//! the shard count, the partition, and the mailbox capacity (1 hands
//! messages over one at a time, 8 forces partial publishes and `Full`
//! stalls, 1024 never fills), every engine that runs on it reproduces its
//! sequential reference — including across rebalancing barriers and a
//! checkpoint/restore, whose control markers ride the same staged FIFO as
//! the payload they must not overtake.

use circuit::generators::kogge_stone_adder;
use circuit::{Circuit, DelayModel, Stimulus};
use des::engine::seq::SeqWorksetEngine;
use des::engine::{build, Engine, EngineConfig};
use des::validate::check_equivalent;
use des::{FaultPlan, PartitionStrategy, RebalancePolicy, SimOutput};
use model::phold::{self, PholdConfig};
use model::queueing::{self, MmcSpec};
use model::{ModelGraph, Payload};

const CAPACITIES: [usize; 3] = [1, 8, 1024];

fn model_matches_seq<P: Payload>(what: &str, graph: impl Fn() -> ModelGraph<P>) {
    let reference = model::run("model-seq", &EngineConfig::default(), graph());
    assert!(
        reference.stats.events_delivered > 100,
        "{what}: workload too small"
    );
    for strategy in [PartitionStrategy::default(), PartitionStrategy::RoundRobin] {
        for k in [1usize, 2, 4] {
            for capacity in CAPACITIES {
                let cfg = EngineConfig::new()
                    .with_shards(k)
                    .with_strategy(strategy)
                    .with_mailbox_capacity(capacity);
                let out = model::run("model-sharded", &cfg, graph());
                let at = format!("{what} k={k} {strategy:?} capacity={capacity}");
                assert_eq!(reference.checksum, out.checksum, "checksum: {at}");
                assert_eq!(reference.observables, out.observables, "observables: {at}");
                assert_eq!(
                    reference.stats.events_delivered, out.stats.events_delivered,
                    "events delivered: {at}"
                );
                assert_eq!(
                    reference.stats.dropped_at_horizon, out.stats.dropped_at_horizon,
                    "dropped at horizon: {at}"
                );
            }
        }
    }
}

#[test]
fn phold_is_bit_identical_across_shards_partitions_and_capacities() {
    model_matches_seq("phold", || {
        phold::build(
            PholdConfig {
                lps: 24,
                population: 4,
                lookahead: 3,
                remote_fraction: 0.6,
                mean_delay: 7.0,
            },
            17,
            600,
        )
    });
}

#[test]
fn queueing_network_is_bit_identical_across_shards_partitions_and_capacities() {
    model_matches_seq("mmc", || {
        queueing::build(
            MmcSpec {
                stations: 3,
                servers: 2,
                mean_interarrival: 6.0,
                mean_service: 9.0,
                feedback: Some(0.3),
            },
            99,
            3_000,
        )
    });
}

fn circuit_fixture() -> (Circuit, Stimulus, DelayModel, SimOutput) {
    let c = kogge_stone_adder(16);
    let s = Stimulus::skewed_vectors(&c, 24, 2, 0xD15EA5E, 3);
    let d = DelayModel::standard();
    let reference = SeqWorksetEngine::new().run(&c, &s, &d);
    (c, s, d, reference)
}

#[test]
fn sharded_matches_seq_workset_across_shards_and_capacities() {
    let (c, s, d, reference) = circuit_fixture();
    for k in [1usize, 2, 4, 8] {
        for capacity in CAPACITIES {
            let cfg = EngineConfig::default()
                .with_shards(k)
                .with_mailbox_capacity(capacity);
            let out = build("sharded", &cfg).run(&c, &s, &d);
            check_equivalent(&reference, &out)
                .unwrap_or_else(|e| panic!("k={k} capacity={capacity}: {e}"));
            assert_eq!(
                out.stats.nulls_sent as usize,
                c.num_edges(),
                "terminal nulls, k={k} capacity={capacity}"
            );
        }
    }
}

#[test]
fn rebalancing_runs_stay_identical_at_every_capacity() {
    // Barrier markers, `Transferred` and `Retire` are staged behind
    // payload; a marker that overtook a staged event would let a shard
    // migrate a node while traffic for it is still in flight.
    let (c, s, d, reference) = circuit_fixture();
    let policy = RebalancePolicy {
        epoch_events: 32,
        min_imbalance_pct: 5,
        max_moves: 16,
    };
    for k in [2usize, 4] {
        for capacity in CAPACITIES {
            let cfg = EngineConfig::default()
                .with_shards(k)
                .with_mailbox_capacity(capacity)
                .with_rebalance(Some(policy));
            let out = build("sharded", &cfg).run(&c, &s, &d);
            check_equivalent(&reference, &out)
                .unwrap_or_else(|e| panic!("k={k} capacity={capacity}: {e}"));
        }
    }
}

#[test]
fn checkpoint_restore_stays_identical_at_every_capacity() {
    // The checkpoint cut relies on the same ordering: a peer's marker
    // proves all of its pre-snapshot payload has been delivered.
    let (c, s, d, reference) = circuit_fixture();
    for capacity in CAPACITIES {
        let dir =
            std::env::temp_dir().join(format!("des-fabric-ckpt-{capacity}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = EngineConfig::default()
            .with_shards(4)
            .with_mailbox_capacity(capacity)
            .with_checkpoints(40, &dir);
        build(
            "sharded",
            &base
                .clone()
                .with_fault_plan(FaultPlan::seeded(7).kill_rank_at_epoch(0, 2)),
        )
        .try_run(&c, &s, &d)
        .expect_err("the injected kill must fail the first life");
        let out = build("sharded", &base.with_restore(true))
            .try_run(&c, &s, &d)
            .unwrap_or_else(|e| panic!("capacity={capacity}: restored run failed: {e}"));
        check_equivalent(&reference, &out)
            .unwrap_or_else(|e| panic!("capacity={capacity}: restored run diverges: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
