//! Race every engine on the same workload — the paper's §5 comparison in
//! miniature, extended with the engines the paper only references
//! (global event list, Time Warp) or adds beside it (sharded).
//!
//! ```sh
//! cargo run --release --example engine_comparison [workers]
//! ```

use std::sync::Arc;
use std::time::Instant;

use circuit::{generators, DelayModel, Stimulus};
use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::seq_heap::SeqHeapEngine;
use des::engine::{build, Engine, EngineConfig};
use des::validate::{check_equivalent, observables};
use des::RebalancePolicy;
use galois::{GaloisEngine, GaloisSeqEngine};
use hj::HjRuntime;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("workers must be an integer"))
        .unwrap_or(2);

    // An 8-bit multiplier keeps the run interactive: the Time Warp
    // entrant pays heavy rollback storms on this workload class (that is
    // the point of including it — see EXPERIMENTS.md).
    let circuit = generators::wallace_multiplier(8);
    let stimulus = Stimulus::random_vectors(&circuit, 1, 10, 7);
    let delays = DelayModel::standard();
    println!(
        "workload: 8-bit tree multiplier, {} nodes, {} initial events, {workers} workers\n",
        circuit.num_nodes(),
        stimulus.num_events()
    );

    let rt = Arc::new(HjRuntime::new(workers));
    let cfg = EngineConfig::default().with_workers(workers);
    let sharded_cfg = cfg.clone().with_shards(workers.max(2));
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(SeqWorksetEngine::new()),
        Box::new(SeqHeapEngine::new()),
        Box::new(GaloisSeqEngine::new()),
        Box::new(HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default())),
        Box::new(GaloisEngine::new(workers)),
        build("timewarp", &cfg),
        build("sharded", &sharded_cfg),
        // The sharded engine again, with epoch-barrier repartitioning
        // on: the rebalances / imbalance columns are its report card.
        build(
            "sharded",
            &sharded_cfg.clone().with_rebalance(Some(RebalancePolicy {
                epoch_events: 256,
                min_imbalance_pct: 10,
                max_moves: 32,
            })),
        ),
        // The same shard cores over localhost TCP sockets (2 "process"
        // ranks in-process): measures what the wire costs end to end.
        build("tcp-sharded", &sharded_cfg.clone().with_processes(2)),
    ];

    let reference = SeqWorksetEngine::new().run(&circuit, &stimulus, &delays);
    println!(
        "{:<26} {:>12} {:>14} {:>10} {:>9} {:>7} {:>7}",
        "engine", "time", "events", "runs", "aborts", "rebal", "imbal%"
    );
    for engine in &engines {
        let start = Instant::now();
        let out = engine.run(&circuit, &stimulus, &delays);
        let elapsed = start.elapsed();
        check_equivalent(&reference, &out).expect("all engines agree");
        println!(
            "{:<26} {:>12} {:>14} {:>10} {:>9} {:>7} {:>7}",
            engine.name(),
            format!("{elapsed:.2?}"),
            out.stats.events_delivered,
            out.stats.node_runs,
            out.stats.aborts,
            out.stats.rebalances,
            out.stats.shard_load_imbalance_pct
        );
    }
    println!(
        "\nall engines produced identical deterministic observables \
         ({} total events, {} outputs) ✓",
        observables(&reference).total_events,
        reference.waveforms.len()
    );

    // The same race on the payload-generic model layer: a PHOLD ring
    // through the sequential model engine and the sharded executor —
    // the workload class sim-replicate fans out by the thousands.
    let phold = model::phold::PholdConfig {
        lps: 16,
        population: 4,
        lookahead: 4,
        remote_fraction: 0.5,
        mean_delay: 10.0,
    };
    let (seed, horizon) = (7u64, 2_000u64);
    println!(
        "\nworkload: PHOLD ring, {} LPs, population {}, horizon {horizon}\n",
        phold.lps,
        phold.lps * phold.population
    );
    println!("{:<26} {:>12} {:>14} {:>18}", "engine", "time", "events", "checksum");
    let mut model_reference: Option<model::ModelOutput> = None;
    for (engine, shards) in
        [("model-seq", 1), ("model-sharded", workers.max(2))]
    {
        let ecfg = EngineConfig::default().with_shards(shards);
        let start = Instant::now();
        let out = model::run(engine, &ecfg, model::phold::build(phold, seed, horizon));
        let elapsed = start.elapsed();
        match &model_reference {
            None => model_reference = Some(out.clone()),
            Some(r) => r.assert_equivalent(&out),
        }
        println!(
            "{:<26} {:>12} {:>14} {:>18}",
            format!("{engine} (K={shards})"),
            format!("{elapsed:.2?}"),
            out.stats.events_delivered,
            format!("{:#018x}", out.checksum),
        );
    }
    println!(
        "\nmodel engines produced identical observables and event-stream \
         checksums ✓"
    );
}
