//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [OPTIONS] [EXPERIMENT...]
//!
//! EXPERIMENTS: see `repro --help` — the list is generated from
//! `des_bench::experiments::EXPERIMENTS`, the single source of truth
//! the dispatch table below is tested against.
//!
//! OPTIONS:
//!   --full            paper-scale stimuli (Table 1 initial-event counts)
//!   --tiny            sub-second stimuli (CI smoke)
//!   --workers LIST    comma-separated worker counts (default 1,2,4)
//!   --reps N          repetitions per timing point (default 3; paper: 20)
//! ```
//!
//! Host note: the evaluation machine in the paper had 32 POWER7 cores;
//! worker counts beyond this host's cores measure oversubscription, not
//! scaling. The engine-vs-engine comparison is the reproducible claim.

use std::sync::Arc;

use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::seq_heap::SeqHeapEngine;
use des::engine::{Engine, EngineConfig};
use des::profile::available_parallelism;
use des_bench::report::{fmt_count, fmt_duration, Table};
use des_bench::runner::measure;
use des_bench::workloads::{PaperCircuit, Scale, Workload};
use galois::{GaloisEngine, GaloisSeqEngine};
use hj::HjRuntime;

struct Options {
    scale: Scale,
    scale_name: &'static str,
    workers: Vec<usize>,
    reps: usize,
    experiments: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: Scale::quick(),
        scale_name: "quick",
        workers: vec![1, 2, 4],
        reps: 3,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => {
                opts.scale = Scale::paper();
                opts.scale_name = "paper";
            }
            "--tiny" => {
                opts.scale = Scale::tiny();
                opts.scale_name = "tiny";
            }
            "--workers" => {
                let list = args.next().expect("--workers needs a value");
                opts.workers = list
                    .split(',')
                    .map(|w| w.parse().expect("worker counts are integers"))
                    .collect();
            }
            "--reps" => {
                opts.reps = args
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("reps is an integer");
            }
            "--help" | "-h" => {
                println!("usage: repro [--full|--tiny] [--workers 1,2,4] [--reps N] [EXPERIMENT...]");
                println!("experiments ('all' or none runs every row):");
                for e in des_bench::EXPERIMENTS {
                    println!("  {:<10} {}", e.name, e.summary);
                }
                std::process::exit(0);
            }
            exp => opts.experiments.push(exp.to_string()),
        }
    }
    if let Some(unknown) = des_bench::experiments::first_unknown(&opts.experiments) {
        eprintln!(
            "unknown experiment {unknown:?} — known: {}",
            des_bench::experiments::names_line()
        );
        std::process::exit(2);
    }
    if opts.experiments.is_empty() || opts.experiments.iter().any(|e| e == "all") {
        opts.experiments =
            des_bench::experiments::names().iter().map(|s| s.to_string()).collect();
    }
    opts
}

/// Experiment dispatch. Kept in lockstep with
/// [`des_bench::experiments::EXPERIMENTS`] — see the test below.
type ExperimentFn = fn(&Options);
const DISPATCH: &[(&str, ExperimentFn)] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig4", |o| figure_sweep(o, PaperCircuit::Mult12, "Figure 4")),
    ("fig5", |o| figure_sweep(o, PaperCircuit::Ks64, "Figure 5")),
    ("fig6", |o| figure_sweep(o, PaperCircuit::Ks128, "Figure 6")),
    ("fig7", fig7),
    ("ablation", ablation),
    ("paper", paper_check),
    ("rebalance", rebalance_experiment),
    ("net", net_experiment),
    ("faults", faults),
    ("obs", obs_experiment),
    ("obs-dist", obs_dist_experiment),
    ("recover", recover_experiment),
];

fn main() {
    let opts = parse_args();
    println!(
        "# PMAM'15 DES reproduction — scale={}, workers={:?}, reps={}, host cores={}",
        opts.scale_name,
        opts.workers,
        opts.reps,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!();
    for exp in &opts.experiments {
        let (_, run) = DISPATCH
            .iter()
            .find(|(name, _)| name == exp)
            .expect("parse_args validated every name against the registry DISPATCH mirrors");
        run(&opts);
    }
}


/// Paper values for side-by-side reporting.
fn paper_table1(which: PaperCircuit) -> (u64, u64, u64, u64) {
    // (nodes, edges, initial events, total events)
    match which {
        PaperCircuit::Mult12 => (2_731, 5_100, 49, 56_035_581),
        PaperCircuit::Ks64 => (1_306, 2_289, 128_258, 89_683_016),
        PaperCircuit::Ks128 => (2_973, 5_303, 66_050, 102_591_960),
    }
}

fn table1(opts: &Options) {
    println!("## Table 1: profiles of the input circuits");
    let mut t = Table::new([
        "circuit", "nodes", "nodes(paper)", "edges", "edges(paper)", "init ev", "init(paper)",
        "total ev", "total(paper)",
    ]);
    for pc in PaperCircuit::ALL {
        let w = pc.workload(opts.scale);
        let out = SeqWorksetEngine::new().run(&w.circuit, &w.stimulus, &w.delays);
        let (pn, pe, pi, pt) = paper_table1(pc);
        t.row([
            w.name.to_string(),
            fmt_count(w.circuit.num_nodes() as u64),
            fmt_count(pn),
            fmt_count(w.circuit.num_edges() as u64),
            fmt_count(pe),
            fmt_count(w.initial_events() as u64),
            fmt_count(pi),
            fmt_count(out.stats.events_delivered),
            fmt_count(pt),
        ]);
    }
    println!("{}", t.render());
}

/// The least events/s ratio of `seq-workset` (per-port queues) over
/// `seq-heap` (one global event heap) that `table2` accepts on ks128.
const TABLE2_MIN_VS_HEAP: f64 = 1.5;

fn table2(opts: &Options) {
    println!("## Table 2: sequential execution time (ArrayDeque-style vs PriorityQueue-style)");
    let mut t = Table::new(["circuit", "hj-seq (min)", "galois-seq (min)", "ratio", "paper ratio"]);
    let mut ks128_workset_s = 0.0;
    for pc in PaperCircuit::ALL {
        let w = pc.workload(opts.scale);
        let hj = measure(&SeqWorksetEngine::new(), &w, 1, opts.reps).summary();
        if pc == PaperCircuit::Ks128 {
            ks128_workset_s = hj.min.as_secs_f64();
        }
        let ga = measure(&GaloisSeqEngine::new(), &w, 1, opts.reps).summary();
        let ratio = ga.min.as_secs_f64() / hj.min.as_secs_f64();
        let paper_ratio = match pc {
            PaperCircuit::Mult12 => 84_077.0 / 31_934.0,
            PaperCircuit::Ks64 => 134_061.0 / 49_004.0,
            PaperCircuit::Ks128 => 163_643.0 / 66_363.0,
        };
        t.row([
            w.name.to_string(),
            fmt_duration(hj.min),
            fmt_duration(ga.min),
            format!("{ratio:.2}x"),
            format!("{paper_ratio:.2}x"),
        ]);
    }
    println!("{}", t.render());
    // Cross-check: the global-event-heap reference must be slower than
    // the per-port-deque engine by TABLE2_MIN_VS_HEAP on ks128. Tiny runs
    // are noise-dominated, so the assert holds at quick/paper scale only.
    // Both engines deliver the same events, so the ratio of their times
    // is the ratio of their events/s.
    let w = PaperCircuit::Ks128.workload(opts.scale);
    let heap = measure(&SeqHeapEngine::new(), &w, 1, opts.reps).summary();
    let vs_heap = heap.min.as_secs_f64() / ks128_workset_s;
    println!(
        "(reference: global-event-heap engine on ks128: min {}; \
         seq-workset {vs_heap:.2}x its events/s)\n",
        fmt_duration(heap.min)
    );
    if opts.scale_name != "tiny" {
        assert!(
            vs_heap >= TABLE2_MIN_VS_HEAP,
            "seq-workset must be >={TABLE2_MIN_VS_HEAP}x seq-heap events/s on ks128, \
             got {vs_heap:.2}x"
        );
    }
}

fn fig1(opts: &Options) {
    println!("## Figure 1: available parallelism in DES (tree multiplier)");
    let w = PaperCircuit::Mult12.workload(opts.scale);
    let p = available_parallelism(&w.circuit, &w.stimulus, &w.delays);
    println!(
        "rounds={} peak={} mean={:.1} total events={}",
        p.rounds(),
        p.peak(),
        p.mean(),
        fmt_count(p.total_events)
    );
    // Condense to at most 60 buckets (max-pooled) for terminal display.
    let n = p.active_per_round.len();
    let bucket = n.div_ceil(60).max(1);
    println!("step  parallelism (each row max-pools {bucket} steps)");
    let peak = p.peak().max(1);
    for (b, chunk) in p.active_per_round.chunks(bucket).enumerate() {
        let m = chunk.iter().copied().max().unwrap_or(0);
        let bar_len = m * 50 / peak;
        println!("{:>5} {:>6} {}", b * bucket, m, "#".repeat(bar_len));
    }
    println!();
}

fn figure_sweep(opts: &Options, pc: PaperCircuit, figure: &str) {
    println!(
        "## {figure}: execution time and speedup vs workers ({})",
        pc.name()
    );
    let w = pc.workload(opts.scale);
    // Speedup baseline: sequential Galois (the paper's choice).
    let baseline = measure(&GaloisSeqEngine::new(), &w, 1, opts.reps).summary().min;
    println!("baseline (galois-seq, min): {}", fmt_duration(baseline));
    let mut t = Table::new([
        "workers", "hj (min)", "hj speedup", "galois (min)", "galois speedup", "hj/galois",
    ]);
    for &workers in &opts.workers {
        let rt = Arc::new(HjRuntime::new(workers));
        let hj_engine = HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default());
        let hj = measure(&hj_engine, &w, 1, opts.reps).summary();
        let ga = measure(&GaloisEngine::new(workers), &w, 1, opts.reps).summary();
        t.row([
            workers.to_string(),
            fmt_duration(hj.min),
            format!("{:.2}x", hj.speedup_vs(baseline)),
            fmt_duration(ga.min),
            format!("{:.2}x", ga.speedup_vs(baseline)),
            format!("{:.2}", hj.min.as_secs_f64() / ga.min.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
}

fn fig7(opts: &Options) {
    let workers = *opts.workers.iter().max().expect("non-empty worker list");
    println!("## Figure 7: mean execution time ± 95% CI at {workers} workers (n={})", opts.reps);
    let mut t = Table::new(["circuit", "hj mean", "hj ±CI", "galois mean", "galois ±CI"]);
    for pc in PaperCircuit::ALL {
        let w = pc.workload(opts.scale);
        let rt = Arc::new(HjRuntime::new(workers));
        let hj_engine = HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default());
        let hj = measure(&hj_engine, &w, 1, opts.reps).summary();
        let ga = measure(&GaloisEngine::new(workers), &w, 1, opts.reps).summary();
        t.row([
            w.name.to_string(),
            fmt_duration(hj.mean),
            fmt_duration(hj.ci95_half),
            fmt_duration(ga.mean),
            fmt_duration(ga.ci95_half),
        ]);
    }
    println!("{}", t.render());
}

fn ablation_configs() -> Vec<(&'static str, HjEngineConfig)> {
    vec![
        ("all-on (paper)", HjEngineConfig::default()),
        (
            "per-node locks (§4.5.1a off)",
            HjEngineConfig {
                per_port_locks: false,
                ..HjEngineConfig::default()
            },
        ),
        (
            "no early release (§4.5.1b off)",
            HjEngineConfig {
                early_port_release: false,
                ..HjEngineConfig::default()
            },
        ),
        (
            "redundant spawns (§4.5.3 off)",
            HjEngineConfig {
                avoid_redundant_spawns: false,
                ..HjEngineConfig::default()
            },
        ),
    ]
}

fn ablation(opts: &Options) {
    let workers = *opts.workers.iter().max().expect("non-empty worker list");
    println!("## Ablation of the §4.5 optimizations ({} workers)", workers);
    for pc in [PaperCircuit::Ks64, PaperCircuit::Mult12] {
        let w: Workload = pc.workload(opts.scale);
        println!("### {}", w.name);
        let mut t = Table::new(["configuration", "min time", "lock failures", "wasted", "tasks note"]);
        for (label, config) in ablation_configs() {
            let rt = Arc::new(HjRuntime::new(workers));
            let engine = HjEngine::with_config(Arc::clone(&rt), config);
            let m = measure(&engine, &w, 1, opts.reps);
            let s = m.summary();
            t.row([
                label.to_string(),
                fmt_duration(s.min),
                fmt_count(m.sim_stats.lock_failures),
                fmt_count(m.sim_stats.wasted_activations),
                format!("{} runs", fmt_count(m.sim_stats.node_runs)),
            ]);
        }
        println!("{}", t.render());
    }
    // §4.5.1 queue-representation ablation is Table 2 (deque vs ordered
    // queue); §4.5.2 (AtomicBool vs heavier locks) is benchmarked in
    // `benches/ablation_queues.rs`.
}

/// Timed runs per engine in the paper check, taken round-robin across
/// the engines so a change in the host's speed hits all of them alike.
const PAPER_REPS: usize = 5;

/// Largest `hj(2) / hj(1)` min-time ratio the paper check accepts. On a
/// 2-vCPU host it reads 0.42–0.81 with per-task counters and 1.00–1.27
/// with three shared writes per event (EXPERIMENTS.md, "Paper shape").
const PAPER_MAX_SCALING: f64 = 0.9;

/// Largest `hj(2) / seq-workset` min-time ratio on ks128 the check
/// accepts. Same host: 0.51–0.70 with per-task counters, 0.75–0.90 with
/// one shared counter written per delivered event, 1.82–2.05 with three.
const PAPER_MAX_VS_SEQ: f64 = 0.8;

/// The paper's shape claims (Figures 4–6) at the two worker counts a
/// 2-core host has: `hj` at 2 workers is faster than `hj` at 1 worker on
/// every circuit, and faster than the sequential workset engine on ks128.
/// Each time is the min of [`PAPER_REPS`] runs. Panics when a claim
/// misses its margin; HJ/Galois is reported, not gated.
fn paper_check(opts: &Options) {
    println!("## Paper shape: hj with a second worker (min of {PAPER_REPS} reps)");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("not applicable: a {cores}-core host cannot run 2 workers in parallel\n");
        return;
    }
    let (rt1, rt2) = (Arc::new(HjRuntime::new(1)), Arc::new(HjRuntime::new(2)));
    let mut t = Table::new([
        "circuit", "hj(1)", "hj(2)", "hj(2)/hj(1)", "seq-workset", "hj(2)/seq", "hj/galois(2)",
    ]);
    let mut misses = Vec::new();
    for pc in PaperCircuit::ALL {
        let w = pc.workload(opts.scale);
        let engines: [Box<dyn Engine>; 4] = [
            Box::new(HjEngine::with_config(Arc::clone(&rt1), HjEngineConfig::default())),
            Box::new(HjEngine::with_config(Arc::clone(&rt2), HjEngineConfig::default())),
            Box::new(SeqWorksetEngine::new()),
            Box::new(GaloisEngine::new(2)),
        ];
        let mut best = [std::time::Duration::MAX; 4];
        // Round 0 warms the pools and caches and is not counted.
        for round in 0..=PAPER_REPS {
            for (engine, best) in engines.iter().zip(&mut best) {
                let time = measure(engine.as_ref(), &w, 0, 1).times[0];
                if round > 0 {
                    *best = (*best).min(time);
                }
            }
        }
        let [hj1, hj2, seq, galois] = best.map(|d| d.as_secs_f64());
        let (scaling, vs_seq) = (hj2 / hj1, hj2 / seq);
        if scaling > PAPER_MAX_SCALING {
            misses.push(format!("{}: hj(2)/hj(1) = {scaling:.2} > {PAPER_MAX_SCALING}", w.name));
        }
        if pc == PaperCircuit::Ks128 && vs_seq > PAPER_MAX_VS_SEQ {
            misses.push(format!("ks128: hj(2)/seq-workset = {vs_seq:.2} > {PAPER_MAX_VS_SEQ}"));
        }
        t.row([
            w.name.to_string(),
            fmt_duration(best[0]),
            fmt_duration(best[1]),
            format!("{scaling:.2}"),
            fmt_duration(best[2]),
            format!("{vs_seq:.2}"),
            format!("{:.2}", hj2 / galois),
        ]);
    }
    println!("{}", t.render());
    if opts.scale_name == "tiny" {
        println!("paper shape gate: tiny runs are noise, gate skipped\n");
    } else if misses.is_empty() {
        println!(
            "paper shape gate: met (hj(2)/hj(1) <= {PAPER_MAX_SCALING} on every circuit, \
             hj(2)/seq-workset <= {PAPER_MAX_VS_SEQ} on ks128)\n"
        );
    } else {
        panic!("paper shape claims missed: {}", misses.join("; "));
    }
}

/// Dynamic repartitioning experiment (DESIGN.md §10): a deliberately
/// skewed stimulus concentrates events on a few inputs of ks128, so the
/// node-count-balanced static partition is badly load-imbalanced. The
/// rebalancing engine must observe that imbalance at its epoch barriers,
/// migrate boundary nodes off the hot shard, and report a lower observed
/// imbalance — with the deterministic observables untouched.
fn rebalance_experiment(opts: &Options) {
    use des::engine::sharded::ShardedEngine;
    use des::validate::check_equivalent;
    use des::RebalancePolicy;

    let base = PaperCircuit::Ks128.workload(opts.scale);
    let num_vectors = opts.scale.vectors(PaperCircuit::Ks128).max(8);
    let stimulus =
        circuit::Stimulus::skewed_vectors(&base.circuit, num_vectors, 10, 0xD15EA5E, 8);
    let w = Workload {
        name: "ks128-skewed",
        circuit: base.circuit,
        stimulus,
        delays: base.delays,
    };
    println!(
        "## Dynamic repartitioning: skewed {} ({} initial events), K=4 shards",
        w.name,
        w.initial_events()
    );
    let policy = RebalancePolicy {
        epoch_events: 512,
        min_imbalance_pct: 10,
        max_moves: 64,
    };
    let cfg = EngineConfig::default().with_shards(4);
    let static_m = measure(&ShardedEngine::from_config(&cfg), &w, 1, opts.reps);
    let dynamic_m = measure(
        &ShardedEngine::from_config(&cfg.clone().with_rebalance(Some(policy))),
        &w,
        1,
        opts.reps,
    );

    let mut t = Table::new([
        "engine", "min time", "observed imbalance", "rebalances", "nodes moved", "cut events",
    ]);
    for (label, m) in [("static", &static_m), ("rebalancing", &dynamic_m)] {
        let s = &m.sim_stats;
        t.row([
            label.to_string(),
            fmt_duration(m.summary().min),
            format!("{}%", s.shard_load_imbalance_pct),
            fmt_count(s.rebalances),
            fmt_count(s.nodes_migrated),
            fmt_count(s.cut_events_sent),
        ]);
    }
    println!("{}", t.render());

    let static_out = ShardedEngine::from_config(&cfg).run(&w.circuit, &w.stimulus, &w.delays);
    let dynamic_out = ShardedEngine::from_config(&cfg.clone().with_rebalance(Some(policy)))
        .run(&w.circuit, &w.stimulus, &w.delays);
    check_equivalent(&static_out, &dynamic_out)
        .expect("rebalancing must not change the deterministic observables");
    assert!(
        dynamic_out.stats.rebalances >= 1,
        "the skewed workload must trigger at least one rebalance"
    );
    println!(
        "observables identical; imbalance {}% -> {}% with {} rebalances ({} nodes moved)",
        static_out.stats.shard_load_imbalance_pct,
        dynamic_out.stats.shard_load_imbalance_pct,
        dynamic_out.stats.rebalances,
        fmt_count(dynamic_out.stats.nodes_migrated),
    );
    println!();
}

/// Socket-transport experiment: the sharded engine over the two-process
/// localhost TCP fabric, sweeping the adaptive batching threshold
/// (DESIGN.md §9). Loopback sharded at the same K is the transport-free
/// baseline; the frames/bytes columns show what batching buys on the
/// wire, and `msgs/frame` how close each threshold gets to its target.
fn net_experiment(opts: &Options) {
    use des::engine::sharded::ShardedEngine;
    use des::TcpShardedEngine;

    let w = PaperCircuit::Ks128.workload(opts.scale);
    println!(
        "## Socket transport: batch-size sweep ({}, K=4 shards over 2 localhost processes)",
        w.name
    );
    let loopback = measure(
        &ShardedEngine::from_config(&EngineConfig::default().with_shards(4)),
        &w,
        1,
        opts.reps,
    );
    println!(
        "loopback sharded K=4 baseline (min): {}, cut events {}",
        fmt_duration(loopback.summary().min),
        fmt_count(loopback.sim_stats.cut_events_sent),
    );
    let mut t = Table::new([
        "batch", "min time", "frames", "bytes", "msgs/frame", "forced flushes",
    ]);
    for batch in [1usize, 16, 64, 256] {
        let engine = TcpShardedEngine::from_config(
            &EngineConfig::default().with_shards(4).with_processes(2).with_batch_msgs(batch),
        );
        let m = measure(&engine, &w, 1, opts.reps);
        let s = m.sim_stats;
        assert_eq!(
            s.cut_events_sent, loopback.sim_stats.cut_events_sent,
            "transport must not change the cut traffic"
        );
        let per_frame = if s.net_frames_sent > 0 {
            s.net_msgs_batched as f64 / s.net_frames_sent as f64
        } else {
            0.0
        };
        t.row([
            batch.to_string(),
            fmt_duration(m.summary().min),
            fmt_count(s.net_frames_sent),
            fmt_count(s.net_bytes_sent),
            format!("{per_frame:.1}"),
            fmt_count(s.net_forced_flushes),
        ]);
    }
    println!("{}", t.render());
}

/// Observability experiment (DESIGN.md §11): every engine runs the same
/// workload with the sim-obs recorder off and on; the table is the
/// overhead verdict and the per-engine time breakdown. The run then
/// exercises all three exporters end to end — `BENCH_obs_run.json` is
/// written and re-parsed, the Perfetto trace is written and re-parsed,
/// and a real scrape endpoint is served, fetched over TCP, and linted.
fn obs_experiment(opts: &Options) {
    use des_bench::obs_report::{self, ObsReport};
    use obs::prometheus::MetricsServer;
    use std::io::{Read, Write};

    let workers = *opts.workers.iter().max().expect("non-empty worker list");
    let w = PaperCircuit::Ks128.workload(opts.scale);
    println!(
        "## Observability: sim-obs overhead and exporters ({}, {} workers, min of {} reps)",
        w.name, workers, opts.reps
    );
    let mut t = Table::new([
        "engine", "obs off (min)", "obs on (min)", "overhead", "events/s", "node-run p50",
        "node-run p99",
    ]);
    let mut rows = Vec::new();
    let mut exemplar: Option<des::Recorder> = None;
    for name in des::ENGINE_NAMES {
        let (row, recorder) =
            obs_report::measure_engine(name, &w, workers, opts.reps).expect("known engine");
        t.row([
            name.to_string(),
            fmt_duration(row.disabled_min),
            fmt_duration(row.enabled_min),
            format!("{:+.1}%", row.overhead_pct),
            fmt_count(row.events_per_sec as u64),
            format!("{} ns", fmt_count(row.node_run_ns.quantile(0.50))),
            format!("{} ns", fmt_count(row.node_run_ns.quantile(0.99))),
        ]);
        rows.push(row);
        // The richest trace for the Perfetto export: the parallel
        // conservative engine the paper is about.
        if name == "hj" {
            exemplar = Some(recorder);
        }
    }
    println!("{}", t.render());
    let worst = rows
        .iter()
        .map(|r| r.overhead_pct)
        .fold(f64::MIN, f64::max);
    println!(
        "worst-case enabled overhead: {worst:+.1}% (target: <= 5% on ks128 at paper scale; \
         tiny/quick runs are noise-dominated)"
    );

    // Exporter 1: the JSON report — written, then re-parsed before
    // anything downstream is allowed to trust it.
    let report = ObsReport {
        workload: w.name.to_string(),
        scale: opts.scale_name.to_string(),
        reps: opts.reps,
        rows,
    };
    // Regression gate: compare against the committed baseline, so a
    // rerun that made the recorder meaningfully more expensive fails
    // loudly. The fresh report goes to its own file, so every run gates
    // against the committed baseline and never against the previous run;
    // refreshing the baseline is an explicit copy. A checkout without the
    // file (a wiped workspace) skips the gate rather than inventing one.
    match std::fs::read_to_string("BENCH_obs.json") {
        Ok(baseline) => match obs_report::check_regression(&baseline, &report) {
            Ok(lines) => {
                for line in &lines {
                    println!("gate: {line}");
                }
                println!("obs overhead gate: no regression");
            }
            Err(e) => panic!("obs overhead regressed vs committed BENCH_obs.json: {e}"),
        },
        Err(_) => println!("obs overhead gate: no committed BENCH_obs.json, skipped"),
    }

    let json = obs_report::to_json(&report);
    std::fs::write("BENCH_obs_run.json", &json).expect("write BENCH_obs_run.json");
    match obs_report::validate_json(&json) {
        Ok(n) => println!("BENCH_obs_run.json: written and re-parsed OK ({n} engines)"),
        Err(e) => panic!("BENCH_obs_run.json failed validation: {e}"),
    }

    // Exporter 2: Perfetto trace-event JSON from the hj run's rings.
    let recorder = exemplar.expect("hj is in ENGINE_NAMES");
    let trace = recorder.perfetto_json("repro-obs");
    let doc = obs::json::parse(&trace).expect("Perfetto export must be valid JSON");
    let n_events = doc
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .map(|a| a.len())
        .expect("traceEvents array");
    assert!(n_events > 0, "hj run produced no trace events");
    std::fs::write("BENCH_obs_trace.json", &trace).expect("write BENCH_obs_trace.json");
    println!("BENCH_obs_trace.json: {n_events} Perfetto trace events, re-parsed OK");

    // Exporter 3: a real Prometheus scrape — served on a loopback port,
    // fetched over TCP like a scraper would, and format-linted.
    let server =
        MetricsServer::serve("127.0.0.1:0", recorder.clone()).expect("bind metrics server");
    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    server.stop();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("HTTP response has a body");
    assert!(
        body.contains("sim_events_delivered_total"),
        "scrape is missing the canonical counter"
    );
    match obs::prometheus::lint(body) {
        Ok(samples) => println!("prometheus scrape: {samples} samples, lint OK"),
        Err(e) => panic!("prometheus exposition failed lint: {e}"),
    }
    println!();
}

/// Fleet observability experiment (DESIGN.md §16): run the distributed
/// engine over two localhost TCP ranks with telemetry frames enabled,
/// then read everything back off the coordinator's fleet collector —
/// the offset-corrected merged Perfetto timeline, the rank-labelled
/// Prometheus exposition, the per-link clock estimates, and the
/// straggler attribution. `BENCH_obs_dist.json` and the merged trace
/// are written and re-parsed before they are trusted.
fn obs_dist_experiment(opts: &Options) {
    use des::TcpShardedEngine;
    use des_bench::obs_report::{self, ObsDistRank, ObsDistReport};
    use obs::FleetCollector;
    use std::sync::{Arc, Mutex};

    const SHARDS: usize = 4;
    const PROCESSES: usize = 2;
    let w = PaperCircuit::Ks128.workload(opts.scale);
    println!(
        "## Fleet observability: telemetry over {PROCESSES} localhost TCP ranks ({}, K={SHARDS})",
        w.name
    );
    let fleet = Arc::new(Mutex::new(FleetCollector::new()));
    let recorder = des::Recorder::new(&des::ObsConfig::enabled());
    let engine = TcpShardedEngine::from_config(
        &EngineConfig::default()
            .with_shards(SHARDS)
            .with_processes(PROCESSES)
            .with_recorder(recorder),
    )
    .with_fleet(Arc::clone(&fleet));
    // One run, no warmup: the collector then holds exactly this run's
    // telemetry (report sequence numbers restart per run, so a second
    // run's reports would look stale to the collector).
    let m = measure(&engine, &w, 0, 1);
    println!(
        "tcp-sharded k={SHARDS} p={PROCESSES} with telemetry: {}, {} events",
        fmt_duration(m.summary().min),
        fmt_count(m.sim_stats.events_delivered),
    );

    let fleet = fleet.lock().expect("fleet collector");
    let ranks = fleet.ranks();
    assert_eq!(
        ranks,
        (0..PROCESSES as u64).collect::<Vec<_>>(),
        "every rank must report telemetry"
    );

    let mut t = Table::new(["rank", "engine", "null wait", "clock offset", "rtt", "samples"]);
    let mut rank_rows = Vec::new();
    for &rank in &ranks {
        let engine_name = fleet.rank_engine(rank).unwrap_or("?").to_string();
        let wait = fleet.rank_counter_total(rank, "sim_null_wait_ns_total");
        let clock = fleet.clock_estimate(rank).unwrap_or_default();
        if rank != 0 {
            assert!(clock.samples > 0, "no clock exchange completed with rank {rank}");
        }
        t.row([
            rank.to_string(),
            engine_name.clone(),
            format!("{:.3} ms", wait as f64 / 1e6),
            format!("{} ns", clock.offset_ns),
            format!("{} ns", clock.rtt_ns),
            clock.samples.to_string(),
        ]);
        rank_rows.push(ObsDistRank {
            rank,
            engine: engine_name,
            null_wait_ns: wait,
            clock_offset_ns: clock.offset_ns,
            clock_rtt_ns: clock.rtt_ns,
            clock_samples: clock.samples,
        });
    }
    println!("{}", t.render());

    // Exporter 1: the merged, offset-corrected Perfetto timeline —
    // one process track per rank.
    let trace = fleet.merged_perfetto_json();
    let doc = obs::json::parse(&trace).expect("merged trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .expect("traceEvents array");
    let mut pids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|j| j.as_str()) == Some("process_name"))
        .filter_map(|e| e.get("pid").and_then(|j| j.as_f64()))
        .map(|p| p as u64)
        .collect();
    pids.sort_unstable();
    assert_eq!(pids, vec![1, 2], "one process track per rank");
    std::fs::write("BENCH_obs_dist_trace.json", &trace).expect("write BENCH_obs_dist_trace.json");
    println!(
        "BENCH_obs_dist_trace.json: {} merged trace events, both rank tracks present",
        events.len()
    );

    // Exporter 2: the rank-labelled Prometheus exposition.
    let text = fleet.prometheus_text();
    match obs::prometheus::lint(&text) {
        Ok(samples) => println!("fleet prometheus exposition: {samples} samples, lint OK"),
        Err(e) => panic!("fleet exposition failed lint: {e}"),
    }
    for rank in &ranks {
        assert!(
            text.contains(&format!("rank=\"{rank}\"")),
            "exposition missing rank {rank}"
        );
    }

    // Exporter 3: straggler attribution — who stalled whom.
    let straggler = fleet.straggler_report();
    print!("{straggler}");

    let report = ObsDistReport {
        workload: w.name.to_string(),
        scale: opts.scale_name.to_string(),
        shards: SHARDS,
        processes: PROCESSES,
        events_delivered: m.sim_stats.events_delivered,
        trace_events: events.len(),
        ranks: rank_rows,
        straggler,
    };
    let json = obs_report::dist_to_json(&report);
    std::fs::write("BENCH_obs_dist.json", &json).expect("write BENCH_obs_dist.json");
    match obs_report::validate_dist_json(&json) {
        Ok(n) => println!("BENCH_obs_dist.json: written and re-parsed OK ({n} ranks)"),
        Err(e) => panic!("BENCH_obs_dist.json failed validation: {e}"),
    }
    println!();
}

/// Fault-injection demonstration: the deterministic fault layer and the
/// fallible `try_run` API (robustness extension; DESIGN.md "Fault model
/// & failure semantics").
fn faults(opts: &Options) {
    use des::{FaultPlan, SimError};
    use std::time::{Duration, Instant};

    let workers = *opts.workers.iter().max().expect("non-empty worker list");
    let w = PaperCircuit::Ks64.workload(opts.scale);
    println!(
        "## Fault injection: structured failure semantics ({} workers, {})",
        workers, w.name
    );
    let rt = Arc::new(HjRuntime::new(workers));
    let mk = || HjEngine::with_config(Arc::clone(&rt), HjEngineConfig::default());

    // Injected task panic: surfaces as a structured error; the shared
    // runtime survives and is reused by the cases below.
    let engine = mk().with_fault_plan(FaultPlan::seeded(7).panic_on_spawn(5));
    match engine.try_run(&w.circuit, &w.stimulus, &w.delays) {
        Err(err @ SimError::TaskPanicked { .. }) => {
            println!("* injected panic     -> {err}");
        }
        Err(err) => println!("* injected panic     -> UNEXPECTED error: {err}"),
        Ok(_) => println!("* injected panic     -> UNEXPECTED success"),
    }

    // Forced trylock failures: bounded retry-with-backoff rides them out;
    // the run completes with identical observables and visible counters.
    let engine = mk().with_fault_plan(FaultPlan::seeded(21).fail_trylock(0.3));
    match engine.try_run(&w.circuit, &w.stimulus, &w.delays) {
        Ok(out) => println!(
            "* 30% trylock fail   -> completed; lock failures {}, retries {}, backoff waits {}",
            fmt_count(out.stats.lock_failures),
            fmt_count(out.stats.lock_retries),
            fmt_count(out.stats.backoff_waits),
        ),
        Err(err) => println!("* 30% trylock fail   -> UNEXPECTED error: {err}"),
    }

    // Deliberately wedged run: the no-progress watchdog must trip within
    // its deadline and return a stall snapshot instead of hanging.
    let deadline = Duration::from_millis(250);
    let engine = mk()
        .with_fault_plan(FaultPlan::seeded(1).wedged())
        .with_watchdog(Some(deadline));
    let start = Instant::now();
    match engine.try_run(&w.circuit, &w.stimulus, &w.delays) {
        Err(SimError::NoProgress { snapshot }) => {
            println!(
                "* wedged run         -> watchdog tripped after {:?} (deadline {:?}):",
                start.elapsed(),
                deadline
            );
            for line in snapshot.to_string().lines() {
                println!("    {line}");
            }
        }
        Err(err) => println!("* wedged run         -> UNEXPECTED error: {err}"),
        Ok(_) => println!("* wedged run         -> UNEXPECTED success"),
    }
    println!();
}

/// Recovery experiment (DESIGN.md §12): checkpoint cost vs interval on
/// the sharded engine, then the kill+restore drill — a rank killed at a
/// checkpoint barrier, restarted from the newest consistent snapshot,
/// and required to reproduce the reference observables bit for bit
/// (both in-process and through the TCP harness's recovery supervisor).
/// Results land in `BENCH_recover.json`.
fn recover_experiment(opts: &Options) {
    use des::engine::sharded::ShardedEngine;
    use des::validate::check_equivalent;
    use des::{
        latest_consistent_epoch, FaultPlan, ObsConfig, Recorder, SimError, TcpShardedEngine,
    };
    use std::fmt::Write as _;

    const K: usize = 4;
    let w = PaperCircuit::Ks64.workload(opts.scale);
    let scratch = std::env::temp_dir().join(format!("des-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = EngineConfig::default().with_shards(K);

    let baseline_m = measure(&ShardedEngine::from_config(&cfg), &w, 1, opts.reps);
    let baseline_out = ShardedEngine::from_config(&cfg).run(&w.circuit, &w.stimulus, &w.delays);
    let per_shard = (baseline_out.stats.events_delivered / K as u64).max(1);
    println!(
        "## Recovery: checkpoint overhead and kill+restore drill ({}, K={K}, {} events)",
        w.name,
        fmt_count(baseline_out.stats.events_delivered)
    );

    // Checkpoint cost vs interval, relative to the checkpoint-free
    // baseline. Intervals scale with the workload so every row crosses
    // multiple epochs at any --tiny/--full scale.
    let base_min = baseline_m.summary().min;
    let mut t = Table::new([
        "interval (events/shard)", "min time", "overhead", "checkpoints", "write p50", "write p99",
    ]);
    t.row([
        "off (baseline)".to_string(),
        fmt_duration(base_min),
        "-".to_string(),
        "0".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    let mut interval_rows = String::new();
    for every in [(per_shard / 16).max(64), (per_shard / 4).max(64)] {
        let dir = scratch.join(format!("sweep-{every}"));
        let ck_cfg = cfg.clone().with_checkpoints(every, &dir);
        let m = measure(&ShardedEngine::from_config(&ck_cfg), &w, 1, opts.reps);
        // One instrumented run for the counters the timing runs skip.
        let recorder = Recorder::new(&ObsConfig::enabled());
        let _ = std::fs::remove_dir_all(&dir);
        ShardedEngine::from_config(&ck_cfg.clone().with_recorder(recorder.clone()))
            .run(&w.circuit, &w.stimulus, &w.delays);
        let written = recorder.counter("sim_checkpoints_total", &[("rank", "0")]).get();
        let (p50, p99) = recorder
            .histogram_values()
            .into_iter()
            .find(|(name, _, _)| name == "sim_checkpoint_write_ns")
            .map(|(_, _, snap)| (snap.quantile(0.50), snap.quantile(0.99)))
            .unwrap_or((0, 0));
        assert!(written >= 1, "interval {every}: no checkpoint epoch completed");
        let min = m.summary().min;
        let overhead = (min.as_secs_f64() / base_min.as_secs_f64() - 1.0) * 100.0;
        t.row([
            fmt_count(every),
            fmt_duration(min),
            format!("{overhead:+.1}%"),
            fmt_count(written),
            format!("{} ns", fmt_count(p50)),
            format!("{} ns", fmt_count(p99)),
        ]);
        let _ = write!(
            interval_rows,
            "{}{{\"every_events\": {every}, \"min_ms\": {:.3}, \"overhead_pct\": {overhead:.2}, \
             \"checkpoints\": {written}, \"write_ns_p50\": {p50}, \"write_ns_p99\": {p99}}}",
            if interval_rows.is_empty() { "" } else { ", " },
            min.as_secs_f64() * 1e3,
        );
    }
    println!("{}", t.render());

    // Drill 1: in-process sharded engine — kill at epoch 2, restore,
    // demand bit-identical observables.
    let every = (per_shard / 16).max(64);
    let dir = scratch.join("drill-sharded");
    let kill_cfg = cfg
        .clone()
        .with_checkpoints(every, &dir)
        .with_fault_plan(FaultPlan::seeded(7).kill_rank_at_epoch(0, 2));
    let err = ShardedEngine::from_config(&kill_cfg)
        .try_run(&w.circuit, &w.stimulus, &w.delays)
        .expect_err("the injected kill must fail the run");
    assert!(
        matches!(err, SimError::Transport { epoch: Some(2), .. }),
        "unexpected kill error: {err}"
    );
    let restored_epoch =
        latest_consistent_epoch(&dir, 1).expect("a consistent checkpoint survives the kill");
    let restored = ShardedEngine::from_config(
        &cfg.clone().with_checkpoints(every, &dir).with_restore(true),
    )
    .run(&w.circuit, &w.stimulus, &w.delays);
    check_equivalent(&baseline_out, &restored)
        .expect("restored observables must match the reference bit for bit");
    println!(
        "* sharded kill@epoch2  -> restored from epoch {restored_epoch}, observables identical"
    );

    // Drill 2: the TCP harness's recovery supervisor — same kill, one
    // try_run call, recovery counted by the shared recorder.
    let dir = scratch.join("drill-tcp");
    let recorder = Recorder::new(&ObsConfig::enabled());
    let recovered = TcpShardedEngine::from_config(
        &cfg.clone()
            .with_processes(2)
            .with_checkpoints(every, &dir)
            .with_recovery_attempts(3)
            .with_recorder(recorder.clone())
            .with_fault_plan(FaultPlan::seeded(9).kill_rank_at_epoch(1, 2)),
    )
    .try_run(&w.circuit, &w.stimulus, &w.delays)
    .expect("the recovery supervisor must complete the run");
    check_equivalent(&baseline_out, &recovered)
        .expect("recovered observables must match the reference bit for bit");
    let recoveries: u64 = recorder
        .counter_values()
        .into_iter()
        .filter(|(name, _, _)| name == "sim_recoveries_total")
        .map(|(_, _, v)| v)
        .sum();
    assert!(recoveries >= 1, "the retry must actually have restored");
    println!("* tcp kill@epoch2      -> supervisor recovered ({recoveries} rank restores), observables identical");

    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"scale\": \"{}\",\n  \"reps\": {},\n  \"shards\": {K},\n  \
         \"baseline_ms\": {:.3},\n  \"intervals\": [{interval_rows}],\n  \
         \"drill\": {{\"restored_epoch\": {restored_epoch}, \"sharded_restore_equivalent\": true, \
         \"tcp_recoveries\": {recoveries}, \"tcp_recovery_equivalent\": true}}\n}}\n",
        w.name,
        opts.scale_name,
        opts.reps,
        base_min.as_secs_f64() * 1e3,
    );
    obs::json::parse(&json).expect("BENCH_recover.json must be valid JSON");
    std::fs::write("BENCH_recover.json", &json).expect("write BENCH_recover.json");
    println!("BENCH_recover.json: written and re-parsed OK");
    let _ = std::fs::remove_dir_all(&scratch);
    println!();
}

#[cfg(test)]
mod dispatch_tests {
    use super::DISPATCH;

    /// The registry (help text, README, `all` expansion) and the
    /// dispatch table must name exactly the same experiments.
    #[test]
    fn dispatch_matches_the_experiment_registry() {
        let registry = des_bench::experiments::names();
        let dispatch: Vec<&str> = DISPATCH.iter().map(|(name, _)| *name).collect();
        assert_eq!(registry, dispatch);
    }
}
