//! Fixed-count probes of single layers, and short companion runs of the
//! engine configurations that are not workloads. They run in a child
//! process of their own during a traced run and are the same whatever
//! workload the run measures: they describe the build, not the workload.
//!
//! Each probe calls only public functions of the layer it names. A
//! probe's time is the median (for microprobes) or the 10th percentile
//! (for whole jobs) of a few repetitions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use circuit::{Logic, NodeId, Target};
use des::node::{drain_ready, PortQueue};
use des::{build, EngineConfig, Event, EventArena, PartitionStrategy};
use model::phold;
use replicate::executor::{run_slice, Progress};
use replicate::{run_sweep, RunStoreReader, RunStoreWriter, Service, SvcClient, SvcConfig};
use shard::{endpoints, ShardMsg};

use crate::inputs;
use crate::slice::{round_trip, SHARDS};
use crate::stats;

const MICRO_REPS: usize = 5;
const JOB_REPS: usize = 8;

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Median over `MICRO_REPS` repetitions of `f`'s nanoseconds per item.
fn micro_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    stats::median(&samples)
}

/// 10th percentile over `reps` repetitions of `f`'s wall milliseconds;
/// the first failure of `f` ends the probe.
fn job_ms_p10<E: std::fmt::Display>(
    what: &str,
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        f().map_err(|e| format!("{what}: {e}"))?;
        samples.push(ms_since(started));
    }
    Ok(stats::p10(&samples))
}

/// Run every probe. `scratch` is a directory inside the benchmark's own
/// tree for the store probe's files.
pub fn run(seed: u64, scratch: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    put("shard.mailbox_ns_per_msg", mailbox_ns_per_msg());
    put("core.portqueue_ns_per_event", portqueue_ns_per_event());
    put("core.arena_ns_per_alloc_take", arena_ns_per_alloc_take());
    put("hj.spawn_join_ns_per_task", hj_spawn_join_ns_per_task());
    put("hj.trylock_pair_ns", hj_trylock_pair_ns());

    // Circuit engines on the workloads' own circuit and stimulus.
    let ks = inputs::ks128(seed);
    let mut events = 0u64;
    let mut engine_ms = |name: &str, cfg: &EngineConfig| {
        let engine = build(name, cfg);
        job_ms_p10(name, JOB_REPS, || {
            engine
                .try_run(&ks.circuit, &ks.stimulus, &ks.delays)
                .map(|run| events = run.stats.events_delivered)
        })
    };
    let seq_ms = engine_ms("seq-workset", &EngineConfig::new())?;
    let sharded_ms = engine_ms("sharded", &EngineConfig::new().with_shards(SHARDS))?;
    let hj_ms = engine_ms("hj", &EngineConfig::new().with_workers(SHARDS))?;
    put("core.speedup_vs_seq", seq_ms / sharded_ms);
    put("hj.ks128_events_per_s", events as f64 / (hj_ms / 1e3));

    // PHOLD on the sequential model engine and on both partitions.
    let graph = || {
        phold::build(
            inputs::PHOLD_CUT,
            inputs::phold_cut_seed(seed),
            inputs::PHOLD_CUT_HORIZON,
        )
    };
    let mut model_events = 0u64;
    let mut model_ms = |name: &str, strategy: PartitionStrategy| {
        let cfg = EngineConfig::new()
            .with_shards(SHARDS)
            .with_strategy(strategy);
        job_ms_p10(name, JOB_REPS, || {
            model::try_run(name, &cfg, graph()).map(|run| model_events = run.stats.events_delivered)
        })
    };
    let model_seq_ms = model_ms("model-seq", PartitionStrategy::default())?;
    let uncut_ms = model_ms("model-sharded", PartitionStrategy::default())?;
    let cut_ms = model_ms("model-sharded", PartitionStrategy::RoundRobin)?;
    put(
        "model.seq_events_per_s",
        model_events as f64 / (model_seq_ms / 1e3),
    );
    put(
        "model.uncut_events_per_s",
        model_events as f64 / (uncut_ms / 1e3),
    );
    put("model.speedup_vs_seq", model_seq_ms / cut_ms);
    put("model.cut_slowdown", cut_ms / uncut_ms);

    // The replication layer on the open loop's own job specs.
    let big = inputs::svc_spec(seed, true, 0);
    let small = inputs::svc_spec(seed, false, 0);
    let sweep_ms = |threads: usize| {
        job_ms_p10("run_sweep", MICRO_REPS, || {
            run_sweep(&big, threads, &EngineConfig::default()).map(|_| ())
        })
    };
    let one_thread_ms = sweep_ms(1)?;
    let two_thread_ms = sweep_ms(SHARDS)?;
    put(
        "replicate.executor_runs_per_s",
        big.total_runs() as f64 / (two_thread_ms / 1e3),
    );
    put("replicate.executor_scaling", one_thread_ms / two_thread_ms);

    let service = Service::start(SvcConfig {
        threads: SHARDS,
        ..SvcConfig::default()
    })
    .map_err(|e| format!("service start failed: {e}"))?;
    let through_service = (|| -> Result<(f64, f64), replicate::SvcError> {
        let mut client = SvcClient::connect(service.addr())?;
        let mut round_trip = |spec: &replicate::JobSpec, reps: usize| {
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let started = Instant::now();
                round_trip(&mut client, spec)?;
                samples.push(ms_since(started));
            }
            Ok::<_, replicate::SvcError>(samples)
        };
        Ok((
            stats::median(&round_trip(&small, 15)?),
            stats::p10(&round_trip(&big, MICRO_REPS)?),
        ))
    })();
    service.stop();
    let (small_ms, big_ms) = through_service.map_err(|e| format!("service probe failed: {e}"))?;
    put("replicate.small_job_unloaded_ms", small_ms);
    put("replicate.service_efficiency", two_thread_ms / big_ms);

    let outcome =
        run_sweep(&big, SHARDS, &EngineConfig::default()).map_err(|e| format!("run_sweep: {e}"))?;
    put(
        "replicate.agg_merge_us",
        micro_ns(200, || {
            for _ in 0..200 {
                let mut left = outcome.agg.clone();
                left.merge(black_box(&outcome.agg))
                    .expect("aggregates of one spec merge");
                black_box(left);
            }
        }) / 1e3,
    );
    let (write_rows_per_s, read_rows_per_s) = store_rows_per_s(&big, scratch)?;
    put("replicate.store_write_rows_per_s", write_rows_per_s);
    put("replicate.store_read_rows_per_s", read_rows_per_s);
    Ok(out)
}

/// Two threads, one bounded mailbox: the sender pushes promises as fast
/// as the receiver takes them.
fn mailbox_ns_per_msg() -> f64 {
    const MSGS: usize = 200_000;
    micro_ns(MSGS, || {
        let (mut ends, _depth_probes) = endpoints(2, 1024);
        let receiver = ends.pop().expect("two endpoints");
        let sender = ends.pop().expect("two endpoints");
        let target = Target {
            node: NodeId(0),
            port: 0,
        };
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for time in 0..MSGS as u64 {
                    sender.txs[1]
                        .send(ShardMsg::Null { target, time })
                        .expect("receiver is alive");
                }
            });
            for _ in 0..MSGS {
                black_box(receiver.rx.recv().expect("sender is alive"));
            }
        });
    })
}

/// `push` on two ports then one `drain_ready`, in batches of 64 events.
fn portqueue_ns_per_event() -> f64 {
    const BATCHES: u64 = 4_000;
    const PER_PORT: u64 = 32;
    micro_ns((BATCHES * PER_PORT * 2) as usize, || {
        let mut arena = EventArena::new();
        let mut ports = [PortQueue::new(), PortQueue::new()];
        let mut temp = Vec::new();
        for batch in 0..BATCHES {
            let base = batch * PER_PORT;
            for port in ports.iter_mut() {
                for i in 0..PER_PORT {
                    port.push(&mut arena, Event::new(base + i, Logic::One));
                }
            }
            let clock = base + PER_PORT - 1;
            let moved = drain_ready(&mut ports, &mut arena, clock, &mut temp);
            assert_eq!(moved as u64, PER_PORT * 2);
            black_box(&temp);
            temp.clear();
        }
    })
}

/// `alloc` then `take`, 256 live events at a time.
fn arena_ns_per_alloc_take() -> f64 {
    const ROUNDS: usize = 2_000;
    const LIVE: usize = 256;
    micro_ns(ROUNDS * LIVE, || {
        let mut arena = EventArena::new();
        let mut refs = Vec::with_capacity(LIVE);
        for round in 0..ROUNDS {
            for i in 0..LIVE {
                refs.push(arena.alloc(Event::new((round * LIVE + i) as u64, Logic::Zero)));
            }
            for r in refs.drain(..) {
                black_box(arena.take(r));
            }
        }
    })
}

/// One `finish` scope over many empty tasks on two workers.
fn hj_spawn_join_ns_per_task() -> f64 {
    const TASKS: usize = 100_000;
    let runtime = hj::HjRuntime::new(SHARDS);
    micro_ns(TASKS, || {
        let done = AtomicU64::new(0);
        runtime.finish(|scope| {
            for _ in 0..TASKS {
                scope.spawn(|| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), TASKS as u64);
    })
}

/// Uncontended `try_lock_all` of two locks plus `release_all`.
fn hj_trylock_pair_ns() -> f64 {
    const PAIRS: usize = 1_000_000;
    let registry = hj::LockRegistry::new(64);
    micro_ns(PAIRS, || {
        let mut locker = registry.locker();
        for i in 0..PAIRS as u32 {
            let low = i % 63;
            locker
                .try_lock_all([low, low + 1])
                .expect("nothing else holds a lock");
            locker.release_all();
        }
    })
}

/// Write the rows of one big job to a sealed store file and read it
/// back, both with the store's own validation.
fn store_rows_per_s(spec: &replicate::JobSpec, scratch: &Path) -> Result<(f64, f64), String> {
    let mut rows = Vec::new();
    run_slice(
        spec,
        0..spec.replications,
        SHARDS,
        &EngineConfig::default(),
        &Progress::default(),
        |row| rows.push(row),
    )
    .map_err(|e| format!("run_slice: {e}"))?;
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let path = scratch.join(format!("store-probe-{}.cols", std::process::id()));
    let result = (|| -> Result<(f64, f64), replicate::StoreError> {
        let mut write_ms = Vec::new();
        let mut read_ms = Vec::new();
        for _ in 0..3 {
            let started = Instant::now();
            let mut writer = RunStoreWriter::create(&path, spec)?;
            for row in &rows {
                writer.push_row(row.cell, row.rep, &row.values)?;
            }
            let sealed = writer.finish()?;
            write_ms.push(ms_since(started));
            let started = Instant::now();
            let reader = RunStoreReader::open(&path)?;
            read_ms.push(ms_since(started));
            assert_eq!(reader.aggregate.digest(), sealed.digest());
        }
        let per_s = |ms: &[f64]| rows.len() as f64 / (stats::median(ms) / 1e3);
        Ok((per_s(&write_ms), per_s(&read_ms)))
    })();
    let _ = std::fs::remove_file(&path);
    result.map_err(|e| format!("store probe failed: {e}"))
}
