//! The parent side of a run: plan the slices, run each in a fresh child
//! process, pool what they report, and turn the pools into the named
//! metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use obs::json::Json;

use crate::registry::{WorkloadId, END_TO_END, PER_LAYER};
use crate::slice::{SliceReport, SHARDS};
use crate::stats::{self, median_or_zero};

/// What one invocation measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workloads: Vec<WorkloadId>,
    pub seed: u64,
    /// Untraced slices per workload: the end-to-end numbers come from
    /// these alone.
    pub slices: usize,
    /// Traced slices per workload: the per-layer numbers.
    pub traced_slices: usize,
    pub slice_seconds: f64,
    /// Also run the fixed probes (`probes.rs`) in a child of their own.
    pub probes: bool,
}

/// The order slices run in: round-robin over the workloads, so that a
/// slow minute on the host is spread over all of them, and traced
/// slices next to untraced ones, so that the tracing overhead compares
/// neighbours in time.
pub fn slice_order(plan: &Plan) -> Vec<(WorkloadId, bool)> {
    let mut order = Vec::new();
    for round in 0..plan.slices.max(plan.traced_slices) {
        for &workload in &plan.workloads {
            if round < plan.slices {
                order.push((workload, false));
            }
            if round < plan.traced_slices {
                order.push((workload, true));
            }
        }
    }
    order
}

/// The benchmark's output directory, inside its own tree.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The reports of one workload's slices.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub untraced: Vec<SliceReport>,
    pub traced: Vec<SliceReport>,
}

/// Everything one run of a plan measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub pools: Vec<(WorkloadId, Pool)>,
    /// Probe results by metric name; empty when the plan ran none.
    pub probes: BTreeMap<String, f64>,
    /// Calibration kernel speed in Mop/s, one sample before each slice.
    pub calibration: Vec<f64>,
}

/// Run `plan`: every slice in its own child process, one at a time.
pub fn measure(plan: &Plan) -> Result<Measured, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut measured = Measured {
        pools: plan
            .workloads
            .iter()
            .map(|&w| (w, Pool::default()))
            .collect(),
        ..Measured::default()
    };
    for (workload, traced) in slice_order(plan) {
        measured.calibration.push(calibration_mops());
        let pool = &mut measured
            .pools
            .iter_mut()
            .find(|(w, _)| *w == workload)
            .expect("planned")
            .1;
        let mut args = vec![
            "--child".to_string(),
            "slice".to_string(),
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            plan.seed.to_string(),
            "--slice".to_string(),
            (pool.untraced.len() + pool.traced.len()).to_string(),
            "--seconds".to_string(),
            plan.slice_seconds.to_string(),
        ];
        if traced {
            let path = out.join(format!("trace-{}.json", workload.name()));
            args.extend(["--trace-out".to_string(), path.display().to_string()]);
        }
        let report = SliceReport::from_json(&run_child(&args)?)?;
        if traced {
            &mut pool.traced
        } else {
            &mut pool.untraced
        }
        .push(report);
    }
    if plan.probes {
        let args = [
            "--child".to_string(),
            "probes".to_string(),
            "--seed".to_string(),
            plan.seed.to_string(),
        ];
        for (name, value) in crate::json::members(&run_child(&args)?) {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("probe '{name}' is not a number"))?;
            measured.probes.insert(name.clone(), value);
        }
    }
    Ok(measured)
}

/// Run this executable again with `args`, wait for it, and parse the
/// last line of its standard output. The child's standard error goes
/// to ours.
fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} ended with {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| format!("child output: {e}"))?;
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    obs::json::parse(last).map_err(|e| format!("child {args:?} printed no JSON: {e}"))
}

/// A fixed integer kernel (xorshift walk over 8 MB) timed in the parent
/// before each slice. It does not touch the program: its spread says how
/// noisy the host was during this run, and nothing else reads it.
fn calibration_mops() -> f64 {
    const WORDS: usize = 1 << 20;
    const OPS: u64 = 4_000_000;
    let mut buffer = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let started = Instant::now();
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buffer[(x as usize) & (WORDS - 1)] ^= x;
    }
    std::hint::black_box(&buffer);
    OPS as f64 / 1e6 / started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Pooling

fn series(reports: &[&SliceReport], name: &str) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| r.series.get(name))
        .flatten()
        .copied()
        .collect()
}

fn scalars(reports: &[&SliceReport], name: &str) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| r.scalars.get(name))
        .copied()
        .collect()
}

fn sum(reports: &[&SliceReport], name: &str) -> f64 {
    // An empty float sum is -0.0; adding 0.0 makes it print as 0.
    reports.iter().filter_map(|r| r.sums.get(name)).sum::<f64>() + 0.0
}

/// Job times of one kind, whose 10th percentile is the time of an
/// undisturbed job: the big jobs of the open loop (its small jobs mostly
/// wait for a poll), every job of a closed loop.
fn like_jobs(reports: &[&SliceReport]) -> Vec<f64> {
    let big = series(reports, "big_job_ms");
    if big.is_empty() {
        series(reports, "job_ms")
    } else {
        big
    }
}

/// Consecutive jobs per window of a closed loop's latency percentiles.
const WINDOW_JOBS: usize = 10;

/// A latency percentile of a closed loop as the host's quiet stretches
/// show it: the percentile of every window of [`WINDOW_JOBS`] consecutive
/// jobs, then the 10th percentile over the windows of the run.
/// Interference only adds time, so the low windows are the undisturbed
/// ones. A run too short to fill a window takes the percentile of its jobs.
fn quiet_percentile(reports: &[&SliceReport], q: f64) -> f64 {
    let windows: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.series.get("job_ms"))
        .flat_map(|jobs| jobs.chunks_exact(WINDOW_JOBS))
        .map(|window| stats::percentile(window, q))
        .collect();
    if windows.is_empty() {
        stats::percentile(&series(reports, "job_ms"), q)
    } else {
        stats::p10(&windows)
    }
}

/// A latency percentile of the open loop: the percentile of every slice's
/// timed jobs, then the lower quartile over the slices of the run.
fn slice_percentile(reports: &[&SliceReport], q: f64) -> f64 {
    let slices: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.series.get("job_ms"))
        .filter(|jobs| !jobs.is_empty())
        .map(|jobs| stats::percentile(jobs, q))
        .collect();
    stats::percentile(&slices, 0.25)
}

/// A latency percentile of one workload over its slices.
///
/// The shared host runs a process 1.1x to 1.9x slower for seconds to
/// minutes at a time, so a percentile pooled over a run says how much of
/// the run was slow: between identical runs the pooled median of
/// `ks128-seq` moved 15-18 % and its pooled p90 over 30 %, and the pooled
/// p90 of `svc-mixed` 20-25 %. The low end over parts of the run repeats.
///
/// The open loop's latencies are set by queueing, which needs some hundred
/// jobs to show: its part is a slice (a fresh process with its own stretch
/// of the schedule), every job of the slice counts towards the slice's
/// percentile, and the run reports the lower quartile over its slices. A
/// stall the program causes shows in every slice; a slow stretch of the
/// host shows in some.
///
/// A closed loop's job time is the host's speed at that moment and nothing
/// else, so its parts are short windows (see [`quiet_percentile`]).
fn latency_percentile(workload: WorkloadId, reports: &[&SliceReport], q: f64) -> f64 {
    if workload.closed_loop() {
        quiet_percentile(reports, q)
    } else {
        slice_percentile(reports, q)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Jobs attempted and failed over every slice of the pool.
pub fn job_counts(pool: &Pool) -> (u64, u64) {
    let all: Vec<&SliceReport> = pool.untraced.iter().chain(&pool.traced).collect();
    (sum(&all, "attempted") as u64, sum(&all, "failed") as u64)
}

/// Timed jobs in the untraced slices: the size of the end-to-end pool.
pub fn timed_jobs(pool: &Pool) -> usize {
    series(&pool.untraced.iter().collect::<Vec<_>>(), "job_ms").len()
}

/// The end-to-end metrics of one workload, from its untraced slices
/// only, in [`END_TO_END`] order.
pub fn end_to_end(workload: WorkloadId, pool: &Pool) -> Result<Vec<(&'static str, f64)>, String> {
    let untraced: Vec<&SliceReport> = pool.untraced.iter().collect();
    let jobs = series(&untraced, "job_ms");
    if jobs.is_empty() {
        return Err("no timed job in any untraced slice".into());
    }
    let events = median_or_zero(&scalars(&untraced, "events_per_job"));
    let carried_s = sum(&untraced, "carried_s");
    let values = END_TO_END.map(|metric| {
        let value = match metric.name {
            // The open loop carries what it is offered: its throughput is
            // the events of correct jobs over the time they took to
            // arrive and finish. A closed loop runs flat out: events of
            // one job over the 10th percentile of the pooled job times.
            "events_per_s" if carried_s > 0.0 => sum(&untraced, "carried_events") / carried_s,
            "events_per_s" => events / (stats::p10(&jobs) / 1e3),
            "job_ms_p50" => latency_percentile(workload, &untraced, 0.5),
            "job_ms_p90" => latency_percentile(workload, &untraced, 0.9),
            "peak_rss_mb" => median_or_zero(&scalars(&untraced, "peak_rss_mb")),
            "setup_s" => median_or_zero(&scalars(&untraced, "setup_s")),
            other => unreachable!("end-to-end metric '{other}' has no formula"),
        };
        (metric.name, value)
    });
    Ok(values.to_vec())
}

/// The per-layer metrics of one workload, in [`PER_LAYER`] order: counts
/// and spans from its traced slices, the probes, and the harness's own
/// numbers. A layer the workload does not run reports 0.
pub fn per_layer(
    workload: WorkloadId,
    pool: &Pool,
    measured: &Measured,
) -> Vec<(&'static str, f64)> {
    let traced: Vec<&SliceReport> = pool.traced.iter().collect();
    let untraced: Vec<&SliceReport> = pool.untraced.iter().collect();
    let all: Vec<&SliceReport> = untraced.iter().chain(&traced).copied().collect();
    let mid = |name: &str| median_or_zero(&series(&traced, name));
    let scalar = |name: &str| median_or_zero(&scalars(&traced, name));

    let events = median_or_zero(&scalars(&all, "events_per_job"));
    let on_circuit = matches!(workload, WorkloadId::Ks128Seq | WorkloadId::Ks128Sharded);
    let core_events = if on_circuit { events } else { 0.0 };
    let run_ms = series(&traced, "core.run_ms");
    let run_ms_p10 = if run_ms.is_empty() {
        0.0
    } else {
        stats::p10(&run_ms)
    };
    let small = series(&all, "small_job_ms");
    let traced_like = like_jobs(&traced);
    let untraced_like = like_jobs(&untraced);

    PER_LAYER
        .map(|metric| {
            let name = metric.name;
            let value = match name {
                "circuit.generate_ms"
                | "shard.partition_ms"
                | "core.node_runs"
                | "core.nulls_sent"
                | "core.wasted_activations"
                | "core.cut_events_sent"
                | "core.shard_nulls_sent"
                | "model.build_ms"
                | "model.msgs_routed"
                | "model.activations" => mid(name),
                "circuit.initial_events"
                | "shard.cut_edges"
                | "shard.imbalance_pct"
                | "core.arena_high_water"
                | "model.events_delivered"
                | "model.dropped_at_horizon"
                | "obs.spans_recorded" => scalar(name),
                "core.run_ms_p10" => run_ms_p10,
                "core.ns_per_event" => ratio(run_ms_p10 * 1e6, core_events),
                "core.events_delivered" => core_events,
                "core.events_per_node_run" => ratio(core_events, mid("core.node_runs")),
                "core.useful_activation_ratio" => {
                    let runs = mid("core.node_runs");
                    ratio(runs - mid("core.wasted_activations"), runs)
                }
                "core.cut_event_share" => ratio(mid("core.cut_events_sent"), core_events),
                "core.nulls_per_cut_event" => {
                    ratio(mid("core.shard_nulls_sent"), mid("core.cut_events_sent"))
                }
                // Time shards spent blocked on a peer's promise, as a share
                // of the shard-seconds the traced jobs ran for.
                "core.null_wait_share" => ratio(
                    sum(&traced, "null_wait_ns"),
                    SHARDS as f64 * sum(&traced, "engine_wall_ns"),
                ),
                "model.msgs_per_event" => {
                    ratio(mid("model.msgs_routed"), scalar("model.events_delivered"))
                }
                "model.events_per_activation" => {
                    ratio(scalar("model.events_delivered"), mid("model.activations"))
                }
                "replicate.submit_rtt_ms_p50" => mid("replicate.submit_rtt_ms"),
                "replicate.big_job_ms_p50" => median_or_zero(&series(&all, "big_job_ms")),
                "replicate.hol_blocked_share" => {
                    ratio(sum(&all, "small_jobs_blocked"), sum(&all, "small_jobs"))
                }
                // How much longer the slow tenth of small jobs took than an
                // unblocked one: time spent queued behind other jobs.
                "replicate.queue_wait_ms_p90" => {
                    if small.is_empty() {
                        0.0
                    } else {
                        stats::percentile(&small, 0.9) - stats::p10(&small)
                    }
                }
                "replicate.generator_late_ms_max" => {
                    scalars(&all, name).into_iter().fold(0.0, f64::max)
                }
                "replicate.jobs_completed" | "replicate.jobs_failed" | "fault.sim_errors" => {
                    sum(&all, name)
                }
                "obs.trace_overhead_pct" => {
                    if traced_like.is_empty() || untraced_like.is_empty() {
                        0.0
                    } else {
                        (stats::p10(&traced_like) / stats::p10(&untraced_like) - 1.0) * 100.0
                    }
                }
                "harness.jobs_timed" => series(&all, "job_ms").len() as f64,
                "harness.job_ms_p50" => median_or_zero(&series(&all, "job_ms")),
                "harness.job_ms_p90" => {
                    let jobs = series(&all, "job_ms");
                    if jobs.is_empty() {
                        0.0
                    } else {
                        stats::percentile(&jobs, 0.9)
                    }
                }
                "harness.quiet_job_ms_p50" if !all.is_empty() => quiet_percentile(&all, 0.5),
                "harness.quiet_job_ms_p90" if !all.is_empty() => quiet_percentile(&all, 0.9),
                "harness.cpu_s_per_mevent" => {
                    ratio(sum(&all, "cpu_s"), sum(&all, "events_total") / 1e6)
                }
                "harness.calib_mops_p50" => median_or_zero(&measured.calibration),
                "harness.calib_spread_pct" => spread_pct(&measured.calibration),
                // Everything else is a probe, the same on every workload.
                probe => measured.probes.get(probe).copied().unwrap_or(0.0),
            };
            (name, value)
        })
        .to_vec()
}

fn spread_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread_share(values) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(slices: usize, traced_slices: usize) -> Plan {
        Plan {
            workloads: WorkloadId::ALL.to_vec(),
            seed: 3,
            slices,
            traced_slices,
            slice_seconds: 1.0,
            probes: false,
        }
    }

    #[test]
    fn slices_interleave_round_robin_across_workloads() {
        use WorkloadId::*;
        let order = slice_order(&plan(2, 0));
        let names: Vec<WorkloadId> = order.iter().map(|(w, _)| *w).collect();
        assert_eq!(
            names,
            [
                Ks128Seq,
                Ks128Sharded,
                PholdCut,
                SvcMixed,
                Ks128Seq,
                Ks128Sharded,
                PholdCut,
                SvcMixed
            ]
        );
        assert!(order.iter().all(|(_, traced)| !traced));
    }

    #[test]
    fn traced_slices_sit_next_to_untraced_ones() {
        let mut one = plan(3, 1);
        one.workloads = vec![WorkloadId::PholdCut];
        let order: Vec<bool> = slice_order(&one)
            .iter()
            .map(|(_, traced)| *traced)
            .collect();
        assert_eq!(order, [false, true, false, false]);
        let order = slice_order(&plan(10, 1));
        assert_eq!(order.len(), 4 * 11);
        assert_eq!(order.iter().filter(|(_, traced)| *traced).count(), 4);
    }

    fn report(jobs: &[f64], setup_s: f64) -> SliceReport {
        let mut r = SliceReport::default();
        r.series.insert("job_ms".into(), jobs.to_vec());
        r.scalars.insert("events_per_job".into(), 1_000_000.0);
        r.scalars.insert("setup_s".into(), setup_s);
        r.scalars.insert("peak_rss_mb".into(), 20.0);
        r.sums.insert("attempted".into(), jobs.len() as f64 + 1.0);
        r.sums.insert("failed".into(), 0.0);
        r
    }

    #[test]
    fn end_to_end_pools_jobs_and_takes_medians_of_single_shots() {
        let pool = Pool {
            untraced: vec![
                report(&[10.0; 10], 0.1),
                report(&[20.0; 10], 0.3),
                report(&[10.0; 10], 0.2),
            ],
            traced: vec![report(&[1.0; 10], 9.0)],
        };
        let values: BTreeMap<_, _> = end_to_end(WorkloadId::Ks128Seq, &pool)
            .expect("has jobs")
            .into_iter()
            .collect();
        // p10 of the pooled 30 jobs is 10 ms: 1 M events in 10 ms.
        assert!((values["events_per_s"] - 1e8).abs() < 1.0);
        // Three windows of ten jobs, two of them at 10 ms.
        assert_eq!((values["job_ms_p50"], values["job_ms_p90"]), (10.0, 10.0));
        assert_eq!(values["setup_s"], 0.2);
        assert_eq!(values["peak_rss_mb"], 20.0);
        assert_eq!(job_counts(&pool), (44, 0));

        // A closed loop's latency percentiles are those of its quiet
        // windows: four in twenty are enough.
        let mostly_slow: Vec<f64> = (0..200).map(|i| if i < 40 { 10.5 } else { 19.0 }).collect();
        let windowed = Pool {
            untraced: vec![report(&mostly_slow, 0.1)],
            traced: Vec::new(),
        };
        let values: BTreeMap<_, _> = end_to_end(WorkloadId::Ks128Seq, &windowed)
            .expect("has jobs")
            .into_iter()
            .collect();
        assert_eq!((values["job_ms_p50"], values["job_ms_p90"]), (10.5, 10.5));
        // The open loop takes every slice whole (the first one's tail
        // counts: p50 10 ms, p90 50 ms) and the lower quartile over slices.
        let mut tailed = vec![10.0; 8];
        tailed.extend([50.0; 2]);
        let slices = Pool {
            untraced: vec![
                report(&tailed, 0.1),
                report(&[12.0; 10], 0.1),
                report(&[30.0; 10], 0.1),
                report(&[14.0; 10], 0.1),
                report(&[13.0; 10], 0.1),
            ],
            traced: Vec::new(),
        };
        let values: BTreeMap<_, _> = end_to_end(WorkloadId::SvcMixed, &slices)
            .expect("has jobs")
            .into_iter()
            .collect();
        assert_eq!((values["job_ms_p50"], values["job_ms_p90"]), (12.0, 13.0));
        assert_eq!(timed_jobs(&pool), 30);
        assert!(end_to_end(WorkloadId::Ks128Seq, &Pool::default()).is_err());
    }

    #[test]
    fn per_layer_reports_every_name_and_zero_for_layers_not_run() {
        let mut traced = report(&[12.0; 10], 0.1);
        traced.series.insert("core.run_ms".into(), vec![12.0; 10]);
        traced
            .series
            .insert("core.node_runs".into(), vec![500_000.0; 10]);
        traced
            .series
            .insert("core.wasted_activations".into(), vec![100_000.0; 10]);
        let pool = Pool {
            untraced: vec![report(&[10.0; 10], 0.1)],
            traced: vec![traced],
        };
        let mut measured = Measured::default();
        measured.probes.insert("hj.trylock_pair_ns".into(), 25.0);
        let values: BTreeMap<_, _> = per_layer(WorkloadId::Ks128Seq, &pool, &measured)
            .into_iter()
            .collect();
        assert_eq!(values.len(), PER_LAYER.len());
        assert_eq!(values["core.events_delivered"], 1_000_000.0);
        assert_eq!(values["core.events_per_node_run"], 2.0);
        assert_eq!(values["core.useful_activation_ratio"], 0.8);
        assert_eq!(values["core.ns_per_event"], 12.0);
        assert!((values["obs.trace_overhead_pct"] - 20.0).abs() < 1e-9);
        assert_eq!(values["hj.trylock_pair_ns"], 25.0);
        assert_eq!(values["model.events_delivered"], 0.0);
        assert_eq!(values["replicate.hol_blocked_share"], 0.0);
        assert_eq!(values["harness.jobs_timed"], 20.0);
        assert_eq!(values["harness.job_ms_p90"], 12.0);
        // Two windows, 10 and 12 ms: their 10th percentile.
        assert!((values["harness.quiet_job_ms_p50"] - 10.2).abs() < 1e-9);
        let on_phold: BTreeMap<_, _> = per_layer(WorkloadId::PholdCut, &pool, &measured)
            .into_iter()
            .collect();
        assert_eq!(on_phold["core.events_delivered"], 0.0);
    }
}
