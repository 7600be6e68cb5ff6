//! One slice of one workload, run in a fresh child process: set-up, one
//! cold checked job, a discarded warm-up, then the timed jobs. The child
//! prints a [`SliceReport`] as one JSON line; the parent pools the
//! reports of all slices (`run.rs`).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use des::validate::{check_against_oracle, check_conservation, observables};
use des::{build, EngineConfig, ObsConfig, Partition, PartitionStrategy, Recorder, SimStats};
use model::phold;
use obs::json::Json;
use replicate::{run_sweep, JobAggregate, JobState, Service, SvcClient, SvcConfig, SvcError};

use crate::inputs::{self, Arrival};
use crate::json::{members, num, nums, obj};
use crate::registry::WorkloadId;
use crate::trace::{self, SpanId, Spans};
use crate::host;

/// Jobs run for this long after the cold job and are thrown away, so
/// that lazy set-up and cache fill are not timed.
pub const WARMUP_S: f64 = 0.3;
/// Shards of the sharded workloads: one per core of the smallest host
/// the benchmark accepts.
pub const SHARDS: usize = 2;
/// How long a client waits for one job before it counts the job as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the open loop's collector asks the service about the jobs
/// still out, and a client waiting for a single job about that one.
const POLL: Duration = Duration::from_millis(2);
const ROUND_TRIP_POLL: Duration = Duration::from_micros(500);
/// How often a traced slice times the partitioner.
const PARTITION_PROBES: usize = 5;

/// What one slice measured. `series` are pooled over slices by
/// concatenation, `scalars` by their median, `sums` by addition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceReport {
    pub series: BTreeMap<String, Vec<f64>>,
    pub scalars: BTreeMap<String, f64>,
    pub sums: BTreeMap<String, f64>,
}

impl SliceReport {
    fn push(&mut self, series: &str, value: f64) {
        self.series
            .entry(series.to_string())
            .or_default()
            .push(value);
    }

    fn set(&mut self, scalar: &str, value: f64) {
        self.scalars.insert(scalar.to_string(), value);
    }

    fn add(&mut self, sum: &str, value: f64) {
        *self.sums.entry(sum.to_string()).or_default() += value;
    }

    pub fn to_json(&self) -> Json {
        obj([
            (
                "series",
                obj(self.series.iter().map(|(k, v)| (k.clone(), nums(v)))),
            ),
            (
                "scalars",
                obj(self.scalars.iter().map(|(k, v)| (k.clone(), num(*v)))),
            ),
            (
                "sums",
                obj(self.sums.iter().map(|(k, v)| (k.clone(), num(*v)))),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Result<SliceReport, String> {
        let section = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("slice report lacks '{name}'"))
        };
        let number =
            |key: &str, v: &Json| v.as_f64().ok_or_else(|| format!("'{key}' is not a number"));
        let mut report = SliceReport::default();
        for (key, items) in members(section("series")?) {
            let items = items
                .as_arr()
                .ok_or_else(|| format!("series '{key}' is not an array"))?;
            let values = items
                .iter()
                .map(|v| number(key, v))
                .collect::<Result<Vec<_>, _>>()?;
            report.series.insert(key.clone(), values);
        }
        for (key, v) in members(section("scalars")?) {
            report.scalars.insert(key.clone(), number(key, v)?);
        }
        for (key, v) in members(section("sums")?) {
            report.sums.insert(key.clone(), number(key, v)?);
        }
        Ok(report)
    }
}

/// What the parent asks of one child.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    /// Which of the run's slices of this workload this is: the open
    /// loop gives every slice its own stretch of the schedule.
    pub index: u64,
    pub seconds: f64,
    /// Where a traced slice writes its spans; an untraced slice has none.
    pub trace_out: Option<std::path::PathBuf>,
}

impl SliceArgs {
    /// A traced slice records harness spans, switches the program's
    /// recorder on and takes the per-layer counts.
    pub fn traced(&self) -> bool {
        self.trace_out.is_some()
    }
}

/// State shared by the three workload runners.
struct Slice {
    args: SliceArgs,
    spans: Spans,
    root: SpanId,
    recorder: Option<Recorder>,
    report: SliceReport,
    started: Instant,
}

impl Slice {
    /// The engine configuration of the workload under test: two shards,
    /// and the program's recorder only in a traced slice.
    fn engine_config(&self) -> EngineConfig {
        let cfg = EngineConfig::new().with_shards(SHARDS);
        match &self.recorder {
            Some(recorder) => cfg.with_recorder(recorder.clone()),
            None => cfg,
        }
    }

    fn count_job(&mut self, ok: bool) {
        self.report.add("attempted", 1.0);
        self.report.add("failed", if ok { 0.0 } else { 1.0 });
    }

    fn finish_setup(&mut self, setup: SpanId) {
        self.spans.end(setup);
        self.report
            .set("setup_s", self.started.elapsed().as_secs_f64());
    }

    /// The closed loop: the next job starts when the previous one has
    /// been checked. `job` returns the job's wall time in milliseconds
    /// and whether its output was correct.
    fn closed_loop(&mut self, mut job: impl FnMut(&mut Slice, SpanId) -> (f64, bool)) {
        let warmup = self.spans.begin("warmup", self.root, 0);
        let until = Instant::now() + Duration::from_secs_f64(WARMUP_S);
        while Instant::now() < until {
            let (_, ok) = job(self, warmup);
            self.count_job(ok);
        }
        self.spans.end(warmup);

        let timed = self.spans.begin("timed", self.root, 0);
        let until = Instant::now() + Duration::from_secs_f64(self.args.seconds);
        while Instant::now() < until {
            let (ms, ok) = job(self, timed);
            self.count_job(ok);
            self.report.push("job_ms", ms);
        }
        self.spans.end(timed);
    }

    /// Sum of a recorder counter over all its label sets.
    fn counter_total(&self, name: &str) -> f64 {
        self.recorder.as_ref().map_or(0.0, |r| {
            r.counter_values()
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v as f64)
                .sum()
        })
    }

    fn gauge_max(&self, name: &str) -> f64 {
        self.recorder.as_ref().map_or(0.0, |r| {
            r.gauge_values()
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v as f64)
                .fold(0.0, f64::max)
        })
    }
}

/// Run the slice and return its report; a traced slice also writes its
/// span file. Errors are set-up failures: without a reference there is
/// nothing to measure.
pub fn run(args: SliceArgs) -> Result<SliceReport, String> {
    let spans = Spans::new(args.traced());
    let root = spans.begin("slice", SpanId::NONE, 0);
    let mut slice = Slice {
        recorder: args.traced().then(|| Recorder::new(&ObsConfig::enabled())),
        args,
        spans,
        root,
        report: SliceReport::default(),
        started: Instant::now(),
    };
    match slice.args.workload {
        WorkloadId::Ks128Seq => run_ks128(&mut slice, "seq-workset")?,
        WorkloadId::Ks128Sharded => run_ks128(&mut slice, "sharded")?,
        WorkloadId::PholdCut => run_phold_cut(&mut slice)?,
        WorkloadId::SvcMixed => run_svc_mixed(&mut slice)?,
    }
    slice.spans.end(slice.root);

    let all = slice.spans.snapshot();
    if slice.args.traced() {
        slice.report.set("obs.spans_recorded", all.len() as f64);
        for (name, series) in [
            ("circuit.generate", "circuit.generate_ms"),
            ("shard.partition", "shard.partition_ms"),
            ("core.try_run", "core.run_ms"),
            ("model.build", "model.build_ms"),
            ("replicate.submit", "replicate.submit_rtt_ms"),
        ] {
            for ms in trace::durations_ms(&all, name) {
                slice.report.push(series, ms);
            }
        }
    }
    if let Some(path) = &slice.args.trace_out {
        let text = crate::json::render(&trace::to_json(slice.args.workload.name(), &all));
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    slice.report.set("peak_rss_mb", host::peak_rss_mb());
    slice.report.add("cpu_s", host::cpu_seconds());
    Ok(slice.report)
}

// ---------------------------------------------------------------------------
// ks128-seq, ks128-sharded

fn run_ks128(slice: &mut Slice, engine_name: &str) -> Result<(), String> {
    let setup = slice.spans.begin("setup", slice.root, 0);
    let input = slice.spans.scope("circuit.generate", setup, 0, || {
        inputs::ks128(slice.args.seed)
    });
    slice
        .report
        .set("circuit.initial_events", input.stimulus.num_events() as f64);

    // The reference every job is compared with: the sequential engine's
    // deterministic observables, themselves checked against the
    // analytic oracle.
    let reference_run = slice.spans.scope("reference", setup, 0, || {
        build("seq-workset", &EngineConfig::new()).try_run(
            &input.circuit,
            &input.stimulus,
            &input.delays,
        )
    });
    let reference_run = reference_run.map_err(|e| format!("reference run failed: {e}"))?;
    check_conservation(&reference_run).map_err(|e| format!("reference run: {e}"))?;
    check_against_oracle(&input.circuit, &input.stimulus, &reference_run)
        .map_err(|e| format!("reference run: {e}"))?;
    let reference = observables(&reference_run);
    let events = reference.total_events as f64;
    slice.report.set("events_per_job", events);
    slice.report.add("events_total", events);

    let engine = build(engine_name, &slice.engine_config());
    let mut job_no = 0u64;
    let mut job = |slice: &mut Slice, parent: SpanId| {
        job_no += 1;
        let span = slice.spans.begin("job", parent, job_no);
        let started = Instant::now();
        let result = slice.spans.scope("core.try_run", span, job_no, || {
            engine.try_run(&input.circuit, &input.stimulus, &input.delays)
        });
        let wall = started.elapsed();
        let ok = match result {
            Ok(out) => {
                slice
                    .report
                    .add("events_total", out.stats.events_delivered as f64);
                if slice.args.traced() {
                    push_sim_stats(&mut slice.report, &out.stats);
                    slice.report.add("engine_wall_ns", wall.as_nanos() as f64);
                }
                slice
                    .spans
                    .scope("check", span, job_no, || observables(&out) == reference)
            }
            Err(_) => {
                slice.report.add("fault.sim_errors", 1.0);
                false
            }
        };
        slice.spans.end(span);
        (wall.as_secs_f64() * 1e3, ok)
    };

    let (_, cold_ok) = job(slice, setup);
    slice.count_job(cold_ok);
    slice.finish_setup(setup);
    slice.closed_loop(&mut job);

    if slice.args.traced() {
        if engine_name == "sharded" {
            let partition = probe_partition(slice, || {
                Partition::build(&input.circuit, SHARDS, PartitionStrategy::default())
            });
            let metrics = partition.metrics(&input.circuit);
            slice
                .report
                .set("shard.cut_edges", metrics.cut_edges as f64);
            slice
                .report
                .set("shard.imbalance_pct", metrics.load_imbalance_pct as f64);
        }
        let null_wait_ns = slice.counter_total("sim_null_wait_ns_total");
        slice.report.add("null_wait_ns", null_wait_ns);
        slice.report.set(
            "core.arena_high_water",
            slice.gauge_max(obs::ARENA_HIGH_WATER),
        );
    }
    Ok(())
}

/// The sharded engines partition inside `try_run`, out of the harness's
/// sight, so a traced slice repeats the same call to time it
/// (`shard.partition` spans) and to read the cut it produces.
fn probe_partition(slice: &Slice, build: impl Fn() -> Partition) -> Partition {
    let probe = slice.spans.begin("probe", slice.root, 0);
    for _ in 1..PARTITION_PROBES {
        slice.spans.scope("shard.partition", probe, 0, &build);
    }
    let partition = slice.spans.scope("shard.partition", probe, 0, &build);
    slice.spans.end(probe);
    partition
}

fn push_sim_stats(report: &mut SliceReport, stats: &SimStats) {
    for (name, value) in [
        ("core.node_runs", stats.node_runs),
        ("core.nulls_sent", stats.nulls_sent),
        ("core.wasted_activations", stats.wasted_activations),
        ("core.cut_events_sent", stats.cut_events_sent),
        ("core.shard_nulls_sent", stats.shard_nulls_sent),
    ] {
        report.push(name, value as f64);
    }
}

// ---------------------------------------------------------------------------
// phold-cut

fn run_phold_cut(slice: &mut Slice) -> Result<(), String> {
    let setup = slice.spans.begin("setup", slice.root, 0);
    let graph_seed = inputs::phold_cut_seed(slice.args.seed);
    let build_graph = || phold::build(inputs::PHOLD_CUT, graph_seed, inputs::PHOLD_CUT_HORIZON);

    let reference = slice
        .spans
        .scope("reference", setup, 0, || {
            model::try_run("model-seq", &EngineConfig::new(), build_graph())
        })
        .map_err(|e| format!("reference run failed: {e}"))?;
    let events = reference.stats.events_delivered as f64;
    slice.report.set("events_per_job", events);
    slice.report.add("events_total", events);

    // Round-robin puts ring neighbours on different shards, so every
    // remote hop crosses the cut.
    let cfg = slice
        .engine_config()
        .with_strategy(PartitionStrategy::RoundRobin);
    let mut job_no = 0u64;
    let mut job = |slice: &mut Slice, parent: SpanId| {
        job_no += 1;
        let span = slice.spans.begin("job", parent, job_no);
        let started = Instant::now();
        // The graph owns its components, so a job pays for building it.
        let graph = slice.spans.scope("model.build", span, job_no, build_graph);
        let result = slice.spans.scope("model.try_run", span, job_no, || {
            model::try_run("model-sharded", &cfg, graph)
        });
        let wall = started.elapsed();
        let ok = match result {
            Ok(out) => {
                slice
                    .report
                    .add("events_total", out.stats.events_delivered as f64);
                if slice.args.traced() {
                    slice
                        .report
                        .push("model.msgs_routed", out.stats.msgs_routed as f64);
                    slice
                        .report
                        .push("model.activations", out.stats.activations as f64);
                    slice
                        .report
                        .set("model.events_delivered", out.stats.events_delivered as f64);
                    slice.report.set(
                        "model.dropped_at_horizon",
                        out.stats.dropped_at_horizon as f64,
                    );
                }
                slice
                    .spans
                    .scope("check", span, job_no, || out.equivalent(&reference))
            }
            Err(_) => {
                slice.report.add("fault.sim_errors", 1.0);
                false
            }
        };
        slice.spans.end(span);
        (wall.as_secs_f64() * 1e3, ok)
    };

    let (_, cold_ok) = job(slice, setup);
    slice.count_job(cold_ok);
    slice.finish_setup(setup);
    slice.closed_loop(&mut job);

    if slice.args.traced() {
        let graph = build_graph();
        let edges = graph.edges();
        let partition = probe_partition(slice, || {
            Partition::build_graph(graph.len(), &edges, SHARDS, PartitionStrategy::RoundRobin)
        });
        let metrics = partition.metrics_graph(graph.len(), &edges);
        slice
            .report
            .set("shard.cut_edges", metrics.cut_edges as f64);
        slice
            .report
            .set("shard.imbalance_pct", metrics.load_imbalance_pct as f64);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// svc-mixed

/// A job spec of the open loop with what a correct answer looks like.
struct SvcJobKind {
    spec: replicate::JobSpec,
    digest: u64,
    events: f64,
}

/// Events simulated by one job: the sum of its `events` column.
fn job_events(agg: &JobAggregate) -> f64 {
    agg.cells
        .iter()
        .filter_map(|c| c.column("events"))
        .map(|h| h.sum as f64)
        .sum()
}

/// What the submitter hands the collector for each arrival.
struct Submitted {
    arrival: Arrival,
    job_no: u64,
    due: Instant,
    job: Result<u64, SvcError>,
    /// The job's span, and under it the wait from the submission's
    /// return to the poll that finds the job done.
    span: SpanId,
    wait: SpanId,
}

/// One collected job of the open loop.
struct Collected {
    arrival: Arrival,
    /// From the job's due time to its aggregate being fetched.
    latency_ms: f64,
    /// Events the job simulated.
    events: f64,
    ok: bool,
}

/// Ask once whether the job is done; when it is, fetch its aggregate and
/// compare it with the reference. `None` while the job is queued or
/// running.
fn poll_job(
    client: &mut SvcClient,
    job: &Submitted,
    kind: &SvcJobKind,
    spans: &Spans,
) -> Option<bool> {
    let Submitted {
        job: Ok(id),
        job_no,
        span,
        wait,
        due,
        ..
    } = *job
    else {
        return Some(false);
    };
    match client.progress(id).map(|p| p.state) {
        Ok(JobState::Done) => {}
        Ok(JobState::Failed) | Err(_) => return Some(false),
        Ok(_) if due.elapsed() > JOB_TIMEOUT => return Some(false),
        Ok(_) => return None,
    }
    spans.end(wait);
    Some(
        match spans.scope("replicate.fetch", span, job_no, || client.fetch(id)) {
            Ok(agg) => spans.scope("check", span, job_no, || agg.digest() == kind.digest),
            Err(_) => false,
        },
    )
}

/// Submit one job, poll it alone until it has ended, and fetch its
/// aggregate, as a client with nothing else to do would.
/// `SvcClient::wait_done` does the same with 20 ms between polls, which
/// rounds the latency of a 60 ms job up to 20 ms steps.
pub fn round_trip(
    client: &mut SvcClient,
    spec: &replicate::JobSpec,
) -> Result<JobAggregate, SvcError> {
    let job = client.submit(spec)?;
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        match client.progress(job)?.state {
            // Fetching a failed job returns the service's reason.
            JobState::Done | JobState::Failed => return client.fetch(job),
            _ if Instant::now() >= deadline => {
                return Err(SvcError::Protocol(format!(
                    "job {job} not done after {JOB_TIMEOUT:?}"
                )))
            }
            _ => std::thread::sleep(ROUND_TRIP_POLL),
        }
    }
}

fn run_svc_mixed(slice: &mut Slice) -> Result<(), String> {
    let seed = slice.args.seed;
    let setup = slice.spans.begin("setup", slice.root, 0);
    let schedule = inputs::svc_schedule(
        seed,
        slice.args.index,
        (WARMUP_S + slice.args.seconds) * 1e3,
    );

    // References: each job spec run locally on one thread.
    let mut kinds: [Vec<SvcJobKind>; 2] = [Vec::new(), Vec::new()];
    for (big, variants) in [
        (false, inputs::SMALL_VARIANTS),
        (true, inputs::BIG_VARIANTS),
    ] {
        for variant in 0..variants {
            let spec = inputs::svc_spec(seed, big, variant);
            let outcome = slice
                .spans
                .scope("reference", setup, 0, || {
                    run_sweep(&spec, 1, &EngineConfig::default())
                })
                .map_err(|e| format!("reference sweep failed: {e}"))?;
            let events = job_events(&outcome.agg);
            slice.report.add("events_total", events);
            kinds[big as usize].push(SvcJobKind {
                spec,
                digest: outcome.agg.digest(),
                events,
            });
        }
    }
    let kind_of = |a: &Arrival| &kinds[a.big as usize][a.variant];

    let service = Service::start(SvcConfig {
        listen: "127.0.0.1:0".into(),
        threads: SHARDS,
        // The store stays off: fsync on a shared disk does not repeat.
        store_dir: None,
        cfg: slice.engine_config(),
    })
    .map_err(|e| format!("service start failed: {e}"))?;
    let connect =
        || SvcClient::connect(service.addr()).map_err(|e| format!("client connect failed: {e}"));
    let mut submitter = connect()?;
    let mut collector = connect()?;

    let cold = &kinds[0][0];
    let cold_agg = slice.spans.scope("replicate.round_trip", setup, 0, || {
        round_trip(&mut collector, &cold.spec)
    });
    slice.count_job(cold_agg.is_ok_and(|agg| agg.digest() == cold.digest));
    slice.report.add("events_total", cold.events);
    slice.finish_setup(setup);

    // The open loop: one thread submits on schedule whatever the service
    // is doing. This thread collects: on every tick it asks about each
    // job still out, in whatever order they finish, so a job's latency
    // ends when that job is done and fetched, not when the jobs submitted
    // before it are. The tick runs on its own clock: a poll started by a
    // submission would round every latency up to whole ticks, while a
    // free-running one adds between zero and one tick, evenly.
    let open = slice.spans.begin("open_loop", slice.root, 0);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let origin = Instant::now();
    let spans = slice.spans.clone();
    let mut collected = Vec::with_capacity(schedule.len());
    let mut late_ms_max = 0.0f64;
    std::thread::scope(|scope| {
        let submit_thread = scope.spawn(|| {
            let mut late_ms_max = 0.0f64;
            for (ix, arrival) in schedule.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(arrival.due_ms / 1e3);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                late_ms_max = late_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
                let job_no = ix as u64 + 1;
                let span = spans.begin("job", open, job_no);
                let job = spans.scope("replicate.submit", span, job_no, || {
                    submitter.submit(&kind_of(arrival).spec)
                });
                let submitted = Submitted {
                    arrival: *arrival,
                    job_no,
                    due,
                    job,
                    span,
                    wait: spans.begin("replicate.await", span, job_no),
                };
                if tx.send(submitted).is_err() {
                    break;
                }
            }
            drop(tx);
            late_ms_max
        });

        let mut out: Vec<Submitted> = Vec::new();
        let mut submitting = true;
        while submitting || !out.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(submitted) => out.push(submitted),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        submitting = false;
                        break;
                    }
                }
            }
            out.retain(|job| {
                let Submitted {
                    arrival, due, span, ..
                } = *job;
                let kind = kind_of(&arrival);
                let Some(ok) = poll_job(&mut collector, job, kind, &spans) else {
                    return true;
                };
                spans.end(span);
                collected.push(Collected {
                    arrival,
                    latency_ms: due.elapsed().as_secs_f64() * 1e3,
                    events: kind.events,
                    ok,
                });
                false
            });
            std::thread::sleep(POLL);
        }
        late_ms_max = submit_thread.join().expect("the submitter does not panic");
    });
    slice.spans.end(open);
    service.stop();
    // Jobs finish out of submission order; the summary reads them in it.
    collected.sort_by(|a, b| a.arrival.due_ms.total_cmp(&b.arrival.due_ms));

    for job in &collected {
        slice.count_job(job.ok);
        slice.report.add("events_total", job.events);
    }
    slice
        .report
        .set("replicate.generator_late_ms_max", late_ms_max);
    summarize_open_loop(&mut slice.report, &collected);
    Ok(())
}

/// Turn the collected jobs due after the warm-up into the slice's series.
fn summarize_open_loop(report: &mut SliceReport, collected: &[Collected]) {
    let timed: Vec<&Collected> = collected
        .iter()
        .filter(|j| j.arrival.due_ms >= WARMUP_S * 1e3)
        .collect();
    // A small job is blocked when a big job due before it was fetched
    // only after the small one was due.
    let big_spans: Vec<(f64, f64)> = collected
        .iter()
        .filter(|j| j.arrival.big)
        .map(|j| (j.arrival.due_ms, j.arrival.due_ms + j.latency_ms))
        .collect();
    let mut blocked = 0.0;
    let mut small = 0.0;
    for job in &timed {
        report.push("job_ms", job.latency_ms);
        if job.arrival.big {
            report.push("big_job_ms", job.latency_ms);
        } else {
            small += 1.0;
            report.push("small_job_ms", job.latency_ms);
            let due = job.arrival.due_ms;
            if big_spans
                .iter()
                .any(|&(big_due, big_done)| big_due < due && due < big_done)
            {
                blocked += 1.0;
            }
        }
    }
    report.add("small_jobs", small);
    report.add("small_jobs_blocked", blocked);
    // What the loop carried: events of correct jobs over the time from
    // the first timed job being due to the last one being fetched.
    let first_due_ms = timed
        .iter()
        .map(|j| j.arrival.due_ms)
        .fold(f64::INFINITY, f64::min);
    let last_done_ms = timed
        .iter()
        .map(|j| j.arrival.due_ms + j.latency_ms)
        .fold(0.0, f64::max);
    if last_done_ms > first_due_ms {
        report.add(
            "carried_events",
            timed.iter().filter(|j| j.ok).map(|j| j.events).sum(),
        );
        report.add("carried_s", (last_done_ms - first_due_ms) / 1e3);
    }
    report.add(
        "replicate.jobs_completed",
        timed.iter().filter(|j| j.ok).count() as f64,
    );
    report.add(
        "replicate.jobs_failed",
        timed.iter().filter(|j| !j.ok).count() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut report = SliceReport::default();
        report.push("job_ms", 1.25);
        report.push("job_ms", 2.5);
        report.set("setup_s", 0.125);
        report.add("attempted", 2.0);
        report.add("attempted", 1.0);
        let text = crate::json::render(&report.to_json());
        let back =
            SliceReport::from_json(&obs::json::parse(&text).expect("valid")).expect("well formed");
        assert_eq!(back, report);
        assert_eq!(back.sums["attempted"], 3.0);
        assert!(SliceReport::from_json(&Json::Null).is_err());
    }

    #[test]
    fn open_loop_summary_drops_the_warmup_and_finds_blocked_jobs() {
        let job = |due_ms: f64, big: bool, latency_ms: f64| Collected {
            arrival: Arrival {
                due_ms,
                big,
                variant: 0,
            },
            latency_ms,
            events: if big { 1_000.0 } else { 10.0 },
            ok: true,
        };
        let collected = vec![
            job(100.0, false, 21.0), // warm-up: dropped
            job(400.0, true, 90.0),  // occupies 400..490
            job(420.0, false, 75.0), // blocked
            job(480.0, false, 30.0), // blocked
            job(500.0, false, 21.0), // free
        ];
        let mut report = SliceReport::default();
        summarize_open_loop(&mut report, &collected);
        assert_eq!(report.series["job_ms"], vec![90.0, 75.0, 30.0, 21.0]);
        assert_eq!(report.series["big_job_ms"], vec![90.0]);
        // 1 030 events between 400 ms (first due) and 521 ms (last fetched).
        assert_eq!(report.sums["carried_events"], 1_030.0);
        assert!((report.sums["carried_s"] - 0.121).abs() < 1e-12);
        assert_eq!(report.series["small_job_ms"], vec![75.0, 30.0, 21.0]);
        assert_eq!(report.sums["small_jobs"], 3.0);
        assert_eq!(report.sums["small_jobs_blocked"], 2.0);
        assert_eq!(report.sums["replicate.jobs_completed"], 4.0);
        assert_eq!(report.sums["replicate.jobs_failed"], 0.0);
    }
}
