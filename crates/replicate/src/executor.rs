//! The replication executor: one pool of workers over one ready list
//! of admitted batches.
//!
//! A run is one `(cell, rep)` of a [`JobSpec`]: the cell's model graph
//! built with the job's [`crate::spec::JobSpec::seed_for`] seed and run
//! on the sequential model engine under the `EngineConfig`'s
//! `fault::RunPolicy` (injected faults surface as structured
//! `SimError`s; wedged runs trip the per-run watchdog).
//!
//! The ready list is the only queue. Whoever wants work — a pool
//! worker, or the service thread that feeds a remote rank — locks it
//! and claims from the batch with the **fewest unclaimed runs** (ties
//! to the earlier batch id), so a batch of 8 runs admitted beside one
//! of 370 is claimed next, whatever was admitted first. A worker takes
//! one run per claim, retiring the run it just finished under the same
//! lock; a rank takes a bounded chunk of whole replications off the top
//! of the batch's range and gives it back if it cannot finish it. Idle
//! claimants park on the condvar of that same mutex, untimed: work
//! appears only under the lock, so a wake-up cannot be lost.
//!
//! Every batch has its own `Sink`. The thread that finished a run
//! hands it the row, and the thread that retires a batch's last claimed
//! run tells it how the batch ended; since each row is recorded before
//! its run is retired, the end comes after every row. A run error
//! cancels the unclaimed runs of its own batch and no other's. Rows
//! reach a sink in completion order and the sink re-indexes by `(cell,
//! rep)`, so the aggregate is independent of scheduling.
//!
//! [`run_slice`] and [`run_sweep`] are this pool held for one batch.
//!
//! Cross-thread spans: when the recorder is enabled the admitting
//! thread emits a [`SpanKind::RunExec`] *Begin* per run and the
//! executing worker emits the matching *End* (`a` = run id, `b` =
//! worker index), which `obs::pair_spans` stitches into per-run
//! queue+execute latencies and `obs::critical_path` folds into the
//! batch's wall-time attribution.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use des::{EngineConfig, SimError};
use obs::{Recorder, SpanKind, Tracer};

use crate::agg::JobAggregate;
use crate::spec::{JobSpec, WorkloadSpec};

/// One completed run: the cell's metric columns plus wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRow {
    /// Scenario cell index.
    pub cell: u32,
    /// Replication index within the cell.
    pub rep: u32,
    /// Values aligned with the cell's columns — deterministic metrics
    /// first, [`crate::agg::WALL_COL`] last.
    pub values: Vec<u64>,
}

/// Execute one seeded run of `workload` and return its deterministic
/// metric columns (in [`WorkloadSpec::metric_names`] order, without
/// the wall column).
pub fn execute_run(
    workload: &WorkloadSpec,
    seed: u64,
    horizon: u64,
    cfg: &EngineConfig,
) -> Result<Vec<u64>, SimError> {
    let sum_suffix = |obs: &[(String, u64)], suffix: &str| -> u64 {
        obs.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| *v).sum()
    };
    let find = |obs: &[(String, u64)], key: &str| -> u64 {
        obs.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0)
    };
    match workload {
        WorkloadSpec::Phold(p) => {
            let out = model::try_run("model-seq", cfg, model::phold::build(*p, seed, horizon))?;
            Ok(vec![
                out.stats.events_delivered,
                out.checksum,
                sum_suffix(&out.observables, ".sent_remote"),
                sum_suffix(&out.observables, ".hop_sum"),
            ])
        }
        WorkloadSpec::Mmc(m) => {
            let out = model::try_run("model-seq", cfg, model::queueing::build(*m, seed, horizon))?;
            Ok(vec![
                out.stats.events_delivered,
                out.checksum,
                find(&out.observables, "sink.completed"),
                find(&out.observables, "sink.latency_sum"),
                sum_suffix(&out.observables, ".wait_sum"),
                sum_suffix(&out.observables, ".served"),
            ])
        }
    }
}

/// Live progress of a job, shared with whoever reports it.
#[derive(Clone, Default)]
pub struct Progress {
    completed: Arc<AtomicU64>,
}

impl Progress {
    /// Runs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Count `n` more completed runs (remote rows use this too).
    pub fn add(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }
}

/// How a batch ended.
pub(crate) enum Outcome {
    /// Every run was claimed, finished and recorded.
    Complete,
    /// A run failed; the batch's unclaimed runs were cancelled.
    Failed(SimError),
    /// The pool stopped before the batch's last run was claimed.
    Stopped,
}

/// Where one batch's rows go. The pool calls `started` before the
/// batch's first run executes and `done` exactly once, after the last
/// `row`.
pub(crate) trait Sink: Send + Sync {
    /// The batch's first run was claimed.
    fn started(&self) {}
    /// One finished run, on the thread that executed (or received) it.
    fn row(&self, row: RunRow);
    /// The batch is over; no `row` follows.
    fn done(&self, outcome: Outcome);
}

/// What a claimant needs to execute a batch's runs.
pub(crate) struct Batch {
    /// Unique among the pool's live batches; the tie-break of the
    /// claim rule.
    pub id: u64,
    pub spec: JobSpec,
    pub sink: Arc<dyn Sink>,
}

impl Batch {
    /// The `RunExec` span identity of one run: 12 bits of cell
    /// ([`crate::spec::MAX_CELLS`]), 24 of rep ([`crate::spec::MAX_RUNS`])
    /// and the low 28 of the batch id, so ids of live batches collide
    /// only 2^28 admissions apart.
    fn span_id(&self, cell: u32, rep: u32) -> u64 {
        (self.id << 36) | ((cell as u64) << 24) | rep as u64
    }
}

/// A batch in the ready list. Runs are numbered `rep * cells + cell`.
struct Slot {
    batch: Arc<Batch>,
    cells: u64,
    /// Runs no one has claimed yet. Workers claim from the bottom;
    /// remote chunks come off the top, whole replications at a time,
    /// so `end` stays a multiple of `cells`.
    fresh: Range<u64>,
    /// Remote chunks that came back; claimed before `fresh`.
    returned: Vec<Range<u64>>,
    /// Runs claimed and not yet retired (a remote chunk counts whole).
    outstanding: u64,
    started: bool,
    error: Option<SimError>,
}

impl Slot {
    fn unclaimed(&self) -> u64 {
        let len = |r: &Range<u64>| r.end - r.start;
        len(&self.fresh) + self.returned.iter().map(len).sum::<u64>()
    }

    /// Whole replications left in `fresh`.
    fn fresh_reps(&self) -> u64 {
        (self.fresh.end / self.cells).saturating_sub(self.fresh.start.div_ceil(self.cells))
    }

    /// Whether this claim is the batch's first.
    fn first_claim(&mut self) -> bool {
        !std::mem::replace(&mut self.started, true)
    }
}

/// The runs of replications `reps` of a batch of `cells` cells.
fn runs_of(reps: &Range<u32>, cells: u64) -> Range<u64> {
    reps.start as u64 * cells..reps.end as u64 * cells
}

/// One run claimed by a worker.
struct Run {
    batch: Arc<Batch>,
    cell: u32,
    rep: u32,
    first: bool,
}

/// Replications `reps` of every cell of `batch`, claimed for a remote
/// rank. Must go back through [`Pool::chunk_done`].
pub(crate) struct Chunk {
    pub batch: Arc<Batch>,
    pub reps: Range<u32>,
}

/// A batch that just left the ready list.
type Ended = (Arc<Batch>, Outcome);

/// The ready list: every admitted batch that still has a run unclaimed
/// or outstanding. All of the ordering lives here, free of threads.
#[derive(Default)]
struct Ready {
    slots: Vec<Slot>,
    stop: bool,
    /// Emits the `RunExec` Begin of every admitted run.
    submit: Tracer,
}

impl Ready {
    fn admit(&mut self, batch: Arc<Batch>, reps: Range<u32>) {
        let cells = batch.spec.cells.len() as u64;
        let fresh = runs_of(&reps, cells);
        assert!(cells > 0 && fresh.start < fresh.end, "a batch has at least one run");
        if self.submit.is_enabled() {
            for run in fresh.clone() {
                let id = batch.span_id((run % cells) as u32, (run / cells) as u32);
                self.submit.begin(SpanKind::RunExec, id);
            }
        }
        self.slots.push(Slot {
            batch,
            cells,
            fresh,
            returned: Vec::new(),
            outstanding: 0,
            started: false,
            error: None,
        });
    }

    /// The claim rule: of the slots that `offer` something, the one
    /// with the fewest unclaimed runs, ties to the earlier batch id.
    fn front(&mut self, offer: impl Fn(&Slot) -> bool) -> Option<&mut Slot> {
        self.slots
            .iter_mut()
            .filter(|slot| offer(slot))
            .min_by_key(|slot| (slot.unclaimed(), slot.batch.id))
    }

    /// Claim the next run for a worker.
    fn claim(&mut self) -> Option<Run> {
        let slot = self.front(|slot| slot.unclaimed() > 0)?;
        let run = match slot.returned.last_mut() {
            Some(range) => {
                let run = range.start;
                range.start += 1;
                if range.start == range.end {
                    slot.returned.pop();
                }
                run
            }
            None => {
                slot.fresh.start += 1;
                slot.fresh.start - 1
            }
        };
        slot.outstanding += 1;
        Some(Run {
            batch: Arc::clone(&slot.batch),
            cell: (run % slot.cells) as u32,
            rep: (run / slot.cells) as u32,
            first: slot.first_claim(),
        })
    }

    /// Claim up to `max_runs` runs, rounded up to whole replications,
    /// off the top of the front batch for a remote rank.
    fn claim_chunk(&mut self, max_runs: u64) -> Option<(Chunk, bool)> {
        let slot = self.front(|slot| slot.fresh_reps() > 0)?;
        let reps = max_runs.div_ceil(slot.cells).clamp(1, slot.fresh_reps());
        let top = slot.fresh.end / slot.cells;
        slot.fresh.end = (top - reps) * slot.cells;
        slot.outstanding += reps * slot.cells;
        let chunk = Chunk {
            batch: Arc::clone(&slot.batch),
            reps: (top - reps) as u32..top as u32,
        };
        Some((chunk, slot.first_claim()))
    }

    /// Retire `runs` claimed runs of batch `id`: they finished, or one
    /// failed with `error` (which cancels the batch's unclaimed runs),
    /// or they come `back` unclaimed. Returns the batch when that was
    /// its last outstanding run and nothing is left to claim.
    fn retire(
        &mut self,
        id: u64,
        runs: u64,
        error: Option<SimError>,
        back: Option<Range<u64>>,
    ) -> Option<Ended> {
        // Gone already: the pool stopped under a remote chunk.
        let ix = self.slots.iter().position(|slot| slot.batch.id == id)?;
        let slot = &mut self.slots[ix];
        slot.outstanding -= runs;
        if let Some(error) = error {
            slot.error.get_or_insert(error);
        }
        if slot.error.is_some() {
            slot.fresh.end = slot.fresh.start;
            slot.returned.clear();
        } else if let Some(back) = back {
            slot.returned.push(back);
        }
        if slot.outstanding > 0 || slot.unclaimed() > 0 {
            return None;
        }
        let slot = self.slots.swap_remove(ix);
        let outcome = slot.error.map_or(Outcome::Complete, Outcome::Failed);
        Some((slot.batch, outcome))
    }
}

/// Runs per rank thread in one remote chunk: under a millisecond of
/// work per `Assign` round trip, and the most a lost rank holds back.
/// Measured (DESIGN.md §14): 8, 32 and 128 finish a job equally fast.
const RANK_RUNS_PER_THREAD: u64 = 8;

/// Executes one `(cell, rep)` of a spec into its deterministic columns.
type Runner = Box<dyn Fn(&JobSpec, u32, u32) -> Result<Vec<u64>, SimError> + Send + Sync>;

struct Inner {
    ready: Mutex<Ready>,
    /// Signalled under `ready` whenever runs become claimable or `stop`
    /// is set.
    wake: Condvar,
    run: Runner,
    recorder: Recorder,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.ready.lock().expect("no thread panics holding the ready list")
    }

    fn park<'a>(&self, ready: MutexGuard<'a, Ready>) -> MutexGuard<'a, Ready> {
        self.wake.wait(ready).expect("no thread panics holding the ready list")
    }
}

/// The one place run-executing threads come from.
pub(crate) struct Pool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Start `threads` workers executing runs under `cfg`.
    pub fn start(threads: usize, cfg: &EngineConfig) -> Pool {
        let recorder = cfg.recorder();
        let cfg = cfg.clone();
        let run: Runner = Box::new(move |spec, cell, rep| {
            let workload = &spec.cells[cell as usize].workload;
            execute_run(workload, spec.seed_for(cell, rep), spec.horizon, &cfg)
        });
        Pool::with_runner(threads, recorder, run)
    }

    fn with_runner(threads: usize, recorder: Recorder, run: Runner) -> Pool {
        assert!(threads >= 1, "need at least one worker");
        let ready = Ready { submit: recorder.tracer("replicate-submit"), ..Ready::default() };
        let inner = Arc::new(Inner { ready: Mutex::new(ready), wake: Condvar::new(), run, recorder });
        let workers = (0..threads)
            .map(|wix| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("replicate-{wix}"))
                    .spawn(move || worker(&inner, wix))
                    .expect("spawn a pool worker")
            })
            .collect();
        Pool { inner, workers: Mutex::new(workers) }
    }

    /// Put replications `reps` of every cell of `batch` on the ready
    /// list. The batch's sink hears `done` exactly once — at once, with
    /// [`Outcome::Stopped`], when the pool has already stopped.
    pub fn admit(&self, batch: Arc<Batch>, reps: Range<u32>) {
        let mut ready = self.inner.lock();
        if !ready.stop {
            ready.admit(batch, reps);
            drop(ready);
            self.inner.wake.notify_all();
        } else {
            drop(ready);
            batch.sink.done(Outcome::Stopped);
        }
    }

    /// Block until there is a chunk for a rank with `rank_threads`
    /// threads; `None` once the pool stops.
    pub fn claim_chunk(&self, rank_threads: u32) -> Option<Chunk> {
        let max_runs = RANK_RUNS_PER_THREAD * rank_threads.max(1) as u64;
        let mut ready = self.inner.lock();
        loop {
            if ready.stop {
                return None;
            }
            if let Some((chunk, first)) = ready.claim_chunk(max_runs) {
                drop(ready);
                if first {
                    chunk.batch.sink.started();
                }
                return Some(chunk);
            }
            ready = self.inner.park(ready);
        }
    }

    /// Retire a remote chunk: its rows are recorded (`ok`), or it goes
    /// back on its batch's unclaimed set.
    pub fn chunk_done(&self, chunk: Chunk, ok: bool) {
        let runs = runs_of(&chunk.reps, chunk.batch.spec.cells.len() as u64);
        let ended = self.inner.lock().retire(
            chunk.batch.id,
            runs.end - runs.start,
            None,
            (!ok).then_some(runs),
        );
        match ended {
            Some((batch, outcome)) => batch.sink.done(outcome),
            None if !ok => self.inner.wake.notify_all(),
            None => {}
        }
    }

    /// Tell every claimant to stop; workers finish the run they hold.
    /// Batches still on the list end when [`Pool::shutdown`] runs.
    pub fn request_stop(&self) {
        self.inner.lock().stop = true;
        self.inner.wake.notify_all();
    }

    /// Whether a stop was requested.
    pub fn stopped(&self) -> bool {
        self.inner.lock().stop
    }

    /// Block until a stop is requested.
    pub fn wait_stop(&self) {
        let mut ready = self.inner.lock();
        while !ready.stop {
            ready = self.inner.park(ready);
        }
    }

    /// Stop, join the workers, and end every batch still on the list
    /// with [`Outcome::Stopped`].
    pub fn shutdown(&self) {
        self.request_stop();
        let workers = std::mem::take(&mut *self.workers.lock().expect("join list lock"));
        for worker in workers {
            let _ = worker.join();
        }
        let orphans = std::mem::take(&mut self.inner.lock().slots);
        for slot in orphans {
            slot.batch.sink.done(Outcome::Stopped);
        }
    }
}

fn worker(inner: &Inner, wix: usize) {
    let tracer = inner.recorder.tracer(&format!("replicate-{wix}"));
    // The run this worker just finished: batch id and how it went.
    let mut finished: Option<(u64, Option<SimError>)> = None;
    loop {
        // One lock per run: retire the last one, claim the next.
        let mut ready = inner.lock();
        if let Some((id, error)) = finished.take() {
            if let Some((batch, outcome)) = ready.retire(id, 1, error, None) {
                drop(ready);
                batch.sink.done(outcome);
                continue;
            }
        }
        let run = loop {
            if ready.stop {
                return;
            }
            match ready.claim() {
                Some(run) => break run,
                None => ready = inner.park(ready),
            }
        };
        drop(ready);
        let Run { batch, cell, rep, first } = run;
        if first {
            batch.sink.started();
        }
        let started = Instant::now();
        let error = match (inner.run)(&batch.spec, cell, rep) {
            Ok(mut values) => {
                values.push(started.elapsed().as_nanos() as u64);
                if tracer.is_enabled() {
                    tracer.end(SpanKind::RunExec, batch.span_id(cell, rep), wix as u64);
                }
                batch.sink.row(RunRow { cell, rep, values });
                None
            }
            Err(e) => Some(e),
        };
        finished = Some((batch.id, error));
    }
}

/// The sink of [`run_slice`]: everything goes to the calling thread.
struct ToCaller(mpsc::Sender<Result<RunRow, Outcome>>);

impl Sink for ToCaller {
    fn row(&self, row: RunRow) {
        // The caller receives until `done`.
        let _ = self.0.send(Ok(row));
    }

    fn done(&self, outcome: Outcome) {
        let _ = self.0.send(Err(outcome));
    }
}

/// Run replications `reps` of every cell of `spec` across `threads`
/// workers, invoking `on_row` on the caller's thread for each finished
/// run (any order). The first run error cancels remaining tasks and is
/// returned after in-flight rows drain.
pub fn run_slice(
    spec: &JobSpec,
    reps: Range<u32>,
    threads: usize,
    cfg: &EngineConfig,
    progress: &Progress,
    mut on_row: impl FnMut(RunRow),
) -> Result<(), SimError> {
    assert!(reps.end <= spec.replications, "slice exceeds spec replications");
    if reps.is_empty() || spec.cells.is_empty() {
        return Ok(());
    }
    let pool = Pool::start(threads, cfg);
    let (tx, rx) = mpsc::channel();
    pool.admit(Arc::new(Batch { id: 0, spec: spec.clone(), sink: Arc::new(ToCaller(tx)) }), reps);
    let outcome = loop {
        match rx.recv().expect("the batch ends before its sink is dropped") {
            Ok(row) => {
                progress.add(1);
                on_row(row);
            }
            Err(outcome) => break outcome,
        }
    };
    pool.shutdown();
    match outcome {
        Outcome::Complete => Ok(()),
        Outcome::Failed(e) => Err(e),
        Outcome::Stopped => unreachable!("nothing stops this pool before its batch ends"),
    }
}

/// Outcome of a whole-job sweep.
pub struct SweepOutcome {
    /// The cross-run aggregate.
    pub agg: JobAggregate,
    /// Total rows executed.
    pub rows: u64,
    /// Wall time of the sweep.
    pub wall: Duration,
}

/// Run every `(cell, rep)` of `spec` locally and aggregate. The
/// aggregate (minus wall columns) is bit-identical for any `threads`.
pub fn run_sweep(
    spec: &JobSpec,
    threads: usize,
    cfg: &EngineConfig,
) -> Result<SweepOutcome, SimError> {
    let started = Instant::now();
    let mut agg = JobAggregate::for_spec(spec);
    let progress = Progress::default();
    run_slice(spec, 0..spec.replications, threads, cfg, &progress, |row| {
        agg.record_row(row.cell as usize, &row.values);
    })?;
    Ok(SweepOutcome { rows: progress.completed(), agg, wall: started.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::sample_spec;

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let spec = sample_spec();
        let cfg = EngineConfig::default();
        let one = run_sweep(&spec, 1, &cfg).expect("1 thread");
        let four = run_sweep(&spec, 4, &cfg).expect("4 threads");
        assert_eq!(one.rows, spec.total_runs());
        assert_eq!(four.rows, spec.total_runs());
        assert_eq!(one.agg.digest(), four.agg.digest());
        // Deterministic columns identical histogram-for-histogram.
        for (a, b) in one.agg.cells.iter().zip(four.agg.cells.iter()) {
            for ((col, ha), hb) in a.columns.iter().zip(a.hists.iter()).zip(b.hists.iter()) {
                if col != crate::agg::WALL_COL {
                    assert_eq!(ha, hb, "column {col}");
                }
            }
        }
    }

    #[test]
    fn slices_union_to_the_full_sweep() {
        let spec = sample_spec();
        let cfg = EngineConfig::default();
        let whole = run_sweep(&spec, 2, &cfg).expect("whole");
        let mut split = JobAggregate::for_spec(&spec);
        for range in [0..4u32, 4..7, 7..spec.replications] {
            let progress = Progress::default();
            run_slice(&spec, range, 2, &cfg, &progress, |row| {
                split.record_row(row.cell as usize, &row.values);
            })
            .expect("slice");
        }
        assert_eq!(split.digest(), whole.agg.digest());
    }

    #[test]
    fn cross_thread_run_spans_pair_up() {
        let mut spec = sample_spec();
        spec.replications = 4;
        spec.cells.truncate(1);
        let recorder = obs::Recorder::new(&obs::ObsConfig::enabled());
        let cfg = EngineConfig::default().with_recorder(recorder.clone());
        run_sweep(&spec, 2, &cfg).expect("sweep");
        let dumps = recorder.recent_traces(usize::MAX);
        let spans = obs::pair_spans(&dumps);
        let runs: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::RunExec).collect();
        assert_eq!(runs.len(), 4, "every task's Begin/End must pair");
        for s in &runs {
            assert_eq!(s.begin_thread, "replicate-submit");
            assert!(s.end_thread.starts_with("replicate-"));
        }
        let report = obs::critical_path(&dumps);
        assert!(report.wall_ns > 0);
        assert!(!report.per_thread.is_empty());
    }

    #[test]
    fn injected_fault_surfaces_as_error() {
        let spec = sample_spec();
        // Every run panics via the injected fault; the pool must stop
        // and surface the structured error instead of hanging.
        let cfg = EngineConfig::default()
            .with_fault_plan(des::FaultPlan::seeded(1).panic_in_shard(0));
        match run_sweep(&spec, 2, &cfg) {
            Err(SimError::TaskPanicked { .. }) => {}
            other => panic!("expected TaskPanicked, got {other:?}", other = other.map(|_| ())),
        }
    }

    /// A sink that ignores everything: the claim-rule tests read the
    /// ready list, not the rows.
    struct Ignore;

    impl Sink for Ignore {
        fn row(&self, _: RunRow) {}
        fn done(&self, _: Outcome) {}
    }

    /// A one-cell batch named after its id.
    fn batch(id: u64, sink: Arc<dyn Sink>) -> Arc<Batch> {
        let mut spec = sample_spec();
        spec.name = format!("job-{id}");
        spec.cells.truncate(1);
        Arc::new(Batch { id, spec, sink })
    }

    /// A ready list holding one-cell batches of the given ids and sizes.
    fn ready_list(batches: &[(u64, u32)]) -> Ready {
        let mut ready = Ready::default();
        for &(id, runs) in batches {
            ready.admit(batch(id, Arc::new(Ignore)), 0..runs);
        }
        ready
    }

    /// Claim `n` runs as a worker would; `(batch id, rep)` of each.
    fn claims(ready: &mut Ready, n: usize) -> Vec<(u64, u32)> {
        (0..n)
            .map(|_| {
                let run = ready.claim().expect("a run to claim");
                (run.batch.id, run.rep)
            })
            .collect()
    }

    #[test]
    fn the_smaller_batch_is_claimed_first_whatever_the_admission_order() {
        let mut ready = ready_list(&[(1, 370), (2, 8)]);
        let order = claims(&mut ready, 10);
        let expected: Vec<_> = (0..8).map(|rep| (2, rep)).chain([(1, 0), (1, 1)]).collect();
        assert_eq!(order, expected);
        // Everything of batch 2 is claimed but nothing retired: it
        // stays on the list and offers nothing.
        assert_eq!(ready.slots.len(), 2);
        for rep in 0..8 {
            let ended = ready.retire(2, 1, None, None);
            assert_eq!(ended.is_some(), rep == 7, "the batch ends with its last run");
        }
        assert_eq!(ready.slots.len(), 1);
    }

    #[test]
    fn equal_batches_go_in_id_order_and_a_nearly_claimed_batch_keeps_its_turn() {
        let mut ready = ready_list(&[(7, 4), (3, 4)]);
        // A tie goes to the earlier id, and claiming breaks the tie for good.
        assert_eq!(claims(&mut ready, 5), [(3, 0), (3, 1), (3, 2), (3, 3), (7, 0)]);

        // A is down to 5 unclaimed runs when C arrives with 8: A first.
        let mut ready = ready_list(&[(1, 370)]);
        claims(&mut ready, 365);
        ready.admit(batch(3, Arc::new(Ignore)), 0..8);
        let order = claims(&mut ready, 13);
        assert!(order[..5].iter().all(|&(id, _)| id == 1), "{order:?}");
        assert!(order[5..].iter().all(|&(id, _)| id == 3), "{order:?}");
        assert!(ready.claim().is_none());
    }

    #[test]
    fn a_remote_chunk_comes_off_the_top_and_returns_ahead_of_fresh_runs() {
        let mut ready = ready_list(&[(1, 100), (2, 40)]);
        // The rank is served by the same rule: the smaller batch.
        let (chunk, first) = ready.claim_chunk(16).expect("a chunk");
        assert_eq!((chunk.batch.id, chunk.reps.clone(), first), (2, 24..40, true));
        assert_eq!(claims(&mut ready, 2), [(2, 0), (2, 1)]);
        // It comes back: its runs go before the batch's fresh ones.
        assert!(ready.retire(2, 16, None, Some(24..40)).is_none());
        assert_eq!(claims(&mut ready, 3), [(2, 24), (2, 25), (2, 26)]);
        // A chunk is whole replications and never more than are fresh.
        let mut ready = ready_list(&[(5, 3)]);
        claims(&mut ready, 1);
        let (chunk, first) = ready.claim_chunk(16).expect("a chunk");
        assert_eq!((chunk.reps, first), (1..3, false));
        assert!(ready.claim_chunk(16).is_none() && ready.claim().is_none());
        // The batch ends when the local run and the chunk are retired.
        assert!(ready.retire(5, 2, None, None).is_none());
        assert!(matches!(ready.retire(5, 1, None, None), Some((_, Outcome::Complete))));
    }

    #[test]
    fn a_failed_run_fails_its_own_batch_and_no_other() {
        // One erroring task: rep 3 of the batch named "job-1".
        let run: Runner = Box::new(|spec, _cell, rep| {
            if spec.name == "job-1" && rep == 3 {
                Err(SimError::invariant("rep 3 always fails"))
            } else {
                Ok(vec![rep as u64])
            }
        });
        let pool = Pool::with_runner(2, Recorder::off(), run);
        let (bad_tx, bad_rx) = mpsc::channel();
        let (good_tx, good_rx) = mpsc::channel();
        pool.admit(batch(1, Arc::new(ToCaller(bad_tx))), 0..50);
        pool.admit(batch(2, Arc::new(ToCaller(good_tx))), 0..50);

        let good: Vec<_> = good_rx.iter().collect();
        assert_eq!(good.len(), 51, "50 rows, then the end");
        assert!(matches!(good[50], Err(Outcome::Complete)));
        let mut reps: Vec<u32> =
            good[..50].iter().map(|row| row.as_ref().ok().expect("a row").rep).collect();
        reps.sort_unstable();
        assert_eq!(reps, (0..50).collect::<Vec<_>>());

        let bad: Vec<_> = bad_rx.iter().collect();
        match bad.last() {
            Some(Err(Outcome::Failed(e))) => assert!(e.to_string().contains("rep 3 always fails")),
            _ => panic!("the batch with the erroring task must end Failed"),
        }
        assert!(bad.len() < 51, "the failure cancelled the unclaimed runs");
        pool.shutdown();
    }

    #[test]
    fn stopping_ends_every_unfinished_batch_once() {
        // Runs wait for the test, so the batch is in flight at the stop.
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let run: Runner = Box::new(move |_, _, rep| {
            let _ = go_rx.lock().unwrap().recv();
            Ok(vec![rep as u64])
        });
        let pool = Pool::with_runner(1, Recorder::off(), run);
        let (held_tx, held_rx) = mpsc::channel();
        let (queued_tx, queued_rx) = mpsc::channel();
        pool.admit(batch(1, Arc::new(ToCaller(held_tx))), 0..5);
        pool.admit(batch(2, Arc::new(ToCaller(queued_tx))), 0..9);
        go_tx.send(()).unwrap();
        assert!(held_rx.recv().unwrap().is_ok(), "the first run finishes");
        pool.request_stop();
        drop(go_tx); // releases the run the worker holds, if it holds one
        pool.shutdown();
        let held: Vec<_> = held_rx.iter().collect();
        assert!(held.len() <= 2, "at most the held run, then the end");
        assert!(matches!(held.last(), Some(Err(Outcome::Stopped))));
        assert!(matches!(queued_rx.iter().collect::<Vec<_>>()[..], [Err(Outcome::Stopped)]));
        // Admitted after the stop: ended at once, never run.
        let (late_tx, late_rx) = mpsc::channel();
        pool.admit(batch(3, Arc::new(ToCaller(late_tx))), 0..1);
        assert!(matches!(late_rx.iter().collect::<Vec<_>>()[..], [Err(Outcome::Stopped)]));
    }
}
