//! The `des-svc` replication service: a long-lived job service over TCP.
//!
//! One [`Service`] owns a listener and the one run pool
//! ([`crate::executor`]): `threads` workers over the ready list of
//! every admitted job. Clients connect, `Hello`-fence, and submit
//! [`JobSpec`]s; the connection's thread builds the job's sink and
//! admits its runs, and from then on there is no job-level scheduler —
//! each claim goes to the job with the fewest unclaimed runs, so a
//! small job passes a big one. The worker that retires a job's last run
//! seals its store file and publishes `Done` or `Failed`; a failed run
//! fails its own job only.
//!
//! Remote **worker ranks** (`des-svc worker`, the replication analogue
//! of `des-node`) pull from the same ordering: an idle rank is handed
//! one bounded chunk of replications at a time. A rank buffers its
//! chunk and sends rows back only on success, so a dead, failing or
//! silent rank costs nothing but time: its chunk goes back on the job's
//! unclaimed set and a local worker runs it — the per-run seeds make
//! the result identical wherever a replication executes. Only a rank
//! that hangs up, goes silent or breaks the protocol is dropped; one
//! that reports a failed chunk stays attached.
//!
//! Progress is observable two ways: the `Progress` frame, and the
//! sim-obs Prometheus endpoint (`sim_svc_queue_depth`,
//! `sim_svc_jobs_inflight`, `sim_svc_runs_total`, per-job
//! `sim_svc_job_completed_runs{job="…"}` …) served by
//! `obs::MetricsServer` from the same recorder the runs trace into.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use des::EngineConfig;
use net::wire::WireError;
use obs::Recorder;

use crate::agg::JobAggregate;
use crate::executor::{run_slice, Batch, Chunk, Outcome, Pool, Progress, RunRow, Sink};
use crate::proto::{
    encode_svc_frame, proto_digest, read_svc_frame, write_svc_frame, JobState, Role, SvcFrame,
    ROW_BATCH,
};
use crate::spec::JobSpec;
use crate::store::{RunStoreWriter, StoreError};

/// How long a rank may stay silent under a chunk before the chunk goes
/// back on its job's unclaimed set.
const ASSIGN_TIMEOUT: Duration = Duration::from_secs(120);

/// Service-side configuration.
#[derive(Clone)]
pub struct SvcConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Local worker threads.
    pub threads: usize,
    /// When set, every job's rows are streamed to
    /// `<dir>/job-<id>.cols` in the columnar store format.
    pub store_dir: Option<PathBuf>,
    /// Per-run engine configuration (fault policy, watchdog, recorder).
    pub cfg: EngineConfig,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            listen: "127.0.0.1:0".into(),
            threads: 2,
            store_dir: None,
            cfg: EngineConfig::default(),
        }
    }
}

/// Client/worker side errors.
#[derive(Debug)]
pub enum SvcError {
    /// Socket error.
    Io(std::io::Error),
    /// Frame codec violation.
    Wire(WireError),
    /// The server refused the request.
    Rejected(String),
    /// The peer sent a frame that makes no sense here.
    Protocol(String),
    /// Column-store failure.
    Store(StoreError),
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Io(e) => write!(f, "svc io: {e}"),
            SvcError::Wire(e) => write!(f, "svc frame: {e}"),
            SvcError::Rejected(r) => write!(f, "rejected: {r}"),
            SvcError::Protocol(m) => write!(f, "protocol violation: {m}"),
            SvcError::Store(e) => write!(f, "svc store: {e}"),
        }
    }
}

impl std::error::Error for SvcError {}

impl From<std::io::Error> for SvcError {
    fn from(e: std::io::Error) -> Self {
        SvcError::Io(e)
    }
}
impl From<WireError> for SvcError {
    fn from(e: WireError) -> Self {
        SvcError::Wire(e)
    }
}
impl From<StoreError> for SvcError {
    fn from(e: StoreError) -> Self {
        SvcError::Store(e)
    }
}

/// A point-in-time progress snapshot (mirrors `ProgressReport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressInfo {
    /// Lifecycle state.
    pub state: JobState,
    /// Runs completed.
    pub completed: u64,
    /// Total runs.
    pub total: u64,
    /// Jobs admitted with no run claimed yet.
    pub queued_jobs: u64,
    /// Jobs with a run claimed and not yet ended.
    pub inflight_jobs: u64,
}

/// A job's lifecycle as clients see it.
struct Status {
    state: JobState,
    result: Option<JobAggregate>,
    error: Option<String>,
}

/// Where a job's rows land until it ends.
struct Rows {
    writer: Option<RunStoreWriter>,
    agg: JobAggregate,
    seen: std::collections::HashSet<(u32, u32)>,
    corrupt: Option<String>,
}

impl Rows {
    fn push(&mut self, row: &RunRow) {
        if self.corrupt.is_some() {
            return;
        }
        if !self.seen.insert((row.cell, row.rep)) {
            self.corrupt = Some(format!("duplicate row cell={} rep={}", row.cell, row.rep));
            return;
        }
        if row.cell as usize >= self.agg.cells.len()
            || row.values.len() != self.agg.cells[row.cell as usize].hists.len()
        {
            self.corrupt = Some(format!("row outside job shape: cell={}", row.cell));
            return;
        }
        self.agg.record_row(row.cell as usize, &row.values);
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.push_row(row.cell, row.rep, &row.values) {
                self.corrupt = Some(format!("store write failed: {e}"));
            }
        }
    }
}

/// One submitted job: its own order-free sink on the pool, and what
/// `Progress` and `Fetch` read.
struct Job {
    total: u64,
    progress: Progress,
    status: Mutex<Status>,
    /// `None` once the job has ended.
    rows: Mutex<Option<Rows>>,
    completed_gauge: obs::Gauge,
    meters: Arc<Meters>,
}

impl Sink for Job {
    fn started(&self) {
        let mut status = self.status.lock().unwrap();
        // A stop can end the job between a rank's first claim and this call.
        if status.state == JobState::Queued {
            status.state = JobState::Running;
            self.meters.shift(Some(JobState::Queued), JobState::Running);
        }
    }

    fn row(&self, row: RunRow) {
        // A job that ended under a remote chunk (service stopped) has
        // no use for the chunk's rows.
        if let Some(rows) = self.rows.lock().unwrap().as_mut() {
            rows.push(&row);
            self.progress.add(1);
            self.completed_gauge.set(self.progress.completed());
            self.meters.runs.inc();
        }
    }

    /// Seal the store and publish the terminal state.
    fn done(&self, outcome: Outcome) {
        let Some(mut rows) = self.rows.lock().unwrap().take() else { return };
        let mut failure = match outcome {
            Outcome::Complete => rows.corrupt.take(),
            Outcome::Failed(e) => Some(e.to_string()),
            Outcome::Stopped => Some("service stopped".to_string()),
        };
        if failure.is_none() && rows.agg.total_runs != self.total {
            failure = Some(format!("incomplete job: {}/{} runs", rows.agg.total_runs, self.total));
        }
        if failure.is_none() {
            if let Some(w) = rows.writer.take() {
                match w.finish() {
                    Ok(sealed) => debug_assert_eq!(sealed.digest(), rows.agg.digest()),
                    Err(e) => failure = Some(format!("store seal failed: {e}")),
                }
            }
        }
        let mut status = self.status.lock().unwrap();
        let from = status.state;
        match failure {
            None => {
                status.state = JobState::Done;
                status.result = Some(rows.agg);
            }
            Some(reason) => {
                status.state = JobState::Failed;
                status.error = Some(reason);
            }
        }
        self.meters.shift(Some(from), status.state);
    }
}

/// Service-wide counters and gauges. Queued = admitted with no run
/// claimed; in flight = a run claimed and the job not ended. Both move
/// only when a job changes state.
struct Meters {
    recorder: Recorder,
    /// `[queued, in flight, ranks attached]`; their gauges are set
    /// under this lock so they cannot fall behind it.
    load: Mutex<[u64; 3]>,
    runs: obs::Counter,
}

impl Meters {
    fn update(&self, change: impl FnOnce(&mut [u64; 3])) {
        const GAUGES: [&str; 3] =
            ["sim_svc_queue_depth", "sim_svc_jobs_inflight", "sim_svc_workers_connected"];
        let mut load = self.load.lock().unwrap();
        change(&mut load);
        for (name, value) in GAUGES.iter().zip(*load) {
            self.recorder.gauge(name, &[]).set(value);
        }
    }

    /// A job moved `from` one state (`None`: just submitted) `to` another.
    fn shift(&self, from: Option<JobState>, to: JobState) {
        let slot = |state| match state {
            JobState::Queued => Some(0),
            JobState::Running => Some(1),
            JobState::Done | JobState::Failed => None,
        };
        self.update(|load| {
            if let Some(i) = from.and_then(slot) {
                load[i] -= 1;
            }
            if let Some(i) = slot(to) {
                load[i] += 1;
            }
        });
        let counter = match to {
            JobState::Queued => "sim_svc_jobs_submitted_total",
            JobState::Done => "sim_svc_jobs_completed_total",
            JobState::Failed => "sim_svc_jobs_failed_total",
            JobState::Running => return,
        };
        self.recorder.counter(counter, &[]).inc();
    }
}

struct Shared {
    epoch: u64,
    next_job: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    pool: Pool,
    meters: Arc<Meters>,
    config: SvcConfig,
}

impl Shared {
    fn job(&self, job: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(&job).cloned()
    }
}

/// A running replication service.
pub struct Service {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
}

impl Service {
    /// Bind, start the pool's `threads` workers and the accept loop,
    /// return.
    pub fn start(config: SvcConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let recorder = config.cfg.recorder();
        let meters = Meters {
            runs: recorder.counter("sim_svc_runs_total", &[]),
            recorder,
            load: Mutex::new([0; 3]),
        };
        meters.update(|_| {});
        let shared = Arc::new(Shared {
            epoch,
            next_job: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
            pool: Pool::start(config.threads.max(1), &config.cfg),
            meters: Arc::new(meters),
            config,
        });
        let accept = std::thread::Builder::new().name("svc-accept".into()).spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(listener, &shared)
        });
        let accept = accept.inspect_err(|_| shared.pool.shutdown())?;
        Ok(Service { addr, shared, accept })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder runs and service metrics publish into (hand it to
    /// `obs::MetricsServer::serve` for a live endpoint).
    pub fn recorder(&self) -> Recorder {
        self.shared.meters.recorder.clone()
    }

    /// Block until some client sends `Shutdown`, then tear down. This
    /// is the `des-svc serve` main loop.
    pub fn join_until_stopped(self) {
        self.shared.pool.wait_stop();
        self.stop();
    }

    /// Stop accepting, let each worker finish the run it holds, fail
    /// every job that is not done by then (`service stopped`), join
    /// every thread.
    pub fn stop(self) {
        self.shared.pool.shutdown();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let conn = listener.accept();
        if shared.pool.stopped() {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("svc-conn".into())
            .spawn(move || handle_conn(stream, &shared));
    }
}

fn reject(stream: &mut impl Write, reason: &str) {
    let _ = write_svc_frame(stream, &SvcFrame::Reject { reason: reason.into() });
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    // Fence: first frame must be a Hello with the right digest.
    let role = match read_svc_frame(&mut reader) {
        Ok(Some(SvcFrame::Hello { role, threads, digest })) => {
            if digest != proto_digest() {
                reject(&mut writer, "protocol digest mismatch");
                return;
            }
            let _ = write_svc_frame(&mut writer, &SvcFrame::HelloOk { epoch: shared.epoch });
            (role, threads)
        }
        _ => {
            reject(&mut writer, "expected Hello");
            return;
        }
    };
    match role {
        (Role::Client, _) => client_loop(reader, writer, shared),
        (Role::Worker, threads) => worker_loop(reader, writer, threads, shared),
    }
}

/// Build the job's sink and put its runs on the pool's ready list, on
/// the connection's own thread.
fn admit(shared: &Shared, spec: JobSpec) -> u64 {
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let label = id.to_string();
    let labels: &[(&str, &str)] = &[("job", &label)];
    let total = spec.total_runs();
    shared.meters.recorder.gauge("sim_svc_job_total_runs", labels).set(total);
    let writer = shared
        .config
        .store_dir
        .as_ref()
        .and_then(|dir| RunStoreWriter::create(dir.join(format!("job-{id}.cols")), &spec).ok());
    let job = Arc::new(Job {
        total,
        progress: Progress::default(),
        status: Mutex::new(Status { state: JobState::Queued, result: None, error: None }),
        rows: Mutex::new(Some(Rows {
            writer,
            agg: JobAggregate::for_spec(&spec),
            seen: std::collections::HashSet::new(),
            corrupt: None,
        })),
        completed_gauge: shared.meters.recorder.gauge("sim_svc_job_completed_runs", labels),
        meters: Arc::clone(&shared.meters),
    });
    shared.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    shared.meters.shift(None, JobState::Queued);
    let reps = 0..spec.replications;
    shared.pool.admit(Arc::new(Batch { id, spec, sink: job }), reps);
    id
}

fn client_loop(mut reader: BufReader<TcpStream>, mut writer: TcpStream, shared: &Arc<Shared>) {
    while let Ok(Some(frame)) = read_svc_frame(&mut reader) {
        match frame {
            SvcFrame::Submit { spec } => {
                if shared.pool.stopped() {
                    reject(&mut writer, "service is shutting down");
                    continue;
                }
                let job = admit(shared, spec);
                let _ = write_svc_frame(&mut writer, &SvcFrame::Submitted { job });
            }
            SvcFrame::Progress { job } => match shared.job(job) {
                None => reject(&mut writer, &format!("job {job} unknown")),
                Some(entry) => {
                    let state = entry.status.lock().unwrap().state;
                    let [queued_jobs, inflight_jobs, _] = *shared.meters.load.lock().unwrap();
                    let report = SvcFrame::ProgressReport {
                        job,
                        state,
                        completed: entry.progress.completed(),
                        total: entry.total,
                        queued_jobs,
                        inflight_jobs,
                    };
                    let _ = write_svc_frame(&mut writer, &report);
                }
            },
            SvcFrame::Fetch { job } => {
                let reply = match shared.job(job) {
                    None => Err(format!("job {job} unknown")),
                    Some(entry) => match &*entry.status.lock().unwrap() {
                        Status { state: JobState::Failed, error, .. } => {
                            Err(format!("job {job} failed: {}", error.as_deref().unwrap_or("?")))
                        }
                        Status { result: Some(agg), .. } => {
                            Ok(SvcFrame::Results { job, agg: agg.clone() })
                        }
                        _ => Err(format!("job {job} not done yet")),
                    },
                };
                match reply {
                    Ok(frame) => drop(write_svc_frame(&mut writer, &frame)),
                    Err(reason) => reject(&mut writer, &reason),
                }
            }
            SvcFrame::Shutdown => {
                shared.pool.request_stop();
                return;
            }
            _ => {
                reject(&mut writer, "unexpected frame for a client connection");
                return;
            }
        }
    }
}

/// Serve one attached rank: whenever it is idle — on attach, and after
/// each `AssignDone` — claim it a chunk off the pool's one ordering.
fn worker_loop(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    threads: u32,
    shared: &Arc<Shared>,
) {
    shared.meters.update(|load| load[2] += 1);
    let remote_runs = shared.meters.recorder.counter("sim_svc_remote_runs_total", &[]);
    // One small round trip per chunk: never wait to coalesce.
    let _ = writer.set_nodelay(true);
    // This thread reads only while a chunk is out, so the timeout is
    // the longest a rank may stay silent under one.
    let _ = writer.set_read_timeout(Some(ASSIGN_TIMEOUT));
    while let Some(chunk) = shared.pool.claim_chunk(threads) {
        let served = serve_chunk(&mut reader, &mut writer, &chunk);
        let lost = matches!(served, Served::Lost);
        if lost {
            // Hang up before the chunk goes back, so that rows this
            // rank sends late cannot arrive twice.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let ok = match served {
            Served::Rows(rows) => {
                remote_runs.add(rows.len() as u64);
                rows.into_iter().for_each(|row| chunk.batch.sink.row(row));
                true
            }
            Served::Refused | Served::Lost => false,
        };
        shared.pool.chunk_done(chunk, ok);
        if lost {
            break;
        }
    }
    // The pool stopped, or the rank is lost: release it.
    let _ = write_svc_frame(&mut writer, &SvcFrame::Shutdown);
    shared.meters.update(|load| load[2] -= 1);
}

/// How one `Assign` went.
enum Served {
    /// The rank ran the whole chunk: its rows, which count from now.
    Rows(Vec<RunRow>),
    /// A well-formed `AssignDone { ok: false }`: the rank sent no rows
    /// and stays attached; the chunk fails where a local worker runs it.
    Refused,
    /// The rank hung up, stayed silent or broke the protocol.
    Lost,
}

/// Send one `Assign` and collect its rows.
fn serve_chunk(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    chunk: &Chunk,
) -> Served {
    let job = chunk.batch.id;
    let (rep_start, rep_count) = (chunk.reps.start, chunk.reps.end - chunk.reps.start);
    let assign = SvcFrame::Assign { job, rep_start, rep_count, spec: chunk.batch.spec.clone() };
    if writer.write_all(&encode_svc_frame(&assign)).is_err() {
        return Served::Lost;
    }
    let runs = rep_count as usize * chunk.batch.spec.cells.len();
    let mut rows = Vec::with_capacity(runs);
    loop {
        match read_svc_frame(reader) {
            Ok(Some(SvcFrame::RowBatch { job: j, rows: batch }))
                if j == job && rows.len() + batch.len() <= runs =>
            {
                rows.extend(batch)
            }
            Ok(Some(SvcFrame::AssignDone { job: j, rep_start: s, rep_count: n, ok }))
                if (j, s, n) == (job, rep_start, rep_count) =>
            {
                return if ok { Served::Rows(rows) } else { Served::Refused };
            }
            _ => return Served::Lost,
        }
    }
}

// ---------------------------------------------------------------------------
// Client and worker sides.

/// A fenced client connection.
pub struct SvcClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl SvcClient {
    /// Dial, `Hello`-fence, and return a ready client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SvcClient, SvcError> {
        let writer = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut w = &writer;
        w.write_all(&encode_svc_frame(&SvcFrame::Hello {
            role: Role::Client,
            threads: 0,
            digest: proto_digest(),
        }))?;
        match read_svc_frame(&mut reader)? {
            Some(SvcFrame::HelloOk { .. }) => Ok(SvcClient { reader, writer }),
            Some(SvcFrame::Reject { reason }) => Err(SvcError::Rejected(reason)),
            other => Err(SvcError::Protocol(format!("expected HelloOk, got {other:?}"))),
        }
    }

    fn roundtrip(&mut self, frame: &SvcFrame) -> Result<SvcFrame, SvcError> {
        write_svc_frame(&mut self.writer, frame)?;
        match read_svc_frame(&mut self.reader)? {
            Some(SvcFrame::Reject { reason }) => Err(SvcError::Rejected(reason)),
            Some(reply) => Ok(reply),
            None => Err(SvcError::Protocol("server hung up".into())),
        }
    }

    /// Submit a job; returns its id.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, SvcError> {
        match self.roundtrip(&SvcFrame::Submit { spec: clone_valid(spec)? })? {
            SvcFrame::Submitted { job } => Ok(job),
            other => Err(SvcError::Protocol(format!("expected Submitted, got {other:?}"))),
        }
    }

    /// Poll a job's progress.
    pub fn progress(&mut self, job: u64) -> Result<ProgressInfo, SvcError> {
        match self.roundtrip(&SvcFrame::Progress { job })? {
            SvcFrame::ProgressReport { state, completed, total, queued_jobs, inflight_jobs, .. } => {
                Ok(ProgressInfo { state, completed, total, queued_jobs, inflight_jobs })
            }
            other => Err(SvcError::Protocol(format!("expected ProgressReport, got {other:?}"))),
        }
    }

    /// Fetch the aggregate of a finished job.
    pub fn fetch(&mut self, job: u64) -> Result<JobAggregate, SvcError> {
        match self.roundtrip(&SvcFrame::Fetch { job })? {
            SvcFrame::Results { agg, .. } => Ok(agg),
            other => Err(SvcError::Protocol(format!("expected Results, got {other:?}"))),
        }
    }

    /// Poll until the job leaves the queue/running states (or `timeout`):
    /// after 500 µs, then at doubling intervals up to 20 ms.
    pub fn wait_done(&mut self, job: u64, timeout: Duration) -> Result<ProgressInfo, SvcError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut pause = Duration::from_micros(500);
        loop {
            let info = self.progress(job)?;
            match info.state {
                JobState::Done | JobState::Failed => return Ok(info),
                _ if std::time::Instant::now() >= deadline => {
                    return Err(SvcError::Protocol(format!(
                        "timed out waiting for job {job}: {}/{} runs",
                        info.completed, info.total
                    )))
                }
                _ => std::thread::sleep(pause),
            }
            pause = (pause * 2).min(Duration::from_millis(20));
        }
    }

    /// Ask the service to stop: workers finish the run they hold and
    /// every unfinished job fails with `service stopped`.
    pub fn shutdown(&mut self) -> Result<(), SvcError> {
        write_svc_frame(&mut self.writer, &SvcFrame::Shutdown)?;
        Ok(())
    }
}

fn clone_valid(spec: &JobSpec) -> Result<JobSpec, SvcError> {
    spec.validate().map_err(SvcError::Wire)?;
    Ok(spec.clone())
}

/// Handle to an attached worker rank.
pub struct WorkerHandle {
    thread: std::thread::JoinHandle<()>,
}

impl WorkerHandle {
    /// Block until the server releases the worker (Shutdown or hangup).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Dial `addr` as a worker rank with `threads` local threads and serve
/// `Assign` slices until the server hangs up. Rows of a slice are
/// buffered and streamed back only when the slice succeeds, so a
/// failed slice can be re-run elsewhere without duplicate rows.
pub fn worker_attach(
    addr: impl ToSocketAddrs,
    threads: usize,
    cfg: EngineConfig,
) -> Result<WorkerHandle, SvcError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = &stream;
    w.write_all(&encode_svc_frame(&SvcFrame::Hello {
        role: Role::Worker,
        threads: threads as u32,
        digest: proto_digest(),
    }))?;
    match read_svc_frame(&mut reader)? {
        Some(SvcFrame::HelloOk { .. }) => {}
        Some(SvcFrame::Reject { reason }) => return Err(SvcError::Rejected(reason)),
        other => return Err(SvcError::Protocol(format!("expected HelloOk, got {other:?}"))),
    }
    let thread = std::thread::Builder::new()
        .name("svc-worker".into())
        .spawn(move || worker_serve(reader, stream, threads, &cfg))
        .map_err(SvcError::Io)?;
    Ok(WorkerHandle { thread })
}

fn worker_serve(
    mut reader: BufReader<TcpStream>,
    mut stream: TcpStream,
    threads: usize,
    cfg: &EngineConfig,
) {
    while let Ok(Some(frame)) = read_svc_frame(&mut reader) {
        match frame {
            SvcFrame::Assign { job, rep_start, rep_count, spec } => {
                let mut rows: Vec<RunRow> = Vec::new();
                let reps = rep_start..rep_start + rep_count;
                let progress = Progress::default();
                let on_row = |row| rows.push(row);
                let ok = run_slice(&spec, reps, threads.max(1), cfg, &progress, on_row).is_ok();
                // The chunk's rows and its `AssignDone` leave in one write.
                let mut out = Vec::new();
                if ok {
                    for batch in rows.chunks(ROW_BATCH) {
                        let rows = batch.to_vec();
                        out.extend(encode_svc_frame(&SvcFrame::RowBatch { job, rows }));
                    }
                }
                let done = SvcFrame::AssignDone { job, rep_start, rep_count, ok };
                out.extend(encode_svc_frame(&done));
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            SvcFrame::Shutdown => return,
            _ => return, // protocol violation: hang up
        }
    }
}
