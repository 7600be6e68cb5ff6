//! End-to-end tests of the `des-svc` replication service: a seeded
//! PHOLD sweep over real TCP, progress via the Prometheus endpoint,
//! the columnar store re-validated from disk, and the DESIGN.md §14
//! determinism contract (same spec ⇒ bit-identical aggregate digest,
//! whatever the thread count or worker placement).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use des::{EngineConfig, ObsConfig, Recorder};
use model::phold::PholdConfig;
use obs::prometheus::MetricsServer;
use replicate::proto::{encode_svc_frame, proto_digest, read_svc_frame, Role, SvcFrame};
use replicate::service::{worker_attach, Service, SvcClient, SvcConfig, SvcError};
use replicate::spec::JobSpec;
use replicate::store::RunStoreReader;
use replicate::{run_sweep, JobState};

/// The acceptance sweep: 2 lookahead cells × 100 reps = 200 runs.
fn sweep_spec() -> JobSpec {
    let base = PholdConfig {
        lps: 4,
        population: 1,
        lookahead: 4,
        remote_fraction: 0.5,
        mean_delay: 6.0,
    };
    JobSpec::phold_sweep("e2e", base, &[2, 6], 42, 100, 150)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-replicate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    dir
}

/// Raw HTTP scrape of a MetricsServer, no client library.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect metrics");
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read scrape");
    let (_headers, body) = response.split_once("\r\n\r\n").expect("http body");
    body.to_string()
}

#[test]
fn service_runs_a_200_rep_sweep_over_tcp_with_store_and_metrics() {
    let spec = sweep_spec();
    assert_eq!(spec.total_runs(), 200);
    let store = tmp_dir("e2e");
    let recorder = Recorder::new(&ObsConfig::enabled());
    let service = Service::start(SvcConfig {
        listen: "127.0.0.1:0".into(),
        threads: 2,
        store_dir: Some(store.clone()),
        cfg: EngineConfig::default().with_recorder(recorder.clone()),
    })
    .expect("start service");
    let metrics = MetricsServer::serve("127.0.0.1:0", recorder).expect("metrics server");

    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let job = client.submit(&spec).expect("submit");
    let info = client.wait_done(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(info.state, JobState::Done);
    assert_eq!(info.completed, 200);
    assert_eq!(info.total, 200);
    let agg = client.fetch(job).expect("fetch");
    assert_eq!(agg.total_runs, 200);
    assert_eq!(agg.spec_digest, spec.digest());

    // Progress + queue metrics are live on the Prometheus endpoint and
    // the exposition passes the in-tree lint.
    let body = scrape(metrics.local_addr());
    obs::prometheus::lint(&body).expect("exposition lints clean");
    assert!(body.contains("sim_svc_jobs_submitted_total 1"), "submitted counter:\n{body}");
    assert!(body.contains("sim_svc_jobs_completed_total 1"), "completed counter:\n{body}");
    assert!(
        body.contains(&format!("sim_svc_job_completed_runs{{job=\"{job}\"}} 200")),
        "per-job progress gauge:\n{body}"
    );
    assert!(body.contains("sim_svc_runs_total 200"), "runs counter:\n{body}");

    // The columnar store re-reads with CRC validation to the exact
    // digest the service reported.
    let files = replicate::store::list_store_files(&store).expect("list store");
    assert_eq!(files.len(), 1, "one sealed store file");
    let reader = RunStoreReader::open(&files[0]).expect("re-read store");
    assert_eq!(reader.spec.digest(), spec.digest());
    assert_eq!(reader.aggregate.digest(), agg.digest());

    // Determinism contract: an in-process rerun of the same spec on a
    // different thread count aggregates to the same digest, same
    // percentile table.
    let local = run_sweep(&spec, 1, &EngineConfig::default()).expect("local sweep");
    assert_eq!(local.agg.digest(), agg.digest());
    let svc_rows: Vec<_> = agg
        .percentile_rows()
        .into_iter()
        .filter(|(_, col, ..)| col != replicate::WALL_COL)
        .collect();
    let local_rows: Vec<_> = local
        .agg
        .percentile_rows()
        .into_iter()
        .filter(|(_, col, ..)| col != replicate::WALL_COL)
        .collect();
    assert_eq!(svc_rows, local_rows, "p50/p95/p99 identical across placements");

    service.stop();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn remote_worker_rank_produces_the_same_digest() {
    let spec = sweep_spec();
    let service = Service::start(SvcConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        store_dir: None,
        cfg: EngineConfig::default(),
    })
    .expect("start service");
    let worker = worker_attach(service.addr(), 2, EngineConfig::default()).expect("attach");

    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let job = client.submit(&spec).expect("submit");
    let info = client.wait_done(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(info.state, JobState::Done);
    let agg = client.fetch(job).expect("fetch");

    let local = run_sweep(&spec, 2, &EngineConfig::default()).expect("local sweep");
    assert_eq!(
        agg.digest(),
        local.agg.digest(),
        "splitting runs across a remote rank must not change the aggregate"
    );

    service.stop();
    worker.join();
}

#[test]
fn repeat_submissions_are_bit_identical() {
    let spec = sweep_spec();
    let service = Service::start(SvcConfig {
        listen: "127.0.0.1:0".into(),
        threads: 2,
        store_dir: None,
        cfg: EngineConfig::default(),
    })
    .expect("start service");
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let first = client.submit(&spec).expect("submit 1");
    let second = client.submit(&spec).expect("submit 2");
    assert_ne!(first, second);
    client.wait_done(second, Duration::from_secs(240)).expect("wait");
    let a = client.fetch(first).expect("fetch 1");
    let b = client.fetch(second).expect("fetch 2");
    assert_eq!(a.digest(), b.digest());
    // Full encoded aggregates match except the wall-clock columns, so
    // compare the digest-covered views byte for byte via percentiles.
    let strip = |agg: &replicate::JobAggregate| {
        agg.percentile_rows()
            .into_iter()
            .filter(|(_, col, ..)| col != replicate::WALL_COL)
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&a), strip(&b));
    service.stop();
}

#[test]
fn bad_requests_are_rejected_not_dropped() {
    let service = Service::start(SvcConfig::default()).expect("start service");
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    match client.fetch(77) {
        Err(SvcError::Rejected(reason)) => assert!(reason.contains("unknown"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The connection survives a rejection.
    match client.progress(77) {
        Err(SvcError::Rejected(_)) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    service.stop();
}

/// Reserve a free TCP port. Racy in principle; fine for a test that
/// binds it again immediately.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0").expect("probe port").local_addr().unwrap().port()
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn des_svc_binary_serves_submits_and_fetches() {
    let bin = env!("CARGO_BIN_EXE_des-svc");
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let server = KillOnDrop(
        Command::new(bin)
            .args(["serve", "--listen", &addr, "--threads", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );
    // Wait for the listener to come up.
    let mut up = false;
    for _ in 0..100 {
        if TcpStream::connect(&addr).is_ok() {
            up = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(up, "serve never bound {addr}");

    let run = |args: &[&str]| -> (bool, String) {
        let out = Command::new(bin).args(args).output().expect("run des-svc");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.success(), text)
    };

    let (ok, submit_out) = run(&[
        "submit", "--to", &addr, "--reps", "25", "--sweep-lookahead", "2,4", "--lps", "4",
        "--population", "1", "--horizon", "120",
    ]);
    assert!(ok, "submit failed: {submit_out}");
    assert!(submit_out.contains("job=1 total=50"), "{submit_out}");

    let mut done = false;
    for _ in 0..600 {
        let (ok, progress_out) = run(&["progress", "--to", &addr, "--job", "1"]);
        assert!(ok, "progress failed: {progress_out}");
        if progress_out.contains("state=done") {
            assert!(progress_out.contains("completed=50 total=50"), "{progress_out}");
            done = true;
            break;
        }
        assert!(!progress_out.contains("state=failed"), "{progress_out}");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(done, "job never reached state=done");

    let (ok, fetch_out) = run(&["fetch", "--to", &addr, "--job", "1"]);
    assert!(ok, "fetch failed: {fetch_out}");
    assert!(fetch_out.contains("runs=50 digest=0x"), "{fetch_out}");
    assert!(fetch_out.contains("la=2"), "{fetch_out}");
    assert!(fetch_out.contains("wall_ns"), "{fetch_out}");

    let (ok, out) = run(&["shutdown", "--to", &addr]);
    assert!(ok, "shutdown failed: {out}");
    drop(server);
}

fn start(threads: usize, store_dir: Option<std::path::PathBuf>, cfg: EngineConfig) -> Service {
    Service::start(SvcConfig { listen: "127.0.0.1:0".into(), threads, store_dir, cfg })
        .expect("start service")
}

/// `sweep_spec` with its own name, seed and replication count.
fn spec_with(name: &str, seed: u64, reps: u32) -> JobSpec {
    JobSpec { name: name.into(), base_seed: seed, replications: reps, ..sweep_spec() }
}

fn local_digest(spec: &JobSpec) -> u64 {
    run_sweep(spec, 2, &EngineConfig::default()).expect("local sweep").agg.digest()
}

#[test]
fn a_small_job_passes_a_big_one_on_a_single_thread() {
    let big = spec_with("big", 7, 400);
    let small = spec_with("small", 8, 4);
    let service = start(1, None, EngineConfig::default());
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let big_job = client.submit(&big).expect("submit big");
    let small_job = client.submit(&small).expect("submit small");

    // No clock: the order shows in what one poll after another sees.
    // Under a job FIFO the small job cannot be done before the big one.
    client.wait_done(small_job, Duration::from_secs(120)).expect("wait small");
    let big_then = client.progress(big_job).expect("progress big");
    assert_ne!(big_then.state, JobState::Done, "the small job must not wait the big one out");
    assert!(big_then.completed < big_then.total);

    let info = client.wait_done(big_job, Duration::from_secs(240)).expect("wait big");
    assert_eq!((info.state, info.completed), (JobState::Done, 800));
    assert_eq!((info.queued_jobs, info.inflight_jobs), (0, 0));
    assert_eq!(client.fetch(big_job).expect("fetch big").digest(), local_digest(&big));
    assert_eq!(client.fetch(small_job).expect("fetch small").digest(), local_digest(&small));
    service.stop();
}

#[test]
fn interleaved_jobs_keep_their_own_digests_and_store_files() {
    let first = spec_with("first", 11, 150);
    let mut second = spec_with("second", 12, 60);
    second.horizon = 90;
    let store = tmp_dir("isolation");
    let service = start(2, Some(store.clone()), EngineConfig::default());
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    // Back to back: the ordering runs all of `second` inside `first`.
    let jobs = [client.submit(&first).expect("submit 1"), client.submit(&second).expect("submit 2")];
    for (job, spec) in jobs.iter().zip([&first, &second]) {
        let info = client.wait_done(*job, Duration::from_secs(240)).expect("wait");
        assert_eq!((info.state, info.completed), (JobState::Done, spec.total_runs()));
        let agg = client.fetch(*job).expect("fetch");
        assert_eq!(agg.spec_digest, spec.digest());
        assert_eq!(agg.digest(), local_digest(spec), "{}: the digest it produces alone", spec.name);
        // Each job sealed its own file, and it re-validates.
        let reader = RunStoreReader::open(store.join(format!("job-{job}.cols"))).expect("re-read");
        assert_eq!(reader.spec.digest(), spec.digest());
        assert_eq!(reader.aggregate.digest(), agg.digest());
    }
    assert_eq!(replicate::store::list_store_files(&store).expect("list store").len(), 2);
    service.stop();
    let _ = std::fs::remove_dir_all(&store);
}

/// Block until `sim_svc_workers_connected` reads `n`.
fn await_ranks(recorder: &Recorder, n: u64) {
    let attached = recorder.gauge("sim_svc_workers_connected", &[]);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while attached.get() != n {
        assert!(std::time::Instant::now() < deadline, "never saw {n} attached ranks");
        std::thread::yield_now();
    }
}

/// A rank on a raw socket: `Hello`, then whatever the test does.
fn raw_rank(service: &Service, recorder: &Recorder) -> TcpStream {
    let mut rank = TcpStream::connect(service.addr()).expect("dial as a rank");
    rank.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let hello = SvcFrame::Hello { role: Role::Worker, threads: 2, digest: proto_digest() };
    rank.write_all(&encode_svc_frame(&hello)).expect("send Hello");
    assert!(matches!(read_svc_frame(&mut rank), Ok(Some(SvcFrame::HelloOk { .. }))));
    await_ranks(recorder, 1);
    rank
}

/// Read the next frame as a rank; it must be an `Assign` of `job`.
fn expect_assign(rank: &mut TcpStream, job: u64) -> (u32, u32) {
    match read_svc_frame(rank) {
        Ok(Some(SvcFrame::Assign { job: assigned, rep_start, rep_count, .. })) => {
            assert_eq!(assigned, job);
            assert!((1..100).contains(&rep_count), "a bounded chunk, not a share: {rep_count}");
            (rep_start, rep_count)
        }
        other => panic!("expected an Assign, got {other:?}"),
    }
}

#[test]
fn a_rank_that_hangs_up_under_its_first_chunk_costs_nothing() {
    let spec = sweep_spec();
    let recorder = Recorder::new(&ObsConfig::enabled());
    let service = start(1, None, EngineConfig::default().with_recorder(recorder.clone()));
    let mut rank = raw_rank(&service, &recorder);

    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let job = client.submit(&spec).expect("submit");
    // It is handed a chunk of the job and hangs up without a word.
    expect_assign(&mut rank, job);
    drop(rank);

    // The chunk went back and ran locally, once.
    let info = client.wait_done(job, Duration::from_secs(120)).expect("wait");
    assert_eq!((info.state, info.completed), (JobState::Done, 200));
    assert_eq!(client.fetch(job).expect("fetch").digest(), local_digest(&spec));
    await_ranks(&recorder, 0);
    service.stop();
}

#[test]
fn a_rank_that_refuses_a_chunk_is_handed_the_next_one() {
    let spec = spec_with("refused", 9, 2_000);
    let recorder = Recorder::new(&ObsConfig::enabled());
    let service = start(1, None, EngineConfig::default().with_recorder(recorder.clone()));
    let mut rank = raw_rank(&service, &recorder);

    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let job = client.submit(&spec).expect("submit");
    // A well-formed `ok = false` sends no rows, so nothing is gained by
    // hanging up on it: the rank stays attached and is served again.
    let (rep_start, rep_count) = expect_assign(&mut rank, job);
    let refuse = SvcFrame::AssignDone { job, rep_start, rep_count, ok: false };
    rank.write_all(&encode_svc_frame(&refuse)).expect("send AssignDone");
    let (next_start, _) = expect_assign(&mut rank, job);
    assert!(next_start < rep_start, "a fresh chunk; the refused one is the local workers'");
    drop(rank);

    let info = client.wait_done(job, Duration::from_secs(240)).expect("wait");
    assert_eq!((info.state, info.completed), (JobState::Done, 4_000));
    assert_eq!(client.fetch(job).expect("fetch").digest(), local_digest(&spec));
    service.stop();
}

#[test]
fn an_attached_rank_runs_its_share_of_the_job() {
    let spec = spec_with("shared", 10, 2_000);
    let recorder = Recorder::new(&ObsConfig::enabled());
    let service = start(1, None, EngineConfig::default().with_recorder(recorder.clone()));
    let worker = worker_attach(service.addr(), 2, EngineConfig::default()).expect("attach");
    await_ranks(&recorder, 1);

    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let job = client.submit(&spec).expect("submit");
    let info = client.wait_done(job, Duration::from_secs(240)).expect("wait");
    assert_eq!((info.state, info.completed), (JobState::Done, 4_000));
    assert_eq!(client.fetch(job).expect("fetch").digest(), local_digest(&spec));
    // Two rank threads beside one local thread. A chunk is a millisecond
    // of work; if each one waits out a 40 ms Nagle/delayed-ACK stall the
    // rank runs about 3 % of the job and this reads ~130.
    let remote = recorder.counter("sim_svc_remote_runs_total", &[]).get();
    assert!(remote >= 1_000, "the rank ran only {remote} of 4000 runs");
    service.stop();
    worker.join();
}

#[test]
fn ten_thousand_one_run_jobs_never_lose_a_wake_up() {
    // The workers park untimed; a wake-up lost between "nothing to
    // claim" and the park would leave a job queued for ever.
    let base = PholdConfig { lps: 2, population: 1, lookahead: 2, remote_fraction: 0.5, mean_delay: 2.0 };
    let spec = JobSpec::phold_sweep("one-run", base, &[2], 5, 1, 8);
    let service = start(2, None, EngineConfig::default());
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    for n in 0..10_000 {
        let job = client.submit(&spec).expect("submit");
        while client.progress(job).expect("progress").state != JobState::Done {
            assert!(std::time::Instant::now() < deadline, "job {job} (#{n}) was never run");
            std::thread::yield_now();
        }
    }
    service.stop();
}

#[test]
fn stop_fails_the_jobs_it_cuts_short_and_does_not_wait_for_them() {
    let spec = spec_with("long", 3, 2_500);
    assert_eq!(spec.total_runs(), 5_000);
    let service = start(2, None, EngineConfig::default());
    let mut client = SvcClient::connect(service.addr()).expect("connect");
    let in_flight = client.submit(&spec).expect("submit 1");
    let queued = client.submit(&spec).expect("submit 2");
    while client.progress(in_flight).expect("progress").completed == 0 {
        std::thread::yield_now();
    }
    assert_eq!(client.progress(queued).expect("progress").state, JobState::Queued);

    service.stop();

    // A client that was connected before the stop sees terminal states.
    for job in [in_flight, queued] {
        let info = client.progress(job).expect("progress after stop");
        assert_eq!(info.state, JobState::Failed);
        assert!(info.completed < info.total, "stop waited for job {job}: {info:?}");
        assert_eq!((info.queued_jobs, info.inflight_jobs), (0, 0));
        match client.fetch(job) {
            Err(SvcError::Rejected(reason)) => assert!(reason.contains("service stopped"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
}
