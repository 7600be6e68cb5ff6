//! Integration tests for the sim-obs layer across every engine:
//! runs must be observably identical with tracing on and off, the
//! published metrics must agree with the returned `SimStats`, the
//! exporters must produce machine-valid output, and stall snapshots
//! must carry recent trace records.

use std::io::{Read, Write};
use std::time::Duration;

use circuit::generators::kogge_stone_adder;
use circuit::{DelayModel, Stimulus};
use des::engine::{try_build, EngineConfig, ENGINE_NAMES};
use des::validate::check_equivalent;
use des::{FaultPlan, ObsConfig, Recorder, SimError, SpanKind};

fn workload() -> (circuit::Circuit, Stimulus, DelayModel) {
    let circuit = kogge_stone_adder(64);
    let stimulus = Stimulus::random_vectors(&circuit, 3, 10, 0x0B5);
    (circuit, stimulus, DelayModel::standard())
}

fn small_cfg() -> EngineConfig {
    EngineConfig::default().with_workers(2).with_shards(2)
}

/// Every engine must produce identical observables with the recorder
/// enabled and disabled, and its published `sim_events_delivered_total`
/// must match the stats it returned.
#[test]
fn engines_agree_with_obs_on_and_off_and_publish_matching_counters() {
    let (circuit, stimulus, delays) = workload();
    for name in ENGINE_NAMES {
        let off = try_build(name, &small_cfg())
            .unwrap()
            .run(&circuit, &stimulus, &delays);

        let recorder = Recorder::new(&ObsConfig::enabled());
        let on = try_build(name, &small_cfg().with_recorder(recorder.clone()))
            .unwrap()
            .run(&circuit, &stimulus, &delays);

        check_equivalent(&off, &on)
            .unwrap_or_else(|e| panic!("{name}: obs changed the observables: {e}"));

        let delivered: Vec<u64> = recorder
            .counter_values()
            .into_iter()
            .filter(|(n, _, _)| n == "sim_events_delivered_total")
            .map(|(_, _, v)| v)
            .collect();
        assert!(
            delivered.contains(&on.stats.events_delivered),
            "{name}: published counter {delivered:?} != stats {}",
            on.stats.events_delivered
        );
        assert!(
            !recorder.recent_traces(4).is_empty(),
            "{name}: enabled run left no trace records"
        );
    }
}

/// A fixed seed must give bit-identical metrics and trace payloads on a
/// deterministic engine: run twice with separate recorders and compare
/// everything except wall-clock timestamps.
#[test]
fn deterministic_engine_traces_and_metrics_are_reproducible() {
    let (circuit, stimulus, delays) = workload();
    let mut dumps = Vec::new();
    for _ in 0..2 {
        let recorder = Recorder::new(&ObsConfig::enabled());
        try_build("seq-workset", &small_cfg().with_recorder(recorder.clone()))
            .unwrap()
            .run(&circuit, &stimulus, &delays);
        let counters = recorder.counter_values();
        let traces: Vec<Vec<(u8, u8, u64, u64)>> = recorder
            .recent_traces(usize::MAX)
            .into_iter()
            .map(|t| {
                t.records
                    .iter()
                    .map(|r| (r.kind, r.phase, r.a, r.b))
                    .collect()
            })
            .collect();
        dumps.push((counters, traces));
    }
    assert_eq!(dumps[0].0, dumps[1].0, "counters differ across identical runs");
    assert_eq!(dumps[0].1, dumps[1].1, "trace payloads differ across identical runs");
}

/// The Perfetto export must be valid JSON whose every trace event has
/// the `ph`/`ts`/`pid`/`tid`/`name` fields the UI requires.
#[test]
fn perfetto_export_round_trips_with_required_fields() {
    let (circuit, stimulus, delays) = workload();
    let recorder = Recorder::new(&ObsConfig::enabled());
    try_build("hj", &small_cfg().with_recorder(recorder.clone()))
        .unwrap()
        .run(&circuit, &stimulus, &delays);
    let json = recorder.perfetto_json("obs-test");
    let doc = obs::json::parse(&json).expect("perfetto export parses");
    let events = doc
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "hj run produced no trace events");
    for ev in events {
        let ph = ev.get("ph").and_then(|j| j.as_str()).expect("ph field");
        assert!(
            matches!(ph, "B" | "E" | "i" | "X" | "M"),
            "unexpected phase {ph:?}"
        );
        if ph == "M" {
            continue; // metadata events carry args instead of ts
        }
        if ph == "X" {
            // Complete spans must carry a duration for critical-path
            // analysis in the Perfetto UI.
            ev.get("dur").and_then(|j| j.as_f64()).expect("dur field");
        }
        ev.get("ts").and_then(|j| j.as_f64()).expect("ts field");
        ev.get("pid").and_then(|j| j.as_f64()).expect("pid field");
        ev.get("tid").and_then(|j| j.as_f64()).expect("tid field");
        ev.get("name").and_then(|j| j.as_str()).expect("name field");
    }
}

/// Serve the recorder over TCP, fetch `/metrics` the way a scraper
/// would, and lint the exposition format.
#[test]
fn prometheus_endpoint_serves_lintable_exposition() {
    let (circuit, stimulus, delays) = workload();
    let recorder = Recorder::new(&ObsConfig::enabled());
    try_build("sharded", &small_cfg().with_recorder(recorder.clone()))
        .unwrap()
        .run(&circuit, &stimulus, &delays);
    let server =
        obs::prometheus::MetricsServer::serve("127.0.0.1:0", recorder.clone()).expect("bind");
    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    server.stop();
    let body = response.split_once("\r\n\r\n").expect("has body").1;
    assert!(body.contains("sim_events_delivered_total"));
    assert!(body.contains("sim_node_run_ns"));
    let samples = obs::prometheus::lint(body).expect("exposition lints clean");
    assert!(samples > 0);
}

/// A wedged obs-enabled run must hand the watchdog's stall snapshot the
/// last trace records of every registered thread — that context is the
/// point of keeping the rings always on.
#[test]
fn stall_snapshot_carries_recent_traces() {
    let (circuit, stimulus, delays) = workload();
    // `fail_trylock(1.0)` stalls the run in the retry/backoff loop —
    // unlike `wedged()`, which parks tasks *before* any instrumented
    // work, this leaves the trace the watchdog should surface.
    let recorder = Recorder::new(&ObsConfig::enabled());
    let cfg = small_cfg()
        .with_recorder(recorder.clone())
        .with_fault_plan(FaultPlan::seeded(3).fail_trylock(1.0))
        .with_watchdog(Some(Duration::from_millis(200)));
    let err = try_build("hj", &cfg)
        .unwrap()
        .try_run(&circuit, &stimulus, &delays)
        .expect_err("wedged run must not complete");
    let SimError::NoProgress { snapshot } = err else {
        panic!("expected NoProgress, got {err}");
    };
    assert!(
        !snapshot.traces.is_empty(),
        "snapshot has no thread trace dumps"
    );
    let records: usize = snapshot.traces.iter().map(|t| t.records.len()).sum();
    assert!(records > 0, "snapshot trace dumps are all empty");
    // A wedged hj run spins on trylock retries and backoff — exactly the
    // unsampled diagnostic records the ring must retain.
    let kinds: Vec<_> = snapshot
        .traces
        .iter()
        .flat_map(|t| t.records.iter().filter_map(|r| r.span_kind()))
        .collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, SpanKind::TrylockRetry | SpanKind::Backoff)),
        "expected retry/backoff records in a wedged run, got {kinds:?}"
    );
    // The snapshot renders them for the operator.
    let text = snapshot.to_string();
    assert!(!text.is_empty());
}
