//! The `repro obs` experiment: measure what the sim-obs layer costs and
//! prove the exporters produce machine-readable output.
//!
//! Every engine in [`des::ENGINE_NAMES`] runs the same workload twice —
//! once with a disabled recorder (the default) and once with tracing +
//! metrics enabled — and the report compares min-of-reps times. The
//! enabled run's recorder also feeds the per-engine time breakdown
//! (node-run latency histogram, event throughput) that lands in
//! `BENCH_obs.json`. The JSON is written by hand (this workspace has no
//! serde) and re-parsed with [`obs::json`] before it is trusted.

use std::time::Duration;

use des::engine::{try_build, EngineConfig};
use des::{ObsConfig, Recorder};
use obs::HistogramSnapshot;

use crate::runner::measure;
use crate::workloads::Workload;

/// One engine's disabled-vs-enabled comparison plus the breakdown
/// extracted from the enabled run's recorder.
#[derive(Debug, Clone)]
pub struct ObsEngineRow {
    /// Factory name (`des::ENGINE_NAMES` entry), not the decorated
    /// `Engine::name()`.
    pub engine: String,
    pub disabled_min: Duration,
    pub enabled_min: Duration,
    /// `(enabled - disabled) / disabled`, in percent; negative when the
    /// enabled run happened to be faster (noise).
    pub overhead_pct: f64,
    /// Events delivered in one run (deterministic per engine).
    pub events_delivered: u64,
    /// Events delivered per second of the *enabled* min-time run.
    pub events_per_sec: f64,
    /// Merged `sim_node_run_ns` histogram across the enabled run's
    /// engine labels (the distributed engine publishes one per rank).
    pub node_run_ns: HistogramSnapshot,
}

/// The whole experiment, ready to render or serialize.
#[derive(Debug, Clone)]
pub struct ObsReport {
    pub workload: String,
    pub scale: String,
    pub reps: usize,
    pub rows: Vec<ObsEngineRow>,
}

fn merge_histograms(snaps: &[HistogramSnapshot]) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for s in snaps {
        merged.sum += s.sum;
        merged.count += s.count;
        if merged.buckets.len() < s.buckets.len() {
            merged.buckets.resize(s.buckets.len(), 0);
        }
        for (m, b) in merged.buckets.iter_mut().zip(&s.buckets) {
            *m += b;
        }
    }
    merged
}

/// Configure `name` for this host: parallel engines get `workers`
/// threads, sharded ones a small fixed shard count.
fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig::default().with_workers(workers).with_shards(2)
}

/// Run the disabled/enabled pair for one engine and extract its row.
/// Returns `Err` for unknown engine names.
pub fn measure_engine(
    name: &str,
    workload: &Workload,
    workers: usize,
    reps: usize,
) -> Result<(ObsEngineRow, Recorder), String> {
    let base_cfg = engine_config(workers);
    let disabled = measure(try_build(name, &base_cfg)?.as_ref(), workload, 1, reps);

    let recorder = Recorder::new(&ObsConfig::enabled());
    let enabled_cfg = base_cfg.with_recorder(recorder.clone());
    let enabled = measure(try_build(name, &enabled_cfg)?.as_ref(), workload, 1, reps);

    let d = disabled.summary().min;
    let e = enabled.summary().min;
    let overhead_pct = if d.as_nanos() > 0 {
        (e.as_secs_f64() - d.as_secs_f64()) / d.as_secs_f64() * 100.0
    } else {
        0.0
    };
    let node_run: Vec<HistogramSnapshot> = recorder
        .histogram_values()
        .into_iter()
        .filter(|(n, _, _)| n == "sim_node_run_ns")
        .map(|(_, _, s)| s)
        .collect();
    let events = enabled.sim_stats.events_delivered;
    let row = ObsEngineRow {
        engine: name.to_string(),
        disabled_min: d,
        enabled_min: e,
        overhead_pct,
        events_delivered: events,
        events_per_sec: events as f64 / e.as_secs_f64().max(f64::EPSILON),
        node_run_ns: merge_histograms(&node_run),
    };
    Ok((row, recorder))
}

/// Serialize the report as the `BENCH_obs.json` document.
pub fn to_json(report: &ObsReport) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(2048);
    write!(
        s,
        "{{\"report\":\"obs\",\"workload\":\"{}\",\"scale\":\"{}\",\"reps\":{},\"engines\":[",
        obs::json::escape(&report.workload),
        obs::json::escape(&report.scale),
        report.reps
    )
    .unwrap();
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let h = &r.node_run_ns;
        write!(
            s,
            "{{\"engine\":\"{}\",\"disabled_ns\":{},\"enabled_ns\":{},\
             \"overhead_pct\":{:.2},\"events_delivered\":{},\"events_per_sec\":{:.1},\
             \"node_run_ns\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}}}",
            obs::json::escape(&r.engine),
            r.disabled_min.as_nanos(),
            r.enabled_min.as_nanos(),
            r.overhead_pct,
            r.events_delivered,
            r.events_per_sec,
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
        )
        .unwrap();
    }
    s.push_str("]}");
    s
}

/// Parse a `BENCH_obs.json` document back and check its shape: the
/// report tag, and per engine the numeric comparison fields plus a
/// non-degenerate histogram summary. This is what `repro obs` runs on
/// the file it just wrote, and what CI runs on the artifact.
pub fn validate_json(src: &str) -> Result<usize, String> {
    let doc = obs::json::parse(src)?;
    if doc.get("report").and_then(|j| j.as_str()) != Some("obs") {
        return Err("missing report:\"obs\" tag".into());
    }
    let engines = doc
        .get("engines")
        .and_then(|j| j.as_arr())
        .ok_or("missing engines array")?;
    if engines.is_empty() {
        return Err("engines array is empty".into());
    }
    for e in engines {
        let name = e
            .get("engine")
            .and_then(|j| j.as_str())
            .ok_or("engine row without a name")?;
        for key in ["disabled_ns", "enabled_ns", "overhead_pct", "events_delivered"] {
            e.get(key)
                .and_then(|j| j.as_f64())
                .ok_or_else(|| format!("{name}: missing numeric field '{key}'"))?;
        }
        let hist = e
            .get("node_run_ns")
            .ok_or_else(|| format!("{name}: missing node_run_ns"))?;
        for key in ["count", "mean", "p50", "p99"] {
            hist.get(key)
                .and_then(|j| j.as_f64())
                .ok_or_else(|| format!("{name}: node_run_ns missing '{key}'"))?;
        }
    }
    Ok(engines.len())
}

/// Gate a fresh [`ObsReport`] against the committed `BENCH_obs.json`
/// baseline: per engine, the enabled-run overhead may not exceed twice
/// the baseline allowance, where the allowance is the baseline overhead
/// with a noise floor under it (tiny/quick runs swing tens of percent,
/// so a 0.3% baseline must not make a 1% rerun a "3x regression").
/// Returns one verdict line per compared engine; engines absent from
/// the baseline are noted and skipped, and a baseline recorded at a
/// different scale skips the whole gate (overhead ratios are only
/// comparable between runs of the same workload size). `Err` names
/// every offender.
pub fn check_regression(baseline_json: &str, report: &ObsReport) -> Result<Vec<String>, String> {
    const FLOOR_PCT: f64 = 25.0;
    const MAX_GROWTH: f64 = 2.0;
    let doc = obs::json::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    if doc.get("report").and_then(|j| j.as_str()) != Some("obs") {
        return Err("baseline: missing report:\"obs\" tag".into());
    }
    if let Some(base_scale) = doc.get("scale").and_then(|j| j.as_str()) {
        if base_scale != report.scale {
            return Ok(vec![format!(
                "baseline is {base_scale}-scale, this run is {}-scale: \
                 not comparable, gate skipped",
                report.scale
            )]);
        }
    }
    let engines = doc
        .get("engines")
        .and_then(|j| j.as_arr())
        .ok_or("baseline: missing engines array")?;
    let mut baseline = std::collections::BTreeMap::new();
    for e in engines {
        let name = e
            .get("engine")
            .and_then(|j| j.as_str())
            .ok_or("baseline: engine row without a name")?;
        let pct = e
            .get("overhead_pct")
            .and_then(|j| j.as_f64())
            .ok_or_else(|| format!("baseline: {name}: missing overhead_pct"))?;
        baseline.insert(name.to_string(), pct);
    }
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for row in &report.rows {
        let Some(&base) = baseline.get(&row.engine) else {
            lines.push(format!("{}: no baseline row (new engine), skipped", row.engine));
            continue;
        };
        let allowed = MAX_GROWTH * base.max(FLOOR_PCT);
        let verdict = format!(
            "{}: overhead {:+.1}% vs allowance {:+.1}% (baseline {:+.1}%)",
            row.engine, row.overhead_pct, allowed, base
        );
        if row.overhead_pct > allowed {
            failures.push(verdict);
        } else {
            lines.push(verdict);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures.join("; "))
    }
}

// ---------------------------------------------------------------------
// The `repro obs-dist` fleet summary (`BENCH_obs_dist.json`).
// ---------------------------------------------------------------------

/// One rank's slice of the fleet summary: its engine identity, how long
/// its shards sat blocked on NULLs, and the coordinator's clock-offset
/// estimate for its link (zeros for the coordinator itself — there is
/// no link to measure).
#[derive(Debug, Clone)]
pub struct ObsDistRank {
    pub rank: u64,
    pub engine: String,
    pub null_wait_ns: u64,
    pub clock_offset_ns: i64,
    pub clock_rtt_ns: u64,
    pub clock_samples: u64,
}

/// The whole `repro obs-dist` run, ready to serialize.
#[derive(Debug, Clone)]
pub struct ObsDistReport {
    pub workload: String,
    pub scale: String,
    pub shards: usize,
    pub processes: usize,
    /// Fleet-wide merged total from the coordinator's final publish.
    pub events_delivered: u64,
    /// Events in the merged, offset-corrected Perfetto document.
    pub trace_events: usize,
    pub ranks: Vec<ObsDistRank>,
    pub straggler: obs::StragglerReport,
}

/// Serialize the fleet summary as the `BENCH_obs_dist.json` document.
pub fn dist_to_json(report: &ObsDistReport) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(1024);
    write!(
        s,
        "{{\"report\":\"obs-dist\",\"workload\":\"{}\",\"scale\":\"{}\",\
         \"shards\":{},\"processes\":{},\"events_delivered\":{},\"trace_events\":{},\"ranks\":[",
        obs::json::escape(&report.workload),
        obs::json::escape(&report.scale),
        report.shards,
        report.processes,
        report.events_delivered,
        report.trace_events,
    )
    .unwrap();
    for (i, r) in report.ranks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            "{{\"rank\":{},\"engine\":\"{}\",\"null_wait_ns\":{},\
             \"clock_offset_ns\":{},\"clock_rtt_ns\":{},\"clock_samples\":{}}}",
            r.rank,
            obs::json::escape(&r.engine),
            r.null_wait_ns,
            r.clock_offset_ns,
            r.clock_rtt_ns,
            r.clock_samples,
        )
        .unwrap();
    }
    write!(
        s,
        "],\"straggler\":{{\"total_wait_ns\":{},\"links\":{}",
        report.straggler.total_wait_ns,
        report.straggler.entries.len()
    )
    .unwrap();
    if let Some(top) = report.straggler.top() {
        write!(
            s,
            ",\"top_rank\":{},\"top_peer\":\"{}\",\"top_share_pct\":{:.1}",
            top.rank,
            obs::json::escape(&top.peer),
            top.share * 100.0
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

/// Parse a `BENCH_obs_dist.json` document back and check its shape.
/// Returns the number of rank rows. This is what `repro obs-dist` runs
/// on the file it just wrote, and what CI runs on the artifact.
pub fn validate_dist_json(src: &str) -> Result<usize, String> {
    let doc = obs::json::parse(src)?;
    if doc.get("report").and_then(|j| j.as_str()) != Some("obs-dist") {
        return Err("missing report:\"obs-dist\" tag".into());
    }
    for key in ["shards", "processes", "events_delivered", "trace_events"] {
        doc.get(key)
            .and_then(|j| j.as_f64())
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
    }
    let ranks = doc
        .get("ranks")
        .and_then(|j| j.as_arr())
        .ok_or("missing ranks array")?;
    if ranks.is_empty() {
        return Err("ranks array is empty".into());
    }
    for r in ranks {
        r.get("engine")
            .and_then(|j| j.as_str())
            .ok_or("rank row without an engine")?;
        for key in ["rank", "null_wait_ns", "clock_offset_ns", "clock_rtt_ns", "clock_samples"] {
            r.get(key)
                .and_then(|j| j.as_f64())
                .ok_or_else(|| format!("rank row missing numeric field '{key}'"))?;
        }
    }
    let straggler = doc.get("straggler").ok_or("missing straggler object")?;
    let total = straggler
        .get("total_wait_ns")
        .and_then(|j| j.as_f64())
        .ok_or("straggler missing total_wait_ns")?;
    if total > 0.0 {
        straggler
            .get("top_peer")
            .and_then(|j| j.as_str())
            .ok_or("straggler wait recorded but no top_peer named")?;
    }
    Ok(ranks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{PaperCircuit, Scale};

    #[test]
    fn report_round_trips_through_the_json_parser() {
        let w = PaperCircuit::Ks64.workload(Scale::tiny());
        let mut rows = Vec::new();
        for name in ["seq-workset", "hj"] {
            let (row, _) = measure_engine(name, &w, 2, 1).expect("known engine");
            assert!(row.events_delivered > 0);
            assert!(row.node_run_ns.count > 0, "{name}: histogram populated");
            rows.push(row);
        }
        let report = ObsReport {
            workload: w.name.to_string(),
            scale: "tiny".into(),
            reps: 1,
            rows,
        };
        let json = to_json(&report);
        assert_eq!(validate_json(&json), Ok(2));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"report\":\"obs\",\"engines\":[]}").is_err());
        assert!(validate_json("not json").is_err());
    }

    fn gate_report(rows: &[(&str, f64)]) -> ObsReport {
        ObsReport {
            workload: "ks128".into(),
            scale: "quick".into(),
            reps: 1,
            rows: rows
                .iter()
                .map(|(name, pct)| ObsEngineRow {
                    engine: name.to_string(),
                    disabled_min: Duration::from_millis(1),
                    enabled_min: Duration::from_millis(1),
                    overhead_pct: *pct,
                    events_delivered: 1,
                    events_per_sec: 1.0,
                    node_run_ns: HistogramSnapshot::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn regression_gate_applies_floor_and_growth_factor() {
        let baseline = "{\"report\":\"obs\",\"engines\":[\
            {\"engine\":\"hj\",\"overhead_pct\":2.0},\
            {\"engine\":\"sharded\",\"overhead_pct\":40.0}]}";
        // Tiny baseline overhead: the 25% floor doubles to a 50% allowance.
        let ok = gate_report(&[("hj", 49.0), ("sharded", 79.0), ("brand-new", 900.0)]);
        let lines = check_regression(baseline, &ok).expect("within allowance");
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|l| l.contains("skipped")), "{lines:?}");
        // Past 2x the floored baseline: fail, naming the engine.
        let bad = gate_report(&[("hj", 51.0)]);
        let err = check_regression(baseline, &bad).unwrap_err();
        assert!(err.contains("hj"), "{err}");
        // Large baseline overhead dominates the floor: 40% -> 80% allowance.
        assert!(check_regression(baseline, &gate_report(&[("sharded", 81.0)])).is_err());
        // A malformed baseline is an error, not a silent pass.
        assert!(check_regression("{}", &ok).is_err());
    }

    #[test]
    fn committed_baseline_has_one_row_per_engine() {
        // `check_regression` ignores a baseline row no engine produces,
        // so a stale row would sit in the committed file unnoticed.
        let committed = include_str!("../../../BENCH_obs.json");
        assert_eq!(validate_json(committed), Ok(des::ENGINE_NAMES.len()));
        let doc = obs::json::parse(committed).expect("parses");
        let names: Vec<&str> = doc
            .get("engines")
            .and_then(|j| j.as_arr())
            .expect("engines array")
            .iter()
            .map(|e| e.get("engine").and_then(|j| j.as_str()).expect("named row"))
            .collect();
        assert_eq!(names, des::ENGINE_NAMES);
    }

    #[test]
    fn regression_gate_skips_cross_scale_comparisons() {
        // Overhead ratios from a tiny run say nothing about a quick
        // baseline (and vice versa): the gate must stand down rather
        // than flag a phantom regression — or wave a real one through.
        let tiny_baseline = "{\"report\":\"obs\",\"scale\":\"tiny\",\"engines\":[\
            {\"engine\":\"hj\",\"overhead_pct\":2.0}]}";
        let quick_run = gate_report(&[("hj", 500.0)]);
        let lines = check_regression(tiny_baseline, &quick_run).expect("skipped, not failed");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("gate skipped"), "{lines:?}");
        // Same scale still gates.
        let quick_baseline = tiny_baseline.replace("tiny", "quick");
        assert!(check_regression(&quick_baseline, &quick_run).is_err());
    }

    #[test]
    fn dist_report_round_trips_through_the_json_parser() {
        let report = ObsDistReport {
            workload: "ks128".into(),
            scale: "quick".into(),
            shards: 4,
            processes: 2,
            events_delivered: 1000,
            trace_events: 12,
            ranks: vec![
                ObsDistRank {
                    rank: 0,
                    engine: "dist[p=0/2]".into(),
                    null_wait_ns: 500,
                    clock_offset_ns: 0,
                    clock_rtt_ns: 0,
                    clock_samples: 0,
                },
                ObsDistRank {
                    rank: 1,
                    engine: "dist[p=1/2]".into(),
                    null_wait_ns: 1500,
                    clock_offset_ns: -40,
                    clock_rtt_ns: 9000,
                    clock_samples: 5,
                },
            ],
            straggler: obs::StragglerReport {
                entries: vec![obs::StragglerEntry {
                    rank: 1,
                    peer: "0".into(),
                    wait_ns: 1500,
                    share: 0.75,
                }],
                total_wait_ns: 2000,
            },
        };
        let json = dist_to_json(&report);
        assert_eq!(validate_dist_json(&json), Ok(2));
        assert!(json.contains("\"top_peer\":\"0\""), "{json}");
        // Zero-wait fleets omit the top link and still validate.
        let mut quiet = report.clone();
        quiet.straggler = obs::StragglerReport::default();
        assert_eq!(validate_dist_json(&dist_to_json(&quiet)), Ok(2));
    }

    #[test]
    fn validate_dist_rejects_malformed_documents() {
        assert!(validate_dist_json("{}").is_err());
        assert!(validate_dist_json("{\"report\":\"obs-dist\"}").is_err());
        // A recorded wait without an attributed top link is malformed.
        let no_top = "{\"report\":\"obs-dist\",\"workload\":\"w\",\"scale\":\"s\",\
            \"shards\":4,\"processes\":2,\"events_delivered\":1,\"trace_events\":1,\
            \"ranks\":[{\"rank\":0,\"engine\":\"e\",\"null_wait_ns\":1,\
            \"clock_offset_ns\":0,\"clock_rtt_ns\":0,\"clock_samples\":0}],\
            \"straggler\":{\"total_wait_ns\":5,\"links\":0}}";
        assert!(validate_dist_json(no_top).is_err());
    }
}
