//! `des-benchmark`: the repository's benchmark. See `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload for S seconds and prints one JSON result line last (the
//!   form `BENCHMARK.json` names);
//! * without `--workload` it runs the whole suite — every workload, ten
//!   interleaved slices each, one traced slice, the probes — prints every
//!   metric and writes `benchmark/out/result.json`; `--aa` does that
//!   twice and compares, `--smoke` shrinks it to seconds.

mod host;
mod inputs;
mod json;
mod probes;
mod registry;
mod report;
mod run;
mod slice;
mod stats;
mod trace;

use std::process::ExitCode;

use registry::WorkloadId;
use run::Plan;

const USAGE: &str = "\
usage: des-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       des-benchmark [--seed N] [--smoke] [--aa]
workloads: ks128-seq ks128-sharded phold-cut svc-mixed";

/// Slices of a full suite run, per workload, and their length.
const SUITE_SLICES: usize = 10;
const SUITE_SLICE_SECONDS: f64 = 3.0;
/// A single-workload run splits its seconds over at most this many
/// slices. Job times differ by some 5 % from one process to the next
/// (where its pages and threads land), so a run samples many processes.
const MAX_RUN_SLICES: usize = 12;
const DEFAULT_RUN_SECONDS: f64 = 24.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    child: Option<String>,
    slice: u64,
    trace_out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--child" => cli.child = Some(value()?),
            "--slice" => cli.slice = value()?.parse().map_err(|e| format!("--slice: {e}"))?,
            "--trace-out" => cli.trace_out = Some(value()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn workload_of(cli: &Cli) -> Result<WorkloadId, String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("--workload is required here")?;
    WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))
}

/// How a single-workload run of `seconds` splits into slices: about two
/// seconds a slice at least, and a traced run gives half its slices to
/// tracing.
fn single_run_plan(workload: WorkloadId, seed: u64, seconds: f64, trace: bool) -> Plan {
    let total = ((seconds / 2.0) as usize).clamp(1, MAX_RUN_SLICES);
    let (slices, traced_slices) = if trace {
        ((total - total / 2).max(1), (total / 2).max(1))
    } else {
        (total, 0)
    };
    Plan {
        workloads: vec![workload],
        seed,
        slices,
        traced_slices,
        slice_seconds: seconds / (slices + traced_slices) as f64,
        probes: trace,
    }
}

fn suite_plan(seed: u64, smoke: bool) -> Plan {
    Plan {
        workloads: WorkloadId::ALL.to_vec(),
        seed,
        slices: if smoke { 1 } else { SUITE_SLICES },
        traced_slices: 1,
        slice_seconds: if smoke { 1.0 } else { SUITE_SLICE_SECONDS },
        probes: true,
    }
}

fn write_out(name: &str, doc: &obs::json::Json) -> Result<(), String> {
    let path = run::out_dir().join(name);
    std::fs::write(&path, json::render(doc) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run_single(cli: &Cli) -> Result<bool, String> {
    let plan = single_run_plan(
        workload_of(cli)?,
        cli.seed.unwrap_or(inputs::DEFAULT_SEED),
        cli.seconds.unwrap_or(DEFAULT_RUN_SECONDS),
        cli.trace,
    );
    let measured = run::measure(&plan)?;
    let results = report::results(&plan, &measured)?;
    report::print_table(&results);
    let result = &results[0];
    println!("{}", report::driver_line(result, cli.trace));
    Ok(result.failed == 0)
}

fn run_suite(cli: &Cli) -> Result<bool, String> {
    let plan = suite_plan(cli.seed.unwrap_or(inputs::DEFAULT_SEED), cli.smoke);
    let host = host::describe();
    let mut runs = Vec::new();
    for _ in 0..if cli.aa { 2 } else { 1 } {
        let measured = run::measure(&plan)?;
        let results = report::results(&plan, &measured)?;
        report::print_table(&results);
        runs.push(results);
    }
    write_out("result.json", &report::result_json(&plan, host, &runs[0]))?;

    let mut pass = runs.iter().flatten().all(|r| r.failed == 0);
    if !cli.smoke {
        for results in &runs {
            for name in report::undersized(results) {
                eprintln!(
                    "invalid run: {name} pooled fewer than {} timed jobs",
                    report::MIN_POOLED_JOBS
                );
                pass = false;
            }
        }
    }
    if cli.aa {
        let (rows, count_mismatches) = report::compare_aa(&runs[0], &runs[1]);
        report::print_aa(&rows, &count_mismatches);
        write_out("aa.json", &report::aa_json(&rows, &count_mismatches))?;
        // A smoke run is too short for its numbers to repeat: it checks
        // the exact counts only.
        pass &= count_mismatches.is_empty() && (cli.smoke || rows.iter().all(|r| r.pass));
    }
    Ok(pass)
}

fn run_child(cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.ok_or("--child needs --seed")?;
    let line = match cli.child.as_deref() {
        Some("slice") => {
            let report = slice::run(slice::SliceArgs {
                workload: workload_of(cli)?,
                seed,
                index: cli.slice,
                seconds: cli.seconds.ok_or("--child slice needs --seconds")?,
                trace_out: cli.trace_out.as_ref().map(Into::into),
            })?;
            json::render(&report.to_json())
        }
        Some("probes") => {
            let values = probes::run(seed, &run::out_dir())?;
            json::render(&json::obj(
                values.into_iter().map(|(k, v)| (k, json::num(v))),
            ))
        }
        other => return Err(format!("unknown --child {other:?}")),
    };
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if cli.child.is_some() {
            return run_child(&cli);
        }
        if host::nproc() < slice::SHARDS {
            eprintln!(
                "warning: {} core online, the workloads keep {} threads busy: parallel numbers mean nothing here",
                host::nproc(),
                slice::SHARDS
            );
        }
        if cli.workload.is_some() {
            run_single(&cli)
        } else {
            run_suite(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("des-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Json;
    use registry::{Better, END_TO_END, PER_LAYER};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse_cli(&args(
            "--workload phold-cut --seed 11 --seconds 24 --trace 1",
        ))
        .expect("valid");
        assert_eq!(workload_of(&cli), Ok(WorkloadId::PholdCut));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(11), Some(24.0), true)
        );
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
        let unknown = parse_cli(&args("--workload hj")).expect("parses");
        assert!(workload_of(&unknown).is_err());
    }

    #[test]
    fn a_single_run_spends_all_its_seconds_on_slices() {
        let plan = single_run_plan(WorkloadId::Ks128Seq, 3, 24.0, false);
        assert_eq!(
            (plan.slices, plan.traced_slices, plan.probes),
            (12, 0, false)
        );
        assert!((plan.slice_seconds - 2.0).abs() < 1e-12);
        let traced = single_run_plan(WorkloadId::Ks128Seq, 3, 24.0, true);
        assert_eq!(
            (traced.slices, traced.traced_slices, traced.probes),
            (6, 6, true)
        );
        assert!((traced.slice_seconds - 2.0).abs() < 1e-12);
        let short = single_run_plan(WorkloadId::Ks128Seq, 3, 1.0, true);
        assert_eq!((short.slices, short.traced_slices), (1, 1));
        assert!((short.slice_seconds - 0.5).abs() < 1e-12);
        let smoke = suite_plan(3, true);
        assert_eq!(
            (smoke.slices, smoke.traced_slices, smoke.slice_seconds),
            (1, 1, 1.0)
        );
        assert_eq!(suite_plan(3, false).slices, SUITE_SLICES);
    }

    /// `BENCHMARK.json` is what the driver reads; the registry is what the
    /// program reports under. The two must name the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(committed.len() <= 64 * 1024);
        let doc = obs::json::parse(&committed).expect("BENCHMARK.json is valid JSON");
        let keys: Vec<&str> = json::members(&doc)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_RUN_SECONDS)
        );

        // Each entry as the strings and numbers of its members, in order.
        let entries = |key: &str| -> Vec<Vec<String>> {
            let items = doc.get(key).and_then(Json::as_arr).expect(key);
            items
                .iter()
                .map(|item| {
                    json::members(item)
                        .iter()
                        .map(|(k, v)| format!("{k}={}", json::render(v)))
                        .collect()
                })
                .collect()
        };
        let better = |b: Better| match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let workloads: Vec<Vec<String>> = WorkloadId::ALL
            .iter()
            .map(|w| {
                vec![
                    format!("name=\"{}\"", w.name()),
                    format!("why=\"{}\"", w.why()),
                ]
            })
            .collect();
        assert_eq!(entries("workloads"), workloads);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    format!("name=\"{}\"", m.name),
                    format!("unit=\"{}\"", m.unit),
                    format!("better=\"{}\"", better(m.better)),
                    format!("bound={}", m.bound),
                ]
            })
            .collect();
        assert_eq!(entries("end_to_end"), end_to_end);
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    format!("name=\"{}\"", m.name),
                    format!("unit=\"{}\"", m.unit),
                    format!("better=\"{}\"", better(m.better)),
                ]
            })
            .collect();
        assert_eq!(entries("per_layer"), per_layer);
    }
}
