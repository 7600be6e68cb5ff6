//! What the benchmark prints and writes: the metric table, the driver's
//! result line, the suite's result file and the A/A comparison.

use obs::json::Json;

use crate::json::{num, obj, text};
use crate::registry::{WorkloadId, END_TO_END, PER_LAYER};
use crate::run::{self, Measured, Plan};

/// The named metrics of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: WorkloadId,
    pub attempted: u64,
    pub failed: u64,
    /// Timed jobs pooled over the untraced slices.
    pub timed_jobs: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty when the plan had no traced slice.
    pub per_layer: Vec<(&'static str, f64)>,
}

pub fn results(plan: &Plan, measured: &Measured) -> Result<Vec<WorkloadResult>, String> {
    let mut results = measured
        .pools
        .iter()
        .map(|(workload, pool)| {
            let (attempted, failed) = run::job_counts(pool);
            let end_to_end = run::end_to_end(*workload, pool)
                .map_err(|e| format!("workload {}: {e}", workload.name()))?;
            let per_layer = if plan.traced_slices > 0 {
                run::per_layer(*workload, pool, measured)
            } else {
                Vec::new()
            };
            Ok(WorkloadResult {
                workload: *workload,
                attempted,
                failed,
                timed_jobs: run::timed_jobs(pool),
                end_to_end,
                per_layer,
            })
        })
        .collect::<Result<Vec<WorkloadResult>, String>>()?;
    pooled_speedup(&mut results);
    Ok(results)
}

/// `core.speedup_vs_seq` is `ks128-sharded` over `ks128-seq` in pooled
/// `events_per_s`. A run that measured both workloads reports that; a run
/// of one workload keeps the ratio of the probes' two short runs.
fn pooled_speedup(results: &mut [WorkloadResult]) {
    let throughput = |results: &[WorkloadResult], workload| {
        let result = results.iter().find(|r| r.workload == workload)?;
        let (_, value) = result
            .end_to_end
            .iter()
            .find(|(n, _)| *n == "events_per_s")?;
        Some(*value)
    };
    let (Some(seq), Some(sharded)) = (
        throughput(results, WorkloadId::Ks128Seq),
        throughput(results, WorkloadId::Ks128Sharded),
    ) else {
        return;
    };
    for (name, value) in results.iter_mut().flat_map(|r| &mut r.per_layer) {
        if *name == "core.speedup_vs_seq" {
            *value = sharded / seq;
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Every metric by name, with its unit, one per line.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        println!(
            "## {}: {} jobs attempted, {} failed, {} timed",
            r.workload.name(),
            r.attempted,
            r.failed,
            r.timed_jobs
        );
        for (metric, (name, value)) in END_TO_END.iter().zip(&r.end_to_end) {
            println!(
                "{name:<36} {value:>18.4} {:<10} bound {:.0} %",
                metric.unit,
                metric.bound * 100.0
            );
        }
        for (name, value) in &r.per_layer {
            println!("{name:<36} {value:>18.4} {}", unit_of(name));
        }
    }
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    obj(values.iter().map(|(name, value)| {
        (
            *name,
            obj([("value", num(*value)), ("unit", text(unit_of(name)))]),
        )
    }))
}

/// The end-to-end metrics of one workload for the result file, each with
/// its bound.
fn gated_metrics_json(result: &WorkloadResult) -> Json {
    obj(END_TO_END
        .iter()
        .zip(&result.end_to_end)
        .map(|(metric, (name, value))| {
            let fields = [
                ("value", num(*value)),
                ("unit", text(metric.unit)),
                ("bound", num(metric.bound)),
            ];
            (*name, obj(fields))
        }))
}

/// The line the driver reads: the end-to-end metrics of an untraced
/// run, the per-layer metrics of a traced one.
pub fn driver_line(result: &WorkloadResult, trace: bool) -> String {
    let metrics = if trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    crate::json::render(&obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ]))
}

/// A closed-loop pool below this many jobs invalidates a full suite run:
/// the 10th percentile of fewer jobs does not repeat.
pub const MIN_POOLED_JOBS: usize = 300;

/// The workloads whose pool is too small, for a run that checks it.
pub fn undersized(results: &[WorkloadResult]) -> Vec<&'static str> {
    results
        .iter()
        .filter(|r| r.workload.closed_loop() && r.timed_jobs < MIN_POOLED_JOBS)
        .map(|r| r.workload.name())
        .collect()
}

/// The suite's result file. It ends with `"claim": null`: the change
/// that defines the benchmark claims no gain.
pub fn result_json(plan: &Plan, host: Json, results: &[WorkloadResult]) -> Json {
    let workloads = results.iter().map(|r| {
        (
            r.workload.name(),
            obj([
                ("why", text(r.workload.why())),
                ("attempted", num(r.attempted as f64)),
                ("failed", num(r.failed as f64)),
                (
                    "failed_share",
                    num(r.failed as f64 / r.attempted.max(1) as f64),
                ),
                ("timed_jobs", num(r.timed_jobs as f64)),
                ("end_to_end", gated_metrics_json(r)),
                ("per_layer", metrics_json(&r.per_layer)),
            ]),
        )
    });
    obj([
        ("host", host),
        ("seed", num(plan.seed as f64)),
        (
            "slice_plan",
            obj([
                ("slices_per_workload", num(plan.slices as f64)),
                ("traced_slices_per_workload", num(plan.traced_slices as f64)),
                ("slice_seconds", num(plan.slice_seconds)),
                ("warmup_seconds", num(crate::slice::WARMUP_S)),
                (
                    "order",
                    text("round-robin over workloads, one fresh process per slice"),
                ),
            ]),
        ),
        ("workloads", obj(workloads)),
        ("claim", Json::Null),
    ])
}

/// One row of the A/A comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AaRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// Share by which the second run is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub pass: bool,
}

/// Compare two runs of the same code: no end-to-end metric of a workload
/// may be worse in the second run by more than its bound, nor in the
/// first (an A/A pair has no order), and every exact count must be
/// identical.
pub fn compare_aa(
    first: &[WorkloadResult],
    second: &[WorkloadResult],
) -> (Vec<AaRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut count_mismatches = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for (metric, ((_, x), (_, y))) in END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let bound = metric.bound;
            let worse_by = metric.better.worse_by(*x, *y);
            let reverse = metric.better.worse_by(*y, *x);
            rows.push(AaRow {
                workload: a.workload.name(),
                metric: metric.name,
                first: *x,
                second: *y,
                worse_by,
                bound,
                pass: worse_by <= bound && reverse <= bound,
            });
        }
        for (metric, ((_, x), (_, y))) in PER_LAYER.iter().zip(a.per_layer.iter().zip(&b.per_layer))
        {
            if metric.exact && x != y {
                count_mismatches.push(format!("{} {}: {x} vs {y}", a.workload.name(), metric.name));
            }
        }
    }
    (rows, count_mismatches)
}

pub fn aa_json(rows: &[AaRow], count_mismatches: &[String]) -> Json {
    let items = rows
        .iter()
        .map(|r| {
            obj([
                ("workload", text(r.workload)),
                ("metric", text(r.metric)),
                ("first", num(r.first)),
                ("second", num(r.second)),
                ("worse_by", num(r.worse_by)),
                ("bound", num(r.bound)),
                ("pass", Json::Bool(r.pass)),
            ])
        })
        .collect();
    obj([
        ("rows", Json::Arr(items)),
        (
            "count_mismatches",
            Json::Arr(count_mismatches.iter().map(|m| text(m)).collect()),
        ),
        (
            "pass",
            Json::Bool(rows.iter().all(|r| r.pass) && count_mismatches.is_empty()),
        ),
    ])
}

pub fn print_aa(rows: &[AaRow], count_mismatches: &[String]) {
    println!("## A/A: second run against first, same code");
    for r in rows {
        println!(
            "{:<14} {:<14} {:>16.4} {:>16.4} {:>+8.2}% of {:>5.1}% {}",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.pass { "ok" } else { "MISS" }
        );
    }
    for m in count_mismatches {
        println!("exact count differs: {m}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(events_per_s: f64, p90: f64, cut_edges: f64) -> WorkloadResult {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "events_per_s" => events_per_s,
                    "job_ms_p90" => p90,
                    _ => 1.0,
                };
                (m.name, value)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    if m.name == "shard.cut_edges" {
                        cut_edges
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        WorkloadResult {
            workload: WorkloadId::Ks128Sharded,
            attempted: 10,
            failed: 0,
            timed_jobs: 8,
            end_to_end,
            per_layer,
        }
    }

    #[test]
    fn aa_judges_each_metric_in_its_own_direction() {
        // Throughput 20 % lower is within its 25 %; a p90 twice as long is not.
        let (rows, counts) = compare_aa(&[result(100.0, 50.0, 7.0)], &[result(80.0, 100.0, 7.0)]);
        assert!(counts.is_empty());
        assert_eq!(rows.len(), END_TO_END.len());
        let row = |rows: &[AaRow], name: &str| rows.iter().find(|r| r.metric == name).cloned();
        let throughput = row(&rows, "events_per_s").expect("compared");
        assert!(throughput.pass && (throughput.worse_by - 0.20).abs() < 1e-12);
        assert_eq!(throughput.bound, 0.25);
        let p90 = row(&rows, "job_ms_p90").expect("compared");
        assert!(!p90.pass && (p90.worse_by - 1.0).abs() < 1e-12);
        assert!(row(&rows, "setup_s").expect("compared").pass);
        // The pair has no order: a first run that is the worse one misses too.
        let (rows, _) = compare_aa(&[result(70.0, 50.0, 7.0)], &[result(100.0, 50.0, 7.0)]);
        assert!(!row(&rows, "events_per_s").expect("compared").pass);
    }

    #[test]
    fn a_run_of_both_ks128_workloads_takes_the_speedup_from_their_pools() {
        let speedup = |r: &WorkloadResult| {
            let found = r
                .per_layer
                .iter()
                .find(|(n, _)| *n == "core.speedup_vs_seq");
            found.expect("a per-layer metric").1
        };
        let seq = WorkloadResult {
            workload: WorkloadId::Ks128Seq,
            ..result(200.0, 1.0, 0.0)
        };
        let sharded = result(80.0, 1.0, 0.0);
        let mut both = vec![seq, sharded.clone()];
        pooled_speedup(&mut both);
        assert_eq!((speedup(&both[0]), speedup(&both[1])), (0.4, 0.4));
        // One workload alone keeps what the probes measured.
        let mut alone = vec![sharded];
        pooled_speedup(&mut alone);
        assert_eq!(speedup(&alone[0]), 0.0);
    }

    #[test]
    fn aa_requires_exact_counts_to_repeat() {
        let (rows, counts) = compare_aa(&[result(100.0, 50.0, 7.0)], &[result(100.0, 50.0, 8.0)]);
        assert!(!rows.is_empty() && rows.iter().all(|r| r.pass));
        assert_eq!(counts.len(), 1);
        assert!(counts[0].contains("shard.cut_edges"));
        let doc = aa_json(&rows, &counts);
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = result(100.0, 50.0, 7.0);
        let parsed = obs::json::parse(&driver_line(&r, false)).expect("valid");
        let keys: Vec<&str> = crate::json::members(&parsed)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(crate::json::members(metrics).len(), END_TO_END.len());
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let traced = obs::json::parse(&driver_line(&r, true)).expect("valid");
        assert_eq!(
            crate::json::members(traced.get("metrics").expect("metrics")).len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn result_file_ends_with_a_null_claim() {
        let plan = Plan {
            workloads: vec![WorkloadId::Ks128Sharded],
            seed: 3,
            slices: 10,
            traced_slices: 1,
            slice_seconds: 3.0,
            probes: true,
        };
        let doc = result_json(
            &plan,
            obj([("nproc", num(2.0))]),
            &[result(100.0, 50.0, 7.0)],
        );
        assert_eq!(
            crate::json::members(&doc)
                .last()
                .map(|(k, v)| (k.as_str(), v)),
            Some(("claim", &Json::Null))
        );
        assert!(crate::json::render(&doc).ends_with("\"claim\": null}"));
        assert_eq!(undersized(&[result(1.0, 1.0, 1.0)]), ["ks128-sharded"]);
    }
}
