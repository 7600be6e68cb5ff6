//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` repeats these
//! tables for the driver; a test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Ks128Seq,
    Ks128Sharded,
    PholdCut,
    SvcMixed,
}

impl WorkloadId {
    /// Reporting order, and the round-robin order of interleaved slices.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Ks128Seq,
        WorkloadId::Ks128Sharded,
        WorkloadId::PholdCut,
        WorkloadId::SvcMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Ks128Seq => "ks128-seq",
            WorkloadId::Ks128Sharded => "ks128-sharded",
            WorkloadId::PholdCut => "phold-cut",
            WorkloadId::SvcMixed => "svc-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, repeated in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Ks128Seq => {
                "paper Table 2 baseline: seq-workset on ks128, closed loop; all work in core and circuit, none in shard, model, replicate"
            }
            WorkloadId::Ks128Sharded => {
                "same circuit on sharded K=2 greedy-cut: few events cross the cut, so NULL wait and lookahead dominate, not traffic"
            }
            WorkloadId::PholdCut => {
                "PHOLD on model-sharded K=2, round-robin cut: every remote hop crosses shards, so mailbox traffic dominates"
            }
            WorkloadId::SvcMixed => {
                "open loop on the replicate service over TCP: small jobs every 20 ms queue behind big jobs every 250 ms (FIFO)"
            }
        }
    }

    /// A closed loop starts a job when the previous one ends; the one
    /// open loop submits on a schedule.
    pub fn closed_loop(self) -> bool {
        self != WorkloadId::SvcMixed
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// By what share of `first` the value `second` is worse (negative
    /// when it is better).
    pub fn worse_by(self, first: f64, second: f64) -> f64 {
        match self {
            Better::Higher => (first - second) / first,
            Better::Lower => (second - first) / first,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports all of them and
/// is held to all of them, as the driver does it: `BENCHMARK.json` has one
/// bound per metric. What each means on a closed and on the open loop is
/// in `run::end_to_end`.
///
/// The timing bounds are the widest the driver's contract allows, not the
/// 0.05 to 0.10 the issue asked for. Ten runs of the same code spread by
/// 2-7 % in a steady half hour, but this shared host changes state for
/// minutes at a time, and that alone moves a quiet-path job time by some
/// 13 % and a queueing percentile by up to 20 %. The driver compares two
/// sets of runs minutes apart, so a bound has to hold across such a
/// change (`README.md`, "The bounds, and what the host allows").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly for one seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Single-layer numbers, named `<crate>.<what>`. A workload that does
/// not run a layer reports that layer's workload counts as 0; the
/// fixed-count probes (`probes.rs`) are the same on every workload.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("circuit.generate_ms", "ms", Lower),
    exact("circuit.initial_events", "count", Lower),
    layer("shard.partition_ms", "ms", Lower),
    exact("shard.cut_edges", "count", Lower),
    exact("shard.imbalance_pct", "%", Lower),
    layer("shard.mailbox_ns_per_msg", "ns", Lower),
    layer("core.run_ms_p10", "ms", Lower),
    layer("core.ns_per_event", "ns", Lower),
    exact("core.events_delivered", "count", Lower),
    layer("core.node_runs", "count", Lower),
    layer("core.events_per_node_run", "ratio", Higher),
    layer("core.nulls_sent", "count", Lower),
    layer("core.wasted_activations", "count", Lower),
    layer("core.useful_activation_ratio", "ratio", Higher),
    layer("core.portqueue_ns_per_event", "ns", Lower),
    layer("core.arena_ns_per_alloc_take", "ns", Lower),
    layer("core.cut_events_sent", "count", Lower),
    layer("core.cut_event_share", "ratio", Lower),
    layer("core.shard_nulls_sent", "count", Lower),
    layer("core.nulls_per_cut_event", "ratio", Lower),
    layer("core.null_wait_share", "ratio", Lower),
    layer("core.speedup_vs_seq", "ratio", Higher),
    layer("core.arena_high_water", "count", Lower),
    layer("model.build_ms", "ms", Lower),
    exact("model.events_delivered", "count", Lower),
    exact("model.dropped_at_horizon", "count", Lower),
    layer("model.msgs_routed", "count", Lower),
    layer("model.msgs_per_event", "ratio", Lower),
    layer("model.activations", "count", Lower),
    layer("model.events_per_activation", "ratio", Higher),
    layer("model.seq_events_per_s", "events/s", Higher),
    layer("model.speedup_vs_seq", "ratio", Higher),
    layer("model.uncut_events_per_s", "events/s", Higher),
    layer("model.cut_slowdown", "ratio", Lower),
    layer("replicate.submit_rtt_ms_p50", "ms", Lower),
    layer("replicate.small_job_unloaded_ms", "ms", Lower),
    layer("replicate.big_job_ms_p50", "ms", Lower),
    layer("replicate.hol_blocked_share", "ratio", Lower),
    layer("replicate.queue_wait_ms_p90", "ms", Lower),
    layer("replicate.executor_runs_per_s", "1/s", Higher),
    layer("replicate.executor_scaling", "ratio", Higher),
    layer("replicate.service_efficiency", "ratio", Higher),
    layer("replicate.agg_merge_us", "us", Lower),
    layer("replicate.store_write_rows_per_s", "1/s", Higher),
    layer("replicate.store_read_rows_per_s", "1/s", Higher),
    layer("replicate.generator_late_ms_max", "ms", Lower),
    layer("replicate.jobs_completed", "count", Higher),
    layer("replicate.jobs_failed", "count", Lower),
    layer("hj.spawn_join_ns_per_task", "ns", Lower),
    layer("hj.trylock_pair_ns", "ns", Lower),
    layer("hj.ks128_events_per_s", "events/s", Higher),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.spans_recorded", "count", Lower),
    layer("fault.sim_errors", "count", Lower),
    layer("harness.jobs_timed", "count", Higher),
    layer("harness.job_ms_p50", "ms", Lower),
    layer("harness.job_ms_p90", "ms", Lower),
    layer("harness.quiet_job_ms_p50", "ms", Lower),
    layer("harness.quiet_job_ms_p90", "ms", Lower),
    layer("harness.cpu_s_per_mevent", "s", Lower),
    layer("harness.calib_mops_p50", "1/s", Higher),
    layer("harness.calib_spread_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up time gets the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WorkloadId::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::from_name("hj"), None);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        // Throughput falling 100 -> 90 is 10 % worse; rising is better.
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 110.0) < 0.0);
        // Latency rising 100 -> 110 is 10 % worse; falling is better.
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worse_by(100.0, 90.0) < 0.0);
    }
}
