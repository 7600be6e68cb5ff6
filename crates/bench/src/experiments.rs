//! The single source of truth for `repro`'s experiment list.
//!
//! Every surface that names experiments — the `--help` text, the `all`
//! expansion, the unknown-experiment error, and the README table — must
//! derive from [`EXPERIMENTS`]; the `repro` binary asserts its dispatch
//! table matches this registry, so adding an experiment in one place
//! and not the other fails tests instead of silently drifting.

/// One reproducible experiment of the evaluation.
pub struct Experiment {
    /// CLI name (`repro <name>`).
    pub name: &'static str,
    /// One-line summary for `--help` and the README table.
    pub summary: &'static str,
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", summary: "profiles of the input circuits (nodes, edges, events)" },
    Experiment { name: "table2", summary: "sequential execution time, workset vs priority-queue" },
    Experiment { name: "fig1", summary: "available parallelism over simulated time" },
    Experiment { name: "fig4", summary: "execution time and speedup vs workers (mult12)" },
    Experiment { name: "fig5", summary: "execution time and speedup vs workers (ks64)" },
    Experiment { name: "fig6", summary: "execution time and speedup vs workers (ks128)" },
    Experiment { name: "fig7", summary: "mean execution time ± 95% CI at max workers" },
    Experiment { name: "ablation", summary: "ablation of the §4.5 optimizations" },
    Experiment { name: "paper", summary: "gate: hj faster at 2 workers than at 1 and than seq" },
    Experiment { name: "rebalance", summary: "dynamic shard rebalancing under skew" },
    Experiment { name: "net", summary: "distributed fabric: sockets loopback run" },
    Experiment { name: "faults", summary: "fault-injection drills and structured failures" },
    Experiment { name: "obs", summary: "observability overhead and trace/metric reports" },
    Experiment {
        name: "obs-dist",
        summary: "fleet telemetry: merged trace, clock offsets, straggler report",
    },
    Experiment { name: "recover", summary: "checkpoint/restore recovery drill" },
];

/// All experiment names, `all`-expansion order.
pub fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).collect()
}

/// The space-separated name list used by usage strings.
pub fn names_line() -> String {
    let mut line = names().join(" ");
    line.push_str(" all");
    line
}

/// The first requested name that is neither a registered experiment
/// nor the `all` keyword, if any. `repro` refuses to run anything when
/// this returns `Some`, so a misspelt name fails a CI step.
pub fn first_unknown(requested: &[String]) -> Option<&str> {
    requested
        .iter()
        .map(String::as_str)
        .find(|r| *r != "all" && !EXPERIMENTS.iter().any(|e| e.name == *r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let names = names();
        assert!(!names.is_empty());
        let mut sorted: Vec<_> = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate experiment name");
        for e in EXPERIMENTS {
            assert!(!e.summary.is_empty(), "{} needs a summary", e.name);
            assert!(e
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn unknown_names_are_reported_and_known_ones_accepted() {
        let req = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(first_unknown(&req(&[])), None);
        assert_eq!(first_unknown(&req(&names())), None);
        assert_eq!(first_unknown(&req(&["all", "fig6"])), None);
        assert_eq!(first_unknown(&req(&["bogus"])), Some("bogus"));
        assert_eq!(first_unknown(&req(&["ext"])), Some("ext"));
        assert_eq!(first_unknown(&req(&["fig6", "phodl", "all"])), Some("phodl"));
    }

    #[test]
    fn all_is_not_a_registered_name() {
        // `all` is the expansion keyword, not an experiment.
        assert!(!names().contains(&"all"));
    }
}
