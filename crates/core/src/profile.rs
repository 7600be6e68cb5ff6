//! Available-parallelism profiling — Figure 1 of the paper.
//!
//! The Galois project measured, per computation step, how many active
//! nodes *could* run in parallel. We reproduce that with a
//! level-synchronous greedy schedule: round `r` runs every node that is
//! active at the start of the round; the number of such nodes is the
//! available parallelism of step `r`. For the tree multiplier the curve
//! starts low (few input ports), swells in the middle (large fanout), and
//! tapers at the outputs — the shape of Figure 1.

use circuit::{Circuit, DelayModel, NodeId, Stimulus};

use crate::engine::seq::Sim;

/// The available-parallelism curve of one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelismProfile {
    /// Number of simultaneously runnable nodes at each computation step.
    pub active_per_round: Vec<usize>,
    /// Total payload events delivered over the run.
    pub total_events: u64,
}

impl ParallelismProfile {
    /// The largest parallelism observed.
    pub fn peak(&self) -> usize {
        self.active_per_round.iter().copied().max().unwrap_or(0)
    }

    /// Arithmetic mean parallelism over the run.
    pub fn mean(&self) -> f64 {
        if self.active_per_round.is_empty() {
            return 0.0;
        }
        let sum: usize = self.active_per_round.iter().sum();
        sum as f64 / self.active_per_round.len() as f64
    }

    /// Number of rounds (the span of the greedy schedule).
    pub fn rounds(&self) -> usize {
        self.active_per_round.len()
    }
}

/// Measure the available parallelism of simulating `circuit` under
/// `stimulus` (Figure 1's series).
pub fn available_parallelism(
    circuit: &Circuit,
    stimulus: &Stimulus,
    delays: &DelayModel,
) -> ParallelismProfile {
    let mut sim = Sim::new(circuit, stimulus, delays);
    let mut current: Vec<NodeId> = sim.initially_active().to_vec();
    let mut queued = vec![false; circuit.num_nodes()];
    for &id in &current {
        queued[id.index()] = true;
    }
    let mut profile = ParallelismProfile {
        active_per_round: Vec::new(),
        total_events: 0,
    };
    while !current.is_empty() {
        profile.active_per_round.push(current.len());
        let mut next: Vec<NodeId> = Vec::new();
        for &id in &current {
            queued[id.index()] = false;
        }
        for &id in &current {
            sim.run_node(id);
        }
        for &id in &current {
            for m in sim.candidates(id) {
                if !queued[m.index()] && sim.node_is_active(m) {
                    queued[m.index()] = true;
                    next.push(m);
                }
            }
        }
        current = next;
    }
    profile.total_events = sim.stats().events_delivered;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::generators::{fanout_tree, inverter_chain, wallace_multiplier};
    use circuit::{DelayModel, Stimulus};

    #[test]
    fn chain_has_parallelism_one() {
        let c = inverter_chain(10);
        let s = Stimulus::random_vectors(&c, 1, 1, 0);
        let p = available_parallelism(&c, &s, &DelayModel::standard());
        assert_eq!(p.peak(), 1);
        // input + 10 inverters + output = 12 rounds.
        assert_eq!(p.rounds(), 12);
    }

    #[test]
    fn fanout_tree_parallelism_doubles_per_level() {
        let c = fanout_tree(4, 2);
        let s = Stimulus::random_vectors(&c, 1, 1, 0);
        let p = available_parallelism(&c, &s, &DelayModel::standard());
        // Rounds: input, then 2, 4, 8, 16 buffers, then 16 outputs.
        assert_eq!(p.active_per_round, vec![1, 2, 4, 8, 16, 16]);
        assert_eq!(p.peak(), 16);
    }

    #[test]
    fn multiplier_profile_has_figure_1_shape() {
        // Low at the ports, high in the middle (paper §2.2 / Figure 1).
        let c = wallace_multiplier(8);
        let s = Stimulus::random_vectors(&c, 4, 7, 5);
        let p = available_parallelism(&c, &s, &DelayModel::standard());
        let first = p.active_per_round[0];
        let last = *p.active_per_round.last().unwrap();
        assert!(p.peak() > 4 * first.min(last).max(1), "peak {} vs ends {first}/{last}", p.peak());
        // The peak is strictly inside the run, not at either end.
        let peak_ix = p
            .active_per_round
            .iter()
            .position(|&x| x == p.peak())
            .unwrap();
        assert!(peak_ix > 0 && peak_ix < p.rounds() - 1);
    }

    #[test]
    fn mean_and_empty_profile() {
        let p = ParallelismProfile {
            active_per_round: vec![1, 3, 2],
            total_events: 0,
        };
        assert!((p.mean() - 2.0).abs() < 1e-12);
        let empty = ParallelismProfile {
            active_per_round: vec![],
            total_events: 0,
        };
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.peak(), 0);
    }
}
