//! The paper's three evaluation workloads (Table 1) at configurable scale.
//!
//! Paper initial-event counts: mult12 49, ks64 128,258, ks128 66,050 —
//! i.e. roughly `#inputs × #vectors` with 2, 994 and 257 vectors
//! respectively. [`Scale::paper`] reproduces those vector counts;
//! [`Scale::quick`] shrinks them so the whole suite runs in seconds.

use circuit::generators::{kogge_stone_adder, wallace_multiplier};
use circuit::{Circuit, DelayModel, Stimulus};

/// One ready-to-run workload.
pub struct Workload {
    pub name: &'static str,
    pub circuit: Circuit,
    pub stimulus: Stimulus,
    pub delays: DelayModel,
}

impl Workload {
    /// Initial event count (Table 1 column).
    pub fn initial_events(&self) -> usize {
        self.stimulus.num_events()
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("nodes", &self.circuit.num_nodes())
            .field("initial_events", &self.initial_events())
            .finish()
    }
}

/// The three circuits of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperCircuit {
    /// 12-bit tree multiplier.
    Mult12,
    /// 64-bit Kogge–Stone adder.
    Ks64,
    /// 128-bit Kogge–Stone adder.
    Ks128,
}

impl PaperCircuit {
    /// All three, in the paper's Table 1 order.
    pub const ALL: [PaperCircuit; 3] = [PaperCircuit::Mult12, PaperCircuit::Ks64, PaperCircuit::Ks128];

    /// Table-ready name.
    pub fn name(self) -> &'static str {
        match self {
            PaperCircuit::Mult12 => "mult12",
            PaperCircuit::Ks64 => "ks64",
            PaperCircuit::Ks128 => "ks128",
        }
    }

    /// Build the circuit.
    pub fn circuit(self) -> Circuit {
        match self {
            PaperCircuit::Mult12 => wallace_multiplier(12),
            PaperCircuit::Ks64 => kogge_stone_adder(64),
            PaperCircuit::Ks128 => kogge_stone_adder(128),
        }
    }

    /// Build the full workload at the given scale.
    pub fn workload(self, scale: Scale) -> Workload {
        let circuit = self.circuit();
        let vectors = scale.vectors(self);
        // Period 10 keeps consecutive vectors overlapping in flight (the
        // paper's event totals imply heavy in-flight overlap), while the
        // seed pins determinism.
        let stimulus = Stimulus::random_vectors(&circuit, vectors, 10, 0x5EED ^ vectors as u64);
        Workload {
            name: self.name(),
            circuit,
            stimulus,
            delays: DelayModel::standard(),
        }
    }
}

/// How many stimulus vectors to drive per circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub mult12_vectors: usize,
    pub ks64_vectors: usize,
    pub ks128_vectors: usize,
}

impl Scale {
    /// The paper's initial-event counts (Table 1).
    pub fn paper() -> Self {
        Scale {
            mult12_vectors: 2,
            ks64_vectors: 994,
            ks128_vectors: 257,
        }
    }

    /// A seconds-scale default for development and CI.
    pub fn quick() -> Self {
        Scale {
            mult12_vectors: 1,
            ks64_vectors: 30,
            ks128_vectors: 12,
        }
    }

    /// A sub-second scale for Criterion micro-runs.
    pub fn tiny() -> Self {
        Scale {
            mult12_vectors: 1,
            ks64_vectors: 4,
            ks128_vectors: 2,
        }
    }

    /// Vector count for one circuit.
    pub fn vectors(self, which: PaperCircuit) -> usize {
        match which {
            PaperCircuit::Mult12 => self.mult12_vectors,
            PaperCircuit::Ks64 => self.ks64_vectors,
            PaperCircuit::Ks128 => self.ks128_vectors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::engine::seq::SeqWorksetEngine;
    use des::engine::Engine;

    #[test]
    fn paper_scale_matches_table1_initial_events() {
        // Table 1: 49 / 128,258 / 66,050. Ours: #inputs × #vectors.
        let m = PaperCircuit::Mult12.workload(Scale::paper());
        assert_eq!(m.initial_events(), 24 * 2); // paper: 49
        let a = PaperCircuit::Ks64.workload(Scale::paper());
        assert_eq!(a.initial_events(), 129 * 994); // paper: 128,258
        let b = PaperCircuit::Ks128.workload(Scale::paper());
        assert_eq!(b.initial_events(), 257 * 257); // paper: 66,050
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = PaperCircuit::Ks64.workload(Scale::tiny());
        let b = PaperCircuit::Ks64.workload(Scale::tiny());
        assert_eq!(a.stimulus, b.stimulus);
        assert_eq!(a.circuit.num_nodes(), b.circuit.num_nodes());
    }

    #[test]
    fn seq_workset_runs_each_node_once() {
        // An input emits its whole stimulus and its NULL in one run, so
        // each gate turns active once, when its whole fanin has closed.
        for pc in PaperCircuit::ALL {
            let w = pc.workload(Scale::tiny());
            let out = SeqWorksetEngine::new().run(&w.circuit, &w.stimulus, &w.delays);
            assert_eq!(out.stats.node_runs, w.circuit.num_nodes() as u64, "{}", w.name);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PaperCircuit::Mult12.name(), "mult12");
        assert_eq!(PaperCircuit::ALL.len(), 3);
    }
}
