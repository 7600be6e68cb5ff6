//! Algorithm 1: the sequential workset implementation.
//!
//! A workset holds the currently *active* nodes. Nodes are pulled out in
//! any order; running a node processes all its ready events in timestamp
//! order, delivers the generated events to the fanout, and re-checks the
//! activity of the node and its neighbours. This is the code structure the
//! paper's HJ version parallelizes, and (with per-port deques) also its
//! own "HJlib sequential" baseline of Table 2.
//!
//! The simulation core (`Sim`) is separated from the scheduling policy so
//! that [`crate::profile`] can drive the same semantics level-
//! synchronously to measure available parallelism (Figure 1).

use std::collections::VecDeque;
use std::time::Instant;

use circuit::{Circuit, DelayModel, NodeId, NodeKind, PortIx, Stimulus, Target};

use crate::engine::config::EngineConfig;
use crate::engine::probe::RunProbe;
use crate::engine::{Engine, SimOutput};
use crate::event::Event;
use crate::node::{final_outputs, PortNode};
use crate::stats::SimStats;
use fault::{RunPolicy, SimError};

/// The Algorithm 1 engine.
#[derive(Debug, Default, Clone)]
pub struct SeqWorksetEngine {
    policy: RunPolicy,
    rank: Option<u64>,
}

impl SeqWorksetEngine {
    pub fn new() -> Self {
        SeqWorksetEngine::default()
    }

    /// Build the engine from the unified [`EngineConfig`] (only the run
    /// policy — faults are ignored here, observability is honored).
    pub fn from_config(cfg: &EngineConfig) -> Self {
        SeqWorksetEngine {
            policy: cfg.run_policy(),
            rank: cfg.rank(),
        }
    }
}

impl Engine for SeqWorksetEngine {
    fn name(&self) -> String {
        "seq-workset".to_string()
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        let recorder = self.policy.recorder();
        let probe = RunProbe::with_rank(recorder, &self.name(), "seq-workset", self.rank);
        let wall_start = Instant::now();
        let mut sim = Sim::new(circuit, stimulus, delays);
        // FIFO workset without duplicates (Alg. 1; the paper notes
        // redundant entries are unnecessary).
        let mut workset: VecDeque<NodeId> = VecDeque::new();
        let mut queued = vec![false; circuit.num_nodes()];
        for &id in sim.initially_active() {
            queued[id.index()] = true;
            workset.push_back(id);
        }
        while let Some(id) = workset.pop_front() {
            queued[id.index()] = false;
            let before = sim.stats().events_processed;
            let span = probe.begin(id.index());
            sim.run_node(id);
            probe.end(span, id.index(), sim.stats().events_processed - before);
            for m in sim.candidates(id) {
                if !queued[m.index()] && sim.node_is_active(m) {
                    queued[m.index()] = true;
                    workset.push_back(m);
                }
            }
        }
        let output = sim.into_output();
        output
            .stats
            .publish_ranked(recorder, &self.name(), self.rank, wall_start.elapsed());
        Ok(output)
    }
}

/// The sequential Chandy–Misra simulation core: state plus `run_node`,
/// with scheduling left to the caller.
pub(crate) struct Sim<'a> {
    circuit: &'a Circuit,
    stimulus: &'a Stimulus,
    nodes: Vec<PortNode>,
    stats: SimStats,
    /// Scratch for ready events, reused across runs (allocation hygiene).
    temp: Vec<(PortIx, Event)>,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(circuit: &'a Circuit, stimulus: &'a Stimulus, delays: &'a DelayModel) -> Self {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        Sim {
            circuit,
            stimulus,
            nodes: circuit.nodes().iter().map(|n| PortNode::new(n.kind, delays)).collect(),
            stats: SimStats::default(),
            temp: Vec::new(),
        }
    }

    /// The nodes that are active before any event is processed: the
    /// circuit inputs (they hold the initial events).
    pub(crate) fn initially_active(&self) -> &'a [NodeId] {
        self.circuit.inputs()
    }

    /// Nodes whose activity may have changed after `run_node(id)`: the
    /// node itself, then its fanout. Borrows the circuit, not `self`.
    pub(crate) fn candidates(&self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let fanout = &self.circuit.node(id).fanout;
        std::iter::once(id).chain(fanout.iter().map(|t| t.node))
    }

    /// Is `id` active (has ready events, or owes its NULL forward)?
    pub(crate) fn node_is_active(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_active()
    }

    /// Process all of `id`'s ready events (the paper's `RUNNODE`).
    pub(crate) fn run_node(&mut self, id: NodeId) {
        self.stats.node_runs += 1;
        match self.nodes[id.index()].state.kind {
            NodeKind::Input => self.run_input(id),
            _ => self.run_gate_or_output(id),
        }
    }

    /// Deliver one payload event to every fanout target. Runs once per
    /// emitted event from two call sites; out of line, the call cost
    /// `seq-workset` about 4 % on ks128.
    #[inline(always)]
    fn emit(&mut self, fanout: &[Target], event: Event) {
        for &t in fanout {
            self.stats.events_delivered += 1;
            self.nodes[t.node.index()].ports[t.port as usize].push_event(event);
        }
    }

    /// Forward the terminal NULL to every fanout target.
    fn emit_null(&mut self, id: NodeId, fanout: &[Target]) {
        self.nodes[id.index()].state.null_sent = true;
        for &t in fanout {
            self.nodes[t.node.index()].ports[t.port as usize].push_null();
            self.stats.nulls_sent += 1;
        }
    }

    /// An input node's run: emit the entire stimulus, then NULL (§4.1:
    /// "after an input node sends out all its initial events, it sends a
    /// NULL message with timestamp infinity").
    fn run_input(&mut self, id: NodeId) {
        let (circuit, stimulus) = (self.circuit, self.stimulus);
        let input_ix = circuit
            .inputs()
            .iter()
            .position(|&i| i == id)
            .expect("id is an input node");
        let fanout = &circuit.node(id).fanout;
        for tv in stimulus.input_events(input_ix) {
            // The initial event itself counts as delivered + processed.
            self.stats.events_delivered += 1;
            self.stats.events_processed += 1;
            let fired = self.nodes[id.index()].state.fire(0, Event::new(tv.time, tv.value));
            if let Some(out) = fired {
                self.emit(fanout, out);
            }
        }
        self.emit_null(id, fanout);
    }

    fn run_gate_or_output(&mut self, id: NodeId) {
        let mut temp = std::mem::take(&mut self.temp);
        temp.clear();
        self.nodes[id.index()].drain_ready(&mut temp);

        let fanout = &self.circuit.node(id).fanout;
        for &(port, ev) in &temp {
            self.stats.events_processed += 1;
            if let Some(out) = self.nodes[id.index()].state.fire(port, ev) {
                self.emit(fanout, out);
            }
        }
        self.temp = temp;

        // Forward NULL once every port is closed and drained.
        if self.nodes[id.index()].owes_null() {
            self.emit_null(id, fanout);
        }
    }

    /// Accumulated counters so far.
    pub(crate) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Finalize: check termination invariants and extract the output.
    pub(crate) fn into_output(self) -> SimOutput {
        // Termination invariants (Chandy–Misra): every queue drained and
        // every node has forwarded its NULL.
        for (i, node) in self.nodes.iter().enumerate() {
            debug_assert!(
                node.ports.iter().all(|p| p.is_empty()),
                "node {i} has undrained events"
            );
            debug_assert!(node.state.null_sent, "node {i} never forwarded NULL");
        }
        let (node_values, waveforms) =
            final_outputs(self.circuit, self.nodes.into_iter().map(|n| n.state));
        SimOutput {
            stats: self.stats,
            waveforms,
            node_values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Waveform;
    use circuit::generators::{c17, full_adder, inverter_chain};
    use circuit::{evaluate, Logic, Stimulus, TimedValue};

    fn run(circuit: &Circuit, stimulus: &Stimulus) -> SimOutput {
        SeqWorksetEngine::new().run(circuit, stimulus, &DelayModel::standard())
    }

    #[test]
    fn single_vector_settles_to_functional_eval() {
        let c = full_adder();
        let vector = [Logic::One, Logic::One, Logic::Zero];
        let out = run(&c, &Stimulus::single_vector(&vector));
        let oracle = evaluate(&c, &vector);
        for (&o, wf) in c.outputs().iter().zip(&out.waveforms) {
            assert_eq!(wf.final_value(), Some(oracle.value(o)));
        }
        assert_eq!(out.stats.events_processed, out.stats.events_delivered);
    }

    #[test]
    fn all_final_node_values_match_oracle() {
        let c = c17();
        let vector = [Logic::One, Logic::Zero, Logic::One, Logic::One, Logic::Zero];
        let out = run(&c, &Stimulus::single_vector(&vector));
        let oracle = evaluate(&c, &vector);
        assert_eq!(out.node_values, oracle.values);
    }

    #[test]
    fn empty_stimulus_only_propagates_nulls() {
        let c = c17();
        let out = run(&c, &Stimulus::empty(c.inputs().len()));
        assert_eq!(out.stats.events_delivered, 0);
        assert_eq!(out.stats.events_processed, 0);
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges());
        assert!(out.waveforms.iter().all(Waveform::is_empty));
    }

    #[test]
    fn event_conservation_in_a_chain() {
        // Chain of k inverters: every initial event crosses every edge
        // exactly once, so delivered = vectors * (1 initial + #edges).
        let k = 7;
        let c = inverter_chain(k);
        let vectors = 5;
        let s = Stimulus::random_vectors(&c, vectors, 1000, 1);
        let out = run(&c, &s);
        let edges = c.num_edges() as u64;
        assert_eq!(out.stats.events_delivered, vectors as u64 * (1 + edges));
        assert_eq!(out.stats.nulls_sent, edges);
    }

    #[test]
    fn waveform_toggles_through_inverter() {
        let c = inverter_chain(1);
        let s = Stimulus::from_events(vec![vec![
            TimedValue { time: 1, value: Logic::One },
            TimedValue { time: 10, value: Logic::Zero },
            TimedValue { time: 20, value: Logic::One },
        ]]);
        let out = run(&c, &s);
        let settled = out.waveforms[0].settled();
        // Inverter delay 1: edges at 2, 11, 21 with inverted values.
        assert_eq!(
            settled,
            vec![(2, Logic::Zero), (11, Logic::One), (21, Logic::Zero)]
        );
    }

    #[test]
    fn multi_vector_settles_per_vector() {
        // Vectors spaced beyond the critical path: at each sampling point
        // the outputs equal the functional evaluation of that vector.
        let c = full_adder();
        let period = circuit::critical_path_delay(&c, &DelayModel::standard()) + 1;
        let s = Stimulus::random_vectors(&c, 8, period, 42);
        let out = run(&c, &s);
        for k in 0..8 {
            let sample_t = 1 + (k as u64 + 1) * period - 1; // just before next vector
            let vector: Vec<Logic> = (0..3).map(|i| s.input_events(i)[k].value).collect();
            let oracle = evaluate(&c, &vector);
            for (ox, (&o, wf)) in c.outputs().iter().zip(&out.waveforms).enumerate() {
                if let Some(v) = wf.value_at(sample_t) {
                    assert_eq!(v, oracle.value(o), "vector {k}, output {ox}");
                }
            }
        }
    }
}
