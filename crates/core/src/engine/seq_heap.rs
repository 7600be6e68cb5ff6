//! A classic single-event-list sequential simulator.
//!
//! Processes *all* events in the system in global timestamp order from one
//! binary heap — the "sufficient but not necessary" global ordering the
//! paper contrasts with Chandy–Misra (§4.1). No local clocks, no NULL
//! messages. It is the simplest possible oracle, used to validate the
//! workset/parallel engines, and it also models the per-node
//! PriorityQueue cost profile the Galois version pays (§4.5.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use circuit::{Circuit, DelayModel, Logic, PortIx, Stimulus};

use crate::engine::config::EngineConfig;
use crate::engine::probe::RunProbe;
use crate::engine::{Engine, SimOutput};
use crate::event::{Event, Timestamp};
use crate::node::{final_outputs, NodeState};
use crate::stats::SimStats;
use fault::{RunPolicy, SimError};

/// A scheduled delivery: ordered by (time, sequence number) so that
/// same-port deliveries retain FIFO order (matching per-port deques).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem {
    time: Timestamp,
    seq: u64,
    dst: u32,
    port: PortIx,
    value: Logic,
}

/// The global-event-list engine.
#[derive(Debug, Default, Clone)]
pub struct SeqHeapEngine {
    policy: RunPolicy,
    rank: Option<u64>,
}

impl SeqHeapEngine {
    pub fn new() -> Self {
        SeqHeapEngine::default()
    }

    /// Build the engine from the unified [`EngineConfig`] (only the run
    /// policy — faults are ignored here, observability is honored).
    pub fn from_config(cfg: &EngineConfig) -> Self {
        SeqHeapEngine {
            policy: cfg.run_policy(),
            rank: cfg.rank(),
        }
    }
}

impl Engine for SeqHeapEngine {
    fn name(&self) -> String {
        "seq-heap".to_string()
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        let recorder = self.policy.recorder();
        let probe = RunProbe::with_rank(recorder, &self.name(), "seq-heap", self.rank);
        let wall_start = Instant::now();
        let mut heap: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut stats = SimStats::default();
        let mut nodes: Vec<NodeState> = circuit
            .nodes()
            .iter()
            .map(|n| NodeState::new(n.kind, delays))
            .collect();

        // Initial events address the input nodes themselves (port 0 is a
        // placeholder; inputs have no real ports).
        for (ix, &input) in circuit.inputs().iter().enumerate() {
            for tv in stimulus.input_events(ix) {
                heap.push(Reverse(HeapItem {
                    time: tv.time,
                    seq,
                    dst: input.0,
                    port: 0,
                    value: tv.value,
                }));
                seq += 1;
                stats.events_delivered += 1;
            }
        }

        while let Some(Reverse(item)) = heap.pop() {
            stats.events_processed += 1;
            let id = circuit::NodeId(item.dst);
            let span = probe.begin(id.index());
            let emitted = nodes[id.index()].fire(item.port, Event::new(item.time, item.value));
            if let Some(out) = emitted {
                for &t in &circuit.node(id).fanout {
                    heap.push(Reverse(HeapItem {
                        time: out.time,
                        seq,
                        dst: t.node.0,
                        port: t.port,
                        value: out.value,
                    }));
                    seq += 1;
                    stats.events_delivered += 1;
                }
            }
            stats.node_runs += 1;
            probe.end(span, id.index(), 1);
        }

        let (node_values, waveforms) = final_outputs(circuit, nodes);
        stats.publish_ranked(recorder, &self.name(), self.rank, wall_start.elapsed());
        Ok(SimOutput {
            stats,
            waveforms,
            node_values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seq::SeqWorksetEngine;
    use crate::monitor::Waveform;
    use circuit::generators::{c17, full_adder, kogge_stone_adder};
    use circuit::{evaluate, Stimulus};

    #[test]
    fn agrees_with_functional_oracle() {
        let c = full_adder();
        let vector = [Logic::One, Logic::Zero, Logic::One];
        let out = SeqHeapEngine::new().run(
            &c,
            &Stimulus::single_vector(&vector),
            &DelayModel::standard(),
        );
        let oracle = evaluate(&c, &vector);
        assert_eq!(out.node_values, oracle.values);
    }

    #[test]
    fn agrees_with_workset_engine_on_counts_and_values() {
        let delays = DelayModel::standard();
        for seed in 0..3 {
            let c = c17();
            let s = Stimulus::random_vectors(&c, 20, 3, seed);
            let heap = SeqHeapEngine::new().run(&c, &s, &delays);
            let work = SeqWorksetEngine::new().run(&c, &s, &delays);
            assert_eq!(heap.stats.events_delivered, work.stats.events_delivered);
            assert_eq!(heap.node_values, work.node_values);
            let heap_settled: Vec<_> = heap.waveforms.iter().map(Waveform::settled).collect();
            let work_settled: Vec<_> = work.waveforms.iter().map(Waveform::settled).collect();
            assert_eq!(heap_settled, work_settled, "seed {seed}");
        }
    }

    #[test]
    fn adder_computes_sums_through_des() {
        let c = kogge_stone_adder(8);
        // Drive a=77, b=93, cin=0 as one vector.
        let mut vector = circuit::from_word(77, 8);
        vector.extend(circuit::from_word(93, 8));
        vector.push(Logic::Zero);
        let out = SeqHeapEngine::new().run(
            &c,
            &Stimulus::single_vector(&vector),
            &DelayModel::standard(),
        );
        let sum: u64 = out
            .waveforms
            .iter()
            .enumerate()
            .map(|(i, wf)| wf.final_value().map_or(0, |v| v.as_bit() << i))
            .sum();
        assert_eq!(sum, 77 + 93);
    }

    #[test]
    fn empty_stimulus_is_a_no_op() {
        let c = c17();
        let out = SeqHeapEngine::new().run(
            &c,
            &Stimulus::empty(c.inputs().len()),
            &DelayModel::standard(),
        );
        assert_eq!(out.stats.events_delivered, 0);
        assert_eq!(out.stats.nulls_sent, 0);
    }
}
