//! The sequential Galois variant — Table 2's "Galois (Java)" row.
//!
//! The paper's sequential baseline is the Galois benchmark compiled
//! without the parallel runtime: same per-node **ordered** event queue
//! (`java.util.PriorityQueue`; our `BTreeMap`-backed [`GNode`]), same
//! workset loop, no speculation. Comparing this against
//! `des-core`'s `SeqWorksetEngine` (per-port `ArrayDeque`s) isolates the
//! queue-representation cost the paper credits with "nearly 50%" of the
//! execution-time reduction (§5).

use std::collections::VecDeque;

use circuit::{Circuit, DelayModel, NodeId, NodeKind, Stimulus};
use des::engine::{Engine, SimOutput};
use des::event::{Event, NULL_TS};
use des::node::{final_outputs, node_delay};
use des::stats::SimStats;
use fault::SimError;

use crate::gnode::GNode;

/// The sequential per-node-priority-queue engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct GaloisSeqEngine;

impl GaloisSeqEngine {
    pub fn new() -> Self {
        GaloisSeqEngine
    }
}

impl Engine for GaloisSeqEngine {
    fn name(&self) -> String {
        "galois-seq".to_string()
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        let mut nodes: Vec<GNode> = circuit
            .nodes()
            .iter()
            .map(|n| GNode::new(n.kind, node_delay(n.kind, delays)))
            .collect();
        let mut stats = SimStats::default();
        let mut workset: VecDeque<NodeId> = circuit.inputs().iter().copied().collect();
        let mut queued = vec![false; circuit.num_nodes()];
        for &i in circuit.inputs() {
            queued[i.index()] = true;
        }

        while let Some(id) = workset.pop_front() {
            queued[id.index()] = false;
            stats.node_runs += 1;
            let fanout = &circuit.node(id).fanout;
            match nodes[id.index()].kind {
                NodeKind::Input => {
                    let input_ix = circuit
                        .inputs()
                        .iter()
                        .position(|&i| i == id)
                        .expect("id is an input node");
                    for tv in stimulus.input_events(input_ix) {
                        stats.events_delivered += 1;
                        stats.events_processed += 1;
                        let fired = nodes[id.index()].fire(0, Event::new(tv.time, tv.value));
                        if let Some(out) = fired {
                            for &t in fanout {
                                stats.events_delivered += 1;
                                nodes[t.node.index()].insert(t.port, out);
                            }
                        }
                    }
                    for &t in fanout {
                        stats.nulls_sent += 1;
                        nodes[t.node.index()].receive_null(t.port);
                    }
                    nodes[id.index()].null_sent = true;
                }
                _ => {
                    while let Some((key, port, value)) = nodes[id.index()].pop_ready() {
                        stats.events_processed += 1;
                        let fired = nodes[id.index()].fire(port, Event::new(key.0, value));
                        if let Some(out) = fired {
                            for &t in fanout {
                                stats.events_delivered += 1;
                                nodes[t.node.index()].insert(t.port, out);
                            }
                        }
                    }
                    let owes_null = {
                        let node = &nodes[id.index()];
                        !node.null_sent && node.clock() == NULL_TS && node.queue.is_empty()
                    };
                    if owes_null {
                        nodes[id.index()].null_sent = true;
                        for &t in fanout {
                            stats.nulls_sent += 1;
                            nodes[t.node.index()].receive_null(t.port);
                        }
                    }
                }
            }
            // Activity checks (Algorithm 3 lines 5-9).
            for m in std::iter::once(id).chain(fanout.iter().map(|t| t.node)) {
                let node = &nodes[m.index()];
                let active = !matches!(node.kind, NodeKind::Input) && node.is_active();
                if active && !queued[m.index()] {
                    queued[m.index()] = true;
                    workset.push_back(m);
                }
            }
        }

        for (i, node) in nodes.iter().enumerate() {
            debug_assert!(node.queue.is_empty(), "node {i} has undrained events");
            debug_assert!(node.null_sent, "node {i} never forwarded NULL");
        }
        let (node_values, waveforms) = final_outputs(circuit, nodes.into_iter().map(|n| n.state));
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
    use circuit::generators::{c17, kogge_stone_adder, wallace_multiplier};
    use des::engine::seq::SeqWorksetEngine;
    use des::validate::{check_against_oracle, check_conservation, check_equivalent};

    fn check(circuit: &Circuit, stimulus: &Stimulus) {
        let delays = DelayModel::standard();
        let a = SeqWorksetEngine::new().run(circuit, stimulus, &delays);
        let b = GaloisSeqEngine::new().run(circuit, stimulus, &delays);
        check_conservation(&b).unwrap();
        check_equivalent(&a, &b).unwrap();
        check_against_oracle(circuit, stimulus, &b).unwrap();
    }

    #[test]
    fn matches_deque_engine_on_c17() {
        let c = c17();
        check(&c, &Stimulus::random_vectors(&c, 15, 2, 31));
    }

    #[test]
    fn matches_deque_engine_on_adder() {
        let c = kogge_stone_adder(8);
        check(&c, &Stimulus::random_vectors(&c, 4, 3, 32));
    }

    #[test]
    fn matches_deque_engine_on_multiplier() {
        let c = wallace_multiplier(4);
        check(&c, &Stimulus::random_vectors(&c, 6, 2, 33));
    }
}
