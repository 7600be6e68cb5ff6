//! Randomized property tests: random circuits × random stimuli, checked
//! against the invariants that define correct conservative DES. Cases are
//! drawn from a fixed-seed RNG so every run explores the same (broad)
//! slice of the input space deterministically.

use circuit::generators::{random_layered, RandomCircuitConfig};
use circuit::{Circuit, DelayModel, Logic, Stimulus, TimedValue};
use des::engine::hj::HjEngine;
use des::engine::seq::SeqWorksetEngine;
use des::engine::seq_heap::SeqHeapEngine;
use des::engine::{Engine, EngineConfig};
use des::validate::{check_against_oracle, check_conservation, check_equivalent};
use galois::GaloisEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a random circuit shape (mirrors the old proptest strategy ranges).
fn random_circuit(rng: &mut StdRng) -> Circuit {
    random_layered(RandomCircuitConfig {
        inputs: rng.gen_range(1usize..6),
        layers: rng.gen_range(1usize..5),
        width: rng.gen_range(1usize..8),
        seed: rng.gen(),
    })
}

/// Draw a stimulus for `num_inputs` inputs — every input gets a
/// (possibly empty) strictly-increasing event list.
fn random_stimulus(rng: &mut StdRng, num_inputs: usize) -> Stimulus {
    let per_input = (0..num_inputs)
        .map(|_| {
            let n = rng.gen_range(0usize..8);
            let mut t = 0u64;
            (0..n)
                .map(|_| {
                    t += rng.gen_range(1u64..40); // strictly increasing per input
                    TimedValue {
                        time: t,
                        value: Logic::from_bool(rng.gen()),
                    }
                })
                .collect()
        })
        .collect();
    Stimulus::from_events(per_input)
}

/// All engines agree on all deterministic observables, for arbitrary
/// DAG circuits and arbitrary stimuli.
#[test]
fn engines_agree_on_random_circuits() {
    let mut rng = StdRng::seed_from_u64(0xDE5_0001);
    for case in 0..24 {
        let circuit = random_circuit(&mut rng);
        let stimulus = random_stimulus(&mut rng, circuit.inputs().len());
        let delays = DelayModel::standard();
        let reference = SeqWorksetEngine::new().run(&circuit, &stimulus, &delays);
        check_conservation(&reference).unwrap_or_else(|e| panic!("case {case}: {e}"));
        check_against_oracle(&circuit, &stimulus, &reference)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(SeqHeapEngine::new()),
            Box::new(HjEngine::from_config(&EngineConfig::default().with_workers(2))),
            Box::new(GaloisEngine::new(2)),
        ];
        for engine in engines {
            let out = engine.run(&circuit, &stimulus, &delays);
            check_conservation(&out)
                .unwrap_or_else(|e| panic!("case {case}, {}: {e}", engine.name()));
            check_equivalent(&reference, &out)
                .unwrap_or_else(|e| panic!("case {case}, {}: {e}", engine.name()));
        }
    }
}

/// Event-count conservation law: delivered events equal the analytic
/// path-count formula of the DAG (per stimulus event at each input).
#[test]
fn event_totals_follow_path_counts() {
    let mut rng = StdRng::seed_from_u64(0xDE5_0002);
    for case in 0..24 {
        let circuit = random_circuit(&mut rng);
        let stimulus = random_stimulus(&mut rng, circuit.inputs().len());
        let out = SeqWorksetEngine::new().run(&circuit, &stimulus, &DelayModel::standard());
        // delivered = Σ_inputs k_i * (1 + Σ_edges paths from input i to the
        // edge's source), where k_i is input i's stimulus event count —
        // every processed event re-emits once per out-edge.
        let mut total = 0u64;
        for (ix, &input) in circuit.inputs().iter().enumerate() {
            let k = stimulus.input_events(ix).len() as u64;
            if k == 0 {
                continue;
            }
            let mut emit = vec![0u64; circuit.num_nodes()];
            emit[input.index()] = 1;
            for &id in circuit.topo_order() {
                let node = circuit.node(id);
                if !node.fanin.is_empty() {
                    emit[id.index()] = node.fanin.iter().map(|s| emit[s.index()]).sum();
                }
            }
            let edge_events: u64 = circuit.edges().map(|(src, _)| emit[src.index()]).sum();
            total += k * (1 + edge_events);
        }
        assert_eq!(out.stats.events_delivered, total, "case {case}");
    }
}

/// Output waveforms are time-monotone and NULL accounting is exact.
#[test]
fn waveforms_monotone_and_nulls_exact() {
    let mut rng = StdRng::seed_from_u64(0xDE5_0003);
    for case in 0..24 {
        let circuit = random_circuit(&mut rng);
        let stimulus = random_stimulus(&mut rng, circuit.inputs().len());
        let out = HjEngine::from_config(&EngineConfig::default().with_workers(2))
            .run(&circuit, &stimulus, &DelayModel::standard());
        for wf in &out.waveforms {
            for pair in wf.events().windows(2) {
                assert!(pair[0].time <= pair[1].time, "case {case}");
            }
        }
        assert_eq!(out.stats.nulls_sent as usize, circuit.num_edges(), "case {case}");
    }
}
