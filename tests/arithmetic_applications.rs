//! DES as an application: the simulated circuits must compute correct
//! arithmetic end-to-end, through every engine.

use circuit::generators::{kogge_stone_adder, ripple_carry_adder, wallace_multiplier};
use circuit::{Circuit, DelayModel, Logic, Stimulus};
use des::engine::hj::HjEngine;
use des::engine::seq::SeqWorksetEngine;
use des::engine::seq_heap::SeqHeapEngine;
use des::engine::{Engine, EngineConfig};
use galois::GaloisEngine;

/// Drive one vector, return the final output word.
fn settle(engine: &dyn Engine, circuit: &Circuit, inputs: &[Logic]) -> u128 {
    let out = engine.run(
        circuit,
        &Stimulus::single_vector(inputs),
        &DelayModel::standard(),
    );
    out.waveforms
        .iter()
        .enumerate()
        .map(|(i, wf)| (wf.final_value().map_or(0u128, |v| v.as_bit() as u128)) << i)
        .sum()
}

fn adder_inputs(bits: usize, a: u64, b: u64, cin: bool) -> Vec<Logic> {
    let mut v = Vec::with_capacity(2 * bits + 1);
    for i in 0..bits {
        v.push(Logic::from_bit(a >> i));
    }
    for i in 0..bits {
        v.push(Logic::from_bit(b >> i));
    }
    v.push(Logic::from_bool(cin));
    v
}

fn engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(SeqWorksetEngine::new()),
        Box::new(SeqHeapEngine::new()),
        Box::new(HjEngine::from_config(&EngineConfig::default().with_workers(2))),
        Box::new(GaloisEngine::new(2)),
    ]
}

#[test]
fn kogge_stone_adds_through_every_engine() {
    let c = kogge_stone_adder(16);
    let cases = [(0u64, 0u64, false), (65_535, 1, false), (40_000, 30_000, true), (12_345, 54_321, false)];
    for engine in engines() {
        for &(a, b, cin) in &cases {
            let got = settle(engine.as_ref(), &c, &adder_inputs(16, a, b, cin));
            assert_eq!(
                got,
                a as u128 + b as u128 + cin as u128,
                "{}: {a}+{b}+{cin}",
                engine.name()
            );
        }
    }
}

#[test]
fn ripple_carry_agrees_with_kogge_stone() {
    let ks = kogge_stone_adder(12);
    let rc = ripple_carry_adder(12);
    let e = SeqWorksetEngine::new();
    for &(a, b) in &[(100u64, 200u64), (4_095, 4_095), (2_048, 2_047)] {
        let x = settle(&e, &ks, &adder_inputs(12, a, b, false));
        let y = settle(&e, &rc, &adder_inputs(12, a, b, false));
        assert_eq!(x, y, "{a}+{b}");
        assert_eq!(x, (a + b) as u128);
    }
}

#[test]
fn multiplier_multiplies_through_every_engine() {
    let c = wallace_multiplier(8);
    let cases = [(0u64, 0u64), (255, 255), (17, 19), (128, 2)];
    for engine in engines() {
        for &(a, b) in &cases {
            let mut inputs = Vec::with_capacity(16);
            for i in 0..8 {
                inputs.push(Logic::from_bit(a >> i));
            }
            for i in 0..8 {
                inputs.push(Logic::from_bit(b >> i));
            }
            let got = settle(engine.as_ref(), &c, &inputs);
            assert_eq!(got, (a * b) as u128, "{}: {a}*{b}", engine.name());
        }
    }
}

#[test]
fn back_to_back_vectors_compute_independent_sums() {
    // Multiple vectors in flight simultaneously (period shorter than the
    // critical path): the *final* vector's sum must still be exact.
    let c = kogge_stone_adder(16);
    let words: Vec<u64> = vec![0x1234, 0xFFFF, 0x0F0F, 0xAAAA];
    // a = word, b = !word & mask, cin=0 → a + b = 0xFFFF for every vector.
    let mut per_input = vec![Vec::new(); c.inputs().len()];
    for (k, &w) in words.iter().enumerate() {
        let t = 1 + k as u64 * 3; // deliberately overlapping
        for i in 0..16 {
            per_input[i].push(circuit::TimedValue { time: t, value: Logic::from_bit(w >> i) });
            per_input[16 + i].push(circuit::TimedValue {
                time: t,
                value: Logic::from_bit(!w >> i),
            });
        }
        per_input[32].push(circuit::TimedValue { time: t, value: Logic::Zero });
    }
    let s = Stimulus::from_events(per_input);
    let out = HjEngine::from_config(&EngineConfig::default().with_workers(3))
        .run(&c, &s, &DelayModel::standard());
    let got: u128 = out
        .waveforms
        .iter()
        .enumerate()
        .map(|(i, wf)| (wf.final_value().map_or(0u128, |v| v.as_bit() as u128)) << i)
        .sum();
    assert_eq!(got, 0xFFFF);
}
