//! Chandy–Misra termination: NULL messages must traverse every edge
//! exactly once, all queues must drain, and the finish/quiescence-based
//! engines must return — in every stimulus configuration.

use std::sync::Arc;

use circuit::generators::{c17, fanout_tree, inverter_chain, kogge_stone_adder};
use circuit::{DelayModel, Logic, Stimulus, TimedValue};
use des::engine::hj::{HjEngine, HjEngineConfig};
use des::engine::seq::SeqWorksetEngine;
use des::engine::{Engine, EngineConfig};
use galois::GaloisEngine;
use hj::HjRuntime;

#[test]
fn null_messages_cover_every_edge() {
    let c = kogge_stone_adder(8);
    let s = Stimulus::random_vectors(&c, 2, 4, 1);
    for engine in engines(2) {
        let out = engine.run(&c, &s, &DelayModel::standard());
        assert_eq!(
            out.stats.nulls_sent as usize,
            c.num_edges(),
            "{}: one NULL per edge",
            engine.name()
        );
    }
}

#[test]
fn empty_stimulus_terminates_everywhere() {
    let c = fanout_tree(3, 2);
    let s = Stimulus::empty(1);
    for engine in engines(3) {
        let out = engine.run(&c, &s, &DelayModel::standard());
        assert_eq!(out.stats.events_delivered, 0, "{}", engine.name());
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges(), "{}", engine.name());
    }
}

#[test]
fn single_silent_input_still_unblocks_downstream() {
    // c17 has gates fed by two different inputs; if one input never fires,
    // its NULL must still advance the gate clocks so the other side's
    // events get processed.
    let c = c17();
    let mut events = vec![Vec::new(); 5];
    events[1] = vec![TimedValue { time: 3, value: Logic::One }];
    let s = Stimulus::from_events(events);
    for engine in engines(2) {
        let out = engine.run(&c, &s, &DelayModel::standard());
        assert!(out.stats.events_delivered > 1, "{}", engine.name());
        assert_eq!(out.stats.events_processed, out.stats.events_delivered);
    }
}

#[test]
fn repeated_runs_do_not_leak_state() {
    // Run the same engine instance many times: termination bookkeeping
    // must fully reset between runs.
    let c = inverter_chain(10);
    let d = DelayModel::standard();
    let rt = Arc::new(HjRuntime::new(2));
    let engine = HjEngine::with_config(rt, HjEngineConfig::default());
    let s = Stimulus::random_vectors(&c, 4, 2, 3);
    let first = engine.run(&c, &s, &d).stats;
    for _ in 0..10 {
        let again = engine.run(&c, &s, &d).stats;
        assert_eq!(first.events_delivered, again.events_delivered);
        assert_eq!(first.nulls_sent, again.nulls_sent);
    }
}

#[test]
fn long_chain_terminates_with_deep_null_cascade() {
    // 400-node chain: the NULL must ripple through 400 sequential hops.
    let c = inverter_chain(400);
    let s = Stimulus::random_vectors(&c, 1, 1, 4);
    for engine in engines(4) {
        let out = engine.run(&c, &s, &DelayModel::standard());
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges(), "{}", engine.name());
        assert_eq!(out.stats.events_processed, out.stats.events_delivered);
    }
}

fn engines(workers: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(SeqWorksetEngine::new()),
        Box::new(HjEngine::from_config(&EngineConfig::default().with_workers(workers))),
        Box::new(GaloisEngine::new(workers)),
    ]
}
