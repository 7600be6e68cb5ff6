//! Determinism, engine-equivalence and fault-containment tests for the
//! sim-model workloads (PHOLD and the M/M/c queueing network).
//!
//! The contract under test: for a fixed graph and seed, the
//! deterministic half of a [`model::ModelOutput`] (observables +
//! event-stream checksum) is bit-identical across engines and shard
//! counts, and RunPolicy fault semantics survive the component adapter.

use std::time::Duration;

use des::{EngineConfig, FaultPlan, PartitionStrategy, SimError};
use model::phold::{self, PholdConfig};
use model::queueing::{self, MmcSpec};
use model::{try_run, Component, Ctx, EventSource, ModelGraph, ModelOutput};

fn phold_graph(seed: u64) -> ModelGraph<phold::PholdToken> {
    phold::build(
        PholdConfig {
            lps: 8,
            population: 3,
            lookahead: 3,
            remote_fraction: 0.6,
            mean_delay: 7.0,
        },
        seed,
        1_500,
    )
}

fn mmc_graph(seed: u64) -> ModelGraph<queueing::Job> {
    queueing::build(
        MmcSpec {
            stations: 3,
            servers: 2,
            mean_interarrival: 6.0,
            mean_service: 9.0,
            feedback: Some(0.3),
        },
        seed,
        3_000,
    )
}

fn run_seq<P: model::Payload>(g: ModelGraph<P>) -> ModelOutput {
    model::run("model-seq", &EngineConfig::default(), g)
}

fn run_sharded<P: model::Payload>(g: ModelGraph<P>, k: usize) -> ModelOutput {
    model::run("model-sharded", &EngineConfig::new().with_shards(k), g)
}

#[test]
fn phold_is_deterministic_across_repeat_runs() {
    let a = run_seq(phold_graph(42));
    let b = run_seq(phold_graph(42));
    assert_eq!(a.observables, b.observables);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.stats.events_delivered, b.stats.events_delivered);
    // A different seed must visibly change the trajectory.
    let c = run_seq(phold_graph(43));
    assert_ne!(a.checksum, c.checksum);
}

#[test]
fn phold_matches_across_engines_and_shard_counts() {
    let reference = run_seq(phold_graph(7));
    assert!(reference.stats.events_delivered > 100, "workload too small to be meaningful");
    // The default partition keeps ring neighbours together; round-robin
    // cuts every remote hop, so each one crosses the mailbox fabric.
    let (default_cut, round_robin) = (PartitionStrategy::default(), PartitionStrategy::RoundRobin);
    for (k, strategy) in [
        (1, default_cut),
        (2, default_cut),
        (4, default_cut),
        (2, round_robin),
        (4, round_robin),
    ] {
        let cfg = EngineConfig::new().with_shards(k).with_strategy(strategy);
        let sharded = model::run("model-sharded", &cfg, phold_graph(7));
        reference.assert_equivalent(&sharded);
        assert_eq!(
            reference.stats.events_delivered, sharded.stats.events_delivered,
            "event count diverges at K={k} ({})",
            strategy.name()
        );
    }
}

#[test]
fn phold_is_bit_identical_across_pin_policies_and_shard_counts() {
    // Core pinning is a placement decision, not a semantic one: the
    // observables and the event-stream checksum must be the same bytes
    // under every pin policy at every shard count, even when shards
    // outnumber cores (compact/spread wrap instead of failing).
    let reference = run_seq(phold_graph(11));
    let caller_cpus = allowed_cpus();
    for k in [1usize, 2, 4, 8] {
        for policy in [des::PinPolicy::None, des::PinPolicy::Compact, des::PinPolicy::Spread] {
            let label = policy.label();
            let cfg = EngineConfig::new().with_shards(k).with_pinning(policy);
            let out = model::run("model-sharded", &cfg, phold_graph(11));
            reference.assert_equivalent(&out);
            assert_eq!(reference.checksum, out.checksum, "checksum diverges at k={k} pin={label}");
            assert_eq!(
                reference.observables, out.observables,
                "observables diverge at k={k} pin={label}"
            );
            // The calling thread ran the last shard, pinned for the run only.
            assert_eq!(
                allowed_cpus(),
                caller_cpus,
                "caller affinity at k={k} pin={label}"
            );
        }
    }
}

/// The calling thread's CPU affinity as the kernel reports it (empty
/// where `/proc/thread-self/status` does not exist).
fn allowed_cpus() -> String {
    std::fs::read_to_string("/proc/thread-self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default()
        .trim()
        .to_string()
}

#[test]
fn queueing_network_matches_across_engines_and_shard_counts() {
    let reference = run_seq(mmc_graph(99));
    let completed = reference
        .observables
        .iter()
        .find(|(k, _)| k == "sink.completed")
        .map(|(_, v)| *v)
        .expect("sink observable");
    assert!(completed > 10, "workload too small to be meaningful");
    for k in [1, 2, 4] {
        let sharded = run_sharded(mmc_graph(99), k);
        reference.assert_equivalent(&sharded);
    }
}

/// A component that panics when it sees its trigger timestamp — the
/// "user bug" whose blast radius the adapter must contain.
struct Grenade {
    trigger_at: u64,
    seen: u64,
}

impl Component<u64> for Grenade {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(0, 2, 1);
    }
    fn on_event(&mut self, _src: EventSource, n: u64, ctx: &mut Ctx<'_, u64>) {
        self.seen += 1;
        assert!(ctx.now() < self.trigger_at, "boom: handler bug at t={}", ctx.now());
        ctx.send(0, 2, n + 1);
    }
    fn observables(&self, out: &mut Vec<(String, u64)>) {
        out.push(("seen".into(), self.seen));
    }
}

fn grenade_graph(trigger_at: u64) -> ModelGraph<u64> {
    let mut g = ModelGraph::new(1, 1_000);
    let a = g.add(
        "a",
        Grenade {
            trigger_at,
            seen: 0,
        },
    );
    let b = g.add(
        "b",
        Grenade {
            trigger_at: u64::MAX,
            seen: 0,
        },
    );
    g.link(a, b, 2);
    g.link(b, a, 2);
    g
}

#[test]
fn component_panic_is_contained_and_attributed_in_seq() {
    let err = try_run("model-seq", &EngineConfig::default(), grenade_graph(50))
        .expect_err("handler panic must surface as an error");
    match err {
        SimError::TaskPanicked { node, payload } => {
            assert_eq!(node, Some(0), "panic must be attributed to component 'a'");
            assert!(payload.contains("boom"), "panic payload lost: {payload}");
        }
        other => panic!("expected TaskPanicked, got {other}"),
    }
}

#[test]
fn component_panic_is_contained_and_attributed_in_sharded() {
    for k in [2, 4] {
        let err = try_run(
            "model-sharded",
            &EngineConfig::new().with_shards(k),
            grenade_graph(50),
        )
        .expect_err("handler panic must surface as an error");
        match err {
            SimError::TaskPanicked { node, payload } => {
                assert_eq!(node, Some(0), "panic must be attributed to component 'a' at K={k}");
                assert!(payload.contains("boom"), "panic payload lost: {payload}");
            }
            other => panic!("expected TaskPanicked at K={k}, got {other}"),
        }
    }
}

#[test]
fn injected_shard_panic_surfaces_through_model_engines() {
    let cfg = EngineConfig::new()
        .with_shards(2)
        .with_fault_plan(FaultPlan::seeded(5).panic_in_shard(1));
    let err = try_run("model-sharded", &cfg, phold_graph(3))
        .expect_err("injected shard fault must surface");
    assert!(
        matches!(err, SimError::TaskPanicked { node: None, .. }),
        "expected injected shard panic, got {err}"
    );
}

#[test]
fn wedged_run_trips_the_watchdog_with_a_snapshot() {
    let cfg = EngineConfig::new()
        .with_shards(2)
        .with_fault_plan(FaultPlan::seeded(8).wedged())
        .with_watchdog(Some(Duration::from_millis(100)));
    let err = try_run("model-sharded", &cfg, phold_graph(4))
        .expect_err("wedged run must trip the watchdog");
    match err {
        SimError::NoProgress { snapshot } => {
            assert_eq!(snapshot.engine, "model-sharded");
            assert!(snapshot.notes.iter().any(|n| n.contains("fault injection")));
            // Both shards wedged before sending anything.
            assert_eq!(snapshot.queue_depths, vec![0, 0]);
            assert_eq!(snapshot.workers.len(), 2);
        }
        other => panic!("expected NoProgress, got {other}"),
    }
}

/// Emits a burst of `burst` events at start-up, one per tick.
struct Burst {
    burst: u64,
}

impl Component<u64> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for i in 0..self.burst {
            ctx.send(0, i + 1, i);
        }
    }
    fn on_event(&mut self, _src: EventSource, _n: u64, _ctx: &mut Ctx<'_, u64>) {}
}

/// Hangs in its start-up handler for `hang`: a user bug that stops its
/// shard from draining its inbox. A hang in `on_event` would come too
/// late: an event waits for its sender's promise, and a burst's sender
/// promises nothing until its terminal NULL, which follows the burst.
struct Hang {
    hang: Duration,
}

impl Component<u64> for Hang {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {
        std::thread::sleep(self.hang);
    }
    fn on_event(&mut self, _src: EventSource, _n: u64, _ctx: &mut Ctx<'_, u64>) {}
}

#[test]
fn stalled_receiver_shows_its_backlog_in_messages_not_batches() {
    // Shard 1 hangs in a handler while shard 0 still has a burst to
    // deliver: shard 1's inbox fills to its capacity of 8 messages (one
    // published batch), shard 0 stalls on `Full` — tracing a
    // `MailboxStall` per retry — and the watchdog's snapshot must say 8,
    // not 1.
    let mut g = ModelGraph::new(1, 1_000);
    let a = g.add("a", Burst { burst: 100 });
    let b = g.add(
        "b",
        Hang {
            hang: Duration::from_millis(400),
        },
    );
    g.link(a, b, 1);
    let recorder = des::Recorder::new(&des::ObsConfig::enabled());
    let cfg = EngineConfig::new()
        .with_shards(2)
        .with_strategy(des::PartitionStrategy::RoundRobin)
        .with_mailbox_capacity(8)
        .with_recorder(recorder)
        .with_watchdog(Some(Duration::from_millis(60)));
    let err = try_run("model-sharded", &cfg, g).expect_err("the hang must trip the watchdog");
    match err {
        SimError::NoProgress { snapshot } => {
            assert_eq!(snapshot.queue_depths, vec![0, 8], "{snapshot}");
            assert_eq!(snapshot.workset_size, 8);
            let stalls = snapshot
                .traces
                .iter()
                .filter(|t| t.thread == "model-shard-0")
                .flat_map(|t| &t.records)
                .filter(|r| r.span_kind() == Some(des::SpanKind::MailboxStall))
                .count();
            assert!(
                stalls > 0,
                "shard 0's Full retries left no MailboxStall: {snapshot}"
            );
        }
        other => panic!("expected NoProgress, got {other}"),
    }
}

#[test]
fn seq_engine_honours_fault_plans_too() {
    let cfg = EngineConfig::new().with_fault_plan(FaultPlan::seeded(2).panic_in_shard(0));
    let err = try_run("model-seq", &cfg, mmc_graph(1)).expect_err("injected fault must surface");
    assert!(matches!(err, SimError::TaskPanicked { node: None, .. }));
}

#[test]
fn promises_ride_on_events_on_the_phold_cut_graph() {
    // The repository benchmark's `phold-cut` graph on the sequential
    // engine, whose message count is deterministic. With every promise
    // sent as a message of its own, this run routed 155 333 messages; a
    // promise that leaves in the same flush as an event on its link now
    // rides on that event. The event stream itself must not change.
    const SEPARATE_PROMISES: u64 = 155_333;
    let cfg = PholdConfig {
        lps: 1024,
        population: 8,
        lookahead: 4,
        remote_fraction: 0.5,
        mean_delay: 10.0,
    };
    let out = run_seq(phold::build(cfg, 12345, 200));
    assert_eq!(out.checksum, 0xca7b_6b16_e2fd_dc5d, "event stream changed");
    assert_eq!(out.stats.events_delivered, 114_280);
    assert!(
        out.stats.msgs_routed * 10 <= SEPARATE_PROMISES * 8,
        "{} messages routed, more than 0.8x of {SEPARATE_PROMISES}",
        out.stats.msgs_routed
    );
}

/// Sends one event on every out link at start-up, stamped with its
/// sender and out-link index, and reports what arrived on each port.
struct Stamp {
    id: u64,
    got: std::collections::BTreeMap<usize, u64>,
}

impl Component<u64> for Stamp {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for link in 0..ctx.num_links() {
            let delay = ctx.lookahead(link);
            ctx.send(link, delay, (self.id << 8) | link as u64);
        }
    }
    fn on_event(&mut self, src: EventSource, stamp: u64, _ctx: &mut Ctx<'_, u64>) {
        let EventSource::Port(port) = src else {
            panic!("no self-events scheduled")
        };
        assert!(
            self.got.insert(port, stamp).is_none(),
            "port {port} got two events"
        );
    }
    fn observables(&self, out: &mut Vec<(String, u64)>) {
        for (port, stamp) in &self.got {
            out.push((format!("port{port}"), *stamp));
        }
    }
}

#[test]
fn interleaved_link_declarations_keep_their_indices_and_ports() {
    let build = || {
        let mut g = ModelGraph::new(9, 100);
        for id in 0..4 {
            g.add(
                format!("n{id}"),
                Stamp {
                    id,
                    got: Default::default(),
                },
            );
        }
        // Sources interleaved and out of id order, mixed lookahead.
        let declared = [
            (3, 1, 2),
            (0, 2, 1),
            (3, 0, 3),
            (1, 2, 2),
            (0, 1, 4),
            (2, 3, 1),
            (3, 2, 1),
            (2, 0, 2),
        ];
        let out_ix: Vec<usize> = declared
            .iter()
            .map(|&(s, d, la)| g.link(s, d, la))
            .collect();
        assert_eq!(out_ix, vec![0, 0, 1, 0, 1, 0, 2, 1]);
        g
    };
    let g = build();
    let mut expected: Vec<(usize, usize, u64)> = g
        .links()
        .iter()
        .map(|l| (l.dst, l.dst_port, ((l.src as u64) << 8) | l.out_ix as u64))
        .collect();
    expected.sort();
    let expected: Vec<(String, u64)> = expected
        .into_iter()
        .map(|(dst, port, stamp)| (format!("n{dst}.port{port}"), stamp))
        .collect();
    let reference = run_seq(g);
    assert_eq!(
        reference.observables, expected,
        "a send reached the wrong port"
    );
    for strategy in [
        des::PartitionStrategy::default(),
        des::PartitionStrategy::RoundRobin,
    ] {
        for k in [2, 3] {
            let cfg = EngineConfig::new().with_shards(k).with_strategy(strategy);
            let out = model::run("model-sharded", &cfg, build());
            reference.assert_equivalent(&out);
        }
    }
}

#[test]
fn sharded_run_publishes_sweeps_and_idle_time_per_shard() {
    let recorder = des::Recorder::new(&des::ObsConfig::enabled());
    let cfg = EngineConfig::new()
        .with_shards(2)
        .with_strategy(des::PartitionStrategy::RoundRobin)
        .with_recorder(recorder.clone());
    model::run("model-sharded", &cfg, phold_graph(5));
    let wall = recorder
        .gauge_values()
        .into_iter()
        .find(|(name, _, _)| name == "sim_model_run_wall_ns")
        .map(|(_, _, v)| v)
        .expect("run wall gauge");
    let counters = recorder.counter_values();
    for shard in 0..2 {
        let labels = format!("{{engine=\"model-sharded\",shard=\"{shard}\"}}");
        let value = |metric: &str| {
            counters
                .iter()
                .find(|(name, l, _)| name == metric && *l == labels)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("{metric}{labels} not published"))
        };
        assert!(
            value("sim_model_sweeps_total") >= 1,
            "shard {shard} never swept"
        );
        let idle = value("sim_model_idle_ns_total");
        assert!(
            idle <= wall,
            "shard {shard} idle {idle} ns > run wall {wall} ns"
        );
    }
}
