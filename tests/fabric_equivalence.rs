//! The batched mailbox fabric must be invisible in the results: whatever
//! the shard count, the partition, and the mailbox capacity (1 hands
//! messages over one at a time, 8 forces partial publishes and `Full`
//! stalls, 1024 never fills), every engine that runs on it reproduces its
//! sequential reference — including across rebalancing barriers and a
//! checkpoint/restore, whose control markers ride the same staged FIFO as
//! the payload they must not overtake. The model engines are also held to
//! it on random component graphs (cycles, fan-out and fan-in, mixed
//! lookahead, nodes that see only their own timer or only promises), the
//! topologies the fixed PHOLD ring and M/M/c tandem do not have.

use circuit::generators::kogge_stone_adder;
use circuit::{Circuit, DelayModel, Stimulus};
use des::engine::seq::SeqWorksetEngine;
use des::engine::{build, Engine, EngineConfig};
use des::validate::check_equivalent;
use des::{FaultPlan, PartitionStrategy, RebalancePolicy, SimOutput};
use model::phold::{self, PholdConfig};
use model::queueing::{self, MmcSpec};
use model::{Component, Ctx, DetRng, EventSource, ModelGraph, Payload};

const CAPACITIES: [usize; 3] = [1, 8, 1024];

fn model_matches_seq<P: Payload>(what: &str, graph: impl Fn() -> ModelGraph<P>) {
    let reference = model::run("model-seq", &EngineConfig::default(), graph());
    assert!(
        reference.stats.events_delivered > 100,
        "{what}: workload too small"
    );
    for strategy in [PartitionStrategy::default(), PartitionStrategy::RoundRobin] {
        for k in [1usize, 2, 3, 4] {
            for capacity in CAPACITIES {
                let cfg = EngineConfig::new()
                    .with_shards(k)
                    .with_strategy(strategy)
                    .with_mailbox_capacity(capacity);
                let out = model::run("model-sharded", &cfg, graph());
                let at = format!("{what} k={k} {strategy:?} capacity={capacity}");
                assert_eq!(reference.checksum, out.checksum, "checksum: {at}");
                assert_eq!(reference.observables, out.observables, "observables: {at}");
                assert_eq!(
                    reference.stats.events_delivered, out.stats.events_delivered,
                    "events delivered: {at}"
                );
                assert_eq!(
                    reference.stats.dropped_at_horizon, out.stats.dropped_at_horizon,
                    "dropped at horizon: {at}"
                );
            }
        }
    }
}

#[test]
fn phold_is_bit_identical_across_shards_partitions_and_capacities() {
    model_matches_seq("phold", || {
        phold::build(
            PholdConfig {
                lps: 24,
                population: 4,
                lookahead: 3,
                remote_fraction: 0.6,
                mean_delay: 7.0,
            },
            17,
            600,
        )
    });
}

#[test]
fn queueing_network_is_bit_identical_across_shards_partitions_and_capacities() {
    model_matches_seq("mmc", || {
        queueing::build(
            MmcSpec {
                stations: 3,
                servers: 2,
                mean_interarrival: 6.0,
                mean_service: 9.0,
                feedback: Some(0.3),
            },
            99,
            3_000,
        )
    });
}

fn pick(rng: &mut DetRng, n: usize) -> usize {
    rng.range(0, n as u64) as usize
}

/// A node of the random graphs below: optionally a self-ticking
/// source, and a probabilistic router of whatever arrives — one hop on
/// a link drawn from its own stream, now and then a copy on every link,
/// always with a jittered (so non-monotone) delay above the lookahead.
struct Router {
    /// Self-event period; `None` never ticks.
    period: Option<u64>,
    /// Trailing out links this node never sends on: whatever hangs off
    /// them sees promises and terminal NULLs only.
    mute: usize,
    handled: u64,
    fold: u64,
}

impl Router {
    fn emit(&self, n: u64, ctx: &mut Ctx<'_, u64>) {
        let live = ctx.num_links() - self.mute;
        if live == 0 {
            return;
        }
        let links = if ctx.rng().chance(0.1) {
            0..live
        } else {
            let link = pick(ctx.rng(), live);
            link..link + 1
        };
        for link in links {
            let delay = ctx.lookahead(link) + ctx.rng().range(0, 6);
            ctx.send(link, delay, n);
        }
    }
}

impl Component<u64> for Router {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(period) = self.period {
            ctx.schedule_self(period, 0);
        }
    }

    fn on_event(&mut self, src: EventSource, n: u64, ctx: &mut Ctx<'_, u64>) {
        self.handled += 1;
        let port = match src {
            EventSource::Port(p) => p as u64 + 1,
            EventSource::SelfTimer => 0,
        };
        self.fold = self.fold.wrapping_mul(0x0100_0000_01b3) ^ (ctx.now() << 16) ^ (port << 8) ^ n;
        match src {
            EventSource::SelfTimer => {
                self.emit(n, ctx);
                let period = self.period.expect("only ticking nodes get self events");
                let gap = period + ctx.rng().range(0, 3);
                ctx.schedule_self(gap, n + 1);
            }
            EventSource::Port(_) => {
                if ctx.rng().chance(0.7) {
                    self.emit(n + 1, ctx);
                }
            }
        }
    }

    fn observables(&self, out: &mut Vec<(String, u64)>) {
        out.push(("handled".into(), self.handled));
        out.push(("fold".into(), self.fold));
    }
}

/// A random component graph, a pure function of `seed`: a ring of 4–9
/// routers (so every graph is cyclic) with as many random chords again
/// (fan-out and fan-in), lookahead 1..=8 per link, a node with no links
/// that only ever handles its own timer, and a node that sits on a
/// cycle but is never sent anything.
fn random_graph(seed: u64) -> ModelGraph<u64> {
    let mut rng = DetRng::new(seed);
    let routers = 4 + pick(&mut rng, 6);
    let mut links: Vec<(usize, usize, u64)> = (0..routers)
        .map(|i| (i, (i + 1) % routers, rng.range(1, 9)))
        .collect();
    for _ in 0..routers {
        let src = pick(&mut rng, routers);
        let dst = (src + 1 + pick(&mut rng, routers - 1)) % routers;
        links.push((src, dst, rng.range(1, 9)));
    }
    // The silent node hangs off `feeder`'s last (muted) link and feeds
    // back into the ring, so its neighbours advance on promises alone.
    let feeder = pick(&mut rng, routers);
    let silent = routers;
    links.push((feeder, silent, rng.range(1, 9)));
    links.push((silent, pick(&mut rng, routers), rng.range(1, 9)));

    let mut g = ModelGraph::new(seed, 300 + rng.range(0, 300));
    for i in 0..routers {
        let period = (i == 0 || rng.chance(0.4)).then(|| rng.range(3, 12));
        let mute = usize::from(i == feeder);
        g.add(format!("r{i}"), Router { period, mute, handled: 0, fold: 0 });
    }
    g.add("silent", Router { period: None, mute: 0, handled: 0, fold: 0 });
    g.add("timer", Router { period: Some(rng.range(2, 7)), mute: 0, handled: 0, fold: 0 });
    for (src, dst, lookahead) in links {
        g.link(src, dst, lookahead);
    }
    g
}

#[test]
fn random_model_graphs_are_bit_identical_across_shards_partitions_and_capacities() {
    for case in 0..24u64 {
        let seed = 0x5EED_0000 + case;
        model_matches_seq(&format!("random graph, generator seed {seed:#x}"), || {
            random_graph(seed)
        });
    }
}

fn circuit_fixture() -> (Circuit, Stimulus, DelayModel, SimOutput) {
    let c = kogge_stone_adder(16);
    let s = Stimulus::skewed_vectors(&c, 24, 2, 0xD15EA5E, 3);
    let d = DelayModel::standard();
    let reference = SeqWorksetEngine::new().run(&c, &s, &d);
    (c, s, d, reference)
}

#[test]
fn sharded_matches_seq_workset_across_shards_and_capacities() {
    let (c, s, d, reference) = circuit_fixture();
    for k in [1usize, 2, 4, 8] {
        for capacity in CAPACITIES {
            let cfg = EngineConfig::default()
                .with_shards(k)
                .with_mailbox_capacity(capacity);
            let out = build("sharded", &cfg).run(&c, &s, &d);
            check_equivalent(&reference, &out)
                .unwrap_or_else(|e| panic!("k={k} capacity={capacity}: {e}"));
            assert_eq!(
                out.stats.nulls_sent as usize,
                c.num_edges(),
                "terminal nulls, k={k} capacity={capacity}"
            );
        }
    }
}

#[test]
fn rebalancing_runs_stay_identical_at_every_capacity() {
    // Barrier markers, `Transferred` and `Retire` are staged behind
    // payload; a marker that overtook a staged event would let a shard
    // migrate a node while traffic for it is still in flight.
    let (c, s, d, reference) = circuit_fixture();
    let policy = RebalancePolicy {
        epoch_events: 32,
        min_imbalance_pct: 5,
        max_moves: 16,
    };
    for k in [2usize, 4] {
        for capacity in CAPACITIES {
            let cfg = EngineConfig::default()
                .with_shards(k)
                .with_mailbox_capacity(capacity)
                .with_rebalance(Some(policy));
            let out = build("sharded", &cfg).run(&c, &s, &d);
            check_equivalent(&reference, &out)
                .unwrap_or_else(|e| panic!("k={k} capacity={capacity}: {e}"));
        }
    }
}

#[test]
fn checkpoint_restore_stays_identical_at_every_capacity() {
    // The checkpoint cut relies on the same ordering: a peer's marker
    // proves all of its pre-snapshot payload has been delivered.
    let (c, s, d, reference) = circuit_fixture();
    for capacity in CAPACITIES {
        let dir =
            std::env::temp_dir().join(format!("des-fabric-ckpt-{capacity}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = EngineConfig::default()
            .with_shards(4)
            .with_mailbox_capacity(capacity)
            .with_checkpoints(40, &dir);
        build(
            "sharded",
            &base
                .clone()
                .with_fault_plan(FaultPlan::seeded(7).kill_rank_at_epoch(0, 2)),
        )
        .try_run(&c, &s, &d)
        .expect_err("the injected kill must fail the first life");
        let out = build("sharded", &base.with_restore(true))
            .try_run(&c, &s, &d)
            .unwrap_or_else(|e| panic!("capacity={capacity}: restored run failed: {e}"));
        check_equivalent(&reference, &out)
            .unwrap_or_else(|e| panic!("capacity={capacity}: restored run diverges: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
