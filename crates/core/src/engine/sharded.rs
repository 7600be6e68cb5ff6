//! The sharded conservative engine: partitioned Chandy–Misra over
//! message-passing shards.
//!
//! Where [`super::hj::HjEngine`] parallelizes at single-node granularity
//! over one shared workset (Algorithm 2), this engine splits the netlist
//! into K shards (`sim-shard`'s [`Partition`]) and runs one *sequential*
//! Chandy–Misra core per shard on its own thread — the PARSIR-style
//! architecture. `LocalShards` runs the cores through
//! [`ShardThreads`]: shards 0 to K−2 each get a scoped thread and the
//! thread calling `try_run` runs shard K−1; the distributed engine's
//! ranks use the same two layers. Shards share nothing; every
//! cross-shard edge carries its traffic through bounded, batched
//! mailboxes ([`shard::comm`]): a node run stages what it sends and the
//! link hands it over in one operation at the end of the run, when a
//! staging buffer fills, and before the shard blocks. What crosses:
//!
//! * **payload events**, delivered into the destination port's FIFO deque
//!   exactly as a local delivery would be (each input port has a single
//!   driver, and drivers emit in nondecreasing timestamp order, so FIFO
//!   channels preserve the per-port arrival invariant);
//! * **terminal NULLs** (Chandy–Misra termination), closing a cut edge
//!   when its source node forwards NULL;
//! * **lookahead NULLs**: when a shard goes idle it promises, per open
//!   outgoing cut edge, a clock floor of `LB(u) + delay(u) - 1` — no
//!   event at or below that time will ever cross the edge — letting the
//!   destination shard process events that were already safe without
//!   waiting for upstream payload traffic.
//!
//! The `- 1` in the promise is load-bearing for determinism: a promise of
//! exactly `LB + delay` would let a node process an event tied with a
//! *future* cross-shard arrival at the same timestamp, inverting the
//! deterministic `(time, port)` processing order the sequential engines
//! use. Keeping promises strictly below the earliest possible arrival
//! means timestamp ties are only ever resolved between events that are
//! physically present — the same resolution every other engine makes.
//!
//! ## Deadlock freedom
//!
//! The circuit is a DAG, so terminal NULLs alone guarantee termination:
//! events and NULLs flow forward in topological order regardless of the
//! cut (lookahead promises are a latency optimization, not a correctness
//! requirement). Bounded mailboxes add the classic cyclic-backpressure
//! risk (shard A full → B can't send → B never drains → A stays full); the
//! send loop breaks it by draining its *own* inbox between `try_send`
//! attempts, so every retry frees capacity somewhere in the cycle. The
//! PR-1 no-progress watchdog remains as the backstop that converts any
//! residual stall (injected wedge, future protocol bug) into a structured
//! [`SimError::NoProgress`] instead of a hang.
//!
//! ## Dynamic repartitioning
//!
//! With a [`RebalancePolicy`] installed the engine also runs an
//! *epoch-barrier migration protocol* (in-process fabric only — the
//! distributed engine always keeps its static partition):
//!
//! 1. Every shard counts events processed since the last barrier. A
//!    shard crossing `policy.epoch_events` either initiates a barrier
//!    (if it is the leader — the lowest shard it has not seen retire) or
//!    sends the leader a [`ShardMsg::BarrierRequest`].
//! 2. A barrier is an all-to-all round of [`ShardMsg::Barrier`] markers
//!    carrying telemetry (events this epoch, inbox depth). Markers ride
//!    the same FIFO mailboxes as payload traffic, so holding a peer's
//!    marker proves all its pre-barrier traffic has been delivered; a
//!    retired peer's [`ShardMsg::Retire`] stands in for its marker.
//! 3. Each shard then computes [`shard::plan_rebalance`] locally from
//!    the collected telemetry. The planner is a pure function of data
//!    every participant holds identically, so every shard computes the
//!    *same* plan and no plan broadcast is needed.
//! 4. If the plan moves nodes, donors park the complete per-node state
//!    (port queues, latch, waveform, `null_sent`) on a shared
//!    `MigrationBus`, apply the plan to their partition copy, and
//!    exchange [`ShardMsg::Transferred`]; nobody resumes until every
//!    active shard has both parked its donations and updated its
//!    routing. Payload arriving during that window is buffered and
//!    replayed after the new owners have adopted their nodes.
//!
//! Determinism is unaffected: conservative simulation produces identical
//! observables under *any* ownership of the nodes, and migration moves
//! port queues and latches intact, so the merged waveforms, node values,
//! and `events_delivered` are bit-identical with rebalancing on or off.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use circuit::{Circuit, DelayModel, NodeKind, NodeId, PortIx, Stimulus, Target};
use fault::{FaultPlan, NullWaitEntry, RunCtl, SimError, StallSnapshot, Watchdog};
use net::transport::{loopback, FabricProbe, Link, RecvTimeoutError, TryRecvError, TrySendError};
use obs::{Counter, SpanKind};
use shard::comm::{incoming_cut_edges, outgoing_cut_edges, CutEdge, ShardMsg};
use shard::{plan_rebalance, Partition, PartitionMetrics, RebalancePolicy, ShardId, ShardLoad};

use crate::engine::checkpoint::{self, CheckpointSink, NodeSnapshot, PortSnapshot, ShardSnapshot};
use crate::engine::config::EngineConfig;
use crate::engine::probe::RunProbe;
use crate::engine::threads::{ShardSlot, ShardThreads};
use crate::engine::{Engine, SimOutput};
use crate::event::{Event, Timestamp, NULL_TS};
use crate::monitor::Waveform;
use crate::node::{Latch, PortNode, PortQueue};
use crate::stats::SimStats;

/// Default per-shard inbox capacity. Small enough that backpressure is
/// real (a fast producer can't buffer an unbounded wavefront), large
/// enough that steady-state traffic rarely blocks.
pub(crate) const DEFAULT_MAILBOX_CAPACITY: usize = 256;

/// How long an idle shard blocks on its inbox before re-checking
/// cancellation and re-offering lookahead promises.
const IDLE_RECV_TIMEOUT: Duration = Duration::from_millis(1);

/// The same wait while some of this shard's own output is still held
/// back by a full destination: whoever makes room does not notify the
/// sender, so it polls for room instead of sleeping a whole idle period.
const BACKLOGGED_RECV_TIMEOUT: Duration = Duration::from_micros(50);

/// Partitioned conservative engine: one sequential Chandy–Misra core per
/// shard, cross-shard traffic over bounded mailboxes.
pub struct ShardedEngine {
    cfg: EngineConfig,
}

impl ShardedEngine {
    /// Build the engine from the unified [`EngineConfig`], the one place
    /// its knobs are set.
    pub fn from_config(cfg: &EngineConfig) -> Self {
        ShardedEngine { cfg: cfg.clone() }
    }

    /// The engine's fault plan (for asserting on injection counts).
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        self.cfg.fault()
    }
}

impl Engine for ShardedEngine {
    fn name(&self) -> String {
        let tag = if self.cfg.rebalance().is_some() {
            ",reb"
        } else if self.cfg.checkpoint().is_some() {
            ",ckpt"
        } else {
            ""
        };
        format!(
            "sharded[k={},{}{tag}]",
            self.cfg.shards(),
            self.cfg.strategy().name()
        )
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        let wall_start = Instant::now();
        let (outcomes, imbalance_pct) = self.run_shards(circuit, stimulus, delays)?;
        let output = merge_outcomes(circuit, outcomes, imbalance_pct);
        output.stats.publish_ranked(
            &self.cfg.recorder(),
            &self.name(),
            self.cfg.rank(),
            wall_start.elapsed(),
        );
        Ok(output)
    }
}

impl ShardedEngine {
    /// Partition, run every shard to completion over the in-process
    /// loopback fabric, and return the per-shard outcomes in shard order
    /// with the partition's node-count imbalance. The engine is rank 0
    /// of a one-rank run: it owns every shard.
    fn run_shards(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<(Vec<ShardOutcome>, u64), SimError> {
        let shards = LocalShards::new(circuit, stimulus, delays, &self.cfg, self.name(), 0, 1)?;
        let (links, probe) = loopback(self.cfg.shards(), self.cfg.mailbox_capacity());
        let watchdog = shards.watch(probe);
        let outcomes = shards.run(links, |_| {});
        if let Some(dog) = watchdog {
            dog.disarm();
        }
        let outcomes = outcomes?;
        // Cores publish progress once per node run, idle wait or control
        // message, never per event.
        #[cfg(debug_assertions)]
        {
            let node_runs: u64 = outcomes.iter().map(|o| o.stats.node_runs).sum();
            let waits_and_controls = shards.waits_and_controls.load(Ordering::Relaxed);
            assert!(
                shards.ctl.publications() <= node_runs + waits_and_controls,
                "per-event publications"
            );
        }
        Ok((outcomes, shards.metrics.load_imbalance_pct))
    }
}

/// One rank's local shard cores for one run, and everything they share:
/// the partition, checkpoint wiring, the barrier bus, the wait matrix
/// and the [`ShardThreads`] that run them. The in-process engine is one
/// rank owning every shard; each distributed rank owns its block.
pub(crate) struct LocalShards<'a> {
    circuit: &'a Circuit,
    stimulus: &'a Stimulus,
    delays: &'a DelayModel,
    cfg: &'a EngineConfig,
    engine: String,
    pub(crate) partition: Arc<Partition>,
    pub(crate) metrics: PartitionMetrics,
    /// Global ids of this rank's shards.
    pub(crate) local: Range<usize>,
    pub(crate) ctl: Arc<RunCtl>,
    /// Epoch-barrier bus and policy: `Some` under rebalancing or
    /// checkpointing (which rides the same protocol under a policy whose
    /// planner never moves a node).
    barrier: Option<(MigrationBus, RebalancePolicy)>,
    pub(crate) ckpt: Option<CkptSetup>,
    pub(crate) threads: Arc<ShardThreads>,
    /// Indexed by global shard id; only this rank's rows are written
    /// locally (remote ranks report theirs via telemetry).
    waits: Arc<WaitMatrix>,
    /// Idle waits plus control messages handled, summed over the local
    /// cores when they finish: with node runs, the bound on progress
    /// publications.
    waits_and_controls: AtomicU64,
}

impl<'a> LocalShards<'a> {
    /// Set up rank `rank` of `ranks` for a run of `cfg`: reset the fault
    /// plan, partition and, when checkpointing, load this rank's slice of
    /// the checkpoint being restored.
    pub(crate) fn new(
        circuit: &'a Circuit,
        stimulus: &'a Stimulus,
        delays: &'a DelayModel,
        cfg: &'a EngineConfig,
        engine: String,
        rank: usize,
        ranks: usize,
    ) -> Result<Self, SimError> {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        assert!(
            cfg.rebalance().is_none() || cfg.checkpoint().is_none(),
            "checkpointing and dynamic repartitioning are mutually exclusive"
        );
        cfg.fault().reset();
        let partition = Arc::new(Partition::build(circuit, cfg.shards(), cfg.strategy()));
        let local = net::shards_of_process(cfg.shards(), ranks, rank);
        let barrier = cfg
            .rebalance()
            .or_else(|| {
                cfg.checkpoint()
                    .map(|cc| checkpoint_policy(cc.every_events))
            })
            .map(|policy| (MigrationBus::new(circuit.num_nodes()), policy));
        Ok(LocalShards {
            ckpt: checkpoint_setup(cfg, circuit, &partition, rank, ranks, local.clone())?,
            threads: ShardThreads::new(local.len()),
            metrics: partition.metrics(circuit),
            waits: Arc::new(WaitMatrix::new(cfg.shards())),
            waits_and_controls: AtomicU64::new(0),
            ctl: Arc::new(RunCtl::new()),
            circuit,
            stimulus,
            delays,
            cfg,
            engine,
            partition,
            local,
            barrier,
        })
    }

    /// Arm the watchdog over this rank's shard threads and `probe`, its
    /// view of the fabric. The caller disarms it.
    pub(crate) fn watch(&self, probe: impl FabricProbe + 'static) -> Option<Watchdog> {
        let waits = Arc::clone(&self.waits);
        let metrics = self.metrics.clone();
        self.threads
            .watch(&self.engine, &self.ctl, self.cfg, move |snap| {
                fabric_stall(snap, &probe, &waits, &metrics)
            })
    }

    /// Run one shard core per link (in local shard order) on the shard
    /// threads. `prepare` runs on each shard's thread, before the core
    /// is built.
    pub(crate) fn run<L: Link>(
        &self,
        links: Vec<L>,
        prepare: impl Fn(&mut L) + Sync,
    ) -> Result<Vec<ShardOutcome>, SimError> {
        self.threads.run(&self.ctl, links, |mut link| {
            prepare(&mut link);
            let mut core = ShardCore::new(self, link);
            core.run();
            self.waits_and_controls
                .fetch_add(core.waits_and_controls, Ordering::Relaxed);
            core.into_outcome()
        })
    }
}

/// Merge per-shard results into one `SimOutput`. Shared with the
/// distributed engine, whose coordinator merges outcomes it received
/// over the wire together with its own local shards'.
pub(crate) fn merge_outcomes(
    circuit: &Circuit,
    mut outcomes: Vec<ShardOutcome>,
    imbalance_pct: u64,
) -> SimOutput {
    let mut stats = SimStats::default();
    for outcome in &outcomes {
        stats.merge(&outcome.stats);
    }
    stats.max_shard_imbalance_pct = imbalance_pct;
    stats.shard_load_imbalance_pct = observed_load_imbalance(&outcomes);
    let mut values = vec![None; circuit.num_nodes()];
    for outcome in &outcomes {
        for &(ix, v) in &outcome.values {
            values[ix] = Some(v);
        }
    }
    let node_values = values
        .into_iter()
        .map(|v| v.expect("every node owned by exactly one shard"))
        .collect();
    let mut waveform_slots: Vec<Option<Waveform>> = vec![None; circuit.outputs().len()];
    for outcome in &mut outcomes {
        for (out_ix, wf) in outcome.waveforms.drain(..) {
            waveform_slots[out_ix] = Some(wf);
        }
    }
    let waveforms = waveform_slots
        .into_iter()
        .map(|w| w.expect("every output owned by exactly one shard"))
        .collect();
    SimOutput {
        stats,
        waveforms,
        node_values,
    }
}

/// Observed processed-event imbalance across the shards that ended the
/// run owning at least one node: how far (in percent) the busiest shard
/// exceeded a perfectly even split. This is the figure rebalancing
/// exists to lower; contrast `max_shard_imbalance_pct`, the planner's
/// static node-count estimate.
fn observed_load_imbalance(outcomes: &[ShardOutcome]) -> u64 {
    let loads: Vec<u64> = outcomes
        .iter()
        .filter(|o| !o.values.is_empty())
        .map(|o| o.stats.events_processed)
        .collect();
    let total: u64 = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 0;
    }
    let max = *loads.iter().max().expect("nonempty");
    let ideal = (total as f64 / loads.len() as f64).max(1.0);
    ((max as f64 / ideal - 1.0) * 100.0).round().max(0.0) as u64
}

/// What the circuit fabric adds to a stall snapshot: inbox depths,
/// per-peer link depths for socket fabrics (both read through the
/// fabric probe without touching simulation state), the NULL-wait
/// matrix, and the partition's shape.
pub(crate) fn fabric_stall(
    snap: &mut StallSnapshot,
    probe: &dyn FabricProbe,
    waits: &WaitMatrix,
    metrics: &PartitionMetrics,
) {
    snap.queue_depths = probe.inbox_depths();
    snap.links = probe.link_depths();
    snap.null_waits = waits.snapshot();
    snap.notes.push(format!(
        "partition: {} cut edges, {}% load imbalance",
        metrics.cut_edges, metrics.load_imbalance_pct
    ));
}

/// Shared per-link blocked-on-NULL wait accounting: cell `(w, p)` is
/// the total nanoseconds shard `w` spent idle-blocked while shard `p`
/// held the lowest incoming channel clock — "p stalled w". Written
/// lock-free (relaxed adds) by the waiting shard thread, read by the
/// watchdog's stall snapshot and the straggler report. Barrier waits
/// (checkpoint / rebalance epochs) fold into the same matrix,
/// attributed to the first peer whose marker is missing.
pub(crate) struct WaitMatrix {
    n: usize,
    cells: Vec<AtomicU64>,
}

impl WaitMatrix {
    pub(crate) fn new(n: usize) -> WaitMatrix {
        WaitMatrix {
            n,
            cells: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Charge `ns` of shard `waiter`'s blocked time to `peer`.
    pub(crate) fn add(&self, waiter: ShardId, peer: ShardId, ns: u64) {
        debug_assert!(waiter < self.n && peer < self.n);
        self.cells[waiter * self.n + peer].fetch_add(ns, Ordering::Relaxed);
    }

    /// Every nonzero cell as a [`NullWaitEntry`], worst wait first —
    /// the first entry names the run's straggler.
    pub(crate) fn snapshot(&self) -> Vec<NullWaitEntry> {
        let mut entries: Vec<NullWaitEntry> = (0..self.n)
            .flat_map(|w| (0..self.n).map(move |p| (w, p)))
            .filter_map(|(w, p)| {
                let ns = self.cells[w * self.n + p].load(Ordering::Relaxed);
                (ns > 0).then_some(NullWaitEntry {
                    waiter_shard: w,
                    peer_shard: p,
                    wait_ns: ns,
                })
            })
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.wait_ns));
        entries
    }
}

/// What one shard hands back after a clean run.
pub(crate) struct ShardOutcome {
    pub(crate) stats: SimStats,
    /// `(node index, settled value)` for every owned node.
    pub(crate) values: Vec<(usize, circuit::Logic)>,
    /// `(index into circuit.outputs(), waveform)` for every owned output.
    pub(crate) waveforms: Vec<(usize, Waveform)>,
}

/// Shared-memory handoff for migrating node state: one slot per node,
/// filled by the donor before it sends [`ShardMsg::Transferred`] and
/// emptied by the new owner after it holds a `Transferred` from every
/// active peer — the channel round is what sequences the lock accesses.
/// A node's state and its port queues *are* its complete simulation
/// state, and the queues own their events, so a migrated node moves
/// wholesale and resumes exactly where the donor stopped.
pub(crate) struct MigrationBus {
    slots: Vec<Mutex<Option<PortNode>>>,
}

impl MigrationBus {
    pub(crate) fn new(num_nodes: usize) -> Self {
        MigrationBus {
            slots: (0..num_nodes).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn park(&self, ix: usize, node: PortNode) {
        let prev = self.slots[ix].lock().unwrap().replace(node);
        debug_assert!(prev.is_none(), "node {ix} parked twice");
    }

    fn take(&self, ix: usize) -> PortNode {
        self.slots[ix]
            .lock()
            .unwrap()
            .take()
            .expect("migrated node parked before Transferred")
    }
}

// ---------------------------------------------------------------------------
// Deterministic checkpointing (DESIGN.md §12).

/// The epoch-barrier policy a checkpointing run installs: barriers fire
/// on the checkpoint interval, and the planner can never find enough
/// imbalance to move a node — every barrier is a pure snapshot point.
pub(crate) fn checkpoint_policy(every_events: u64) -> RebalancePolicy {
    RebalancePolicy {
        epoch_events: every_events,
        min_imbalance_pct: u64::MAX,
        max_moves: 0,
    }
}

/// `result[node][port]` = shard owning the driver of that input port.
/// Used to tell, for an incoming payload message, whether its sender has
/// already snapshotted this epoch (its barrier marker is held). Static:
/// checkpointing excludes rebalancing, so ownership never changes.
pub(crate) fn port_source_shards(circuit: &Circuit, partition: &Partition) -> Vec<Vec<ShardId>> {
    let mut map: Vec<Vec<ShardId>> = (0..circuit.num_nodes())
        .map(|ix| vec![0; circuit.node(NodeId(ix as u32)).kind.num_inputs()])
        .collect();
    for ix in 0..circuit.num_nodes() {
        let id = NodeId(ix as u32);
        let src = partition.shard_of(id);
        for &t in &circuit.node(id).fanout {
            map[t.node.index()][t.port as usize] = src;
        }
    }
    map
}

/// Per-rank checkpoint wiring shared by every local shard core.
pub(crate) struct CkptSetup {
    pub(crate) sink: Arc<CheckpointSink>,
    pub(crate) rank: u64,
    pub(crate) src_shard: Arc<Vec<Vec<ShardId>>>,
    /// `Some((epoch, per-shard snapshots))` when resuming.
    pub(crate) resume: Option<(u64, BTreeMap<u64, ShardSnapshot>)>,
}

impl CkptSetup {
    /// The spec one shard core takes ownership of.
    pub(crate) fn spec_for(&self, shard: ShardId) -> CkptSpec {
        CkptSpec {
            sink: Arc::clone(&self.sink),
            rank: self.rank,
            src_shard: Arc::clone(&self.src_shard),
            resume: self.resume.as_ref().map(|(epoch, snaps)| {
                let snap = snaps
                    .get(&(shard as u64))
                    .unwrap_or_else(|| {
                        panic!("checkpoint epoch {epoch} has no snapshot for shard {shard}")
                    })
                    .clone();
                (*epoch, snap)
            }),
        }
    }

    /// The epoch being resumed from (0 when starting fresh) — the
    /// distributed engine's session epoch.
    pub(crate) fn session_epoch(&self) -> u64 {
        self.resume.as_ref().map_or(0, |(e, _)| *e)
    }
}

/// When `cfg` checkpoints, build rank `rank`'s checkpoint sink over its
/// `local` shards and, when restoring, load its slice of the newest
/// consistent checkpoint of the `ranks`-rank session.
fn checkpoint_setup(
    cfg: &EngineConfig,
    circuit: &Circuit,
    partition: &Partition,
    rank: usize,
    ranks: usize,
    local: Range<usize>,
) -> Result<Option<CkptSetup>, SimError> {
    let Some(cc) = cfg.checkpoint() else {
        return Ok(None);
    };
    let (rank, recorder) = (rank as u64, cfg.recorder());
    let local = local.map(|s| s as u64).collect();
    let sink = CheckpointSink::new(cc.dir.clone(), rank, local, &recorder)
        .map_err(|e| SimError::invariant(format!("checkpoint dir {}: {e}", cc.dir.display())))?;
    let resume = if cfg.restore() {
        match checkpoint::latest_consistent_epoch(&cc.dir, ranks) {
            Some(epoch) => {
                let snaps = checkpoint::load_rank(&cc.dir, epoch, rank)
                    .map_err(SimError::invariant)?
                    .into_iter()
                    .map(|s| (s.shard, s))
                    .collect();
                recorder
                    .counter("sim_recoveries_total", &[("rank", &rank.to_string())])
                    .inc();
                Some((epoch, snaps))
            }
            None => None,
        }
    } else {
        None
    };
    Ok(Some(CkptSetup {
        sink: Arc::new(sink),
        rank,
        src_shard: Arc::new(port_source_shards(circuit, partition)),
        resume,
    }))
}

/// One shard core's checkpoint handle (see [`CkptSetup`]).
pub(crate) struct CkptSpec {
    sink: Arc<CheckpointSink>,
    rank: u64,
    src_shard: Arc<Vec<Vec<ShardId>>>,
    /// Consumed by `ShardCore::new`: `(checkpoint epoch, snapshot)`.
    resume: Option<(u64, ShardSnapshot)>,
}

/// Why a shard's loop stopped before normal termination.
struct Stopped;

/// Per-shard state of the epoch-barrier rebalancing protocol.
struct RebalanceRt<'a> {
    policy: RebalancePolicy,
    bus: &'a MigrationBus,
    /// Current epoch number; all active shards advance it in lockstep.
    epoch: u64,
    /// Events processed since the last barrier (the telemetry a marker
    /// carries).
    events: u64,
    /// This shard already asked the leader for a barrier this epoch.
    requested: bool,
    /// A barrier must run at the next safe point.
    pending: bool,
    /// Inside `run_epoch` (markers for the current epoch must not
    /// re-trigger `pending`).
    in_epoch: bool,
    /// Inside the transfer wait: buffer payload into `held` because it
    /// may target nodes not yet adopted from the bus.
    in_transfer: bool,
    /// Telemetry collected from each shard's marker this epoch.
    markers: Vec<Option<ShardLoad>>,
    /// Which peers have parked their donations this epoch.
    transferred: Vec<bool>,
    /// Which peers have retired (their `Retire` stands in for markers).
    retired: Vec<bool>,
    /// Payload buffered during the transfer wait, replayed after the
    /// arrivals are adopted.
    held: Vec<ShardMsg>,
    /// Control traffic for the *next* epoch, from peers that finished
    /// this epoch first; replayed after the local epoch rollover.
    deferred: Vec<ShardMsg>,
}

impl<'a> RebalanceRt<'a> {
    fn new(bus: &'a MigrationBus, policy: RebalancePolicy, num_shards: usize) -> Self {
        RebalanceRt {
            policy,
            bus,
            epoch: 1,
            events: 0,
            requested: false,
            pending: false,
            in_epoch: false,
            in_transfer: false,
            markers: vec![None; num_shards],
            transferred: vec![false; num_shards],
            retired: vec![false; num_shards],
            held: Vec::new(),
            deferred: Vec::new(),
        }
    }
}

/// One shard's sequential Chandy–Misra core plus its transport link.
/// Generic over [`Link`] so the same core drives the in-process
/// loopback fabric and the TCP fabric unchanged.
pub(crate) struct ShardCore<'a, L: Link> {
    shard: ShardId,
    circuit: &'a Circuit,
    stimulus: &'a Stimulus,
    /// This shard's copy of the node→shard map. Starts identical on
    /// every shard and stays identical: every shard applies every
    /// rebalance plan, and the plans are deterministic functions of
    /// barrier data all participants hold.
    partition: Partition,
    ctl: &'a RunCtl,
    fault: &'a FaultPlan,
    /// Indexed by `NodeId::index`; `Some` iff this shard owns the node.
    nodes: Vec<Option<PortNode>>,
    owned: Vec<NodeId>,
    link: L,
    /// Open outgoing cut edges, with the last promised clock floor per
    /// edge (promise suppression: only strictly increasing floors are
    /// worth a message).
    cut_out: Vec<CutEdge>,
    last_floor: Vec<Timestamp>,
    /// Incoming cut edges as `(source shard, local target port)` — the
    /// candidate culprits when this shard idles waiting for NULLs.
    cut_in: Vec<(ShardId, Target)>,
    /// Where idle-blocked time is charged, shared with the watchdog.
    waits: &'a WaitMatrix,
    /// Lazily minted `sim_null_wait_ns_total{peer}` counters, one per
    /// peer shard this core has ever blamed for a wait.
    null_wait: Vec<Option<Counter>>,
    workset: VecDeque<NodeId>,
    queued: Vec<bool>,
    /// Index into `circuit.inputs()` per node index (`u32::MAX` for
    /// nodes that are not inputs).
    input_ix: Vec<u32>,
    /// Progress not yet reported to `ctl`, published when a node run ends
    /// and before a blocking wait: the counter's cache line is shared by
    /// every shard, so it is not touched per event or per message.
    ticks: u64,
    /// Idle waits and control messages handled: each publishes progress.
    waits_and_controls: u64,
    stats: SimStats,
    temp: Vec<(PortIx, Event)>,
    /// Events queued on this shard's ports right now.
    events_queued: usize,
    /// Most events ever queued at once, sampled before each decrease
    /// (drain, park): a peak is always followed by one, or is still
    /// `events_queued`.
    events_high: usize,
    /// Where this shard publishes its queued events for stall snapshots.
    slot: &'a ShardSlot,
    /// `Some` iff dynamic repartitioning is enabled for this run.
    reb: Option<RebalanceRt<'a>>,
    /// `Some` iff deterministic checkpointing is enabled for this run.
    ckpt: Option<CkptSpec>,
    /// True when this core was rebuilt from a checkpoint snapshot.
    resumed: bool,
    /// This shard's tracing + timing handles (one ring per shard thread).
    probe: RunProbe,
}

impl<'a, L: Link> ShardCore<'a, L> {
    /// Build the core for `link`'s shard on the calling shard thread.
    pub(crate) fn new(shards: &'a LocalShards<'a>, link: L) -> Self {
        let (circuit, delays) = (shards.circuit, shards.delays);
        let partition = (*shards.partition).clone();
        let shard = link.shard();
        let owned = partition.nodes_of(shard);
        let mut nodes: Vec<Option<PortNode>> = (0..circuit.num_nodes()).map(|_| None).collect();
        for &id in &owned {
            nodes[id.index()] = Some(PortNode::new(circuit.node(id).kind, delays));
        }
        let mut events_queued = 0;
        let cut_out = outgoing_cut_edges(circuit, &partition, shard);
        let last_floor = vec![0; cut_out.len()];
        let cut_in = incoming_cut_edges(circuit, &partition, shard);
        let num_shards = partition.num_shards();
        let mut reb = shards
            .barrier
            .as_ref()
            .map(|(bus, policy)| RebalanceRt::new(bus, *policy, num_shards));
        let mut input_ix = vec![u32::MAX; circuit.num_nodes()];
        for (ix, id) in circuit.inputs().iter().enumerate() {
            input_ix[id.index()] = ix as u32;
        }

        // Restore: overwrite the fresh per-node state with the snapshot's
        // and fast-forward the epoch counter past the restored barrier.
        let mut ckpt = shards.ckpt.as_ref().map(|setup| setup.spec_for(shard));
        let mut stats = SimStats::default();
        let mut resumed = false;
        if let Some((epoch, snap)) = ckpt.as_mut().and_then(|ck| ck.resume.take()) {
            assert_eq!(snap.shard, shard as u64, "snapshot routed to wrong shard");
            assert_eq!(
                snap.nodes.len(),
                owned.len(),
                "snapshot does not cover this shard's nodes (partition changed?)"
            );
            stats = SimStats::from_array(snap.stats);
            for ns in &snap.nodes {
                let slot = nodes[ns.id as usize]
                    .as_mut()
                    .expect("snapshot node is owned by this shard");
                slot.state.null_sent = ns.null_sent;
                slot.state.latch = Latch(ns.latch);
                slot.ports = ns
                    .ports
                    .iter()
                    .map(|p| PortQueue::restore(p.last_ts, p.events.iter().copied()))
                    .collect();
                events_queued += slot.queued_events();
                let mut wf = Waveform::new();
                for &e in &ns.waveform {
                    wf.record(e);
                }
                slot.state.waveform = wf;
            }
            if let Some(rt) = reb.as_mut() {
                rt.epoch = epoch + 1;
            }
            resumed = true;
        }
        ShardCore {
            shard,
            circuit,
            stimulus: shards.stimulus,
            partition,
            ctl: &shards.ctl,
            fault: shards.cfg.fault(),
            nodes,
            owned,
            link,
            cut_out,
            last_floor,
            cut_in,
            waits: &shards.waits,
            null_wait: (0..num_shards).map(|_| None).collect(),
            workset: VecDeque::new(),
            queued: vec![false; circuit.num_nodes()],
            input_ix,
            ticks: 0,
            waits_and_controls: 0,
            stats,
            temp: Vec::new(),
            events_queued,
            events_high: events_queued,
            slot: shards.threads.slot(shard - shards.local.start),
            reb,
            ckpt,
            resumed,
            probe: RunProbe::with_rank(
                &shards.cfg.recorder(),
                &shards.engine,
                &format!("shard-{shard}"),
                shards.cfg.rank(),
            ),
        }
    }

    fn node(&self, id: NodeId) -> &PortNode {
        self.nodes[id.index()].as_ref().expect("owned node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut PortNode {
        self.nodes[id.index()].as_mut().expect("owned node")
    }

    fn owns(&self, id: NodeId) -> bool {
        self.partition.shard_of(id) == self.shard
    }

    /// Publish this shard's queued events where the watchdog and metrics
    /// can see them (relaxed stores: diagnostic, not synchronizing).
    fn publish_queued(&self) {
        self.slot.record_queued(self.events_queued);
        self.probe.queued(self.events_queued, self.events_high.max(self.events_queued));
    }

    /// The shard's main loop: drain inbox, run active nodes, and when
    /// idle offer lookahead promises, flush the transport, and block
    /// briefly on the inbox.
    pub(crate) fn run(&mut self) {
        if self.fault.is_active() && self.fault.should_panic_shard(self.shard as u64) {
            self.ctl.record_error(SimError::TaskPanicked {
                node: None,
                payload: "injected shard panic".into(),
            });
            panic!("fault injection: panic in shard {}", self.shard);
        }
        if self.resumed {
            // Activity is a pure function of restored per-node state, so
            // re-deriving it from scratch resumes the exact frontier:
            // inputs that had not yet emitted re-run their full stimulus
            // (input runs are atomic between epoch safe points), gates
            // with ready events re-queue, everything else stays parked.
            for id in self.owned.clone() {
                self.activate(id);
            }
        } else {
            let inputs: Vec<NodeId> = self
                .owned
                .iter()
                .copied()
                .filter(|&id| matches!(self.node(id).state.kind, NodeKind::Input))
                .collect();
            for id in inputs {
                self.activate(id);
            }
        }
        loop {
            self.publish_queued();
            if self.ctl.is_cancelled() {
                return;
            }
            self.drain_inbox();
            if self.maybe_epoch().is_err() {
                return;
            }
            while let Some(id) = self.workset.pop_front() {
                self.queued[id.index()] = false;
                if self.ctl.is_cancelled() {
                    return;
                }
                if self.fault.is_active() && self.fault_hooks(id).is_err() {
                    return;
                }
                if self.run_node(id).is_err() {
                    return;
                }
                // Keep the inbox shallow while churning through the
                // workset: cheap, and it keeps upstream senders unblocked.
                self.drain_inbox();
                // The hot shard's workset may never run dry, so the epoch
                // safe point must live inside the drain loop too.
                if self.maybe_epoch().is_err() {
                    return;
                }
            }
            if self.owned.iter().all(|&id| self.node(id).state.null_sent) {
                debug_assert!(self.workset.is_empty());
                // Clean Chandy–Misra termination. Tell the rebalancing
                // peers we will never answer another barrier, then push
                // every coalesced message to the wire before retiring:
                // downstream shards still need the events and terminal
                // NULLs we batched.
                if self.reb.is_some() && self.broadcast_control(retire_msg(self.shard)).is_err() {
                    return;
                }
                // Terminal snapshot: stands in for this shard in every
                // later checkpoint epoch (its state is a fixed point).
                if let Some(sink) = self.ckpt.as_ref().map(|ck| Arc::clone(&ck.sink)) {
                    sink.submit_final(self.snapshot());
                }
                self.final_flush();
                return;
            }
            // Idle: nothing runnable until a message arrives. Promise
            // clock floors downstream, hand over everything the link is
            // still holding, then block briefly.
            if self.send_lookahead_nulls().is_err() {
                return;
            }
            let Ok(wait) = self.flush_before_wait() else {
                return; // fabric torn down
            };
            if !self.workset.is_empty() {
                continue; // inbox drain inside a send loop found work
            }
            // This block is the blocked-on-NULL state: nothing runnable
            // until an upstream shard advances a channel clock. Charge
            // the time to whichever peer's clock is holding us back.
            let culprit = self.blocking_peer();
            let waited = Instant::now();
            match self.link.recv_timeout(wait) {
                Ok(msg) => {
                    self.note_null_wait(culprit, waited.elapsed());
                    self.handle(msg)
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.note_null_wait(culprit, waited.elapsed())
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every other shard is gone but we are not done: the
                    // run is wedged (or cancelled); don't spin while the
                    // watchdog/cancellation decides.
                    std::thread::sleep(IDLE_RECV_TIMEOUT);
                }
            }
        }
    }

    /// Publish pending progress and hand the link's coalesced traffic over
    /// before a blocking wait (a peer may be waiting for what it still
    /// holds); the wait is a full idle period when everything went out, a
    /// short poll when a full destination held some of it back.
    fn flush_before_wait(&mut self) -> Result<Duration, Stopped> {
        self.waits_and_controls += 1;
        self.ctl.tick_n(std::mem::take(&mut self.ticks));
        match self.link.flush() {
            Ok(true) => Ok(IDLE_RECV_TIMEOUT),
            Ok(false) => Ok(BACKLOGGED_RECV_TIMEOUT),
            Err(_) => Err(Stopped),
        }
    }

    /// Which peer shard to blame for an idle wait: the source of the
    /// incoming cut edge whose receive clock is lowest (ties to the
    /// lowest shard id, for determinism). That channel is the binding
    /// constraint — every other input has promised at least as far.
    /// `None` when every incoming edge has already delivered its
    /// terminal NULL (then the wait is on local work, not a peer).
    fn blocking_peer(&self) -> Option<ShardId> {
        let mut best: Option<(Timestamp, ShardId)> = None;
        for &(src_shard, target) in &self.cut_in {
            let Some(node) = self.nodes[target.node.index()].as_ref() else {
                continue; // migrated away since the list was built
            };
            let ts = node.ports[target.port as usize].last_ts();
            if ts == NULL_TS {
                continue;
            }
            if best.is_none_or(|b| (ts, src_shard) < b) {
                best = Some((ts, src_shard));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Record one idle-blocked interval against `peer` in the shared
    /// wait matrix and the per-peer `sim_null_wait_ns_total` counter.
    fn note_null_wait(&mut self, peer: Option<ShardId>, waited: Duration) {
        let ns = waited.as_nanos() as u64;
        let Some(peer) = peer else { return };
        if ns == 0 {
            return;
        }
        self.waits.add(self.shard, peer, ns);
        if self.probe.is_enabled() {
            let probe = &self.probe;
            let counter = self.null_wait[peer].get_or_insert_with(|| {
                probe.counter("sim_null_wait_ns_total", &[("peer", &peer.to_string())])
            });
            counter.add(ns);
        }
    }

    /// Drive [`Link::flush`] to completion at clean termination. `false`
    /// from flush means traffic is still queued behind a momentarily
    /// full outbox (or an in-flight writer): drain our inbox — we may
    /// still be handed lookahead promises we no longer need — and retry.
    fn final_flush(&mut self) {
        loop {
            match self.link.flush() {
                Ok(true) => return,
                Ok(false) => {
                    if self.ctl.is_cancelled() {
                        return;
                    }
                    self.drain_inbox();
                    std::thread::yield_now();
                }
                Err(_) => return, // peer gone; the error is already recorded
            }
        }
    }

    /// Fault-plan decision points at a node activation (mirrors the HJ
    /// engine's task body).
    fn fault_hooks(&mut self, id: NodeId) -> Result<(), Stopped> {
        if self.fault.is_wedged() {
            // Deliberate wedge (watchdog tests): hold the node and make no
            // progress until the watchdog cancels the run.
            while !self.ctl.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            return Err(Stopped);
        }
        if self.fault.should_panic_spawn() {
            self.ctl.record_error(SimError::TaskPanicked {
                node: Some(id.index()),
                payload: "injected task panic".into(),
            });
            panic!("fault injection: task panic at node {}", id.index());
        }
        if let Some(delay) = self.fault.straggler_delay() {
            std::thread::sleep(delay);
        }
        Ok(())
    }

    /// Queue an owned node if it is active and not already queued.
    fn activate(&mut self, id: NodeId) {
        debug_assert!(self.owns(id));
        if self.queued[id.index()] {
            return;
        }
        if self.node(id).is_active() {
            self.queued[id.index()] = true;
            self.workset.push_back(id);
        }
    }

    /// Non-blocking inbox drain: route every pending message into its
    /// port queue and re-check the destination's activity.
    fn drain_inbox(&mut self) {
        loop {
            match self.link.try_recv() {
                Ok(msg) => self.handle(msg),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
            }
        }
    }

    /// True while payload must be buffered instead of applied (transfer
    /// wait: it may target nodes not yet adopted from the bus).
    fn buffering(&self) -> bool {
        self.reb.as_ref().is_some_and(|rt| rt.in_transfer)
    }

    /// Checkpoint-epoch buffering: payload from a peer whose barrier
    /// marker we already hold was sent *after* that peer's snapshot.
    /// Applying it before our own snapshot would bake post-cut traffic
    /// into the checkpoint — traffic the sender deterministically
    /// regenerates after a restore, so it would be delivered twice. Hold
    /// it until the epoch rolls over (markers clear at rollover, so the
    /// condition self-releases). See DESIGN.md §12.
    fn ckpt_holds(&self, target: Target) -> bool {
        let (Some(ck), Some(rt)) = (&self.ckpt, &self.reb) else {
            return false;
        };
        let src = ck.src_shard[target.node.index()][usize::from(target.port)];
        src != self.shard && rt.markers[src].is_some()
    }

    /// This shard's complete Chandy–Misra state for the checkpoint cut.
    fn snapshot(&self) -> ShardSnapshot {
        let nodes = self
            .owned
            .iter()
            .map(|&id| {
                let n = self.node(id);
                NodeSnapshot {
                    id: id.index() as u64,
                    null_sent: n.state.null_sent,
                    latch: n.state.latch.0,
                    ports: n
                        .ports
                        .iter()
                        .map(|p| PortSnapshot {
                            last_ts: p.last_ts(),
                            events: p.snapshot_events(),
                        })
                        .collect(),
                    waveform: n.state.waveform.events().to_vec(),
                }
            })
            .collect();
        ShardSnapshot {
            shard: self.shard as u64,
            stats: self.stats.as_array(),
            nodes,
        }
    }

    /// Apply one cross-shard message.
    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Event { target, time, value } => {
                if self.buffering() || self.ckpt_holds(target) {
                    self.reb.as_mut().expect("buffering").held.push(msg);
                    return;
                }
                debug_assert!(self.owns(target.node), "message routed to wrong shard");
                self.stats.events_delivered += 1;
                self.probe
                    .hot_instant(SpanKind::EventDeliver, target.node.index() as u64, time);
                self.ticks += 1;
                self.nodes[target.node.index()]
                    .as_mut()
                    .expect("owned node")
                    .ports[target.port as usize]
                    .push_event(Event::new(time, value));
                self.events_queued += 1;
                self.activate(target.node);
            }
            ShardMsg::Null { target, time } => {
                if self.buffering() || self.ckpt_holds(target) {
                    self.reb.as_mut().expect("buffering").held.push(msg);
                    return;
                }
                debug_assert!(self.owns(target.node), "message routed to wrong shard");
                self.probe
                    .hot_instant(SpanKind::NullRecv, target.node.index() as u64, time);
                let port = &mut self.node_mut(target.node).ports[target.port as usize];
                if time == NULL_TS {
                    port.push_null();
                    self.ticks += 1;
                } else {
                    // Lookahead promise: advance the port clock only.
                    port.advance_clock(time);
                }
                self.activate(target.node);
            }
            ShardMsg::BarrierRequest { from, epoch } => self.note_barrier_request(from, epoch),
            ShardMsg::Barrier { from, epoch, load, depth } => {
                self.note_barrier(from, epoch, load, depth)
            }
            ShardMsg::Transferred { from, epoch } => self.note_transferred(from, epoch),
            ShardMsg::Retire { from } => self.note_retire(from),
        }
    }

    /// A peer crossed its epoch threshold and wants a barrier. Only the
    /// leader acts on these; starting a barrier is always safe (worst
    /// case the planner finds nothing to move). A request from a peer
    /// already one epoch ahead is deferred; one for an epoch whose
    /// barrier is running or already ran is satisfied and dropped (the
    /// requester will re-request next epoch if it is still hot).
    fn note_barrier_request(&mut self, from: ShardId, epoch: u64) {
        let Some(rt) = self.reb.as_mut() else { return };
        if epoch > rt.epoch {
            debug_assert_eq!(epoch, rt.epoch + 1, "peers may be at most one epoch ahead");
            rt.deferred.push(ShardMsg::BarrierRequest { from, epoch });
        } else if epoch == rt.epoch && !rt.in_epoch {
            rt.pending = true;
        }
    }

    /// Record a peer's barrier marker (and its telemetry). A marker for
    /// the current epoch received outside `run_epoch` is the signal to
    /// join the barrier at the next safe point; one received for a
    /// future epoch (a fast peer already moved on) is deferred.
    fn note_barrier(&mut self, from: ShardId, epoch: u64, load: u64, depth: u64) {
        let Some(rt) = self.reb.as_mut() else { return };
        self.waits_and_controls += 1;
        self.ctl.tick();
        if epoch == rt.epoch {
            rt.markers[from] = Some(ShardLoad {
                events: load,
                inbox_depth: depth,
                active: true,
            });
            if !rt.in_epoch {
                rt.pending = true;
            }
        } else {
            debug_assert_eq!(epoch, rt.epoch + 1, "peers may be at most one epoch ahead");
            rt.deferred.push(ShardMsg::Barrier { from, epoch, load, depth });
        }
    }

    /// A peer finished parking its donations for the current epoch.
    fn note_transferred(&mut self, from: ShardId, epoch: u64) {
        let Some(rt) = self.reb.as_mut() else { return };
        self.waits_and_controls += 1;
        self.ctl.tick();
        debug_assert_eq!(
            epoch, rt.epoch,
            "Transferred cannot outrun the epoch's marker round"
        );
        rt.transferred[from] = true;
    }

    /// A peer retired: it owes no traffic and answers no more barriers.
    fn note_retire(&mut self, from: ShardId) {
        let Some(rt) = self.reb.as_mut() else { return };
        self.waits_and_controls += 1;
        self.ctl.tick();
        rt.retired[from] = true;
    }

    /// The barrier leader: the lowest shard not seen retiring. Views can
    /// briefly disagree while a `Retire` is in flight; a request sent to
    /// a just-retired leader is simply lost, which costs one rebalance
    /// opportunity, never correctness.
    fn leader(&self) -> ShardId {
        let rt = self.reb.as_ref().expect("rebalance enabled");
        (0..self.partition.num_shards())
            .find(|&s| s == self.shard || !rt.retired[s])
            .expect("self is never retired")
    }

    /// Epoch safe point: called between node runs (never inside one), so
    /// migrating a node can never tear state out from under `run_node`.
    fn maybe_epoch(&mut self) -> Result<(), Stopped> {
        let Some(rt) = self.reb.as_ref() else {
            return Ok(());
        };
        if rt.pending {
            return self.run_epoch();
        }
        if rt.events >= rt.policy.epoch_events {
            let leader = self.leader();
            if leader == self.shard {
                self.reb.as_mut().expect("rebalance enabled").pending = true;
                return self.run_epoch();
            }
            if !rt.requested {
                let epoch = rt.epoch;
                self.reb.as_mut().expect("rebalance enabled").requested = true;
                self.send_control(leader, ShardMsg::BarrierRequest { from: self.shard, epoch })?;
            }
        }
        Ok(())
    }

    /// Run one epoch barrier: all-to-all markers, a locally computed
    /// (identical-everywhere) plan, and — when the plan moves nodes — the
    /// park/transfer/adopt migration round. See the module docs.
    fn run_epoch(&mut self) -> Result<(), Stopped> {
        let k = self.partition.num_shards();
        let depth = self.link.inbox_len() as u64;
        self.probe
            .tracer()
            .begin(SpanKind::RebalanceBarrier, self.shard as u64);
        let epoch;
        {
            let rt = self.reb.as_mut().expect("rebalance enabled");
            rt.pending = false;
            rt.in_epoch = true;
            epoch = rt.epoch;
            rt.markers[self.shard] = Some(ShardLoad {
                events: rt.events,
                inbox_depth: depth,
                active: true,
            });
        }
        if self.fault.is_active() && self.fault.should_panic_migration(epoch) {
            self.ctl.record_error(SimError::TaskPanicked {
                node: None,
                payload: format!("injected panic at migration epoch {epoch}"),
            });
            panic!(
                "fault injection: panic at migration epoch {epoch} in shard {}",
                self.shard
            );
        }
        let events = self.reb.as_ref().expect("rebalance enabled").events;
        self.broadcast_control(ShardMsg::Barrier {
            from: self.shard,
            epoch,
            load: events,
            depth,
        })?;
        // Collect every active peer's marker; a Retire stands in for one.
        // FIFO mailboxes guarantee all pre-barrier payload from a peer is
        // applied before its marker is, so once this wait completes no
        // old-routing traffic can be in flight.
        self.await_peers(|rt, s| rt.markers[s].is_some())?;

        // Deterministic checkpoint: with every live peer's marker held,
        // the channels toward us hold only post-cut traffic (buffered by
        // `ckpt_holds`, regenerated by the sender after a restore), and
        // between our own marker broadcast and this point we sent no
        // payload — so this shard's state alone is its complete
        // contribution to the global cut at this epoch.
        if let Some((sink, rank)) = self.ckpt.as_ref().map(|ck| (Arc::clone(&ck.sink), ck.rank)) {
            if self.fault.is_active() && self.fault.should_kill_rank(rank, epoch) {
                // The kill lands *before* the snapshot is submitted, so
                // epoch `epoch` never completes on this rank and recovery
                // restores from an earlier consistent epoch.
                self.ctl.record_error(SimError::Transport {
                    peer: Some(rank as usize),
                    direction: None,
                    epoch: Some(epoch),
                    context: "injected rank kill at checkpoint epoch".into(),
                });
                panic!("fault injection: rank {rank} killed at epoch {epoch}");
            }
            sink.submit(epoch, self.snapshot());
        }

        let (plan, counts_rebalance) = {
            let rt = self.reb.as_ref().expect("rebalance enabled");
            // A held marker proves the peer participated in THIS epoch —
            // even if its Retire has also arrived already (it finished the
            // epoch first and then terminated). Using the marker whenever
            // one exists is what keeps the loads, and therefore the plan,
            // identical on every participant: the fast peer computed with
            // itself active, so the slow ones must too.
            let loads: Vec<ShardLoad> = (0..k)
                .map(|s| rt.markers[s].unwrap_or_default())
                .collect();
            let plan = plan_rebalance(self.circuit, &self.partition, &loads, &rt.policy);
            // Exactly one participant accounts the rebalance: the lowest
            // shard that contributed a marker (every participant holds
            // every participant's marker, so the set is agreed on).
            let lowest = (0..k)
                .find(|&s| rt.markers[s].is_some())
                .expect("self's marker is recorded");
            (plan, lowest == self.shard)
        };

        if let Some(plan) = plan {
            if counts_rebalance {
                self.stats.rebalances += 1;
            }
            // Scheduling state is rebuilt from scratch after the move;
            // activity is a pure function of per-node state, so nothing
            // is lost by clearing it.
            self.workset.clear();
            self.queued.iter_mut().for_each(|q| *q = false);
            self.reb.as_mut().expect("rebalance enabled").in_transfer = true;
            for m in &plan.moves {
                self.partition.reassign(m.node, m.to);
                if m.from == self.shard {
                    self.probe.tracer().instant(
                        SpanKind::Migration,
                        m.node.index() as u64,
                        m.to as u64,
                    );
                    let node = self.nodes[m.node.index()].take().expect("donor owns the node");
                    self.events_high = self.events_high.max(self.events_queued);
                    self.events_queued -= node.queued_events();
                    self.reb
                        .as_ref()
                        .expect("rebalance enabled")
                        .bus
                        .park(m.node.index(), node);
                    self.stats.nodes_migrated += 1;
                }
            }
            self.broadcast_control(ShardMsg::Transferred { from: self.shard, epoch })?;
            // Nobody resumes simulation until every active shard has
            // parked its donations and repointed its routing; the channel
            // round also sequences the bus accesses (park happens-before
            // the Transferred send, which happens-before our take).
            self.await_peers(|rt, s| rt.transferred[s])?;
            for m in &plan.moves {
                if m.to == self.shard {
                    let node =
                        self.reb.as_ref().expect("rebalance enabled").bus.take(m.node.index());
                    self.events_queued += node.queued_events();
                    self.nodes[m.node.index()] = Some(node);
                }
            }
            self.owned = self.partition.nodes_of(self.shard);
            self.cut_out = outgoing_cut_edges(self.circuit, &self.partition, self.shard);
            self.cut_in = incoming_cut_edges(self.circuit, &self.partition, self.shard);
            // Promise floors restart at zero; stale (lower) promises are
            // ignored by the receiver's monotone `advance_clock`.
            self.last_floor = vec![0; self.cut_out.len()];
            for id in self.owned.clone() {
                self.activate(id);
            }
        }

        // Roll the epoch over and release anything buffered meanwhile.
        let (held, deferred) = {
            let rt = self.reb.as_mut().expect("rebalance enabled");
            rt.in_transfer = false;
            rt.in_epoch = false;
            rt.events = 0;
            rt.requested = false;
            rt.epoch += 1;
            rt.markers.iter_mut().for_each(|m| *m = None);
            rt.transferred.iter_mut().for_each(|t| *t = false);
            (std::mem::take(&mut rt.held), std::mem::take(&mut rt.deferred))
        };
        for msg in held {
            self.handle(msg);
        }
        for msg in deferred {
            self.handle(msg);
        }
        self.probe
            .tracer()
            .end(SpanKind::RebalanceBarrier, self.shard as u64, epoch);
        Ok(())
    }

    /// Block until `ready` holds for every non-retired peer, applying
    /// whatever arrives meanwhile. Cancellation (a peer's panic, the
    /// watchdog) breaks the wait — no barrier ever outlives the run.
    fn await_peers<F>(&mut self, ready: F) -> Result<(), Stopped>
    where
        F: Fn(&RebalanceRt, ShardId) -> bool,
    {
        let k = self.partition.num_shards();
        loop {
            if self.ctl.is_cancelled() {
                return Err(Stopped);
            }
            let laggard = {
                let rt = self.reb.as_ref().expect("rebalance enabled");
                (0..k).find(|&s| s != self.shard && !rt.retired[s] && !ready(rt, s))
            };
            let Some(laggard) = laggard else {
                return Ok(());
            };
            // Our own barrier traffic may still sit in the link (staged
            // behind the payload it must not overtake, or behind a full
            // destination); the peers cannot answer what they have not
            // been sent. Errors surface through cancellation.
            let wait = self.flush_before_wait().unwrap_or(IDLE_RECV_TIMEOUT);
            // Barrier waits count as stalls too: the first peer whose
            // marker is missing is who we are blocked on.
            let waited = Instant::now();
            match self.link.recv_timeout(wait) {
                Ok(msg) => {
                    self.note_null_wait(Some(laggard), waited.elapsed());
                    self.handle(msg)
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.note_null_wait(Some(laggard), waited.elapsed());
                }
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(IDLE_RECV_TIMEOUT),
            }
        }
    }

    /// Send a control message to every non-retired peer.
    fn broadcast_control(&mut self, msg: ShardMsg) -> Result<(), Stopped> {
        for dst in 0..self.partition.num_shards() {
            if dst == self.shard || self.reb.as_ref().is_some_and(|rt| rt.retired[dst]) {
                continue;
            }
            self.send_control(dst, msg)?;
        }
        Ok(())
    }

    /// Like [`Self::send_cross`], but tolerant of a vanished peer: a
    /// `Disconnected` destination has retired (its `Retire` may still be
    /// queued behind this send) or the run is tearing down; either way
    /// the control message is moot and dropping it is safe — barriers
    /// never wait on a shard whose disappearance has been observed.
    fn send_control(&mut self, dst: ShardId, msg: ShardMsg) -> Result<(), Stopped> {
        debug_assert_ne!(dst, self.shard);
        let mut msg = msg;
        loop {
            match self.link.try_send(dst, msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(m)) => {
                    if self.ctl.is_cancelled() {
                        return Err(Stopped);
                    }
                    msg = m;
                    let before = self.link.inbox_len();
                    self.drain_inbox();
                    if before == 0 {
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected) => return Ok(()),
            }
        }
    }

    /// Send one message across a shard boundary, draining our own inbox
    /// while the destination is full (cyclic-backpressure deadlock
    /// avoidance). `Err` means the run is cancelled or the destination is
    /// gone — the caller retires.
    fn send_cross(&mut self, dst: ShardId, msg: ShardMsg) -> Result<(), Stopped> {
        debug_assert_ne!(dst, self.shard);
        let mut msg = msg;
        loop {
            match self.link.try_send(dst, msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(m)) => {
                    if self.ctl.is_cancelled() {
                        return Err(Stopped);
                    }
                    msg = m;
                    let before = self.link.inbox_len();
                    self.probe
                        .tracer()
                        .instant(SpanKind::MailboxStall, dst as u64, before as u64);
                    self.drain_inbox();
                    if before == 0 {
                        // Nothing of ours to drain: the destination is
                        // momentarily busy, not cyclically blocked on us.
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected) => {
                    // The destination shard exited. On a clean exit it can
                    // no longer be owed traffic, so this only happens when
                    // the run is being torn down.
                    return Err(Stopped);
                }
            }
        }
    }

    /// Count one processed event toward the epoch telemetry.
    #[inline]
    fn note_processed(&mut self) {
        self.stats.events_processed += 1;
        if let Some(rt) = self.reb.as_mut() {
            rt.events += 1;
        }
    }

    /// Deliver one payload event to `target`, locally or across the cut.
    fn deliver(&mut self, target: Target, event: Event) -> Result<(), Stopped> {
        let dst = self.partition.shard_of(target.node);
        self.probe
            .hot_instant(SpanKind::EventDeliver, target.node.index() as u64, event.time);
        self.ticks += 1;
        if dst == self.shard {
            self.stats.events_delivered += 1;
            self.nodes[target.node.index()]
                .as_mut()
                .expect("owned node")
                .ports[target.port as usize]
                .push_event(event);
            self.events_queued += 1;
            self.activate(target.node);
        } else {
            self.stats.cut_events_sent += 1;
            self.send_cross(
                dst,
                ShardMsg::Event {
                    target,
                    time: event.time,
                    value: event.value,
                },
            )?;
        }
        Ok(())
    }

    /// Deliver the terminal NULL to `target`, locally or across the cut.
    /// The sender counts `nulls_sent` (one per edge, as in the sequential
    /// engine), keeping the total deterministic at `num_edges`.
    fn deliver_null(&mut self, target: Target) -> Result<(), Stopped> {
        self.stats.nulls_sent += 1;
        self.probe
            .hot_instant(SpanKind::NullSend, target.node.index() as u64, NULL_TS);
        let dst = self.partition.shard_of(target.node);
        self.ticks += 1;
        if dst == self.shard {
            self.node_mut(target.node).ports[target.port as usize].push_null();
            self.activate(target.node);
        } else {
            self.stats.shard_nulls_sent += 1;
            self.send_cross(
                dst,
                ShardMsg::Null {
                    target,
                    time: NULL_TS,
                },
            )?;
        }
        Ok(())
    }

    /// Process all of a node's ready events (the sequential `RUNNODE`,
    /// with routing on delivery).
    fn run_node(&mut self, id: NodeId) -> Result<(), Stopped> {
        self.stats.node_runs += 1;
        let before = self.stats.events_processed;
        let span = self.probe.begin(id.index());
        let result = match self.node(id).state.kind {
            NodeKind::Input => self.run_input(id),
            _ => self.run_gate_or_output(id),
        };
        self.probe
            .end(span, id.index(), self.stats.events_processed - before);
        self.ctl.tick_n(std::mem::take(&mut self.ticks));
        // The run's cross-shard sends are staged in the link: hand them
        // over together now.
        self.link.publish();
        result
    }

    /// Emit an input node's whole stimulus, then its terminal NULL.
    fn run_input(&mut self, id: NodeId) -> Result<(), Stopped> {
        // Both borrow from the circuit and the stimulus, not from `self`.
        let (circuit, stimulus) = (self.circuit, self.stimulus);
        let input_ix = self.input_ix[id.index()];
        debug_assert_ne!(input_ix, u32::MAX, "id is an input node");
        let fanout = &circuit.node(id).fanout;
        for tv in stimulus.input_events(input_ix as usize) {
            // The initial event itself counts as delivered + processed.
            self.stats.events_delivered += 1;
            self.note_processed();
            if let Some(out) = self.node_mut(id).state.fire(0, Event::new(tv.time, tv.value)) {
                for &t in fanout {
                    self.deliver(t, out)?;
                }
            }
        }
        for &t in fanout {
            self.deliver_null(t)?;
        }
        self.node_mut(id).state.null_sent = true;
        Ok(())
    }

    fn run_gate_or_output(&mut self, id: NodeId) -> Result<(), Stopped> {
        let mut temp = std::mem::take(&mut self.temp);
        temp.clear();
        self.events_high = self.events_high.max(self.events_queued);
        self.events_queued -= self.node_mut(id).drain_ready(&mut temp);
        self.probe.batch(temp.len() as u64);

        let circuit = self.circuit;
        let fanout = &circuit.node(id).fanout;
        let result = temp.iter().try_for_each(|&(port, ev)| {
            self.note_processed();
            match self.node_mut(id).state.fire(port, ev) {
                Some(out) => fanout.iter().try_for_each(|&t| self.deliver(t, out)),
                None => Ok(()),
            }
        });
        self.temp = temp;
        result?;

        // Forward the terminal NULL once every port is closed and drained.
        if self.node(id).owes_null() {
            self.node_mut(id).state.null_sent = true;
            for &t in fanout {
                self.deliver_null(t)?;
            }
        }
        Ok(())
    }

    /// An idle shard's demand-driven promises: for every open outgoing cut
    /// edge `u → v`, the earliest event that can still cross is bounded
    /// below by `LB(u) + delay(u)`, where `LB(u)` is the earliest
    /// timestamp `u` might still process (queue heads and port clocks).
    /// Promise the floor `LB + delay - 1` whenever it strictly improves on
    /// the last promise. No progress tick: promises alone must not feed
    /// the watchdog.
    fn send_lookahead_nulls(&mut self) -> Result<(), Stopped> {
        for i in 0..self.cut_out.len() {
            let CutEdge { src, target, dst_shard } = self.cut_out[i];
            let node = self.node(src);
            if node.state.null_sent || matches!(node.state.kind, NodeKind::Input) {
                continue; // edge closed (or closing in one atomic run)
            }
            let lb = node
                .ports
                .iter()
                .map(|p| p.next_event_bound())
                .min()
                .unwrap_or(NULL_TS);
            if lb == NULL_TS {
                continue; // node is about to forward its terminal NULL
            }
            let floor = lb.saturating_add(node.state.delay).saturating_sub(1);
            if floor > self.last_floor[i] {
                self.last_floor[i] = floor;
                self.stats.shard_nulls_sent += 1;
                self.probe
                    .hot_instant(SpanKind::NullSend, target.node.index() as u64, floor);
                self.send_cross(dst_shard, ShardMsg::Null { target, time: floor })?;
            }
        }
        Ok(())
    }

    /// Finalize after clean termination: verify the Chandy–Misra
    /// invariants and extract this shard's slice of the output.
    pub(crate) fn into_outcome(mut self) -> ShardOutcome {
        self.publish_queued();
        let link_stats = self.link.stats();
        self.stats.net_frames_sent += link_stats.frames_sent;
        self.stats.net_bytes_sent += link_stats.bytes_sent;
        self.stats.net_msgs_batched += link_stats.msgs_batched;
        self.stats.net_forced_flushes += link_stats.forced_flushes;
        let mut values = Vec::with_capacity(self.owned.len());
        let mut waveforms = Vec::new();
        for &id in &self.owned {
            let node = self.nodes[id.index()].as_mut().expect("owned node");
            debug_assert!(
                node.ports.iter().all(|p| p.is_empty()),
                "node {} has undrained events",
                id.index()
            );
            debug_assert!(node.state.null_sent, "node {} never forwarded NULL", id.index());
            values.push((id.index(), node.state.final_value()));
            if matches!(node.state.kind, NodeKind::Output) {
                let out_ix = self
                    .circuit
                    .outputs()
                    .iter()
                    .position(|&o| o == id)
                    .expect("output node is listed");
                waveforms.push((out_ix, std::mem::take(&mut node.state.waveform)));
            }
        }
        debug_assert_eq!(self.events_queued, 0, "undrained events leaked on the shard");
        ShardOutcome {
            stats: self.stats,
            values,
            waveforms,
        }
    }
}

/// Free helper so `run`'s borrow of `self.reb` doesn't conflict.
fn retire_msg(shard: ShardId) -> ShardMsg {
    ShardMsg::Retire { from: shard }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seq::SeqWorksetEngine;
    use crate::validate::check_equivalent;
    use circuit::generators::{
        c17, fanout_tree, full_adder, inverter_chain, kogge_stone_adder, wallace_multiplier,
    };
    use shard::PartitionStrategy;

    const STRATEGIES: [PartitionStrategy; 3] = [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::BfsLayered,
        PartitionStrategy::GreedyCut,
    ];

    fn cfg_k(k: usize) -> EngineConfig {
        EngineConfig::default().with_shards(k)
    }

    fn sharded(k: usize, strategy: PartitionStrategy) -> ShardedEngine {
        ShardedEngine::from_config(&cfg_k(k).with_strategy(strategy))
    }

    fn sharded_k(k: usize) -> ShardedEngine {
        sharded(k, PartitionStrategy::default())
    }

    fn check_against_seq(circuit: &Circuit, stimulus: &Stimulus) {
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(circuit, stimulus, &delays);
        for strategy in STRATEGIES {
            for k in [1, 2, 4, 8] {
                let engine = sharded(k, strategy);
                let out = engine.run(circuit, stimulus, &delays);
                check_equivalent(&seq, &out)
                    .unwrap_or_else(|e| panic!("k={k} {strategy:?}: {e}"));
                assert_eq!(
                    out.stats.events_processed, out.stats.events_delivered,
                    "conservation, k={k} {strategy:?}"
                );
                assert_eq!(
                    out.stats.nulls_sent as usize,
                    circuit.num_edges(),
                    "terminal nulls, k={k} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn matches_seq_on_c17() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 10, 3, 7);
        check_against_seq(&c, &s);
    }

    #[test]
    fn matches_seq_on_full_adder_dense_ties() {
        let c = full_adder();
        let s = Stimulus::random_vectors(&c, 25, 1, 3);
        check_against_seq(&c, &s);
    }

    #[test]
    fn matches_seq_on_fanout_tree() {
        let c = fanout_tree(4, 3);
        let s = Stimulus::random_vectors(&c, 6, 2, 11);
        check_against_seq(&c, &s);
    }

    #[test]
    fn matches_seq_on_kogge_stone() {
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 4, 5, 13);
        check_against_seq(&c, &s);
    }

    #[test]
    fn matches_seq_on_multiplier() {
        let c = wallace_multiplier(6);
        let s = Stimulus::random_vectors(&c, 4, 5, 17);
        check_against_seq(&c, &s);
    }

    #[test]
    fn bit_identical_to_the_seq_heap_oracle_across_k() {
        // The seq-heap engine stores its events in one global binary
        // heap — it never touches `PortQueue` — so it is the oracle for
        // the per-port queues: if they dropped, duplicated, or reordered
        // anything, the observables (node values, settled waveforms,
        // events_delivered) diverge.
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 5, 4, 29);
        let delays = DelayModel::standard();
        let oracle = crate::engine::seq_heap::SeqHeapEngine::new().run(&c, &s, &delays);
        let mut reference: Option<SimOutput> = None;
        for k in [1, 2, 4, 8] {
            let out = sharded_k(k).run(&c, &s, &delays);
            check_equivalent(&oracle, &out).unwrap_or_else(|e| panic!("k={k}: {e}"));
            // Bit-identical across every k: the waveforms and values
            // must not merely be equivalent, they must be the same bytes.
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    assert_eq!(r.node_values, out.node_values, "k={k}");
                    assert_eq!(
                        r.waveforms.iter().map(|w| w.settled()).collect::<Vec<_>>(),
                        out.waveforms
                            .iter()
                            .map(|w| w.settled())
                            .collect::<Vec<_>>(),
                        "k={k}"
                    );
                    assert_eq!(
                        r.stats.events_delivered, out.stats.events_delivered,
                        "k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversubscribed_shards_match_seq() {
        // More shard threads than the host has cores, on every host:
        // the OS time-slices them and the run stays equivalent.
        let shards = 2 * std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        let c = c17();
        let s = Stimulus::random_vectors(&c, 6, 3, 31);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let out = sharded_k(shards).run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent with oversubscribed shards");
    }

    #[test]
    fn name_reports_k_and_strategy() {
        assert_eq!(sharded_k(2).name(), "sharded[k=2,greedy-cut]");
    }

    #[test]
    fn checkpoint_restore_round_trips_non_empty_port_queues() {
        // A mid-run checkpoint copies non-empty port queues out (via
        // `snapshot_events`); restoring queues every event again on the
        // new shard (via `PortQueue::restore`). Kill the
        // first life at epoch 2, restore the second — the resumed run
        // must reproduce the uninterrupted reference exactly.
        let dir = std::env::temp_dir().join(format!("des-queue-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 12, 10, 37);
        let delays = DelayModel::standard();
        let reference = SeqWorksetEngine::new().run(&c, &s, &delays);
        let cfg = cfg_k(4).with_checkpoints(40, &dir);
        let killed = cfg.clone().with_fault_plan(FaultPlan::seeded(7).kill_rank_at_epoch(0, 2));
        ShardedEngine::from_config(&killed)
            .try_run(&c, &s, &delays)
            .expect_err("the injected kill must fail the first life");
        let resumed = ShardedEngine::from_config(&cfg.with_restore(true)).run(&c, &s, &delays);
        check_equivalent(&reference, &resumed).expect("restored observables diverge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ks128 as the repository benchmark drives it: two random vectors,
    /// period 10.
    fn ks128() -> (Circuit, Stimulus) {
        let c = kogge_stone_adder(128);
        let s = Stimulus::random_vectors(&c, 2, 10, 3);
        (c, s)
    }

    #[test]
    fn default_partition_shares_ks128_work_between_shards() {
        // Depth slices put ~98 % of ks128's events on the deep shard
        // (observed imbalance ~96 %) and K=2 ran no faster than K=1.
        let (c, s) = ks128();
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let out = sharded_k(2).run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("ks128 K=2 observables");
        assert_eq!(seq.node_values, out.node_values);
        assert!(
            out.stats.shard_load_imbalance_pct <= 50,
            "K=2 observed imbalance {}%",
            out.stats.shard_load_imbalance_pct
        );
        for k in [4, 8] {
            let (outcomes, _) = sharded_k(k).run_shards(&c, &s, &delays).unwrap();
            let events: Vec<u64> = outcomes.iter().map(|o| o.stats.events_processed).collect();
            assert!(
                events.iter().all(|&e| e > 0),
                "k={k}: events per shard {events:?}"
            );
        }
    }

    /// The queued-event gauges count what the arena's `live()` and
    /// `high_water()` counted when the queues held arena handles. Shard 0
    /// has no incoming cut edge, so its high water does not depend on
    /// message timing: on this run the arena's `high_water()` read 1336
    /// for it at the end of every run. Shard 1's depends on when shard
    /// 0's batches arrive.
    #[test]
    fn queued_event_high_water_matches_the_arena_it_replaced() {
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 4, 5, 13);
        let partition = Partition::build(&c, 2, PartitionStrategy::default());
        assert!(incoming_cut_edges(&c, &partition, 0).is_empty());
        let recorder = obs::Recorder::new(&obs::ObsConfig::enabled());
        let cfg = cfg_k(2).with_recorder(recorder.clone());
        let out = ShardedEngine::from_config(&cfg).run(&c, &s, &DelayModel::standard());
        let gauge = |name: &str, shard: &str| {
            recorder
                .gauge_values()
                .into_iter()
                .find(|(n, labels, _)| n == name && labels.contains(shard))
                .map(|(_, _, v)| v)
                .unwrap_or_else(|| panic!("{name} for {shard} not published"))
        };
        assert_eq!(gauge(obs::ARENA_HIGH_WATER, "shard-0"), 1336);
        let shard1 = gauge(obs::ARENA_HIGH_WATER, "shard-1");
        assert!(shard1 > 0 && shard1 <= out.stats.events_delivered, "shard-1 high water {shard1}");
        for shard in ["shard-0", "shard-1"] {
            assert_eq!(gauge(obs::ARENA_LIVE, shard), 0, "{shard} ends with nothing queued");
        }
    }

    #[test]
    fn panic_in_the_callers_shard_surfaces_and_spawned_shards_retire() {
        // Shard K-1 runs on the calling thread. Its panic must come back
        // as a structured error once every spawned shard has retired, and
        // leave the engine reusable.
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 4, 5, 13);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        for k in [1, 2, 4] {
            let last = k as u64 - 1;
            let faulty = ShardedEngine::from_config(
                &cfg_k(k).with_fault_plan(FaultPlan::seeded(7).panic_in_shard(last)),
            );
            let started = Instant::now();
            match faulty.try_run(&c, &s, &delays) {
                Err(SimError::TaskPanicked { payload, .. }) => {
                    assert!(payload.contains("injected"), "k={k}: {payload}")
                }
                other => panic!("k={k}: expected TaskPanicked, got {other:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(8),
                "k={k}: took {:?}",
                started.elapsed()
            );
            let out = sharded_k(k)
                .try_run(&c, &s, &delays)
                .expect("clean run after the panic");
            check_equivalent(&seq, &out).unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
    }

    #[test]
    fn wedged_two_shard_run_trips_the_watchdog() {
        // Both shards wedge, one of them on the calling thread: the
        // watchdog thread must still cancel the run.
        let c = c17();
        let s = Stimulus::random_vectors(&c, 8, 3, 11);
        let deadline = Duration::from_millis(300);
        let engine = ShardedEngine::from_config(
            &cfg_k(2)
                .with_fault_plan(FaultPlan::seeded(1).wedged())
                .with_watchdog(Some(deadline)),
        );
        let started = Instant::now();
        match engine.try_run(&c, &s, &DelayModel::standard()) {
            Err(SimError::NoProgress { snapshot }) => {
                assert!(snapshot.stalled_for >= deadline);
                assert_eq!(snapshot.workers.len(), 2);
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn tiny_mailboxes_backpressure_without_deadlock() {
        // Capacity 1 makes every cross-shard send hit the Full path; the
        // drain-own-inbox loop must still complete the run.
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 8, 2, 5);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let engine = ShardedEngine::from_config(&cfg_k(4).with_mailbox_capacity(1));
        let out = engine.run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent under backpressure");
    }

    #[test]
    fn stall_snapshot_counts_inbox_depth_in_messages() {
        // Two published batches (3 + 2 messages) toward shard 1, one
        // message already consumed: the watchdog must see 4 messages, not
        // 2 batches — and nothing for what is merely staged.
        let (mut links, probe) = loopback(2, 16);
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let target = Target {
            node: NodeId(0),
            port: 0,
        };
        let null = |time| ShardMsg::Null { target, time };
        for (batch, len) in [(0u64, 3u64), (1, 2)] {
            for i in 0..len {
                l0.try_send(1, null(batch * 10 + i)).unwrap();
            }
            assert_eq!(l0.flush(), Ok(true));
        }
        l0.try_send(1, null(99)).unwrap();
        assert!(l1.try_recv().is_ok());
        assert_eq!(l1.inbox_len(), 4);

        let metrics = Partition::build(&c17(), 2, PartitionStrategy::default()).metrics(&c17());
        let threads = ShardThreads::new(2);
        let snapshot = threads.stall_snapshot(
            "sharded",
            &FaultPlan::none(),
            obs::Recorder::noop(),
            Duration::from_millis(250),
            7,
            &|snap| fabric_stall(snap, &probe, &WaitMatrix::new(2), &metrics),
        );
        assert_eq!(snapshot.queue_depths, vec![0, 4]);
        assert_eq!(snapshot.workset_size, 4);
        assert_eq!(snapshot.workers[1].queue_depth, Some(4));
    }

    #[test]
    fn empty_stimulus_terminates_with_nulls_only() {
        let c = c17();
        let out = sharded_k(4).run(&c, &Stimulus::empty(5), &DelayModel::standard());
        assert_eq!(out.stats.events_delivered, 0);
        assert_eq!(out.stats.events_processed, 0);
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges());
        assert!(out.waveforms.iter().all(Waveform::is_empty));
    }

    #[test]
    fn records_comm_and_partition_counters() {
        // A chain split across shards must push events over the cut.
        let c = inverter_chain(24);
        let s = Stimulus::random_vectors(&c, 6, 4, 9);
        let out = sharded_k(4).run(&c, &s, &DelayModel::standard());
        assert!(out.stats.cut_events_sent > 0, "no cross-shard events");
        assert!(out.stats.shard_nulls_sent > 0, "no cross-shard nulls");
        // Single shard: everything is local.
        let solo = sharded_k(1).run(&c, &s, &DelayModel::standard());
        assert_eq!(solo.stats.cut_events_sent, 0);
        assert_eq!(solo.stats.shard_nulls_sent, 0);
        assert_eq!(solo.stats.max_shard_imbalance_pct, 0);
        assert_eq!(solo.stats.shard_load_imbalance_pct, 0);
    }

    #[test]
    fn more_shards_than_nodes() {
        let c = c17(); // 13 nodes
        let s = Stimulus::random_vectors(&c, 3, 4, 21);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let out = sharded_k(16).run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent with empty shards");
    }

    #[test]
    fn engine_is_reusable() {
        let c = full_adder();
        let engine = sharded_k(2);
        let delays = DelayModel::standard();
        let s1 = Stimulus::random_vectors(&c, 3, 10, 1);
        let s2 = Stimulus::random_vectors(&c, 3, 10, 2);
        let a1 = engine.run(&c, &s1, &delays);
        let a2 = engine.run(&c, &s2, &delays);
        let b1 = engine.run(&c, &s1, &delays);
        assert_eq!(a1.node_values, b1.node_values);
        assert_eq!(a1.stats.events_delivered, b1.stats.events_delivered);
        let _ = a2;
    }

    // -- dynamic repartitioning -------------------------------------------

    /// An aggressive policy so barriers fire on test-sized workloads.
    fn eager_rebalance() -> RebalancePolicy {
        RebalancePolicy {
            epoch_events: 32,
            min_imbalance_pct: 5,
            max_moves: 16,
        }
    }

    fn rebalancing_cfg(k: usize) -> EngineConfig {
        cfg_k(k).with_rebalance(Some(eager_rebalance()))
    }

    fn rebalancing(k: usize) -> ShardedEngine {
        ShardedEngine::from_config(&rebalancing_cfg(k))
    }

    /// Stimulus that drives a few inputs hard and leaves the rest almost
    /// silent, so the observed load diverges from the node-count
    /// estimate the static partition balanced for.
    fn skewed(c: &Circuit) -> Stimulus {
        Stimulus::skewed_vectors(c, 48, 2, 0xD15EA5E, 3)
    }

    #[test]
    fn rebalance_fires_on_skew_and_matches_seq() {
        let c = kogge_stone_adder(16);
        let s = skewed(&c);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let out = rebalancing(4).run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent with rebalancing");
        assert_eq!(out.stats.events_processed, out.stats.events_delivered);
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges());
        assert!(
            out.stats.rebalances >= 1,
            "skewed load must trigger at least one rebalance, stats: {:?}",
            out.stats
        );
        assert!(out.stats.nodes_migrated >= 1);
    }

    #[test]
    fn rebalancing_observables_identical_to_static() {
        // Identical on the *deterministic* observables (see
        // `crate::validate`): total event count, settled waveforms, final
        // node values. Raw waveforms may legally permute equal-timestamp
        // glitches between any two runs — static or rebalancing alike —
        // so bitwise waveform equality is not the determinism contract.
        let c = wallace_multiplier(6);
        let s = skewed(&c);
        let delays = DelayModel::standard();
        for k in [2, 4] {
            let on = rebalancing(k).run(&c, &s, &delays);
            let off = sharded_k(k).run(&c, &s, &delays);
            check_equivalent(&on, &off).unwrap_or_else(|m| panic!("k={k}: {m}"));
            assert_eq!(on.node_values, off.node_values, "k={k}");
            assert_eq!(
                on.stats.events_delivered, off.stats.events_delivered,
                "k={k}"
            );
            assert_eq!(on.stats.nulls_sent, off.stats.nulls_sent, "k={k}");
        }
    }

    #[test]
    fn rebalance_runs_are_repeatable() {
        let c = kogge_stone_adder(16);
        let s = skewed(&c);
        let delays = DelayModel::standard();
        let engine = rebalancing(4);
        let a = engine.run(&c, &s, &delays);
        let b = engine.run(&c, &s, &delays);
        check_equivalent(&a, &b).expect("repeat runs agree on observables");
        assert_eq!(a.node_values, b.node_values);
        assert_eq!(a.stats.events_delivered, b.stats.events_delivered);
    }

    #[test]
    fn rebalance_single_shard_is_harmless() {
        // With k=1 every barrier is a telemetry no-op (the planner needs
        // two active shards); the run must still terminate cleanly.
        let c = c17();
        let s = Stimulus::random_vectors(&c, 20, 2, 9);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let out = rebalancing(1).run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent at k=1");
        assert_eq!(out.stats.rebalances, 0);
        assert_eq!(out.stats.nodes_migrated, 0);
    }

    #[test]
    fn rebalance_with_tiny_mailboxes() {
        // Control traffic must survive the backpressure path too.
        let c = kogge_stone_adder(16);
        let s = skewed(&c);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays);
        let engine = ShardedEngine::from_config(&rebalancing_cfg(4).with_mailbox_capacity(1));
        let out = engine.run(&c, &s, &delays);
        check_equivalent(&seq, &out).expect("equivalent under backpressure");
    }

    #[test]
    fn rebalancing_engine_name_is_tagged() {
        let plain = sharded_k(4).name();
        let tagged = rebalancing(4).name();
        assert!(!plain.ends_with(",reb]"), "untagged: {plain}");
        assert_eq!(tagged, format!("{},reb]", &plain[..plain.len() - 1]));
    }
}
