//! Algorithm 2: the parallel HJlib implementation, with the §4.5
//! optimizations (each individually toggleable for the ablation benches).
//!
//! ## Structure (paper §4.3, §4.5)
//!
//! * One **task per active node**, spawned with `async` into a finish
//!   scope; the finish scope's quiescence is the simulation's termination.
//! * One **lock per input port** ([`hj::LockRegistry`]); a running node
//!   trylocks its own input-port locks plus the fanout ports it writes, in
//!   ascending lock-ID order (livelock avoidance). Any failure releases
//!   everything and the task retires (never blocks ⇒ no deadlock).
//! * Ready events are moved to a **temporary queue** under the own-port
//!   locks, which are then released early so upstream producers can keep
//!   delivering while this node processes (§4.5.1).
//! * **Spawn avoidance** (§4.5.3): a per-node claim flag deduplicates
//!   tasks; producers only spawn a task for a neighbour if they can claim
//!   it, and a retiring task re-checks activity after releasing its claim
//!   (the standard lost-wakeup-free handoff).
//!
//! ## Safety argument
//!
//! Shared mutable state is split by its guard:
//! * each per-port deque is accessed only while holding that port's
//!   registry lock;
//! * each node's core (latches, temp queue, waveform) is accessed only by
//!   the task holding the node's claim flag (at most one at a time);
//! * clocks/head timestamps/claim flags are atomics with SeqCst ordering
//!   where the producer↔retiring-consumer handoff needs it;
//! * run counters are task-local: each task counts into its own
//!   [`SimStats`] tally (failed trylocks included) and merges it once,
//!   under the one `totals` mutex, when it retires. Nothing shared is
//!   written per event, and a trylock writes only the lock itself.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use circuit::{Circuit, DelayModel, NodeId, NodeKind, PortIx, Stimulus, Target};
use crossbeam_utils::Backoff;
use fault::{FaultPlan, RunCtl, RunPolicy, SimError, StallSnapshot, Watchdog, WorkerSnapshot};
use hj::{HjRuntime, LockId, LockRegistry, Locker, Scope};
use obs::{Recorder, SpanKind};

use crate::engine::config::EngineConfig;
use crate::engine::probe::RunProbe;
use crate::engine::{Engine, SimOutput};
use crate::event::{Event, Timestamp, NULL_TS};
use crate::node::{final_outputs, NodeState};
use crate::stats::SimStats;

/// Bounded retry budget around the paper's single TRYLOCK attempt: a
/// failed `try_lock_all` (real contention or injected) backs off and
/// retries a few times before the task retires to the claim/re-check
/// protocol. The loop never blocks on a lock, so the §4.3 deadlock-freedom
/// argument is unchanged — retries only trade a little latency for fewer
/// wasted respawns under contention.
const MAX_LOCK_RETRIES: u32 = 8;

/// Toggles for the paper's optimizations. Defaults enable everything (the
/// configuration the paper evaluates); the ablation benches flip one at a
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HjEngineConfig {
    /// §4.5.1 first half: one lock **per input port** instead of one lock
    /// per node. When false, a node's ports share one lock (the node lock),
    /// so two producers feeding different ports of one node conflict.
    pub per_port_locks: bool,
    /// §4.5.1 second half: move ready events to a temporary queue and
    /// release the own-port locks before processing. When false, own-port
    /// locks are held for the whole run.
    pub early_port_release: bool,
    /// §4.5.3: gate task spawns on a successful claim (no redundant
    /// tasks). When false, spawn whenever a node looks active; redundant
    /// tasks are dropped at claim time.
    pub avoid_redundant_spawns: bool,
}

impl Default for HjEngineConfig {
    fn default() -> Self {
        HjEngineConfig {
            per_port_locks: true,
            early_port_release: true,
            avoid_redundant_spawns: true,
        }
    }
}

/// The parallel engine. Holds (a handle to) the HJ runtime it executes on.
pub struct HjEngine {
    runtime: Arc<HjRuntime>,
    config: HjEngineConfig,
    policy: RunPolicy,
    rank: Option<u64>,
}

impl HjEngine {
    /// Build the engine (on a fresh runtime) from the unified
    /// [`EngineConfig`].
    pub fn from_config(cfg: &EngineConfig) -> Self {
        let mut engine =
            Self::with_config(Arc::new(HjRuntime::new(cfg.workers())), HjEngineConfig::default());
        engine.policy = cfg.run_policy();
        engine.rank = cfg.rank();
        engine
    }

    /// Engine on an existing runtime (lets benches reuse thread pools).
    pub fn with_config(runtime: Arc<HjRuntime>, config: HjEngineConfig) -> Self {
        HjEngine {
            runtime,
            config,
            policy: RunPolicy::new(),
            rank: None,
        }
    }

    /// Install a fault plan; its decision counters are reset at the start
    /// of every run so each run replays the same injection stream.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.policy = self.policy.with_fault_plan(plan);
        self
    }

    /// Set (or with `None` disable) the no-progress watchdog deadline.
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.policy = self.policy.with_watchdog(deadline);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> HjEngineConfig {
        self.config
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Arc<HjRuntime> {
        &self.runtime
    }

    /// The engine's fault plan (for asserting on injection counts).
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        self.policy.fault()
    }
}

impl Engine for HjEngine {
    fn name(&self) -> String {
        format!("hj[w={}]", self.runtime.workers())
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        let fault = Arc::clone(self.policy.fault());
        fault.reset();
        let recorder = self.policy.recorder();
        let wall_start = Instant::now();
        let ctl = Arc::new(RunCtl::new());
        let sim = ParSim::new(
            circuit,
            stimulus,
            delays,
            self.config,
            Arc::clone(&fault),
            Arc::clone(&ctl),
            recorder,
            &self.name(),
            self.rank,
        );
        let watchdog = self.policy.watchdog().map(|deadline| {
            let runtime = Arc::clone(&self.runtime);
            let locks = Arc::clone(&sim.locks);
            let fault = Arc::clone(&fault);
            let engine = self.name();
            let recorder = recorder.clone();
            Watchdog::arm(Arc::clone(&ctl), deadline, move |stalled_for, ticks| {
                stall_snapshot(&engine, &runtime, &locks, &fault, &recorder, stalled_for, ticks)
            })
        });
        // `finish` drains the scope to quiescence even when a task panics,
        // then rethrows the first panic; catching it here is what turns a
        // task panic into an `Err` with no task left running.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.runtime.finish(|scope| {
                for &input in circuit.inputs() {
                    let sim = &sim;
                    if sim.ctl.is_cancelled() {
                        break;
                    }
                    // Input nodes are unconditionally active at start; claim
                    // them up front so the task runs the claimed fast path.
                    let claimed = sim.claim(input);
                    debug_assert!(claimed, "nothing else runs before the scope");
                    scope.spawn(move || pump(sim, scope, input, true));
                }
            })
        }));
        if let Some(dog) = watchdog {
            dog.disarm();
        }
        let error = match result {
            Ok(()) => ctl.take_error(),
            Err(payload) => Some(
                ctl.take_error()
                    .unwrap_or_else(|| SimError::from_panic(None, payload.as_ref())),
            ),
        };
        match error {
            None => {
                let output = sim.into_output();
                // Tasks publish progress once, and only after a node run.
                #[cfg(debug_assertions)]
                assert!(ctl.publications() <= output.stats.node_runs, "per-event publications");
                output
                    .stats
                    .publish_ranked(recorder, &self.name(), self.rank, wall_start.elapsed());
                Ok(output)
            }
            Some(err) => {
                // The scope has drained, so every RAII locker has dropped;
                // a lock still held now would be a leak — report it as its
                // own invariant breach rather than masking it.
                let leaked = sim.locks.held();
                if leaked.is_empty() {
                    Err(err)
                } else {
                    Err(SimError::invariant(format!(
                        "locks {leaked:?} left held after failed run (original error: {err})"
                    )))
                }
            }
        }
    }
}

/// Build the watchdog's diagnostic snapshot. Runs on the watchdog thread;
/// reads only atomics and racy queue-depth counters, never blocks on
/// simulation state.
fn stall_snapshot(
    engine: &str,
    runtime: &HjRuntime,
    locks: &LockRegistry,
    fault: &FaultPlan,
    recorder: &Recorder,
    stalled_for: Duration,
    ticks: u64,
) -> StallSnapshot {
    let obs = runtime.observe_scheduler();
    let workers: Vec<WorkerSnapshot> = obs
        .worker_queue_depths
        .iter()
        .enumerate()
        .map(|(id, &depth)| WorkerSnapshot {
            id,
            state: "running".into(),
            queue_depth: Some(depth),
            ..WorkerSnapshot::default()
        })
        .collect();
    let workset_size =
        obs.injector_depth + obs.worker_queue_depths.iter().sum::<usize>();
    let held_locks: Vec<usize> = locks.held().into_iter().map(|l| l as usize).collect();
    let mut notes = vec![format!(
        "{} of {} workers parked",
        obs.sleeping_workers,
        obs.worker_queue_depths.len()
    )];
    if fault.is_active() {
        notes.push(format!("fault injection active: {:?}", fault.injected()));
    }
    StallSnapshot {
        engine: engine.to_string(),
        stalled_for,
        progress_ticks: ticks,
        workers,
        held_locks,
        queue_depths: vec![obs.injector_depth],
        links: Vec::new(),
        workset_size,
        notes,
        traces: recorder.recent_traces(16),
        null_waits: Vec::new(),
    }
}

/// Value stored in the `head_ts`/`last_ts` mirrors for "empty"/"initial".
const EMPTY: u64 = NULL_TS;

/// One input port of the parallel state.
struct PPort {
    /// Guarded by this port's registry lock.
    queue: UnsafeCell<VecDeque<Event>>,
    /// Mirror of the last received timestamp (lock-free readers).
    last_ts: AtomicU64,
    /// Mirror of the head-of-queue timestamp ([`EMPTY`] when empty).
    head_ts: AtomicU64,
}

/// Claim-guarded per-node state.
struct PCore {
    state: NodeState,
    temp: Vec<(PortIx, Event)>,
}

struct PNode {
    /// Immutable copy of `core.state.kind` for lock-free readers.
    kind: NodeKind,
    ports: Box<[PPort]>,
    /// Task-deduplication flag: at most one task runs this node at a time.
    claimed: AtomicBool,
    /// Mirror of `core.state.null_sent` for lock-free activity checks.
    null_sent: AtomicBool,
    core: UnsafeCell<PCore>,
    /// Lock IDs of this node's own input ports, ascending.
    own_locks: Box<[LockId]>,
    /// Lock IDs of own ports + fed fanout ports, ascending, deduplicated.
    lock_plan: Box<[LockId]>,
    /// Fanout with precomputed lock IDs.
    fanout: Box<[(Target, LockId)]>,
}

struct ParSim<'a> {
    circuit: &'a Circuit,
    stimulus: &'a Stimulus,
    config: HjEngineConfig,
    nodes: Box<[PNode]>,
    /// Behind an `Arc` so the watchdog's snapshot closure (which must be
    /// `'static`) can scan held locks while tasks run.
    locks: Arc<LockRegistry>,
    fault: Arc<FaultPlan>,
    ctl: Arc<RunCtl>,
    /// Every retired task's tally, merged once per task.
    totals: Mutex<SimStats>,
    /// Shared by all tasks (they migrate freely across pool threads, so
    /// a single multi-producer ring is the honest attribution).
    probe: RunProbe,
}

// SAFETY: the UnsafeCell fields are guarded as documented on `PPort`
// (port lock) and `PCore` (claim flag); everything else is atomics or
// immutable topology.
unsafe impl Sync for ParSim<'_> {}

impl<'a> ParSim<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        circuit: &'a Circuit,
        stimulus: &'a Stimulus,
        delays: &'a DelayModel,
        config: HjEngineConfig,
        fault: Arc<FaultPlan>,
        ctl: Arc<RunCtl>,
        recorder: &Recorder,
        engine: &str,
        rank: Option<u64>,
    ) -> Self {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        // Assign lock IDs: with per-port locks each (node, port) gets its
        // own; otherwise all ports of a node share the node's base ID.
        let mut port_base = Vec::with_capacity(circuit.num_nodes());
        let mut next: LockId = 0;
        for node in circuit.nodes() {
            port_base.push(next);
            let span = if config.per_port_locks {
                node.kind.num_inputs().max(1)
            } else {
                1
            };
            next += span as LockId;
        }
        let lock_of = |target: &Target| -> LockId {
            if config.per_port_locks {
                port_base[target.node.index()] + target.port as LockId
            } else {
                port_base[target.node.index()]
            }
        };

        let nodes: Box<[PNode]> = circuit
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let num_ports = node.kind.num_inputs();
                let own_locks: Vec<LockId> = if config.per_port_locks {
                    (0..num_ports as LockId).map(|p| port_base[i] + p).collect()
                } else if num_ports > 0 {
                    vec![port_base[i]]
                } else {
                    Vec::new()
                };
                let fanout: Box<[(Target, LockId)]> = node
                    .fanout
                    .iter()
                    .map(|t| (*t, lock_of(t)))
                    .collect();
                let mut plan: Vec<LockId> = own_locks
                    .iter()
                    .copied()
                    .chain(fanout.iter().map(|&(_, l)| l))
                    .collect();
                plan.sort_unstable();
                plan.dedup();
                PNode {
                    kind: node.kind,
                    ports: (0..num_ports)
                        .map(|_| PPort {
                            queue: UnsafeCell::new(VecDeque::new()),
                            last_ts: AtomicU64::new(0),
                            head_ts: AtomicU64::new(EMPTY),
                        })
                        .collect(),
                    claimed: AtomicBool::new(false),
                    null_sent: AtomicBool::new(false),
                    core: UnsafeCell::new(PCore {
                        state: NodeState::new(node.kind, delays),
                        temp: Vec::new(),
                    }),
                    own_locks: own_locks.into_boxed_slice(),
                    lock_plan: plan.into_boxed_slice(),
                    fanout,
                }
            })
            .collect();

        ParSim {
            circuit,
            stimulus,
            config,
            nodes,
            locks: Arc::new(LockRegistry::new(next as usize)),
            fault,
            ctl,
            totals: Mutex::new(SimStats::default()),
            probe: RunProbe::with_rank(recorder, engine, "hj-tasks", rank),
        }
    }

    /// Try to claim exclusive run rights for a node.
    #[inline]
    fn claim(&self, id: NodeId) -> bool {
        self.nodes[id.index()]
            .claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Release the claim. SeqCst so the release is globally ordered
    /// against producers' `head_ts` publishes (lost-wakeup handoff).
    #[inline]
    fn unclaim(&self, id: NodeId) {
        self.nodes[id.index()].claimed.store(false, Ordering::SeqCst);
    }

    /// Lock-free activity check (exact when quiescent; producers and the
    /// retiring claim holder between them never let an active node go
    /// unscheduled).
    fn is_active(&self, id: NodeId) -> bool {
        let node = &self.nodes[id.index()];
        if matches!(node.kind, NodeKind::Input) {
            // Input nodes complete their whole run (stimulus + NULL) once.
            return !node.null_sent.load(Ordering::SeqCst);
        }
        let mut clock = u64::MAX;
        let mut min_head = u64::MAX;
        for port in node.ports.iter() {
            clock = clock.min(port.last_ts.load(Ordering::SeqCst));
            min_head = min_head.min(port.head_ts.load(Ordering::SeqCst));
        }
        if min_head != EMPTY && min_head <= clock {
            return true;
        }
        clock == NULL_TS && min_head == EMPTY && !node.null_sent.load(Ordering::SeqCst)
    }

    /// Merge a retiring task's tally into the run totals and report its
    /// progress. A task that ran no node must not tick: a run whose every
    /// task wastes itself is the stall the watchdog exists to catch.
    fn retire(&self, tally: &SimStats) {
        let work = tally.node_runs + tally.events_delivered + tally.nulls_sent;
        if work > 0 {
            self.ctl.tick_n(work);
        }
        self.totals.lock().unwrap_or_else(PoisonError::into_inner).merge(tally);
    }

    fn into_output(self) -> SimOutput {
        // The finish scope has quiesced: we have exclusive access again.
        let mut stats = self.totals.into_inner().unwrap_or_else(PoisonError::into_inner);
        stats.lock_failures += self.fault.injected().lock_failures;
        for (i, node) in self.nodes.iter().enumerate() {
            debug_assert!(!node.claimed.load(Ordering::SeqCst), "node {i} still claimed");
            debug_assert!(
                node.null_sent.load(Ordering::SeqCst),
                "node {i} never forwarded NULL"
            );
            for port in node.ports.iter() {
                debug_assert_eq!(
                    port.head_ts.load(Ordering::SeqCst),
                    EMPTY,
                    "node {i} has undrained events"
                );
            }
        }
        let states = self.nodes.into_vec().into_iter().map(|n| n.core.into_inner().state);
        let (node_values, waveforms) = final_outputs(self.circuit, states);
        SimOutput {
            stats,
            waveforms,
            node_values,
        }
    }
}

/// Spawn-or-not decision for a possibly-active node (producer side and
/// retiring-task side both come through here).
fn schedule<'s, 'e>(sim: &'e ParSim<'e>, scope: &'s Scope<'s, 'e>, id: NodeId) {
    if sim.ctl.is_cancelled() {
        // Cancellation point: stop respawning so the finish scope drains.
        return;
    }
    if sim.config.avoid_redundant_spawns {
        // §4.5.3: spawn only when we can claim — no redundant tasks. (A
        // node that turns inactive between the check and the task running
        // just performs a cheap empty run; correctness is unaffected.)
        if sim.is_active(id) && sim.claim(id) {
            scope.spawn(move || pump(sim, scope, id, true));
        }
    } else if sim.is_active(id) {
        scope.spawn(move || pump(sim, scope, id, false));
    }
}

/// The task body (paper's `RUNNODE`). `pre_claimed` tells whether the
/// spawner already claimed the node for us.
fn pump<'s, 'e>(sim: &'e ParSim<'e>, scope: &'s Scope<'s, 'e>, id: NodeId, pre_claimed: bool) {
    if !pre_claimed && !sim.claim(id) {
        // Another task is running this node; its exit re-check covers us.
        sim.retire(&SimStats { wasted_activations: 1, ..SimStats::default() });
        return;
    }
    if sim.fault.is_active() {
        if sim.fault.should_panic_spawn() {
            // Record the structured error first so `try_run` can attribute
            // the panic to this node, then panic for real: the unwind path
            // through the scope's catch (and the RAII locker, had we held
            // locks) is exactly what this injection exercises.
            sim.ctl.record_error(SimError::TaskPanicked {
                node: Some(id.index()),
                payload: "injected task panic".into(),
            });
            panic!("fault injection: task panic at node {}", id.index());
        }
        if let Some(delay) = sim.fault.straggler_delay() {
            std::thread::sleep(delay);
        }
    }
    let mut tally = SimStats::default();
    run_claimed(sim, scope, id, &mut tally);
    sim.unclaim(id);
    // Exit re-check: events may have arrived while we were running (their
    // producers saw our claim and left responsibility with us).
    schedule(sim, scope, id);
    sim.retire(&tally);
}

/// Acquire a node's full lock plan with bounded retry + backoff. Each
/// attempt is the paper's non-blocking `try_lock_all`; between attempts
/// the task backs off instead of immediately retiring, which cuts wasted
/// respawns under contention. Injected failures (fault plan) count like
/// real contention. Returns false if the budget is exhausted or the run
/// was cancelled — the caller retires to the claim/re-check protocol.
fn acquire_locks(
    sim: &ParSim<'_>,
    tally: &mut SimStats,
    locker: &mut Locker<'_>,
    plan: &[LockId],
) -> bool {
    let backoff = Backoff::new();
    for attempt in 0..=MAX_LOCK_RETRIES {
        if sim.ctl.is_cancelled() {
            return false;
        }
        if attempt > 0 {
            tally.lock_retries += 1;
            sim.probe
                .tracer()
                .instant(SpanKind::TrylockRetry, plan.len() as u64, attempt as u64);
        } else {
            sim.probe
                .hot_instant(SpanKind::TrylockAttempt, plan.len() as u64, 0);
        }
        let injected = sim.fault.is_active() && sim.fault.should_fail_trylock();
        if !injected {
            if locker.try_lock_all(plan.iter().copied()).is_ok() {
                return true;
            }
            // Injected failures are counted by the fault plan.
            tally.lock_failures += 1;
        }
        if attempt < MAX_LOCK_RETRIES {
            tally.backoff_waits += 1;
            sim.probe
                .tracer()
                .instant(SpanKind::Backoff, plan.len() as u64, attempt as u64);
            backoff.snooze();
        }
    }
    false
}

/// Run one claimed node: trylock, drain, process, emit, release.
fn run_claimed<'s, 'e>(
    sim: &'e ParSim<'e>,
    scope: &'s Scope<'s, 'e>,
    id: NodeId,
    tally: &mut SimStats,
) {
    if sim.fault.is_wedged() {
        // Deliberate wedge (watchdog tests): hold the claim and make no
        // progress until the watchdog cancels the run.
        while !sim.ctl.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        return;
    }
    if sim.ctl.is_cancelled() {
        return;
    }
    let node = &sim.nodes[id.index()];
    let mut locker = sim.locks.locker();

    if matches!(node.kind, NodeKind::Input) {
        // Inputs own no input-port locks; they only lock the fanout ports.
        if !acquire_locks(sim, tally, &mut locker, &node.lock_plan) {
            tally.wasted_activations += 1;
            return; // exit re-check in `pump` retries us
        }
        tally.node_runs += 1;
        let span = sim.probe.begin(id.index());
        let emitted = run_input(sim, tally, id);
        sim.probe.end(span, id.index(), emitted);
        locker.release_all();
        for &(t, _) in node.fanout.iter() {
            schedule(sim, scope, t.node);
        }
        return;
    }

    // Ascending-ID acquisition over own ports + fanout ports (§4.3).
    if !acquire_locks(sim, tally, &mut locker, &node.lock_plan) {
        tally.wasted_activations += 1;
        return; // never block; exit re-check retries if still active
    }
    tally.node_runs += 1;
    let span = sim.probe.begin(id.index());

    // SAFETY: we hold the claim.
    let core = unsafe { &mut *node.core.get() };

    // Drain ready events into the temporary queue (§4.5.1) while holding
    // the own-port locks.
    let mut clock = u64::MAX;
    for port in node.ports.iter() {
        clock = clock.min(port.last_ts.load(Ordering::SeqCst));
    }
    core.temp.clear();
    loop {
        let mut best: Option<(usize, Timestamp)> = None;
        for (i, port) in node.ports.iter().enumerate() {
            let h = port.head_ts.load(Ordering::SeqCst);
            if h != EMPTY && h <= clock && best.is_none_or(|(_, bh)| h < bh) {
                best = Some((i, h));
            }
        }
        let Some((i, _)) = best else { break };
        // SAFETY: we hold port i's lock (it is in `lock_plan`).
        let queue = unsafe { &mut *node.ports[i].queue.get() };
        let Some(ev) = queue.pop_front() else {
            // A desynced head mirror is unrecoverable state corruption:
            // surface it as a structured error and retire. The locker's
            // RAII drop releases every held lock, cancellation stops the
            // respawn protocol, and `try_run` reports the violation.
            sim.ctl.record_error(SimError::invariant(format!(
                "node {}: port {i} head mirror says non-empty but queue is empty",
                id.index()
            )));
            return;
        };
        node.ports[i]
            .head_ts
            .store(queue.front().map_or(EMPTY, |e| e.time), Ordering::SeqCst);
        core.temp.push((i as PortIx, ev));
    }

    // Early release of own-port locks so producers can deliver while we
    // process (§4.5.1). Fanout-port locks stay held — we write those.
    if sim.config.early_port_release {
        for &l in node.own_locks.iter() {
            // A lock may be shared with the fanout plan (self-loop ports
            // cannot occur — the graph is acyclic — but with per-node
            // locks a fanout target may share a lock id with our own).
            if locker.holds(l) && !node.fanout.iter().any(|&(_, fl)| fl == l) {
                locker.release(l);
            }
        }
    }

    // Process the temporary queue (the paper's SIMULATE).
    let drained_events = core.temp.len() as u64;
    tally.events_processed += drained_events;
    for &(port, ev) in &core.temp {
        if let Some(out) = core.state.fire(port, ev) {
            for &(t, _) in node.fanout.iter() {
                deliver(sim, tally, t, out);
            }
        }
    }
    core.temp.clear();

    // NULL forwarding: all ports closed and drained.
    let drained = node.ports.iter().all(|p| {
        p.last_ts.load(Ordering::SeqCst) == NULL_TS && p.head_ts.load(Ordering::SeqCst) == EMPTY
    });
    if drained && !core.state.null_sent {
        core.state.null_sent = true;
        node.null_sent.store(true, Ordering::SeqCst);
        for &(t, _) in node.fanout.iter() {
            deliver_null(sim, tally, t);
        }
    }

    locker.release_all();
    sim.probe.end(span, id.index(), drained_events);

    // Activity checks for the fanout (Alg. 2 l. 18-27). The exit re-check
    // in `pump` covers `id` itself.
    for &(t, _) in node.fanout.iter() {
        schedule(sim, scope, t.node);
    }
}

/// Emit an input node's whole stimulus, then NULL (paper §4.1). Fanout
/// port locks are held by the caller. Returns the stimulus event count.
fn run_input(sim: &ParSim<'_>, tally: &mut SimStats, id: NodeId) -> u64 {
    let node = &sim.nodes[id.index()];
    let input_ix = sim
        .circuit
        .inputs()
        .iter()
        .position(|&i| i == id)
        .expect("id is an input node");
    // SAFETY: we hold the claim of `id`.
    let core = unsafe { &mut *node.core.get() };
    let mut emitted = 0u64;
    for tv in sim.stimulus.input_events(input_ix) {
        emitted += 1;
        if let Some(out) = core.state.fire(0, Event::new(tv.time, tv.value)) {
            for &(t, _) in node.fanout.iter() {
                deliver(sim, tally, t, out);
            }
        }
    }
    tally.events_delivered += emitted;
    tally.events_processed += emitted;
    for &(t, _) in node.fanout.iter() {
        deliver_null(sim, tally, t);
    }
    core.state.null_sent = true;
    node.null_sent.store(true, Ordering::SeqCst);
    emitted
}

/// Deliver one payload event to `target`'s port. Caller holds the port's
/// lock.
#[inline]
fn deliver(sim: &ParSim<'_>, tally: &mut SimStats, target: Target, event: Event) {
    tally.events_delivered += 1;
    let port = &sim.nodes[target.node.index()].ports[target.port as usize];
    debug_assert!(port.last_ts.load(Ordering::SeqCst) != NULL_TS, "event after NULL");
    // SAFETY: caller holds this port's registry lock.
    let queue = unsafe { &mut *port.queue.get() };
    let was_empty = queue.is_empty();
    debug_assert!(queue.back().is_none_or(|b| b.time <= event.time));
    queue.push_back(event);
    if was_empty {
        port.head_ts.store(event.time, Ordering::SeqCst);
    }
    port.last_ts.store(event.time, Ordering::SeqCst);
}

/// Deliver the NULL message to `target`'s port. Caller holds the port's
/// lock.
#[inline]
fn deliver_null(sim: &ParSim<'_>, tally: &mut SimStats, target: Target) {
    tally.nulls_sent += 1;
    let port = &sim.nodes[target.node.index()].ports[target.port as usize];
    debug_assert!(port.last_ts.load(Ordering::SeqCst) != NULL_TS, "duplicate NULL");
    port.last_ts.store(NULL_TS, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seq::SeqWorksetEngine;
    use crate::monitor::Waveform;
    use circuit::generators::{c17, fanout_tree, full_adder, kogge_stone_adder, wallace_multiplier};
    use circuit::Stimulus;

    fn all_configs() -> Vec<HjEngineConfig> {
        let mut configs = Vec::new();
        for per_port in [true, false] {
            for early in [true, false] {
                for avoid in [true, false] {
                    configs.push(HjEngineConfig {
                        per_port_locks: per_port,
                        early_port_release: early,
                        avoid_redundant_spawns: avoid,
                    });
                }
            }
        }
        configs
    }

    fn check_against_seq(circuit: &Circuit, stimulus: &Stimulus, workers: usize) {
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(circuit, stimulus, &delays);
        let rt = Arc::new(HjRuntime::new(workers));
        for config in all_configs() {
            let engine = HjEngine::with_config(Arc::clone(&rt), config);
            let par = engine.run(circuit, stimulus, &delays);
            assert_eq!(
                par.stats.events_delivered, seq.stats.events_delivered,
                "delivered mismatch, {config:?}"
            );
            assert_eq!(
                par.stats.events_processed, par.stats.events_delivered,
                "unprocessed events, {config:?}"
            );
            assert_eq!(par.node_values, seq.node_values, "final values, {config:?}");
            let par_settled: Vec<_> = par.waveforms.iter().map(Waveform::settled).collect();
            let seq_settled: Vec<_> = seq.waveforms.iter().map(Waveform::settled).collect();
            assert_eq!(par_settled, seq_settled, "settled waveforms, {config:?}");
        }
    }

    #[test]
    fn matches_seq_on_c17() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 10, 3, 7);
        check_against_seq(&c, &s, 2);
    }

    #[test]
    fn matches_seq_on_full_adder_dense_ties() {
        let c = full_adder();
        // period 1 → maximal equal-timestamp contention.
        let s = Stimulus::random_vectors(&c, 25, 1, 3);
        check_against_seq(&c, &s, 4);
    }

    #[test]
    fn matches_seq_on_fanout_tree() {
        let c = fanout_tree(4, 3);
        let s = Stimulus::random_vectors(&c, 6, 2, 11);
        check_against_seq(&c, &s, 4);
    }

    #[test]
    fn matches_seq_on_kogge_stone() {
        let c = kogge_stone_adder(16);
        let s = Stimulus::random_vectors(&c, 4, 5, 13);
        check_against_seq(&c, &s, 4);
    }

    #[test]
    fn matches_seq_on_multiplier() {
        let c = wallace_multiplier(6);
        let s = Stimulus::random_vectors(&c, 4, 5, 17);
        check_against_seq(&c, &s, 4);
    }

    /// Task-local tallies merged at retire count exactly what the
    /// sequential engine counts; the publication bound in `try_run`
    /// holds at two workers on a circuit with many events per node run.
    #[test]
    fn task_tallies_match_seq_on_ks64_at_two_workers() {
        let c = kogge_stone_adder(64);
        let s = Stimulus::random_vectors(&c, 40, 10, 0x5EED ^ 40);
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(&c, &s, &delays).stats;
        let par = HjEngine::from_config(&EngineConfig::default().with_workers(2))
            .run(&c, &s, &delays)
            .stats;
        let simulated = |st: &SimStats| (st.events_delivered, st.events_processed, st.nulls_sent);
        assert_eq!(simulated(&par), simulated(&seq));
        assert!(par.node_runs > 0 && par.node_runs < par.events_delivered);
    }

    #[test]
    fn single_worker_works() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 5, 4, 23);
        check_against_seq(&c, &s, 1);
    }

    #[test]
    fn empty_stimulus_terminates() {
        let c = c17();
        let engine = HjEngine::from_config(&EngineConfig::default().with_workers(2));
        let out = engine.run(&c, &Stimulus::empty(5), &DelayModel::standard());
        assert_eq!(out.stats.events_delivered, 0);
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges());
    }

    /// Each failed `try_lock_all` counts once in the task's tally: a lock
    /// another task holds fails the first attempt and every retry.
    #[test]
    fn held_lock_fails_every_attempt_in_the_tally() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 2, 4, 1);
        let delays = DelayModel::standard();
        let sim = ParSim::new(
            &c,
            &s,
            &delays,
            HjEngineConfig::default(),
            Arc::new(FaultPlan::none()),
            Arc::new(RunCtl::new()),
            Recorder::noop(),
            "hj-test",
            None,
        );
        let plan = &sim.nodes[c.inputs()[0].index()].lock_plan;
        let mut holder = sim.locks.locker();
        assert!(holder.try_lock(plan[0]));
        let mut tally = SimStats::default();
        let mut locker = sim.locks.locker();
        assert!(!acquire_locks(&sim, &mut tally, &mut locker, plan));
        assert_eq!(tally.lock_failures, u64::from(MAX_LOCK_RETRIES) + 1);
        assert_eq!(tally.lock_retries, u64::from(MAX_LOCK_RETRIES));
        assert!(locker.held().is_empty());
        assert_eq!(sim.locks.held(), vec![plan[0]]);
    }

    /// One worker has no real contention, so every counted lock failure
    /// is an injected one.
    #[test]
    fn lock_failures_at_one_worker_are_the_injected_ones() {
        let c = kogge_stone_adder(8);
        let s = Stimulus::random_vectors(&c, 4, 2, 13);
        let engine = HjEngine::from_config(&EngineConfig::default().with_workers(1))
            .with_fault_plan(FaultPlan::seeded(21).fail_trylock(0.5));
        let out = engine
            .try_run(&c, &s, &DelayModel::standard())
            .expect("bounded retry");
        let injected = engine.fault_plan().injected().lock_failures;
        assert!(injected > 0);
        assert_eq!(out.stats.lock_failures, injected);
    }

    #[test]
    fn engine_is_reusable() {
        let c = full_adder();
        let engine = HjEngine::from_config(&EngineConfig::default().with_workers(2));
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
}
