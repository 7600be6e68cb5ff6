//! The Galois-style optimistic parallel DES engine (the paper's baseline).
//!
//! Mirrors the Galois-Java benchmark's structure (paper Algorithm 3 +
//! §2.2): worker threads pull active nodes from an unordered [`Workset`]
//! and execute each as a **speculative iteration**:
//!
//! 1. ownership of each touched node is acquired lazily, *in touch order*
//!    (no global ordering — the cautious pattern of Algorithm 2 is exactly
//!    what this baseline cannot do, per §4.4);
//! 2. every mutation is undo-logged;
//! 3. a conflict (another iteration owns a touched node) aborts the
//!    iteration: roll back, release, re-enqueue, count the abort;
//! 4. a completed iteration commits: counters are published, newly active
//!    owned nodes are enqueued, ownership is released.
//!
//! Per-node state uses the heavier ordered queue (`gnode::GNode`) the
//! Galois-Java version used, not the per-port deques of the HJ engine.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use circuit::{Circuit, DelayModel, NodeId, NodeKind, Stimulus};
use crossbeam_utils::Backoff;
use des::engine::{Engine, SimOutput};
use des::event::{Event, NULL_TS};
use des::node::{final_outputs, node_delay};
use des::stats::SimStats;
use fault::{FaultPlan, RunCtl, RunPolicy, SimError, StallSnapshot, Watchdog, WorkerSnapshot};

use crate::gnode::GNode;
use crate::ownership::{OwnerId, OwnershipTable};
use crate::undo::{UndoLog, UndoOp};
use crate::workset::Workset;

/// The optimistic baseline engine.
#[derive(Debug, Clone)]
pub struct GaloisEngine {
    workers: usize,
    policy: RunPolicy,
}

impl GaloisEngine {
    /// Engine with `workers` worker threads (spawned per run, as the
    /// Galois runtime does for each parallel region).
    ///
    /// Note this engine is *not* reachable through `des::engine::build`:
    /// this crate depends on `des-core` for the [`Engine`] trait, so the
    /// factory cannot construct it without a dependency cycle.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        GaloisEngine {
            workers,
            policy: RunPolicy::new(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Install a fault plan (decision counters reset on every run).
    /// `force_conflicts` makes `touch` spuriously fail, driving the
    /// abort/rollback/retry machinery far harder than organic contention.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.policy = self.policy.with_fault_plan(plan);
        self
    }

    /// Set (or with `None` disable) the no-progress watchdog deadline.
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.policy = self.policy.with_watchdog(deadline);
        self
    }
}

impl Engine for GaloisEngine {
    fn name(&self) -> String {
        format!("galois[w={}]", self.workers)
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        let fault = Arc::clone(self.policy.fault());
        fault.reset();
        let ctl = Arc::new(RunCtl::new());
        let sim = GaloisSim::new(circuit, stimulus, delays, Arc::clone(&fault), Arc::clone(&ctl));
        for &input in circuit.inputs() {
            sim.workset.push(input);
        }
        let watchdog = self.policy.watchdog().map(|deadline| {
            let fault = Arc::clone(&fault);
            let workset = Arc::clone(&sim.workset);
            let ownership = Arc::clone(&sim.ownership);
            let engine = self.name();
            let workers = self.workers;
            Watchdog::arm(Arc::clone(&ctl), deadline, move |stalled_for, ticks| {
                let mut notes = Vec::new();
                if fault.is_active() {
                    notes.push(format!("fault injection active: {:?}", fault.injected()));
                }
                StallSnapshot {
                    engine: engine.clone(),
                    stalled_for,
                    progress_ticks: ticks,
                    workers: (0..workers)
                        .map(|id| WorkerSnapshot {
                            id,
                            state: "running".into(),
                            queue_depth: None,
                            ..WorkerSnapshot::default()
                        })
                        .collect(),
                    held_locks: (0..ownership.len())
                        .filter(|&ix| ownership.owner_of(ix) != 0)
                        .collect(),
                    queue_depths: vec![workset.pending()],
                    links: Vec::new(),
                    workset_size: workset.pending(),
                    notes,
                    null_waits: Vec::new(),
                    traces: Vec::new(),
                }
            })
        });
        std::thread::scope(|scope| {
            for w in 0..self.workers {
                let sim = &sim;
                let owner = (w + 1) as OwnerId;
                scope.spawn(move || sim.worker_loop(owner));
            }
        });
        if let Some(wd) = watchdog {
            wd.disarm();
        }
        if let Some(err) = ctl.take_error() {
            // A failed iteration must have rolled back and released its
            // ownership; a node still owned here is a leak.
            let leaked: Vec<usize> = (0..sim.ownership.len())
                .filter(|&ix| sim.ownership.owner_of(ix) != 0)
                .collect();
            if !leaked.is_empty() {
                return Err(SimError::invariant(format!(
                    "nodes {leaked:?} still owned after failed run (original error: {err})"
                )));
            }
            return Err(err);
        }
        Ok(sim.into_output())
    }
}

struct GaloisSim<'a> {
    circuit: &'a Circuit,
    stimulus: &'a Stimulus,
    nodes: Box<[UnsafeCell<GNode>]>,
    // Behind `Arc` so the watchdog's snapshot closure (which must be
    // `'static`) can observe them while the workers run.
    ownership: Arc<OwnershipTable>,
    workset: Arc<Workset>,
    fault: Arc<FaultPlan>,
    ctl: Arc<RunCtl>,
    delivered: AtomicU64,
    processed: AtomicU64,
    nulls: AtomicU64,
    runs: AtomicU64,
    wasted: AtomicU64,
    aborts: AtomicU64,
}

// SAFETY: each `UnsafeCell<GNode>` is only accessed by the iteration that
// owns the node in `ownership` (acquire/release provide the ordering).
unsafe impl Sync for GaloisSim<'_> {}

/// Outcome of one speculative iteration.
enum IterationOutcome {
    Committed,
    Aborted,
}

impl<'a> GaloisSim<'a> {
    fn new(
        circuit: &'a Circuit,
        stimulus: &'a Stimulus,
        delays: &'a DelayModel,
        fault: Arc<FaultPlan>,
        ctl: Arc<RunCtl>,
    ) -> Self {
        assert_eq!(stimulus.num_inputs(), circuit.inputs().len());
        let nodes = circuit
            .nodes()
            .iter()
            .map(|n| UnsafeCell::new(GNode::new(n.kind, node_delay(n.kind, delays))))
            .collect();
        GaloisSim {
            circuit,
            stimulus,
            nodes,
            ownership: Arc::new(OwnershipTable::new(circuit.num_nodes())),
            workset: Arc::new(Workset::new()),
            fault,
            ctl,
            delivered: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            nulls: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    fn worker_loop(&self, owner: OwnerId) {
        let backoff = Backoff::new();
        let mut iteration = Iteration::new(owner);
        loop {
            if self.ctl.is_cancelled() {
                return;
            }
            match self.workset.pop() {
                Some(id) => {
                    if self.fault.is_wedged() {
                        // Deliberate wedge: hold the popped item (never
                        // done_one) so the workset stays non-quiescent,
                        // until the watchdog cancels the run.
                        while !self.ctl.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return;
                    }
                    // A panicking iteration (injected or genuine) must not
                    // abort the process: roll back its speculative state,
                    // release its ownership, record the error, cancel.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if self.fault.is_active() {
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
                        }
                        iteration.execute(self, id)
                    }));
                    match result {
                        Ok(IterationOutcome::Committed) => self.ctl.tick(),
                        Ok(IterationOutcome::Aborted) => {
                            self.aborts.fetch_add(1, Ordering::Relaxed);
                            // Retry later; back off so the conflicting
                            // iteration can finish (Galois's arbitration).
                            self.workset.push(id);
                            backoff.snooze();
                        }
                        Err(payload) => {
                            iteration.abort(self);
                            self.ctl
                                .record_error(SimError::from_panic(Some(id.index()), payload.as_ref()));
                            self.ctl.cancel();
                            self.workset.done_one();
                            return;
                        }
                    }
                    self.workset.done_one();
                    backoff.reset();
                }
                None => {
                    if self.workset.is_quiescent() {
                        return;
                    }
                    backoff.snooze();
                    if backoff.is_completed() {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Exclusive access to an owned node. Caller must own `ix`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn node_mut(&self, ix: usize) -> &mut GNode {
        &mut *self.nodes[ix].get()
    }

    fn into_output(self) -> SimOutput {
        // Quiescent epilogue: single-threaded again.
        let stats = SimStats {
            events_delivered: self.delivered.load(Ordering::Relaxed),
            events_processed: self.processed.load(Ordering::Relaxed),
            nulls_sent: self.nulls.load(Ordering::Relaxed),
            node_runs: self.runs.load(Ordering::Relaxed),
            wasted_activations: self.wasted.load(Ordering::Relaxed),
            lock_failures: self.ownership.conflicts() + self.fault.injected().conflicts,
            aborts: self.aborts.load(Ordering::Relaxed),
            lock_retries: 0,
            backoff_waits: 0,
            ..SimStats::default()
        };
        let nodes = self.nodes.into_vec().into_iter().map(UnsafeCell::into_inner);
        let states = nodes.enumerate().map(|(ix, n)| {
            debug_assert!(n.queue.is_empty(), "node {ix} has undrained events");
            debug_assert!(n.null_sent, "node {ix} never forwarded NULL");
            n.state
        });
        let (node_values, waveforms) = final_outputs(self.circuit, states);
        SimOutput {
            stats,
            waveforms,
            node_values,
        }
    }
}

/// Per-iteration speculative context, reused across iterations to avoid
/// allocation churn.
struct Iteration {
    owner: OwnerId,
    held: Vec<u32>,
    undo: UndoLog,
    // Iteration-local counters, published only on commit (so aborts do not
    // distort the deterministic totals).
    delivered: u64,
    processed: u64,
    nulls: u64,
}

impl Iteration {
    fn new(owner: OwnerId) -> Self {
        Iteration {
            owner,
            held: Vec::with_capacity(8),
            undo: UndoLog::new(),
            delivered: 0,
            processed: 0,
            nulls: 0,
        }
    }

    /// Acquire ownership of `ix` (idempotent within the iteration).
    fn touch(&mut self, sim: &GaloisSim<'_>, ix: u32) -> bool {
        if self.held.contains(&ix) {
            return true;
        }
        if sim.fault.is_active() && sim.fault.should_force_conflict() {
            // Injected conflict: behave exactly as if another iteration
            // owned the node (abort, roll back, retry).
            return false;
        }
        if sim.ownership.acquire(ix as usize, self.owner) {
            self.held.push(ix);
            true
        } else {
            false
        }
    }

    fn abort(&mut self, sim: &GaloisSim<'_>) -> IterationOutcome {
        // SAFETY: rollback only touches nodes in `held` (we logged only
        // mutations to owned nodes), which we still own.
        self.undo.rollback(|ix| {
            debug_assert!(self.held.contains(&ix), "undo touched an unowned node");
            sim.nodes[ix as usize].get()
        });
        self.release_all(sim);
        self.delivered = 0;
        self.processed = 0;
        self.nulls = 0;
        IterationOutcome::Aborted
    }

    fn release_all(&mut self, sim: &GaloisSim<'_>) {
        for ix in self.held.drain(..) {
            sim.ownership.release(ix as usize, self.owner);
        }
    }

    fn commit(&mut self, sim: &GaloisSim<'_>, candidates: &[u32]) -> IterationOutcome {
        self.undo.commit();
        sim.delivered.fetch_add(self.delivered, Ordering::Relaxed);
        sim.processed.fetch_add(self.processed, Ordering::Relaxed);
        sim.nulls.fetch_add(self.nulls, Ordering::Relaxed);
        self.delivered = 0;
        self.processed = 0;
        self.nulls = 0;
        // Activity check under ownership (exact), then release & publish.
        let mut to_push: Vec<NodeId> = Vec::new();
        for &ix in candidates {
            debug_assert!(self.held.contains(&ix));
            // SAFETY: we own ix.
            let node = unsafe { sim.node_mut(ix as usize) };
            if node.is_active() {
                to_push.push(NodeId(ix));
            }
        }
        self.release_all(sim);
        for id in to_push {
            sim.workset.push(id);
        }
        IterationOutcome::Committed
    }

    /// Execute one speculative iteration on node `id` (Algorithm 3's loop
    /// body: SIMULATE + activity checks, under optimistic conflict
    /// detection).
    fn execute(&mut self, sim: &GaloisSim<'_>, id: NodeId) -> IterationOutcome {
        debug_assert!(self.held.is_empty() && self.undo.is_empty());
        let ix = id.0;
        if !self.touch(sim, ix) {
            return self.abort(sim);
        }
        sim.runs.fetch_add(1, Ordering::Relaxed);

        let kind = {
            // SAFETY: we own ix.
            let node = unsafe { sim.node_mut(ix as usize) };
            if !node.is_active() {
                // Duplicate workset entry: nothing to do.
                sim.wasted.fetch_add(1, Ordering::Relaxed);
                return self.commit(sim, &[]);
            }
            node.kind
        };

        let outcome = match kind {
            NodeKind::Input => self.execute_input(sim, id),
            _ => self.execute_gate_or_output(sim, id),
        };
        match outcome {
            Ok(candidates) => self.commit(sim, &candidates),
            Err(()) => self.abort(sim),
        }
    }

    /// Deliver one payload event speculatively. Fails on conflict.
    fn deliver(
        &mut self,
        sim: &GaloisSim<'_>,
        target: circuit::Target,
        event: Event,
    ) -> Result<(), ()> {
        let tix = target.node.0;
        if !self.touch(sim, tix) {
            return Err(());
        }
        // SAFETY: we own tix.
        let node = unsafe { sim.node_mut(tix as usize) };
        let old_ts = node.last_ts[target.port as usize];
        let key = node.insert(target.port, event);
        self.undo.push(UndoOp::LastTs {
            node: tix,
            port: target.port,
            old: old_ts,
        });
        self.undo.push(UndoOp::Inserted { node: tix, key });
        self.delivered += 1;
        Ok(())
    }

    /// Deliver the NULL message speculatively. Fails on conflict.
    fn deliver_null(
        &mut self,
        sim: &GaloisSim<'_>,
        target: circuit::Target,
    ) -> Result<(), ()> {
        let tix = target.node.0;
        if !self.touch(sim, tix) {
            return Err(());
        }
        // SAFETY: we own tix.
        let node = unsafe { sim.node_mut(tix as usize) };
        let old = node.receive_null(target.port);
        self.undo.push(UndoOp::LastTs {
            node: tix,
            port: target.port,
            old,
        });
        self.nulls += 1;
        Ok(())
    }

    fn execute_input(&mut self, sim: &GaloisSim<'_>, id: NodeId) -> Result<Vec<u32>, ()> {
        let ix = id.0;
        let input_ix = sim
            .circuit
            .inputs()
            .iter()
            .position(|&i| i == id)
            .expect("id is an input node");
        let fanout = &sim.circuit.node(id).fanout;
        {
            // SAFETY: we own ix.
            let node = unsafe { sim.node_mut(ix as usize) };
            self.undo.push(UndoOp::Latch { node: ix, old: node.latch });
        }
        for tv in sim.stimulus.input_events(input_ix) {
            self.delivered += 1;
            self.processed += 1;
            // SAFETY: we own ix; the borrow ends before `deliver` below.
            let fired = unsafe { sim.node_mut(ix as usize) }.fire(0, Event::new(tv.time, tv.value));
            if let Some(out) = fired {
                for &t in fanout {
                    self.deliver(sim, t, out)?;
                }
            }
        }
        for &t in fanout {
            self.deliver_null(sim, t)?;
        }
        {
            // SAFETY: we own ix.
            let node = unsafe { sim.node_mut(ix as usize) };
            self.undo.push(UndoOp::NullSent { node: ix });
            node.null_sent = true;
        }
        let mut candidates: Vec<u32> = fanout.iter().map(|t| t.node.0).collect();
        candidates.sort_unstable();
        candidates.dedup();
        Ok(candidates)
    }

    fn execute_gate_or_output(
        &mut self,
        sim: &GaloisSim<'_>,
        id: NodeId,
    ) -> Result<Vec<u32>, ()> {
        let ix = id.0;
        let fanout = &sim.circuit.node(id).fanout;
        loop {
            // SAFETY: we own ix; the borrow ends before `deliver` below.
            let popped = {
                let node = unsafe { sim.node_mut(ix as usize) };
                node.pop_ready()
            };
            let Some((key, port, value)) = popped else { break };
            self.undo.push(UndoOp::Popped {
                node: ix,
                key,
                port,
                value,
            });
            self.processed += 1;
            // SAFETY: we own ix; scoped borrow.
            let emitted = {
                let node = unsafe { sim.node_mut(ix as usize) };
                self.undo.push(UndoOp::Latch { node: ix, old: node.latch });
                if matches!(node.kind, NodeKind::Output) {
                    self.undo.push(UndoOp::WaveformLen {
                        node: ix,
                        old_len: node.waveform.len(),
                    });
                }
                node.fire(port, Event::new(key.0, value))
            };
            if let Some(out) = emitted {
                for &t in fanout {
                    self.deliver(sim, t, out)?;
                }
            }
        }

        // NULL forwarding.
        let owes_null = {
            // SAFETY: we own ix.
            let node = unsafe { sim.node_mut(ix as usize) };
            !node.null_sent && node.clock() == NULL_TS && node.queue.is_empty()
        };
        if owes_null {
            {
                // SAFETY: we own ix.
                let node = unsafe { sim.node_mut(ix as usize) };
                self.undo.push(UndoOp::NullSent { node: ix });
                node.null_sent = true;
            }
            for &t in fanout {
                self.deliver_null(sim, t)?;
            }
        }

        let mut candidates: Vec<u32> = fanout.iter().map(|t| t.node.0).collect();
        candidates.retain(|&c| self.held.contains(&c));
        candidates.sort_unstable();
        candidates.dedup();
        Ok(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::generators::{c17, fanout_tree, full_adder, kogge_stone_adder};
    use des::engine::seq::SeqWorksetEngine;
    use des::validate::{check_against_oracle, check_conservation, check_equivalent};

    fn check(circuit: &Circuit, stimulus: &Stimulus, workers: usize) {
        let delays = DelayModel::standard();
        let seq = SeqWorksetEngine::new().run(circuit, stimulus, &delays);
        let galois = GaloisEngine::new(workers).run(circuit, stimulus, &delays);
        check_conservation(&galois).unwrap();
        check_equivalent(&seq, &galois).unwrap();
        check_against_oracle(circuit, stimulus, &galois).unwrap();
    }

    #[test]
    fn matches_seq_on_c17() {
        let c = c17();
        check(&c, &Stimulus::random_vectors(&c, 10, 3, 2), 2);
    }

    #[test]
    fn matches_seq_on_full_adder_with_ties() {
        let c = full_adder();
        check(&c, &Stimulus::random_vectors(&c, 20, 1, 4), 4);
    }

    #[test]
    fn matches_seq_on_fanout_tree() {
        let c = fanout_tree(3, 3);
        check(&c, &Stimulus::random_vectors(&c, 5, 2, 6), 3);
    }

    #[test]
    fn matches_seq_on_kogge_stone() {
        let c = kogge_stone_adder(8);
        check(&c, &Stimulus::random_vectors(&c, 3, 5, 8), 4);
    }

    #[test]
    fn single_worker_has_no_conflicts() {
        let c = c17();
        let s = Stimulus::random_vectors(&c, 5, 3, 10);
        let out = GaloisEngine::new(1).run(&c, &s, &DelayModel::standard());
        assert_eq!(out.stats.aborts, 0);
        assert_eq!(out.stats.lock_failures, 0);
    }

    #[test]
    fn empty_stimulus_terminates() {
        let c = c17();
        let out = GaloisEngine::new(2).run(&c, &Stimulus::empty(5), &DelayModel::standard());
        assert_eq!(out.stats.events_delivered, 0);
        assert_eq!(out.stats.nulls_sent as usize, c.num_edges());
    }
}
