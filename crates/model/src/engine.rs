//! The two model engines: a sequential reference and a sharded
//! conservative executor, both driving `CompCore` activations and
//! both wired into the shared run machinery — [`des::EngineConfig`],
//! [`des::RunPolicy`] fault injection, the no-progress watchdog, and
//! the sim-obs recorder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use des::engine::threads::ShardThreads;
use des::{
    EngineConfig, Partition, PinPolicy, Recorder, RunCtl, SimError, SpanKind, StallSnapshot, Tracer,
};
use shard::comm::{fabric, Mailbox, RecvTimeoutError, TrySendError};

use crate::component::Payload;
use crate::graph::{Link, ModelGraph};
use crate::runtime::{fold_run_checksum, CompCore, LinkOut, OutMsg};

/// Names accepted by [`run`]/[`try_run`].
pub const MODEL_ENGINE_NAMES: [&str; 2] = ["model-seq", "model-sharded"];

/// Emit a sampled activation span every `HOT_SAMPLE_MASK + 1`
/// activations (the same 1-in-64 cadence as the circuit engines' run
/// probe).
const HOT_SAMPLE_MASK: u64 = 63;

/// Aggregate counters for one model run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Events handled by component handlers.
    pub events_delivered: u64,
    /// Protocol messages routed between components (events, promises
    /// and terminal NULLs; a promise riding on an event is not a
    /// message of its own).
    pub msgs_routed: u64,
    /// Component activations executed.
    pub activations: u64,
    /// Emissions dropped because they landed at or past the horizon.
    pub dropped_at_horizon: u64,
}

/// What a model run produces.
///
/// `observables` and `checksum` are the deterministic half: for a fixed
/// graph and seed they are bit-identical across engines and shard
/// counts. `stats` describes *this* execution (activation counts vary
/// with scheduling) — only `events_delivered` and `dropped_at_horizon`
/// are deterministic.
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Engine that produced this output.
    pub engine: String,
    /// Execution counters.
    pub stats: ModelStats,
    /// `component.key` observables, in component-id order.
    pub observables: Vec<(String, u64)>,
    /// FNV fold of every handled event `(time, source, payload)`,
    /// per component, combined in component-id order.
    pub checksum: u64,
}

impl ModelOutput {
    /// True when the deterministic halves agree.
    pub fn equivalent(&self, other: &ModelOutput) -> bool {
        self.observables == other.observables && self.checksum == other.checksum
    }

    /// Panic with a pinpointed diff when the deterministic halves
    /// disagree.
    pub fn assert_equivalent(&self, other: &ModelOutput) {
        for (i, (a, b)) in self.observables.iter().zip(&other.observables).enumerate() {
            assert_eq!(
                a, b,
                "observable {i} diverges between {} and {}",
                self.engine, other.engine
            );
        }
        assert_eq!(
            self.observables.len(),
            other.observables.len(),
            "observable count diverges between {} and {}",
            self.engine,
            other.engine
        );
        assert_eq!(
            self.checksum, other.checksum,
            "event-stream checksum diverges between {} and {}",
            self.engine, other.engine
        );
    }
}

/// Run `graph` on the named engine, panicking on failure.
pub fn run<P: Payload>(name: &str, cfg: &EngineConfig, graph: ModelGraph<P>) -> ModelOutput {
    try_run(name, cfg, graph).unwrap_or_else(|e| panic!("model engine '{name}' failed: {e}"))
}

/// Run `graph` on the named engine (`"model-seq"` or
/// `"model-sharded"`), surfacing faults as structured [`SimError`]s.
pub fn try_run<P: Payload>(
    name: &str,
    cfg: &EngineConfig,
    graph: ModelGraph<P>,
) -> Result<ModelOutput, SimError> {
    match name {
        "model-seq" => SeqModelEngine::new(cfg.clone()).try_run(graph),
        "model-sharded" => ShardedModelEngine::new(cfg.clone()).try_run(graph),
        other => panic!("unknown model engine '{other}' (expected one of {MODEL_ENGINE_NAMES:?})"),
    }
}

/// Per-component results a finished executor hands back.
struct CompResult {
    id: usize,
    checksum: u64,
    dropped: u64,
    observables: Vec<(String, u64)>,
}

fn collect_comp<P: Payload>(core: &CompCore<P>) -> CompResult {
    let mut observables = Vec::new();
    core.observables(&mut observables);
    CompResult {
        id: core.id,
        checksum: core.checksum,
        dropped: core.dropped,
        observables,
    }
}

/// Assemble the deterministic output from per-component results.
fn finish(
    engine: &str,
    names: &[String],
    mut comps: Vec<CompResult>,
    mut stats: ModelStats,
    recorder: &Recorder,
    rank: Option<u64>,
    wall: Duration,
) -> ModelOutput {
    comps.sort_by_key(|c| c.id);
    let mut observables = Vec::with_capacity(comps.iter().map(|c| c.observables.len()).sum());
    for c in &comps {
        stats.dropped_at_horizon += c.dropped;
        let name = &names[c.id];
        for (k, v) in &c.observables {
            let mut key = String::with_capacity(name.len() + 1 + k.len());
            key.push_str(name);
            key.push('.');
            key.push_str(k);
            observables.push((key, *v));
        }
    }
    let checksum = fold_run_checksum(comps.iter().map(|c| c.checksum));
    if recorder.is_enabled() {
        let rank_str = rank.map(|r| r.to_string());
        let mut labels: Vec<(&str, &str)> = vec![("engine", engine)];
        if let Some(r) = rank_str.as_deref() {
            labels.push(("rank", r));
        }
        recorder
            .counter("sim_model_events_total", &labels)
            .add(stats.events_delivered);
        recorder
            .counter("sim_model_msgs_total", &labels)
            .add(stats.msgs_routed);
        recorder
            .counter("sim_model_activations_total", &labels)
            .add(stats.activations);
        recorder
            .counter("sim_model_dropped_total", &labels)
            .add(stats.dropped_at_horizon);
        recorder
            .gauge("sim_model_run_wall_ns", &labels)
            .set(wall.as_nanos() as u64);
    }
    ModelOutput {
        engine: engine.to_string(),
        stats,
        observables,
        checksum,
    }
}

/// The note every model stall snapshot leads with.
fn model_stall(snap: &mut StallSnapshot) {
    snap.notes.push("model protocol made no progress".into());
}

/// Lower every component onto a [`CompCore`], handing each exactly its
/// own out links: one sort by `(src, out_ix)`, then each component takes
/// the next run of links off the front.
fn lower<P: Payload>(
    seed: u64,
    horizon: u64,
    comps: Vec<Box<dyn crate::Component<P>>>,
    links: &[Link],
) -> Vec<CompCore<P>> {
    let mut in_counts = vec![0usize; comps.len()];
    for l in links {
        in_counts[l.dst] += 1;
    }
    let mut by_src: Vec<&Link> = links.iter().collect();
    by_src.sort_unstable_by_key(|l| (l.src, l.out_ix));
    let mut rest = by_src.as_slice();
    comps
        .into_iter()
        .enumerate()
        .map(|(id, c)| {
            let (own, tail) = rest.split_at(rest.iter().take_while(|l| l.src == id).count());
            rest = tail;
            let out = own
                .iter()
                .map(|l| LinkOut::new(l.dst, l.dst_port, l.lookahead))
                .collect();
            CompCore::new(id, c, seed, horizon, in_counts[id], out)
        })
        .collect()
}

/// The end-of-run leak check: every event that reached a core's pending
/// heap, sent or self-scheduled, was handled by the time its components
/// are done.
fn check_drained<P: Payload>(engine: &str, cores: &[CompCore<P>]) -> Result<(), SimError> {
    match cores.iter().map(CompCore::pending_events).sum() {
        0 => Ok(()),
        n => Err(SimError::invariant(format!(
            "{engine}: {n} events left in a pending heap after a clean run"
        ))),
    }
}

/// The sequential reference executor: one round-robin activation loop,
/// messages delivered in place.
pub struct SeqModelEngine {
    cfg: EngineConfig,
}

impl SeqModelEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        SeqModelEngine { cfg }
    }

    pub fn name(&self) -> &'static str {
        "model-seq"
    }

    pub fn try_run<P: Payload>(&self, graph: ModelGraph<P>) -> Result<ModelOutput, SimError> {
        let wall = Instant::now();
        self.cfg.fault().reset();
        let recorder = self.cfg.recorder();
        let ctl = Arc::new(RunCtl::new());
        // One executor, so one shard: the harness runs it on the calling
        // thread, unpinned.
        let threads = ShardThreads::new(&PinPolicy::None, 1)?;
        let watchdog = threads.watch("model-seq", &ctl, &self.cfg, model_stall);
        let (seed, horizon, names, comps, links) = graph.into_parts();
        let cores = lower(seed, horizon, comps, &links);
        let ran = threads.run(&ctl, vec![cores], |cores| {
            self.sweep(cores, &ctl, &recorder)
        });
        if let Some(wd) = watchdog {
            wd.disarm();
        }
        let (cores, stats) = ran?.pop().expect("one shard")?;
        let comps: Vec<CompResult> = cores.iter().map(collect_comp).collect();
        Ok(finish("model-seq", &names, comps, stats, &recorder, self.cfg.rank(), wall.elapsed()))
    }

    /// Round-robin activation sweeps until every component is done, the
    /// run is cancelled, or something fails.
    fn sweep<P: Payload>(
        &self,
        mut cores: Vec<CompCore<P>>,
        ctl: &RunCtl,
        recorder: &Recorder,
    ) -> Result<(Vec<CompCore<P>>, ModelStats), SimError> {
        let fault = self.cfg.fault();
        let tracer = recorder.tracer("model-seq");
        let mut enc = Vec::new();
        let mut stats = ModelStats::default();
        let mut out: Vec<OutMsg<P>> = Vec::new();
        while !ctl.is_cancelled() {
            if fault.is_wedged() {
                // Burn wall-clock without ticking progress; the
                // watchdog records NoProgress and cancels us.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if fault.should_panic_shard(0) {
                let payload = catch_unwind(|| panic!("injected fault: model executor panic"))
                    .expect_err("closure panics");
                return Err(SimError::from_panic(None, &*payload));
            }
            let mut progress = 0u64;
            for i in 0..cores.len() {
                if cores[i].is_done() {
                    continue;
                }
                let sampled =
                    (recorder.is_enabled() && stats.activations & HOT_SAMPLE_MASK == 0)
                        .then(Instant::now);
                let core = &mut cores[i];
                let handled = catch_unwind(AssertUnwindSafe(|| core.activate(&mut enc, &mut out)))
                    .map_err(|payload| SimError::from_panic(Some(i), &*payload))?;
                if let Some(start) = sampled {
                    tracer.complete(SpanKind::NodeRun, i as u64, handled, start);
                }
                stats.activations += 1;
                stats.events_delivered += handled;
                stats.msgs_routed += out.len() as u64;
                progress += handled + out.len() as u64;
                for msg in out.drain(..) {
                    cores[msg.dst()].deliver(msg);
                }
            }
            ctl.tick_n(progress);
            if cores.iter().all(|c| c.is_done()) {
                check_drained("model-seq", &cores)?;
                break;
            }
            if progress == 0 {
                return Err(SimError::invariant(
                    "model-seq: no progress with components still pending",
                ));
            }
        }
        Ok((cores, stats))
    }
}

/// The sharded conservative executor: components partitioned into K
/// shards ([`Partition::build_graph`] handles the cyclic graphs the
/// circuit partitioner never sees), run by [`ShardThreads`] — shards 0
/// to K−2 on scoped threads, shard K−1 on the calling thread, each
/// pinned before it starts — with cross-shard traffic
/// over the bounded, batched mailboxes of [`shard::comm`]: a sweep over
/// the shard's components stages what it sends and hands it over a
/// batch at a time.
pub struct ShardedModelEngine {
    cfg: EngineConfig,
}

/// What one shard thread hands back after a clean (or cancelled) run.
struct ShardDone {
    handled: u64,
    routed: u64,
    activations: u64,
    comps: Vec<CompResult>,
}

impl ShardedModelEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        ShardedModelEngine { cfg }
    }

    pub fn name(&self) -> &'static str {
        "model-sharded"
    }

    pub fn try_run<P: Payload>(&self, graph: ModelGraph<P>) -> Result<ModelOutput, SimError> {
        let wall = Instant::now();
        self.cfg.fault().reset();
        let recorder = self.cfg.recorder();
        let ctl = Arc::new(RunCtl::new());
        let (seed, horizon, names, comps, links) = graph.into_parts();
        let n = comps.len();
        let k = self.cfg.shards().max(1).min(n.max(1));
        let edges: Vec<(usize, usize)> = links.iter().map(|l| (l.src, l.dst)).collect();
        let partition = Partition::build_graph(n, &edges, k, self.cfg.strategy());
        let threads = ShardThreads::new(self.cfg.pinning(), k)?;
        let assignment: Arc<Vec<usize>> = Arc::new(partition.assignment().to_vec());
        let (mailboxes, depths) = fabric::<OutMsg<P>>(k, self.cfg.mailbox_capacity().max(1));
        let watchdog = threads.watch("model-sharded", &ctl, &self.cfg, move |snap| {
            model_stall(snap);
            snap.queue_depths = depths.depths();
        });

        // Split the lowered cores by shard; each shard also gets a
        // global-id → local-index map for inbox delivery.
        let mut shard_cores: Vec<Vec<CompCore<P>>> = (0..k).map(|_| Vec::new()).collect();
        let mut g2l = vec![usize::MAX; n];
        for core in lower(seed, horizon, comps, &links) {
            let s = assignment[core.id];
            g2l[core.id] = shard_cores[s].len();
            shard_cores[s].push(core);
        }
        let g2l = Arc::new(g2l);

        let items: Vec<_> = shard_cores.into_iter().zip(mailboxes).collect();
        let ran = threads.run(&ctl, items, |(local, mailbox)| {
            let shard = ModelShard {
                tracer: recorder.tracer(&format!("model-shard-{}", mailbox.shard())),
                local,
                enc: Vec::new(),
                mailbox,
                assignment: Arc::clone(&assignment),
                g2l: Arc::clone(&g2l),
                ctl: Arc::clone(&ctl),
                moved: 0,
                idle_ns: 0,
            };
            shard.run(self.cfg.fault(), &recorder)
        });
        if let Some(wd) = watchdog {
            wd.disarm();
        }
        let mut stats = ModelStats::default();
        let mut comps: Vec<CompResult> = Vec::with_capacity(n);
        for done in ran? {
            // A shard's own failure is recorded in `ctl` too, so `run`
            // already returned the first one.
            let done = done?;
            stats.events_delivered += done.handled;
            stats.msgs_routed += done.routed;
            stats.activations += done.activations;
            comps.extend(done.comps);
        }
        Ok(finish(
            "model-sharded",
            &names,
            comps,
            stats,
            &recorder,
            self.cfg.rank(),
            wall.elapsed(),
        ))
    }
}

/// Why a shard stopped before its components were done.
enum Halt {
    /// The run was cancelled; the shard reports what it has.
    Cancelled,
    /// This shard found the fault.
    Failed(SimError),
}

/// One shard thread's state: its components, the checksum scratch they
/// share, and its end of the fabric.
struct ModelShard<P: Payload> {
    local: Vec<CompCore<P>>,
    enc: Vec<u8>,
    mailbox: Mailbox<OutMsg<P>>,
    /// Component id → owning shard, and → index in that shard's `local`.
    assignment: Arc<Vec<usize>>,
    g2l: Arc<Vec<usize>>,
    ctl: Arc<RunCtl>,
    tracer: Tracer,
    /// Messages taken from the inbox since the last progress report.
    moved: u64,
    /// Nanoseconds spent waiting: in the idle `recv_timeout` and in the
    /// backpressure sleeps of `relieve`. One clock span per wait; a busy
    /// sweep reads no clock.
    idle_ns: u64,
}

impl<P: Payload> ModelShard<P> {
    fn run(mut self, fault: &des::FaultPlan, recorder: &Recorder) -> Result<ShardDone, SimError> {
        let me = self.mailbox.shard();
        let mut done = ShardDone {
            handled: 0,
            routed: 0,
            activations: 0,
            comps: Vec::new(),
        };
        let mut sweeps = 0u64;
        let mut out: Vec<OutMsg<P>> = Vec::new();

        let ended: Result<(), Halt> = 'run: loop {
            if self.ctl.is_cancelled() {
                break Err(Halt::Cancelled);
            }
            if fault.is_wedged() {
                // Hold the shard without ticking progress until the
                // watchdog cancels the run.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if fault.should_panic_shard(me as u64) {
                let payload = catch_unwind(|| panic!("injected fault: shard {me} panic"))
                    .expect_err("closure panics");
                break Err(Halt::Failed(SimError::from_panic(None, &*payload)));
            }

            // One sweep over the shard's components. Remote sends are
            // staged in the mailbox and handed over a batch at a time.
            let before = (done.handled, done.routed);
            for li in 0..self.local.len() {
                // Drain before every activation, not just once a sweep
                // (free while the inbox is empty): the peer publishes a
                // batch at a time and stalls once this inbox holds
                // `mailbox_capacity` messages.
                self.drain_inbox();
                if self.local[li].is_done() {
                    continue;
                }
                let gid = self.local[li].id;
                let sampled = (recorder.is_enabled() && done.activations & HOT_SAMPLE_MASK == 0)
                    .then(Instant::now);
                let (core, enc) = (&mut self.local[li], &mut self.enc);
                let n = match catch_unwind(AssertUnwindSafe(|| core.activate(enc, &mut out))) {
                    Ok(n) => n,
                    Err(payload) => {
                        break 'run Err(Halt::Failed(SimError::from_panic(Some(gid), &*payload)))
                    }
                };
                if let Some(start) = sampled {
                    self.tracer
                        .complete(SpanKind::NodeRun, gid as u64, n, start);
                }
                done.activations += 1;
                done.handled += n;
                done.routed += out.len() as u64;
                for msg in out.drain(..) {
                    let s = self.assignment[msg.dst()];
                    if s == me {
                        self.deliver_local(msg);
                    } else if let Err(halt) = self.send(s, msg) {
                        break 'run Err(halt);
                    }
                }
            }
            sweeps += 1;
            let (handled, routed) = (done.handled - before.0, done.routed - before.1);
            // End of the sweep: publish what is still staged. This is
            // also the flush before the blocking wait below, and before
            // this shard's exit.
            if let Err(halt) = self.flush() {
                break Err(halt);
            }
            let moved = std::mem::take(&mut self.moved);
            self.ctl.tick_n(handled + routed + moved);

            if self.local.iter().all(|c| c.is_done()) {
                break check_drained("model-sharded", &self.local).map_err(Halt::Failed);
            }
            if handled == 0 && routed == 0 && moved == 0 {
                // Nothing local to do: block briefly for upstream traffic,
                // re-checking cancellation at a human-invisible cadence.
                let idle_from = Instant::now();
                match self.mailbox.recv_timeout(Duration::from_millis(1)) {
                    Ok(msg) => {
                        self.deliver_local(msg);
                        self.ctl.tick();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every peer is gone and this shard is not done: the
                    // run failed elsewhere. Wait for the cancellation.
                    Err(RecvTimeoutError::Disconnected) => {
                        std::thread::sleep(Duration::from_millis(1))
                    }
                }
                self.idle_ns += idle_from.elapsed().as_nanos() as u64;
            }
        };
        if recorder.is_enabled() {
            let shard = me.to_string();
            let labels = [("engine", "model-sharded"), ("shard", shard.as_str())];
            recorder
                .counter("sim_model_sweeps_total", &labels)
                .add(sweeps);
            recorder
                .counter("sim_model_idle_ns_total", &labels)
                .add(self.idle_ns);
        }
        if let Err(Halt::Failed(err)) = ended {
            self.ctl.record_error(err.clone());
            return Err(err);
        }
        done.comps = self.local.iter().map(collect_comp).collect();
        Ok(done)
    }

    fn deliver_local(&mut self, msg: OutMsg<P>) {
        let li = self.g2l[msg.dst()];
        self.local[li].deliver(msg);
    }

    /// Take everything published to this shard's inbox.
    fn drain_inbox(&mut self) -> u64 {
        let mut n = 0;
        while let Ok(msg) = self.mailbox.try_recv() {
            self.deliver_local(msg);
            n += 1;
        }
        self.moved += n;
        n
    }

    /// Stage `msg` toward shard `dst`, under the fabric's backpressure
    /// contract.
    fn send(&mut self, dst: usize, mut msg: OutMsg<P>) -> Result<(), Halt> {
        loop {
            match self.mailbox.try_send(dst, msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    self.tracer.instant(
                        SpanKind::MailboxStall,
                        dst as u64,
                        self.mailbox.inbox_len() as u64,
                    );
                    self.relieve()?;
                }
                Err(TrySendError::Disconnected) if self.ctl.is_cancelled() => {
                    return Err(Halt::Cancelled)
                }
                Err(TrySendError::Disconnected) => {
                    return Err(Halt::Failed(SimError::invariant(format!(
                        "model-sharded: shard {} sent to exited shard {dst}",
                        self.mailbox.shard()
                    ))))
                }
            }
        }
    }

    /// Publish everything staged, however long the destinations take to
    /// make room.
    fn flush(&mut self) -> Result<(), Halt> {
        while !self.mailbox.flush() {
            self.relieve()?;
        }
        Ok(())
    }

    /// A destination is full: drain our own inbox (which is what breaks
    /// a send cycle between two full shards) before the caller retries.
    fn relieve(&mut self) -> Result<(), Halt> {
        let drained = self.drain_inbox();
        if self.ctl.is_cancelled() {
            return Err(Halt::Cancelled);
        }
        if drained == 0 {
            // Nothing of ours to drain: the destination is busy, not
            // blocked on us.
            let idle_from = Instant::now();
            std::thread::sleep(Duration::from_micros(50));
            self.idle_ns += idle_from.elapsed().as_nanos() as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::runtime::SELF_SRC;
    use crate::{Component, Ctx, EventSource};

    struct Idle;
    impl Component<u64> for Idle {
        fn on_event(&mut self, _s: EventSource, _p: u64, _ctx: &mut Ctx<'_, u64>) {}
    }

    /// Run the leak check over one core left done with an event at 5
    /// from `src` still queued.
    fn check_stranded(src: usize) {
        let mut core = CompCore::new(0, Box::new(Idle), 7, 100, 1, Vec::new());
        assert!(check_drained("model-seq", std::slice::from_ref(&core)).is_ok());
        core.strand_event(5, src, 9);
        assert!(core.is_done());
        match check_drained("model-seq", &[core]) {
            Err(SimError::InvariantViolation { context }) => {
                assert!(context.contains("1 events left"), "{context}")
            }
            other => panic!("expected an invariant violation, got {other:?}"),
        }
    }

    #[test]
    fn an_event_left_in_a_cores_heap_fails_the_run() {
        check_stranded(0);
    }

    #[test]
    fn a_pending_self_event_fails_the_run() {
        check_stranded(SELF_SRC);
    }
}
