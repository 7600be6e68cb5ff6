//! Distributed sharded engine: the Chandy–Misra shard fabric across
//! process boundaries over `sim-net`'s TCP transport (DESIGN.md §9).
//!
//! Every participating process loads the *same* circuit, stimulus, and
//! partition (agreement is enforced by a configuration digest in the
//! connection handshake), runs the contiguous block of shards
//! [`net::shards_of_process`] assigns to its rank, and exchanges
//! cross-process events and NULLs through batched, checksummed frames.
//! The shard cores themselves are byte-for-byte the ones the
//! single-process [`super::sharded::ShardedEngine`] runs — they are
//! generic over [`net::Link`] — so the deterministic observables are
//! unchanged by distribution.
//!
//! ## Distributed termination
//!
//! Chandy–Misra termination needs no global clock: a shard finishes
//! once every in-edge has delivered its terminal NULL, and a finished
//! shard is owed nothing further (its upstream nodes have all retired).
//! Distribution adds only the question "when may a process tear down
//! its sockets?", answered by a two-step protocol on the control plane:
//!
//! 1. **Workers → coordinator**: when all local shards finish cleanly, a
//!    worker sends each shard's encoded outcome
//!    ([`net::wire::Frame::Outcome`]) followed by
//!    [`net::wire::Frame::Done`], then parks waiting for shutdown. As a
//!    cross-check it first verifies the per-peer terminal-NULL counters
//!    against the expected cut-edge counts — a mismatch means the
//!    protocol itself is broken and is reported as an invariant error,
//!    not silently ignored.
//! 2. **Coordinator → workers**: rank 0 collects every outcome and every
//!    `Done`, broadcasts [`net::wire::Frame::Shutdown`] (raising its own
//!    teardown flag first so the resulting EOFs are expected), merges the
//!    outcomes exactly as the single-process engine merges its shard
//!    results, and returns the [`SimOutput`].
//!
//! A peer dying mid-run surfaces as a structured
//! [`SimError::Transport`] from the fabric's reader threads (which also
//! cancel the run), and the no-progress watchdog — armed here over the
//! TCP probe, so stall reports include per-link outbox depths — remains
//! the backstop for anything subtler.

use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use circuit::{Circuit, DelayModel, Stimulus};
use fault::{SimError, Watchdog};
use net::tcp::{establish, ControlEvent, TcpConfig, TcpControl, TcpFabric};
use net::wire::{get_u8, get_uvarint, put_uvarint};
use net::{shards_of_process, BackoffSchedule, Link, DEFAULT_OUTBOX_FRAMES};
use obs::{FleetCollector, RankReport};
use shard::comm::outgoing_cut_edges;
use shard::PartitionStrategy;

use crate::engine::checkpoint::{get_events, get_logic, put_events, put_logic};
use crate::engine::config::EngineConfig;
use crate::engine::sharded::{merge_outcomes, LocalShards, ShardOutcome};
use crate::engine::{Engine, SimOutput};
use crate::monitor::Waveform;
use crate::stats::{SimStats, NUM_STAT_FIELDS};

/// Version byte of the outcome blob encoding. Version 2 added the
/// rebalancing counters (always zero for distributed runs, which keep
/// their static partition, but the blob mirrors [`SimStats`] 1:1).
const OUTCOME_VERSION: u8 = 2;

/// How long the control-plane wait loops block per poll.
const CONTROL_POLL: Duration = Duration::from_millis(20);

/// Everything one process needs to join a distributed run: the rank's
/// identity plus the [`EngineConfig`] of the run. Every rank must be
/// constructed from the same logical configuration; agreement is checked
/// via [`config_digest`] during the handshake.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// This process's rank in `addrs` (rank 0 is the coordinator).
    pub process: usize,
    /// Listen address of every process, indexed by rank. Its length is
    /// the process count.
    pub addrs: Vec<SocketAddr>,
    /// How long to keep redialing peers during setup, and how long the
    /// termination waits may take before being declared wedged.
    pub connect_deadline: Duration,
    /// Piggyback fleet telemetry (rank-tagged metric snapshots, trace
    /// flushes, clock-offset pings) on the framed protocol. Advertised
    /// as a feature bit in the `Hello` handshake; telemetry frames only
    /// flow on links where *both* ends enabled it. With this `false`
    /// the handshake bytes and wire traffic are identical to the
    /// pre-telemetry protocol.
    pub telemetry: bool,
    /// How often each worker captures and ships a [`RankReport`] while
    /// its shards run (the final report at termination is uncondi-
    /// tional). Ignored unless `telemetry` is on.
    pub telemetry_period: Duration,
    /// Coordinator-only sink for merged fleet telemetry: every absorbed
    /// rank report and clock estimate lands here, for the caller to
    /// export (merged Perfetto trace, rank-labelled Prometheus text,
    /// straggler report). Ignored on workers and when `telemetry` is
    /// off.
    pub fleet: Option<Arc<Mutex<FleetCollector>>>,
    /// The run: shard count, partition strategy (both must agree across
    /// ranks for identical cuts), mailbox and batch sizing, watchdog,
    /// fault plan, recorder, checkpointing (every rank must configure the
    /// same interval and, on one machine, the same directory), restore
    /// (all ranks of a session must agree; the resumed epoch is fenced
    /// in the handshake). Its process count is ignored in favour of
    /// `addrs`, and its rebalance policy too: distributed runs keep their
    /// static partition.
    pub engine: EngineConfig,
}

impl DistConfig {
    /// Number of processes in the run.
    pub fn num_processes(&self) -> usize {
        self.addrs.len()
    }
}
/// FNV-1a over the run parameters every rank must agree on. Carried in
/// the `Hello` handshake so two processes launched with different
/// circuits, stimuli, or partitions refuse to connect instead of
/// desynchronizing mid-run.
pub fn config_digest(
    circuit: &Circuit,
    stimulus: &Stimulus,
    num_shards: usize,
    strategy: PartitionStrategy,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(circuit.num_nodes() as u64);
    mix(circuit.inputs().len() as u64);
    mix(circuit.outputs().len() as u64);
    mix(stimulus.num_events() as u64);
    mix(stimulus.horizon());
    mix(num_shards as u64);
    for b in strategy.name().bytes() {
        mix(u64::from(b));
    }
    h
}

// ---------------------------------------------------------------------------
// Outcome blobs: a shard's results encoded for the coordinator.

/// Encode one shard's outcome for a [`net::Frame::Outcome`] blob, using
/// the wire crate's varint vocabulary and the checkpoint event codec for
/// waveforms. The stats travel as [`SimStats::as_array`] in field order,
/// so the blob tracks the struct without this module naming every
/// counter.
fn encode_outcome(outcome: &ShardOutcome) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(OUTCOME_VERSION);
    for v in outcome.stats.as_array() {
        put_uvarint(&mut buf, v);
    }
    put_uvarint(&mut buf, outcome.values.len() as u64);
    for &(ix, v) in &outcome.values {
        put_uvarint(&mut buf, ix as u64);
        put_logic(&mut buf, v);
    }
    put_uvarint(&mut buf, outcome.waveforms.len() as u64);
    for (out_ix, wf) in &outcome.waveforms {
        put_uvarint(&mut buf, *out_ix as u64);
        put_events(&mut buf, wf.events());
    }
    buf
}

/// Decode a [`net::Frame::Outcome`] blob back into a [`ShardOutcome`].
fn decode_outcome(shard: usize, blob: &[u8]) -> Result<ShardOutcome, SimError> {
    let err =
        |context: &str| SimError::invariant(format!("outcome blob from shard {shard}: {context}"));
    let wire = |e: net::WireError| err(&e.to_string());
    let pos = &mut 0usize;
    let version = get_u8(blob, pos).map_err(wire)?;
    if version != OUTCOME_VERSION {
        return Err(err(&format!("unknown version {version}")));
    }
    let mut fields = [0u64; NUM_STAT_FIELDS];
    for f in fields.iter_mut() {
        *f = get_uvarint(blob, pos).map_err(wire)?;
    }
    let stats = SimStats::from_array(fields);
    let nvalues = get_uvarint(blob, pos).map_err(wire)? as usize;
    let mut values = Vec::with_capacity(nvalues.min(1 << 20));
    for _ in 0..nvalues {
        let ix = get_uvarint(blob, pos).map_err(wire)? as usize;
        values.push((ix, get_logic(blob, pos).map_err(|e| err(&e))?));
    }
    let nwaves = get_uvarint(blob, pos).map_err(wire)? as usize;
    let mut waveforms = Vec::with_capacity(nwaves.min(1 << 20));
    for _ in 0..nwaves {
        let out_ix = get_uvarint(blob, pos).map_err(wire)? as usize;
        let events = get_events(blob, pos).map_err(|e| err(&e))?;
        if events.windows(2).any(|w| w[1].time < w[0].time) {
            return Err(err("waveform times decrease"));
        }
        let mut wf = Waveform::new();
        for e in events {
            wf.record(e);
        }
        waveforms.push((out_ix, wf));
    }
    if *pos != blob.len() {
        return Err(err("trailing bytes"));
    }
    Ok(ShardOutcome {
        stats,
        values,
        waveforms,
    })
}

// ---------------------------------------------------------------------------
// One process's run.

/// Drop trace dumps of threads this rank does not own from a telemetry
/// report. With one recorder per OS process (the `des-node` binary)
/// this is a no-op; the in-process harness shares a single recorder
/// across all rank threads, so an unfiltered capture would attribute
/// every rank's rings to every report and the merged timeline would
/// show each thread once per rank. Shard cores and their senders carry
/// global shard ids (`shard-N`, `net-N`); reader threads are named
/// after the remote peer (`net-rx-P`). Unrecognized thread names are
/// kept — better a duplicate than a dropped ring.
fn retain_local_traces(report: &mut RankReport, local: &Range<usize>, process: usize) {
    report.traces.retain(|dump| {
        let t = dump.thread.as_str();
        if let Some(id) = t.strip_prefix("shard-").and_then(|s| s.parse::<usize>().ok()) {
            return local.contains(&id);
        }
        if let Some(peer) = t.strip_prefix("net-rx-").and_then(|s| s.parse::<usize>().ok()) {
            return peer != process;
        }
        if let Some(id) = t.strip_prefix("net-").and_then(|s| s.parse::<usize>().ok()) {
            return local.contains(&id);
        }
        true
    });
}

/// Run this process's block of shards as one node of a distributed
/// simulation.
///
/// The caller provides the already-bound listener for its own address
/// (bind first, share the resolved address, then call — this is what
/// makes ephemeral ports usable in tests). Returns `Ok(Some(output))`
/// on the coordinator (rank 0) once every process reported done, and
/// `Ok(None)` on workers once the coordinator's shutdown arrived.
pub fn run_node(
    circuit: &Circuit,
    stimulus: &Stimulus,
    delays: &DelayModel,
    listener: TcpListener,
    cfg: &DistConfig,
) -> Result<Option<SimOutput>, SimError> {
    let wall_start = Instant::now();
    let nproc = cfg.num_processes();
    let engine_name = format!("dist[p={}/{nproc}]", cfg.process);
    // Static partition, and every metric labelled with this rank.
    let engine_cfg = cfg
        .engine
        .clone()
        .with_rebalance(None)
        .with_rank(Some(cfg.process as u64));
    let num_shards = engine_cfg.shards();
    let recorder = &engine_cfg.recorder();
    // Every rank resolves the newest consistent checkpoint epoch
    // independently from the shared directory; the session epoch in the
    // handshake fences any disagreement (a stale writer that resumed
    // from a different epoch is refused).
    let shards = LocalShards::new(
        circuit,
        stimulus,
        delays,
        &engine_cfg,
        engine_name.clone(),
        cfg.process,
        nproc,
    )?;
    let (ctl, local) = (&shards.ctl, &shards.local);
    let resumed = shards.ckpt.as_ref().is_some_and(|s| s.resume.is_some());
    let session_epoch = shards.ckpt.as_ref().map_or(0, |s| s.session_epoch());

    let fault = engine_cfg.fault();
    let fabric = establish(
        listener,
        &TcpConfig {
            process: cfg.process,
            addrs: cfg.addrs.clone(),
            num_shards,
            mailbox_capacity: engine_cfg.mailbox_capacity(),
            batch_msgs: engine_cfg.batch_msgs(),
            max_outbox_frames: DEFAULT_OUTBOX_FRAMES,
            digest: config_digest(circuit, stimulus, num_shards, engine_cfg.strategy()),
            connect_deadline: cfg.connect_deadline,
            session_epoch,
            retry_seed: fault.seed(),
            recorder: recorder.clone(),
            fault: Arc::clone(fault),
            telemetry: cfg.telemetry,
        },
        Arc::clone(&shards.partition),
        Arc::clone(ctl),
    )?;
    let TcpFabric {
        endpoints,
        control,
        probe,
    } = fabric;
    // Armed through the termination waits below, not just the shard run.
    let watchdog = shards.watch(probe.clone());

    // Telemetry sequencing: periodic in-run reports plus one final
    // report share the counter so the collector's stale-seq drop works.
    let telemetry_on = cfg.telemetry;
    let mut telemetry_seq: u64 = 0;

    let outcomes = std::thread::scope(|scope| {
        // Workers additionally run a telemetry pump: every period,
        // capture this rank's metric/trace snapshot and ship it to the
        // coordinator as an opaque blob. Lossy by design — a full
        // outbox drops the report rather than perturb the simulation.
        if telemetry_on && cfg.process != 0 {
            let control = &control;
            let threads = &shards.threads;
            let engine = &engine_name;
            let period = cfg.telemetry_period.max(Duration::from_millis(10));
            let seq = &mut telemetry_seq;
            scope.spawn(move || {
                let mut next = Instant::now() + period;
                while !(threads.all_done() || ctl.is_cancelled()) {
                    std::thread::sleep(Duration::from_millis(5));
                    if Instant::now() < next {
                        continue;
                    }
                    next += period;
                    if control.peer_telemetry(0) {
                        let rank = cfg.process as u64;
                        let mut report = RankReport::capture(rank, engine, *seq, recorder, 1 << 14);
                        retain_local_traces(&mut report, local, cfg.process);
                        *seq += 1;
                        control.send_telemetry(0, report.seq, report.encode());
                    }
                }
            });
        }
        shards.run(endpoints, |link| {
            link.set_tracer(recorder.tracer(&format!("net-{}", link.shard())));
        })
    });

    let finish = |watchdog: Option<Watchdog>, err: SimError| {
        if let Some(dog) = watchdog {
            dog.disarm();
        }
        // Raise the teardown flag so our sockets closing underneath the
        // peers' readers is not misread by *our* threads, then let the
        // fabric drop announce the failure as EOFs.
        control.begin_shutdown();
        Err(err)
    };

    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(err) => return finish(watchdog, err),
    };

    // Cross-check distributed termination: every inbound cut edge from a
    // remote shard must have delivered exactly one terminal NULL. A
    // resumed run skips the check — edges whose terminal NULL landed
    // before the checkpoint carry it inside the snapshot (the port's
    // clock is already at the horizon), so it is never re-sent.
    if !resumed {
        for peer in 0..nproc {
            if peer == cfg.process {
                continue;
            }
            let expected: usize = shards_of_process(num_shards, nproc, peer)
                .map(|s| {
                    outgoing_cut_edges(circuit, &shards.partition, s)
                        .iter()
                        .filter(|e| local.contains(&e.dst_shard))
                        .count()
                })
                .sum();
            let got = control.terminal_nulls_from(peer);
            if got != expected {
                return finish(
                    watchdog,
                    SimError::invariant(format!(
                        "dist: expected {expected} terminal NULLs from process {peer}, saw {got}"
                    )),
                );
            }
        }
    }

    let deadline = Instant::now() + cfg.connect_deadline;
    if cfg.process != 0 {
        // Worker: ship the final telemetry report and outcomes, announce
        // done, park until shutdown. The final report is what carries
        // the authoritative end-of-run counters (NULL-wait totals,
        // trace rings), so unlike the periodic reports it retries
        // briefly instead of dropping on a full outbox.
        if telemetry_on && control.peer_telemetry(0) {
            let mut report = RankReport::capture(
                cfg.process as u64,
                &engine_name,
                telemetry_seq,
                recorder,
                1 << 14,
            );
            retain_local_traces(&mut report, local, cfg.process);
            let blob = report.encode();
            for _ in 0..50 {
                if control.send_telemetry(0, report.seq, blob.clone()) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        for (off, outcome) in outcomes.iter().enumerate() {
            control.send_outcome(0, local.start + off, encode_outcome(outcome))?;
        }
        control.send_done(0)?;
        loop {
            if let Some(err) = ctl.take_error() {
                return finish(watchdog, err);
            }
            match control.recv_timeout(CONTROL_POLL) {
                Some(ControlEvent::Shutdown) => break,
                Some(ControlEvent::ClockPing { peer, echo_ns, t_rx_ns }) => {
                    // Answer clock probes from the park loop: the 4-stamp
                    // NTP exchange cancels our processing delay, so the
                    // poll latency costs no accuracy.
                    control.send_clock_pong(peer, echo_ns, t_rx_ns, recorder.now_ns());
                }
                Some(ControlEvent::PeerLost { .. }) | None => {}
                Some(_) => {}
            }
            ctl.tick(); // parked-but-healthy: keep the watchdog quiet
            if Instant::now() >= deadline {
                return finish(
                    watchdog,
                    SimError::Transport {
                        peer: Some(0),
                        direction: None,
                        epoch: None,
                        context: "no shutdown from coordinator within deadline".into(),
                    },
                );
            }
        }
        if let Some(dog) = watchdog {
            dog.disarm();
        }
        return Ok(None);
    }

    // Coordinator: collect every remote outcome and done, then shut the
    // fabric down and merge. Telemetry rides the same loop: rank
    // reports are absorbed into the fleet collector as they arrive, and
    // each poll tick pings every telemetry-enabled peer so the per-link
    // clock-offset estimates accumulate RTT samples (the minimum-RTT
    // sample wins; more pings only sharpen it).
    let fleet = cfg.fleet.as_ref().filter(|_| telemetry_on);
    let absorb = |fleet: Option<&Arc<Mutex<FleetCollector>>>, event: &ControlEvent| {
        let Some(fleet) = fleet else { return };
        match event {
            ControlEvent::Telemetry { peer, blob, .. } => {
                // Corrupt telemetry is diagnostic-only: drop it.
                if let Ok(report) = RankReport::decode(blob) {
                    fleet.lock().expect("fleet collector").absorb(report);
                }
                let _ = peer;
            }
            ControlEvent::ClockPong { peer, echo_ns, t_rx_ns, t_tx_ns, t_recv_ns } => {
                fleet.lock().expect("fleet collector").observe_clock(
                    *peer as u64,
                    *echo_ns,
                    *t_rx_ns,
                    *t_tx_ns,
                    *t_recv_ns,
                );
            }
            _ => {}
        }
    };
    let ping_peers = |control: &TcpControl| {
        if !telemetry_on {
            return;
        }
        for peer in 1..nproc {
            if control.peer_telemetry(peer) {
                control.send_clock_ping(peer, recorder.now_ns());
            }
        }
    };
    let mut all = Vec::with_capacity(num_shards);
    all.extend(outcomes);
    let mut done = vec![false; nproc];
    done[0] = true;
    while !(done.iter().all(|&d| d) && all.len() == num_shards) {
        if let Some(err) = ctl.take_error() {
            return finish(watchdog, err);
        }
        ping_peers(&control);
        match control.recv_timeout(CONTROL_POLL) {
            Some(ControlEvent::Outcome { shard, blob }) => {
                ctl.tick();
                all.push(decode_outcome(shard, &blob)?);
            }
            Some(ControlEvent::Done { process }) => {
                ctl.tick();
                if process >= nproc || done[process] {
                    return finish(
                        watchdog,
                        SimError::invariant(format!("dist: bogus done from process {process}")),
                    );
                }
                done[process] = true;
            }
            Some(ControlEvent::Shutdown) => {
                return finish(
                    watchdog,
                    SimError::invariant("dist: coordinator received shutdown"),
                );
            }
            Some(ref event @ (ControlEvent::Telemetry { .. } | ControlEvent::ClockPong { .. })) => {
                ctl.tick();
                absorb(fleet, event);
            }
            Some(ControlEvent::ClockPing { peer, echo_ns, t_rx_ns }) => {
                control.send_clock_pong(peer, echo_ns, t_rx_ns, recorder.now_ns());
            }
            Some(ControlEvent::PeerLost { .. }) | None => {}
        }
        if Instant::now() >= deadline {
            let missing: Vec<usize> =
                (0..nproc).filter(|&p| !done[p]).collect();
            return finish(
                watchdog,
                SimError::Transport {
                    peer: missing.first().copied(),
                    direction: None,
                    epoch: None,
                    context: format!(
                        "termination wait timed out: {}/{} outcomes, waiting on processes {missing:?}",
                        all.len(),
                        num_shards
                    ),
                },
            );
        }
    }
    if let Some(dog) = watchdog {
        dog.disarm();
    }
    // Clock-offset round: every worker is now parked in its shutdown
    // poll loop, which answers pings, so a burst of exchanges per link
    // lands cleanly here. The minimum-RTT sample wins, so extra rounds
    // only sharpen the estimate; pings the run itself dropped (lossy
    // control channel) cost nothing.
    if let Some(fleet) = fleet {
        for _ in 0..8 {
            ping_peers(&control);
            let round_deadline = Instant::now() + Duration::from_millis(40);
            while Instant::now() < round_deadline {
                match control.recv_timeout(Duration::from_millis(10)) {
                    Some(
                        ref event @ (ControlEvent::Telemetry { .. }
                        | ControlEvent::ClockPong { .. }),
                    ) => absorb(Some(fleet), event),
                    Some(ControlEvent::ClockPing { peer, echo_ns, t_rx_ns }) => {
                        control.send_clock_pong(peer, echo_ns, t_rx_ns, recorder.now_ns());
                    }
                    _ => {}
                }
            }
            let sharp_enough = (1..nproc)
                .filter(|&p| control.peer_telemetry(p))
                .all(|p| {
                    fleet
                        .lock()
                        .expect("fleet collector")
                        .clock_estimate(p as u64)
                        .is_some_and(|e| e.samples >= 4)
                });
            if sharp_enough {
                break;
            }
        }
    }
    control.broadcast_shutdown();
    let output = merge_outcomes(circuit, all, shards.metrics.load_imbalance_pct);
    output
        .stats
        .publish_ranked(recorder, &engine_name, Some(cfg.process as u64), wall_start.elapsed());
    // The coordinator's own snapshot goes in last, after the merged
    // stats publish, so the fleet exports carry rank 0's final counters
    // (including its shards' NULL-wait totals) alongside the workers'.
    if let Some(fleet) = fleet {
        let mut report = RankReport::capture(0, &engine_name, telemetry_seq, recorder, 1 << 14);
        retain_local_traces(&mut report, local, cfg.process);
        fleet.lock().expect("fleet collector").absorb(report);
    }
    Ok(Some(output))
}

// ---------------------------------------------------------------------------
// In-process harness: N "processes" as threads over real sockets.

/// Default deadline for setup and termination waits.
const DEFAULT_CONNECT_DEADLINE: Duration = Duration::from_secs(30);

/// The distributed engine driven from a single OS process: spawns one
/// thread per rank, each running [`run_node`] over real localhost TCP
/// sockets. This exists so the TCP fabric is exercised by the same
/// differential tests and benchmarks as every other engine; genuinely
/// separate processes use the `des-node` binary with the same
/// [`run_node`] entry point.
pub struct TcpShardedEngine {
    cfg: EngineConfig,
    /// The coordinator's merged-telemetry sink; `Some` turns telemetry
    /// frames on on every link.
    fleet: Option<Arc<Mutex<FleetCollector>>>,
}

impl TcpShardedEngine {
    /// Build the engine from the unified [`EngineConfig`], the one place
    /// its knobs are set. Note the distributed engine always runs its
    /// static partition: a configured rebalance policy is ignored (the
    /// rebalancing protocol is in-process only). A configured fault plan
    /// is shared by every rank of the in-process harness and each rank
    /// resets it when it starts, so inject counted faults only where a
    /// double reset during the connection handshake cannot skew the
    /// decision stream (e.g. wedges).
    ///
    /// # Panics
    /// If `cfg.processes()` exceeds `cfg.shards()`.
    pub fn from_config(cfg: &EngineConfig) -> Self {
        let (num_shards, num_processes) = (cfg.shards(), cfg.processes());
        assert!(
            num_processes <= num_shards,
            "more processes than shards: {num_processes} > {num_shards}"
        );
        TcpShardedEngine {
            cfg: cfg.clone(),
            fleet: None,
        }
    }

    /// Enable fleet telemetry frames on every link and direct the
    /// coordinator's merged telemetry into `fleet` (merged traces,
    /// rank-labelled metrics, clock offsets, straggler report).
    pub fn with_fleet(mut self, fleet: Arc<Mutex<FleetCollector>>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// One full fabric lifetime: bind, connect, run, merge.
    fn run_attempt(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
        restore: bool,
    ) -> Result<SimOutput, SimError> {
        // Bind every rank's listener first so the shared address list is
        // complete before anyone dials (ephemeral ports).
        let num_processes = self.cfg.processes();
        let mut listeners = Vec::with_capacity(num_processes);
        let mut addrs = Vec::with_capacity(num_processes);
        for _ in 0..num_processes {
            let l = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| SimError::transport(None, format!("bind: {e}")))?;
            addrs.push(
                l.local_addr()
                    .map_err(|e| SimError::transport(None, format!("local_addr: {e}")))?,
            );
            listeners.push(l);
        }
        let mut results: Vec<Result<Option<SimOutput>, SimError>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    // Clones share one fault plan and one recorder.
                    let cfg = DistConfig {
                        process: rank,
                        addrs: addrs.clone(),
                        connect_deadline: DEFAULT_CONNECT_DEADLINE,
                        telemetry: self.fleet.is_some(),
                        telemetry_period: Duration::from_millis(100),
                        fleet: if rank == 0 { self.fleet.clone() } else { None },
                        engine: self.cfg.clone().with_restore(restore),
                    };
                    scope.spawn(move || run_node(circuit, stimulus, delays, listener, &cfg))
                })
                .collect();
            for handle in handles {
                results.push(handle.join().unwrap_or_else(|_| {
                    Err(SimError::invariant("dist: rank thread panicked"))
                }));
            }
        });
        let mut output = None;
        let mut first_err = None;
        for (rank, result) in results.into_iter().enumerate() {
            match result {
                Ok(Some(out)) => {
                    debug_assert_eq!(rank, 0, "only the coordinator returns output");
                    output = Some(out);
                }
                Ok(None) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match (output, first_err) {
            (Some(out), None) => Ok(out),
            (_, Some(e)) => Err(e),
            (None, None) => Err(SimError::invariant(
                "dist: coordinator returned no output and no error",
            )),
        }
    }
}

/// Failures worth restarting from a checkpoint: a lost peer or a crashed
/// rank. Configuration and invariant errors are never retried — the
/// retry would fail identically.
fn recoverable(err: &SimError) -> bool {
    matches!(
        err,
        SimError::Transport { .. } | SimError::TaskPanicked { .. }
    )
}

impl Engine for TcpShardedEngine {
    fn name(&self) -> String {
        let tag = if self.cfg.checkpoint().is_some() { ",ckpt" } else { "" };
        format!(
            "tcp-sharded[k={},p={},{}{tag}]",
            self.cfg.shards(),
            self.cfg.processes(),
            self.cfg.strategy().name()
        )
    }

    fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        delays: &DelayModel,
    ) -> Result<SimOutput, SimError> {
        // Recovery supervisor: run the fabric, and on a recoverable
        // failure rebuild it from the newest consistent checkpoint after
        // a deterministic backoff (DESIGN.md §12). The first attempt
        // honors the configured `restore` flag; every retry restores.
        let budget = if self.cfg.checkpoint().is_some() {
            self.cfg.recovery_attempts()
        } else {
            0
        };
        let mut backoff = BackoffSchedule::new(self.cfg.fault().seed(), u64::MAX);
        let mut restore = self.cfg.restore();
        for remaining in (0..=budget).rev() {
            match self.run_attempt(circuit, stimulus, delays, restore) {
                Ok(out) => return Ok(out),
                Err(e) if remaining > 0 && recoverable(&e) => {
                    std::thread::sleep(backoff.next_delay());
                    restore = true;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("recovery loop returns on its final attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seq::SeqWorksetEngine;
    use crate::event::Event;
    use circuit::generators::{c17, kogge_stone_adder};
    use circuit::Logic;

    #[test]
    fn outcome_blob_round_trips() {
        let mut wf = Waveform::new();
        wf.record(Event {
            time: 3,
            value: Logic::One,
        });
        wf.record(Event {
            time: 900,
            value: Logic::Zero,
        });
        let outcome = ShardOutcome {
            stats: SimStats {
                events_delivered: 42,
                cut_events_sent: 7,
                net_bytes_sent: 123_456,
                ..Default::default()
            },
            values: vec![(0, Logic::Zero), (5, Logic::One)],
            waveforms: vec![(1, wf)],
        };
        let blob = encode_outcome(&outcome);
        // The bytes every rank of a mixed build must agree on: version,
        // the 19 stats in field order, values, then each waveform as
        // count + (time, logic byte).
        #[rustfmt::skip]
        let golden: [u8; 35] = [
            2,
            42, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0xC0, 0xC4, 0x07, 0, 0,
            2, 0, 0, 5, 1,
            1, 1, 2, 3, 1, 0x84, 0x07, 0,
        ];
        assert_eq!(blob, golden);
        let back = decode_outcome(3, &blob).unwrap();
        assert_eq!(back.stats, outcome.stats);
        assert_eq!(back.values, outcome.values);
        assert_eq!(back.waveforms, outcome.waveforms);

        // Corruption and truncation must error, never panic.
        assert!(decode_outcome(3, &blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] = 99;
        assert!(decode_outcome(3, &bad).is_err());
    }

    #[test]
    fn digest_is_sensitive_to_config() {
        let ks = kogge_stone_adder(8);
        let stim = Stimulus::random_vectors(&ks, 4, 10, 1);
        let base = config_digest(&ks, &stim, 4, PartitionStrategy::GreedyCut);
        assert_ne!(base, config_digest(&ks, &stim, 2, PartitionStrategy::GreedyCut));
        assert_ne!(
            base,
            config_digest(&ks, &stim, 4, PartitionStrategy::RoundRobin)
        );
        let c = c17();
        let stim_c = Stimulus::random_vectors(&c, 4, 10, 1);
        assert_ne!(base, config_digest(&c, &stim_c, 4, PartitionStrategy::GreedyCut));
    }

    #[test]
    fn two_process_tcp_matches_seq_on_c17() {
        let circuit = c17();
        let stimulus = Stimulus::random_vectors(&circuit, 6, 10, 7);
        let delays = DelayModel::unit();
        let seq = SeqWorksetEngine::new().run(&circuit, &stimulus, &delays);
        let dist = TcpShardedEngine::from_config(
            &EngineConfig::default().with_shards(2).with_processes(2),
        )
        .run(&circuit, &stimulus, &delays);
        assert_eq!(dist.node_values, seq.node_values);
        assert_eq!(dist.stats.events_delivered, seq.stats.events_delivered);
        for (a, b) in dist.waveforms.iter().zip(&seq.waveforms) {
            assert_eq!(a.settled(), b.settled());
        }
    }
}
