//! `des-node`: one process of a distributed sharded simulation.
//!
//! Every participating process is launched with the *same* config file
//! (circuit, stimulus, partition, and the full node address list) plus
//! its own `--process` rank; rank 0 is the coordinator and prints or
//! writes the observables once every rank reports done. Agreement on
//! the config is enforced by the connection handshake's digest — two
//! nodes started from different configs refuse to connect.
//!
//! ```text
//! des-node --config run.conf --process 0 --observables obs.txt
//! des-node --config run.conf --process 1
//! ```
//!
//! Config format (one `key = value` per line, `#` comments):
//!
//! ```text
//! circuit = ks64          # ks64 | ks128 | mult12 | c17
//! vectors = 30            # random stimulus vectors
//! period = 10             # vector period (simulated time)
//! seed = 7                # stimulus seed
//! shards = 2              # total shard count across all nodes
//! strategy = greedy       # greedy | roundrobin | bfs
//! mailbox = 256           # per-shard inbox capacity (messages)
//! batch = 64              # cross-process batching threshold (msgs)
//! watchdog_ms = 10000     # no-progress deadline (0 disables)
//! connect_s = 30          # setup / termination deadline (seconds)
//! pin = compact           # none | compact | spread | 0,2,4 (core list)
//! telemetry = on          # piggyback fleet telemetry on the wire (off)
//! telemetry_ms = 100      # worker rank-report period (milliseconds)
//! node = 127.0.0.1:7101   # rank 0 (coordinator)
//! node = 127.0.0.1:7102   # rank 1
//! checkpoint_dir = /tmp/ckpt  # optional: deterministic epoch snapshots
//! checkpoint_every = 5000     # events per shard between checkpoints
//! kill_rank = 1               # optional chaos drill: kill this rank ...
//! kill_epoch = 2              # ... at this checkpoint epoch (1-based)
//! ```
//!
//! `--seq` ignores the node list and runs the sequential reference
//! engine instead (for producing the oracle observables); `--check-seq`
//! makes the coordinator additionally run it in-process and exit
//! nonzero if the distributed observables differ.
//!
//! `--metrics-addr HOST:PORT` (default: off) enables the sim-obs
//! recorder for the run and serves Prometheus text exposition on the
//! given address for the lifetime of the process. The endpoint is
//! plaintext HTTP with no authentication — bind it to loopback or a
//! trusted network only (TLS/auth is a ROADMAP follow-up). A bind
//! failure degrades to a warning: metrics are an observer, never a
//! reason to abort a simulation.
//!
//! With `telemetry = on` in the config every rank advertises the fleet
//! telemetry feature bit in its handshake; workers then ship periodic
//! rank-tagged metric/trace snapshots to the coordinator, which also
//! measures per-link clock offsets (DESIGN.md §16). On the coordinator
//! this unlocks `--trace-out PATH` (one merged, offset-corrected
//! Perfetto timeline covering every rank: rank → process track, shard
//! thread → thread track), makes the coordinator's metrics endpoint
//! serve the *fleet* exposition (every rank's metrics, labelled
//! `rank="N"`), and prints the straggler report — which rank/link
//! carried the largest blocked-on-NULL share. With `telemetry = off`
//! (the default) the handshake bytes and wire traffic are identical to
//! the pre-telemetry protocol.
//!
//! Recovery (DESIGN.md §12): with `checkpoint_dir`/`checkpoint_every`
//! configured every rank writes deterministic epoch snapshots, and
//! `--restore` resumes a crashed run from the newest consistent epoch.
//! The `kill_rank`/`kill_epoch` keys inject a rank crash at a
//! checkpoint barrier for chaos drills; they are ignored under
//! `--restore` so the restarted rank is not re-killed.

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use circuit::generators::{c17, kogge_stone_adder, wallace_multiplier};
use circuit::{Circuit, DelayModel, Stimulus};
use des::engine::seq::SeqWorksetEngine;
use des::{
    run_node, CheckpointConfig, DistConfig, Engine, EngineConfig, FaultPlan, ObsConfig,
    PartitionStrategy, PinPolicy, Recorder, SimOutput,
};
use obs::prometheus::MetricsServer;

struct NodeConfig {
    circuit_name: String,
    vectors: usize,
    period: u64,
    seed: u64,
    /// `kill_rank`/`kill_epoch` chaos injection, if both keys are set.
    kill: Option<(u64, u64)>,
    dist: DistConfig,
}

fn parse_config(path: &str, process: usize, restore: bool) -> Result<NodeConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut circuit_name = None;
    let mut vectors = 16usize;
    let mut period = 10u64;
    let mut seed = 0u64;
    let mut shards = None;
    let mut strategy = PartitionStrategy::default();
    let mut mailbox = 256usize;
    let mut batch = 64usize;
    let mut watchdog_ms = 10_000u64;
    let mut connect_s = 30u64;
    let mut addrs = Vec::new();
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_every = 0u64;
    let mut kill_rank: Option<u64> = None;
    let mut kill_epoch: Option<u64> = None;
    let mut pinning = PinPolicy::None;
    let mut telemetry = false;
    let mut telemetry_ms = 100u64;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("{path}:{}: expected key = value", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let bad = |e: &dyn std::fmt::Display| format!("{path}:{}: {key}: {e}", lineno + 1);
        match key {
            "circuit" => circuit_name = Some(value.to_string()),
            "vectors" => vectors = value.parse().map_err(|e| bad(&e))?,
            "period" => period = value.parse().map_err(|e| bad(&e))?,
            "seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "shards" => shards = Some(positive(value).map_err(|e| bad(&e))?),
            "strategy" => {
                strategy = match value {
                    "greedy" => PartitionStrategy::GreedyCut,
                    "roundrobin" => PartitionStrategy::RoundRobin,
                    "bfs" => PartitionStrategy::BfsLayered,
                    other => return Err(bad(&format!("unknown strategy '{other}'"))),
                }
            }
            "mailbox" => mailbox = positive(value).map_err(|e| bad(&e))?,
            "batch" => batch = positive(value).map_err(|e| bad(&e))?,
            "watchdog_ms" => watchdog_ms = value.parse().map_err(|e| bad(&e))?,
            "connect_s" => connect_s = value.parse().map_err(|e| bad(&e))?,
            "node" => addrs.push(value.parse().map_err(|e| bad(&e))?),
            "checkpoint_dir" => checkpoint_dir = Some(value.into()),
            "checkpoint_every" => checkpoint_every = value.parse().map_err(|e| bad(&e))?,
            "kill_rank" => kill_rank = Some(value.parse().map_err(|e| bad(&e))?),
            "kill_epoch" => kill_epoch = Some(value.parse().map_err(|e| bad(&e))?),
            "pin" => pinning = PinPolicy::parse(value).map_err(|e| bad(&e))?,
            "telemetry" => {
                telemetry = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => return Err(bad(&format!("expected on/off, got '{other}'"))),
                }
            }
            "telemetry_ms" => telemetry_ms = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("{path}:{}: unknown key '{other}'", lineno + 1)),
        }
    }
    let circuit_name = circuit_name.ok_or("config is missing 'circuit'")?;
    let shards = shards.ok_or("config is missing 'shards'")?;
    if addrs.is_empty() {
        return Err("config has no 'node' lines".into());
    }
    if process >= addrs.len() {
        return Err(format!(
            "--process {process} out of range: config lists {} node(s)",
            addrs.len()
        ));
    }
    let checkpoint = match checkpoint_dir {
        Some(dir) if checkpoint_every >= 1 => Some(CheckpointConfig {
            every_events: checkpoint_every,
            dir,
        }),
        Some(_) => return Err("checkpoint_dir needs checkpoint_every >= 1".into()),
        None if checkpoint_every > 0 => {
            return Err("checkpoint_every needs checkpoint_dir".into())
        }
        None => None,
    };
    if restore && checkpoint.is_none() {
        return Err("--restore needs checkpoint_dir/checkpoint_every in the config".into());
    }
    let kill = match (kill_rank, kill_epoch) {
        // Under --restore the crash being drilled already happened; the
        // restarted run must not be re-killed.
        _ if restore => None,
        (Some(r), Some(e)) => Some((r, e)),
        (None, None) => None,
        _ => return Err("kill_rank and kill_epoch must be set together".into()),
    };
    if kill.is_some() && checkpoint.is_none() {
        return Err("kill_rank/kill_epoch need checkpointing configured".into());
    }
    // The fault plan and recorder are installed in run().
    let mut engine = EngineConfig::new()
        .with_shards(shards)
        .with_strategy(strategy)
        .with_mailbox_capacity(mailbox)
        .with_batch_msgs(batch)
        .with_watchdog((watchdog_ms > 0).then(|| Duration::from_millis(watchdog_ms)))
        .with_restore(restore)
        .with_pinning(pinning);
    if let Some(cc) = checkpoint {
        engine = engine.with_checkpoints(cc.every_events, cc.dir);
    }
    Ok(NodeConfig {
        circuit_name,
        vectors,
        period,
        seed,
        kill,
        dist: DistConfig {
            process,
            addrs,
            connect_deadline: Duration::from_secs(connect_s),
            telemetry,
            telemetry_period: Duration::from_millis(telemetry_ms.max(1)),
            fleet: None, // installed by the coordinator in run()
            engine,
        },
    })
}

/// A count that must be at least 1.
fn positive(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err("must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(e.to_string()),
    }
}

fn build_circuit(name: &str) -> Result<Circuit, String> {
    match name {
        "ks64" => Ok(kogge_stone_adder(64)),
        "ks128" => Ok(kogge_stone_adder(128)),
        "mult12" => Ok(wallace_multiplier(12)),
        "c17" => Ok(c17()),
        other => Err(format!("unknown circuit '{other}'")),
    }
}

/// The canonical observables dump: everything that must be bit-identical
/// across engines (and processes counts), nothing that legally varies.
fn render_observables(circuit_name: &str, output: &SimOutput) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "observables v1").unwrap();
    writeln!(s, "circuit = {circuit_name}").unwrap();
    writeln!(s, "events_delivered = {}", output.stats.events_delivered).unwrap();
    let bits: String = output
        .node_values
        .iter()
        .map(|v| if v.as_bit() == 1 { '1' } else { '0' })
        .collect();
    writeln!(s, "node_values = {bits}").unwrap();
    for (ix, wf) in output.waveforms.iter().enumerate() {
        write!(s, "output {ix} =").unwrap();
        for (t, v) in wf.settled() {
            write!(s, " {t}:{v}").unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

fn usage() -> String {
    "usage: des-node --config PATH --process N [--seq] [--check-seq] [--restore] \
     [--observables PATH] [--metrics-addr HOST:PORT] [--trace-out PATH]"
        .to_string()
}

fn run() -> Result<ExitCode, String> {
    let mut config_path = None;
    let mut process = None;
    let mut seq = false;
    let mut check_seq = false;
    let mut restore = false;
    let mut observables_path: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config_path = Some(args.next().ok_or_else(usage)?),
            "--metrics-addr" => metrics_addr = Some(args.next().ok_or_else(usage)?),
            "--trace-out" => trace_out = Some(args.next().ok_or_else(usage)?),
            "--process" => {
                process = Some(
                    args.next()
                        .ok_or_else(usage)?
                        .parse::<usize>()
                        .map_err(|e| format!("--process: {e}"))?,
                )
            }
            "--seq" => seq = true,
            "--check-seq" => check_seq = true,
            "--restore" => restore = true,
            "--observables" => observables_path = Some(args.next().ok_or_else(usage)?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    let config_path = config_path.ok_or_else(usage)?;
    let process = if seq { process.unwrap_or(0) } else { process.ok_or_else(usage)? };
    let mut cfg = parse_config(&config_path, process, restore)?;
    let circuit = build_circuit(&cfg.circuit_name)?;
    let stimulus = Stimulus::random_vectors(&circuit, cfg.vectors, cfg.period, cfg.seed);
    let delays = DelayModel::standard();

    // Metrics are off unless asked for — but fleet telemetry implies
    // them: a rank report is a snapshot of this recorder, so telemetry
    // with a disabled recorder would ship empty blobs. The server (when
    // on) lives until process exit so the final post-run scrape can
    // observe the published stats.
    let telemetry = cfg.dist.telemetry && !seq;
    let recorder = if metrics_addr.is_some() || telemetry {
        Recorder::new(&ObsConfig::enabled())
    } else {
        Recorder::off()
    };
    // The coordinator's merged-telemetry sink. Installed before the
    // metrics server so the endpoint can serve the fleet exposition.
    let fleet = (telemetry && process == 0)
        .then(|| std::sync::Arc::new(std::sync::Mutex::new(obs::FleetCollector::new())));
    cfg.dist.fleet = fleet.clone();
    // A metrics bind failure (port taken, permission) must not abort the
    // simulation: metrics are an observer. Warn and run without them —
    // the recorder still collects, it is just not scrapeable.
    let _metrics_server = match &metrics_addr {
        Some(addr) => {
            let served = match &fleet {
                // Coordinator with telemetry: every scrape renders the
                // fleet exposition — each absorbed rank's metrics with a
                // rank label — falling back to the local recorder until
                // the first rank report lands.
                Some(fleet) => {
                    let fleet = std::sync::Arc::clone(fleet);
                    let recorder = recorder.clone();
                    MetricsServer::serve_with(addr.as_str(), move || {
                        let collector = fleet.lock().expect("fleet collector");
                        if collector.ranks().is_empty() {
                            obs::prometheus::render(&recorder)
                        } else {
                            collector.prometheus_text()
                        }
                    })
                }
                None => MetricsServer::serve(addr.as_str(), recorder.clone()),
            };
            match served {
                Ok(server) => {
                    eprintln!(
                        "des-node: serving Prometheus metrics on http://{}/metrics (plaintext, no auth)",
                        server.local_addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!(
                        "des-node: warning: metrics server on {addr} failed ({e}); \
                         continuing without metrics"
                    );
                    None
                }
            }
        }
        None => None,
    };

    let emit = |output: &SimOutput| -> Result<(), String> {
        let text = render_observables(&cfg.circuit_name, output);
        match &observables_path {
            Some(path) => std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}")),
            None => {
                print!("{text}");
                Ok(())
            }
        }
    };

    if seq {
        let output = SeqWorksetEngine::new()
            .try_run(&circuit, &stimulus, &delays)
            .map_err(|e| format!("sequential run failed: {e}"))?;
        emit(&output)?;
        return Ok(ExitCode::SUCCESS);
    }

    let listen = cfg.dist.addrs[process];
    let listener =
        TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let shards = cfg.dist.engine.shards();
    eprintln!(
        "des-node: rank {process}/{} listening on {listen}, shards {:?} of {shards}",
        cfg.dist.num_processes(),
        net::shards_of_process(shards, cfg.dist.num_processes(), process),
    );
    if let Some(cc) = cfg.dist.engine.checkpoint().filter(|_| restore) {
        eprintln!("des-node: rank {process} restoring from {:?}", cc.dir);
    }
    let fault = match cfg.kill {
        Some((rank, epoch)) => {
            eprintln!("des-node: chaos: will kill rank {rank} at checkpoint epoch {epoch}");
            FaultPlan::seeded(cfg.seed).kill_rank_at_epoch(rank, epoch)
        }
        None => FaultPlan::none(),
    };
    cfg.dist.engine = cfg
        .dist
        .engine
        .with_fault_plan(fault)
        .with_recorder(recorder.clone());
    let result = run_node(&circuit, &stimulus, &delays, listener, &cfg.dist)
        .map_err(|e| format!("distributed run failed: {e}"))?;

    match result {
        None => {
            eprintln!("des-node: rank {process} done");
            Ok(ExitCode::SUCCESS)
        }
        Some(output) => {
            emit(&output)?;
            eprintln!(
                "des-node: coordinator done: {} events, {} cut events, {} frames / {} bytes on the wire",
                output.stats.events_delivered,
                output.stats.cut_events_sent,
                output.stats.net_frames_sent,
                output.stats.net_bytes_sent,
            );
            if let Some(fleet) = &fleet {
                let collector = fleet.lock().expect("fleet collector");
                for rank in collector.ranks() {
                    if let Some(est) = collector.clock_estimate(rank) {
                        eprintln!(
                            "des-node: clock offset to rank {rank}: {} ns (rtt {} ns, {} samples)",
                            est.offset_ns, est.rtt_ns, est.samples
                        );
                    }
                }
                let stragglers = collector.straggler_report();
                eprintln!("des-node: straggler report:");
                eprint!("{stragglers}");
                if let Some(path) = &trace_out {
                    let json = collector.merged_perfetto_json();
                    std::fs::write(path, &json)
                        .map_err(|e| format!("write {path}: {e}"))?;
                    eprintln!(
                        "des-node: merged Perfetto trace ({} ranks) written to {path}",
                        collector.ranks().len()
                    );
                }
            }
            if check_seq {
                let seq_out = SeqWorksetEngine::new()
                    .try_run(&circuit, &stimulus, &delays)
                    .map_err(|e| format!("sequential check run failed: {e}"))?;
                let dist_obs = render_observables(&cfg.circuit_name, &output);
                let seq_obs = render_observables(&cfg.circuit_name, &seq_out);
                if dist_obs != seq_obs {
                    eprintln!("des-node: OBSERVABLES MISMATCH vs sequential engine");
                    return Ok(ExitCode::from(2));
                }
                eprintln!("des-node: observables match the sequential engine");
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("des-node: {msg}");
            ExitCode::FAILURE
        }
    }
}
