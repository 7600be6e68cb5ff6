//! Deterministic epoch checkpoints for the sharded conservative engines
//! (DESIGN.md §12).
//!
//! At an epoch barrier every shard's channels are *logically empty*: a
//! shard snapshots itself only after it holds the current epoch's marker
//! from every live peer, and FIFO delivery guarantees every pre-marker
//! message has been applied by then. Any payload a peer applies after
//! its own snapshot was necessarily sent after the sender's snapshot
//! too, so it is regenerated deterministically on restore — no resend
//! log is needed (the resend-log bound is exactly zero). A rank's
//! checkpoint is therefore just the per-shard Chandy–Misra core state:
//! node latches, pending per-port event queues, NULL horizons
//! (`last_ts` clocks), output waveforms, and the shard's `SimStats`.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/epoch-<E>/rank-<R>.ckpt   one file per rank per checkpoint epoch
//! <dir>/rank-<R>.done             terminal snapshot once rank R retired
//! ```
//!
//! Every file is varint-packed with a CRC32 trailer (same primitives as
//! the wire codec) and written *two-phase*: to `<name>.tmp`, then
//! atomically renamed into place. A crash at any instant leaves either
//! no file, a `.tmp` that is never read, or a complete file whose CRC
//! proves it — a torn snapshot can never load. An epoch `E` is
//! *consistent* iff every rank either has `epoch-E/rank-R.ckpt` or
//! retired at an epoch ≤ `E` (proved by its `.done` file); restore picks
//! the newest consistent epoch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use circuit::Logic;
use net::wire::{crc32, get_u8, get_uvarint, put_uvarint};

use crate::event::{Event, Timestamp};
use crate::stats::NUM_STAT_FIELDS;

/// First four bytes of every checkpoint file ("SCPK", little-endian).
pub const CKPT_MAGIC: u32 = 0x4B50_4353;

/// Checkpoint format version; readers reject anything else.
pub const CKPT_VERSION: u8 = 1;

/// Checkpointing knobs for an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take a checkpoint every time a shard has processed this many
    /// events since the last epoch (drives the same counter the
    /// rebalancer's `epoch_events` does).
    pub every_events: u64,
    /// Directory holding the checkpoint files.
    pub dir: PathBuf,
}

/// One input port's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Receive clock ([`crate::event::NULL_TS`] once the port closed).
    pub last_ts: Timestamp,
    /// Pending events in arrival order.
    pub events: Vec<Event>,
}

/// One node's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// `NodeId::index` of the node.
    pub id: u64,
    /// Whether the node already forwarded its terminal NULL.
    pub null_sent: bool,
    /// Latched input values.
    pub latch: [Logic; 2],
    /// Per input port, in port order.
    pub ports: Vec<PortSnapshot>,
    /// Recorded output waveform (outputs only; empty otherwise).
    pub waveform: Vec<Event>,
}

/// One shard core's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Global shard id.
    pub shard: u64,
    /// The shard's counters at the cut.
    pub stats: [u64; NUM_STAT_FIELDS],
    /// Every node the shard owns.
    pub nodes: Vec<NodeSnapshot>,
}

pub(crate) fn put_logic(buf: &mut Vec<u8>, v: Logic) {
    buf.push(match v {
        Logic::Zero => 0,
        Logic::One => 1,
    });
}

pub(crate) fn get_logic(buf: &[u8], pos: &mut usize) -> Result<Logic, String> {
    match get_u8(buf, pos).map_err(|e| e.to_string())? {
        0 => Ok(Logic::Zero),
        1 => Ok(Logic::One),
        other => Err(format!("bad logic byte {other}")),
    }
}

pub(crate) fn put_events(buf: &mut Vec<u8>, events: &[Event]) {
    put_uvarint(buf, events.len() as u64);
    for ev in events {
        put_uvarint(buf, ev.time);
        put_logic(buf, ev.value);
    }
}

pub(crate) fn get_events(buf: &[u8], pos: &mut usize) -> Result<Vec<Event>, String> {
    let n = get_uvarint(buf, pos).map_err(|e| e.to_string())?;
    if n > buf.len() as u64 {
        return Err(format!("event count {n} exceeds payload"));
    }
    let mut events = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let time = get_uvarint(buf, pos).map_err(|e| e.to_string())?;
        let value = get_logic(buf, pos)?;
        events.push(Event { time, value });
    }
    Ok(events)
}

fn put_shard(buf: &mut Vec<u8>, snap: &ShardSnapshot) {
    put_uvarint(buf, snap.shard);
    put_uvarint(buf, NUM_STAT_FIELDS as u64);
    for &s in &snap.stats {
        put_uvarint(buf, s);
    }
    put_uvarint(buf, snap.nodes.len() as u64);
    for node in &snap.nodes {
        put_uvarint(buf, node.id);
        buf.push(u8::from(node.null_sent));
        put_logic(buf, node.latch[0]);
        put_logic(buf, node.latch[1]);
        put_uvarint(buf, node.ports.len() as u64);
        for port in &node.ports {
            put_uvarint(buf, port.last_ts);
            put_events(buf, &port.events);
        }
        put_events(buf, &node.waveform);
    }
}

fn get_shard(buf: &[u8], pos: &mut usize) -> Result<ShardSnapshot, String> {
    let err = |e: net::wire::WireError| e.to_string();
    let shard = get_uvarint(buf, pos).map_err(err)?;
    let nstats = get_uvarint(buf, pos).map_err(err)?;
    if nstats != NUM_STAT_FIELDS as u64 {
        return Err(format!(
            "stat field count mismatch: file has {nstats}, expected {NUM_STAT_FIELDS}"
        ));
    }
    let mut stats = [0u64; NUM_STAT_FIELDS];
    for s in stats.iter_mut() {
        *s = get_uvarint(buf, pos).map_err(err)?;
    }
    let nnodes = get_uvarint(buf, pos).map_err(err)?;
    if nnodes > buf.len() as u64 {
        return Err(format!("node count {nnodes} exceeds payload"));
    }
    let mut nodes = Vec::with_capacity(nnodes as usize);
    for _ in 0..nnodes {
        let id = get_uvarint(buf, pos).map_err(err)?;
        let null_sent = match get_u8(buf, pos).map_err(err)? {
            0 => false,
            1 => true,
            other => return Err(format!("bad null_sent byte {other}")),
        };
        let latch = [get_logic(buf, pos)?, get_logic(buf, pos)?];
        let nports = get_uvarint(buf, pos).map_err(err)?;
        if nports > buf.len() as u64 {
            return Err(format!("port count {nports} exceeds payload"));
        }
        let mut ports = Vec::with_capacity(nports as usize);
        for _ in 0..nports {
            let last_ts = get_uvarint(buf, pos).map_err(err)?;
            let events = get_events(buf, pos)?;
            ports.push(PortSnapshot { last_ts, events });
        }
        let waveform = get_events(buf, pos)?;
        nodes.push(NodeSnapshot {
            id,
            null_sent,
            latch,
            ports,
            waveform,
        });
    }
    Ok(ShardSnapshot { shard, stats, nodes })
}

/// Encode one rank's checkpoint (all its shards at one epoch) into a
/// self-validating byte string.
pub fn encode_rank(rank: u64, epoch: u64, shards: &[&ShardSnapshot]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    buf.push(CKPT_VERSION);
    put_uvarint(&mut buf, rank);
    put_uvarint(&mut buf, epoch);
    put_uvarint(&mut buf, shards.len() as u64);
    for snap in shards {
        put_shard(&mut buf, snap);
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode and validate a rank checkpoint: `(rank, epoch, shards)`.
pub fn decode_rank(bytes: &[u8]) -> Result<(u64, u64, Vec<ShardSnapshot>), String> {
    if bytes.len() < 9 {
        return Err("truncated checkpoint".into());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let found = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let expected = crc32(body);
    if found != expected {
        return Err(format!(
            "checksum mismatch: expected {expected:#010x}, found {found:#010x}"
        ));
    }
    let magic = u32::from_le_bytes(body[..4].try_into().expect("4-byte magic"));
    if magic != CKPT_MAGIC {
        return Err(format!("bad magic {magic:#010x}"));
    }
    if body[4] != CKPT_VERSION {
        return Err(format!("unsupported checkpoint version {}", body[4]));
    }
    let mut pos = 5;
    let err = |e: net::wire::WireError| e.to_string();
    let rank = get_uvarint(body, &mut pos).map_err(err)?;
    let epoch = get_uvarint(body, &mut pos).map_err(err)?;
    let nshards = get_uvarint(body, &mut pos).map_err(err)?;
    if nshards > body.len() as u64 {
        return Err(format!("shard count {nshards} exceeds payload"));
    }
    let mut shards = Vec::with_capacity(nshards as usize);
    for _ in 0..nshards {
        shards.push(get_shard(body, &mut pos)?);
    }
    if pos != body.len() {
        return Err("trailing bytes after checkpoint payload".into());
    }
    Ok((rank, epoch, shards))
}

fn epoch_dir(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("epoch-{epoch}"))
}

fn rank_file(dir: &Path, epoch: u64, rank: u64) -> PathBuf {
    epoch_dir(dir, epoch).join(format!("rank-{rank}.ckpt"))
}

fn done_file(dir: &Path, rank: u64) -> PathBuf {
    dir.join(format!("rank-{rank}.done"))
}

/// Write `bytes` two-phase: to `<path>.tmp`, fsync'd, then renamed into
/// place. Readers never observe a torn file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().expect("checkpoint paths have file names");
    let tmp = path.with_file_name(format!("{}.tmp", name.to_string_lossy()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[derive(Default)]
struct SinkState {
    /// Live submissions per epoch, keyed by shard id.
    epochs: BTreeMap<u64, BTreeMap<u64, ShardSnapshot>>,
    /// Terminal snapshots of retired shards (stand in for every later
    /// epoch — a retired shard's state is a fixed point).
    finals: BTreeMap<u64, ShardSnapshot>,
    /// Highest epoch this rank has submitted to (recorded in the done
    /// marker: the done file only proves epochs at or beyond it).
    max_epoch: u64,
    done_written: bool,
}

/// Per-rank checkpoint collector: shard cores submit their snapshots at
/// each barrier; once every local shard has reported for an epoch the
/// sink writes the rank's file atomically. Shared behind an `Arc` by
/// all shard threads of one rank.
pub struct CheckpointSink {
    dir: PathBuf,
    rank: u64,
    /// Global ids of the shards this rank owns.
    local: Vec<u64>,
    state: Mutex<SinkState>,
    ckpt_total: obs::Counter,
    write_ns: obs::Histogram,
}

impl CheckpointSink {
    /// Create the sink (and the checkpoint directory).
    pub fn new(
        dir: PathBuf,
        rank: u64,
        local: Vec<u64>,
        recorder: &obs::Recorder,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let labels = [("rank", rank.to_string())];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        Ok(CheckpointSink {
            dir,
            rank,
            local,
            state: Mutex::new(SinkState::default()),
            ckpt_total: recorder.counter("sim_checkpoints_total", &labels),
            write_ns: recorder.histogram("sim_checkpoint_write_ns", &labels),
        })
    }

    /// Number of completed checkpoints written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.ckpt_total.get()
    }

    /// A shard core reports its snapshot for `epoch`. Write failures
    /// degrade the run to "no checkpoint at this epoch" instead of
    /// killing it: recovery falls back to the previous consistent epoch.
    pub fn submit(&self, epoch: u64, snap: ShardSnapshot) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.max_epoch = st.max_epoch.max(epoch);
        st.epochs.entry(epoch).or_default().insert(snap.shard, snap);
        self.flush_ready(&mut st);
    }

    /// A shard core retired: record its terminal snapshot. Once every
    /// local shard is terminal the rank's done marker is written and any
    /// still-open epochs complete through the finals.
    pub fn submit_final(&self, snap: ShardSnapshot) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.finals.insert(snap.shard, snap);
        self.flush_ready(&mut st);
        if st.finals.len() == self.local.len() && !st.done_written {
            st.done_written = true;
            let shards: Vec<&ShardSnapshot> = st.finals.values().collect();
            let bytes = encode_rank(self.rank, st.max_epoch, &shards);
            if let Err(e) = write_atomic(&done_file(&self.dir, self.rank), &bytes) {
                eprintln!(
                    "warning: rank {} failed to write done marker: {e}",
                    self.rank
                );
            }
        }
    }

    fn flush_ready(&self, st: &mut SinkState) {
        let ready: Vec<u64> = st
            .epochs
            .keys()
            .copied()
            .filter(|e| {
                self.local.iter().all(|s| {
                    st.epochs[e].contains_key(s) || st.finals.contains_key(s)
                })
            })
            .collect();
        for epoch in ready {
            let submitted = st.epochs.remove(&epoch).expect("key just listed");
            let shards: Vec<&ShardSnapshot> = self
                .local
                .iter()
                .map(|s| submitted.get(s).unwrap_or_else(|| &st.finals[s]))
                .collect();
            let bytes = encode_rank(self.rank, epoch, &shards);
            let start = Instant::now();
            let dir = epoch_dir(&self.dir, epoch);
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| write_atomic(&rank_file(&self.dir, epoch, self.rank), &bytes));
            match write {
                Ok(()) => {
                    self.ckpt_total.inc();
                    self.write_ns.record(start.elapsed().as_nanos() as u64);
                }
                Err(e) => eprintln!(
                    "warning: rank {} failed to write checkpoint epoch {epoch}: {e}",
                    self.rank
                ),
            }
        }
    }
}

/// Load one rank's state for `epoch`: the epoch's own file, or — for a
/// rank that retired at or before `epoch` — its done marker. Returns
/// the shard snapshots, or why they are unavailable.
pub fn load_rank(dir: &Path, epoch: u64, rank: u64) -> Result<Vec<ShardSnapshot>, String> {
    let path = rank_file(dir, epoch, rank);
    if let Ok(bytes) = std::fs::read(&path) {
        let (r, e, shards) = decode_rank(&bytes).map_err(|m| format!("{}: {m}", path.display()))?;
        if r != rank || e != epoch {
            return Err(format!("{}: header says rank {r} epoch {e}", path.display()));
        }
        return Ok(shards);
    }
    let done = done_file(dir, rank);
    let bytes = std::fs::read(&done)
        .map_err(|e| format!("rank {rank} has neither epoch-{epoch} file nor done marker: {e}"))?;
    let (r, retired_at, shards) =
        decode_rank(&bytes).map_err(|m| format!("{}: {m}", done.display()))?;
    if r != rank {
        return Err(format!("{}: header says rank {r}", done.display()));
    }
    if retired_at > epoch {
        // The rank was still live at `epoch`; its terminal state is
        // from the future and must not stand in for the missing file.
        return Err(format!(
            "rank {rank} retired at epoch {retired_at}, after requested epoch {epoch}"
        ));
    }
    Ok(shards)
}

/// Newest epoch for which *every* rank's state is loadable (and
/// CRC-valid). `None` when no consistent checkpoint exists yet.
pub fn latest_consistent_epoch(dir: &Path, num_ranks: usize) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut epochs: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("epoch-")?
                .parse::<u64>()
                .ok()
        })
        .collect();
    epochs.sort_unstable();
    epochs
        .into_iter()
        .rev()
        .find(|&epoch| (0..num_ranks as u64).all(|r| load_rank(dir, epoch, r).is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NULL_TS;

    fn snap(shard: u64, marker: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            stats: std::array::from_fn(|i| marker + i as u64),
            nodes: vec![NodeSnapshot {
                id: 40 + shard,
                null_sent: shard.is_multiple_of(2),
                latch: [Logic::One, Logic::Zero],
                ports: vec![
                    PortSnapshot {
                        last_ts: 17 + marker,
                        events: vec![Event { time: 18 + marker, value: Logic::One }],
                    },
                    PortSnapshot {
                        last_ts: NULL_TS,
                        events: vec![],
                    },
                ],
                waveform: vec![Event { time: 3, value: Logic::Zero }],
            }],
        }
    }

    #[test]
    fn rank_files_round_trip_bit_exactly() {
        let a = snap(0, 100);
        let b = snap(1, 200);
        let bytes = encode_rank(3, 7, &[&a, &b]);
        let (rank, epoch, shards) = decode_rank(&bytes).unwrap();
        assert_eq!((rank, epoch), (3, 7));
        assert_eq!(shards, vec![a, b]);
    }

    #[test]
    fn corruption_and_truncation_never_load() {
        let bytes = encode_rank(0, 1, &[&snap(0, 5)]);
        for cut in 0..bytes.len() {
            assert!(decode_rank(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        for ix in 0..bytes.len() {
            let mut b = bytes.clone();
            b[ix] ^= 0x40;
            assert!(decode_rank(&b).is_err(), "flip at {ix} accepted");
        }
    }

    #[test]
    fn sink_writes_only_complete_epochs_atomically() {
        let dir = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = obs::Recorder::new(&obs::ObsConfig { enabled: true, ring_capacity: 16 });
        let sink = CheckpointSink::new(dir.clone(), 0, vec![0, 1], &rec).unwrap();

        sink.submit(1, snap(0, 10));
        // Half an epoch: nothing on disk, nothing consistent.
        assert_eq!(latest_consistent_epoch(&dir, 1), None);
        sink.submit(1, snap(1, 11));
        assert_eq!(latest_consistent_epoch(&dir, 1), Some(1));
        assert_eq!(sink.checkpoints_written(), 1);

        // Epoch 2 completes through a retired shard's final snapshot.
        sink.submit_final(snap(1, 99));
        sink.submit(2, snap(0, 20));
        assert_eq!(latest_consistent_epoch(&dir, 1), Some(2));
        let shards = load_rank(&dir, 2, 0).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0], snap(0, 20));
        assert_eq!(shards[1], snap(1, 99));

        // Both shards retired: the done marker stands in for later
        // epochs but never for earlier ones it wasn't part of.
        sink.submit_final(snap(0, 98));
        assert!(load_rank(&dir, 2, 0).is_ok());
        // No tmp files survive.
        let leftovers: Vec<_> = walk(&dir)
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn walk(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return out;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(walk(&p));
            } else {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn done_marker_covers_only_later_epochs() {
        let dir = std::env::temp_dir().join(format!("ckpt-done-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = obs::Recorder::off();
        // Rank 0 checkpoints epochs 1..=2; rank 1 retires after epoch 2
        // without a file for epoch 3.
        let s0 = CheckpointSink::new(dir.clone(), 0, vec![0], &rec).unwrap();
        let s1 = CheckpointSink::new(dir.clone(), 1, vec![1], &rec).unwrap();
        for e in [1, 2] {
            s0.submit(e, snap(0, e));
            s1.submit(e, snap(1, e));
        }
        s1.submit_final(snap(1, 50));
        s0.submit(3, snap(0, 3));
        // Epoch 3 is consistent: rank 1's done marker (retired at 2)
        // proves its terminal state for every epoch ≥ 2.
        assert_eq!(latest_consistent_epoch(&dir, 2), Some(3));
        // But a done marker recorded at epoch 2 can never prove epoch 1:
        // delete rank 1's epoch-1 file and epoch 1 becomes inconsistent.
        std::fs::remove_file(dir.join("epoch-1").join("rank-1.ckpt")).unwrap();
        assert!(load_rank(&dir, 1, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
