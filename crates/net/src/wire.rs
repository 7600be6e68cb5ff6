//! Hand-rolled wire codec for the cross-machine shard fabric.
//!
//! Everything that crosses a socket is a *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x5DE5, little-endian
//! 2       1     protocol version (currently 2)
//! 3       1     frame kind
//! 4       4     payload length, little-endian
//! 8       len   payload (kind-specific, varint-packed)
//! 8+len   4     CRC32 (IEEE) over bytes [0, 8+len), little-endian
//! ```
//!
//! Version 2 extends version 1 for the fault-tolerant fabric:
//!
//! * `Batch` carries a per-link sequence number (1-based, per sender
//!   shard per peer) so a receiver can discard duplicate frames replayed
//!   after a reconnect, and each message is prefixed with its
//!   destination shard id so *control* messages (barriers, retirement)
//!   can cross the wire — a receiver no longer needs a `Target` to
//!   route.
//! * `Hello` carries the sender's session epoch (the checkpoint epoch a
//!   restarted rank resumed from; 0 for a fresh run). Peers refuse a
//!   handshake whose session epoch differs from their own, fencing off
//!   stale writers from a pre-restart incarnation.
//!
//! The fleet-telemetry extension (DESIGN.md §16) rides on the same
//! framing without bumping the version: `Hello` gains an *optional*
//! trailing `features` capability bitmask that is encoded only when
//! non-zero, so a rank with telemetry disabled emits byte-identical
//! handshakes (and never emits the new frame kinds). The three
//! telemetry kinds — `ClockPing`/`ClockPong` for per-link clock-offset
//! estimation and `Telemetry` for rank-tagged metric/trace snapshots —
//! are CRC-covered like everything else and may only be sent to a peer
//! whose `Hello` advertised [`FEATURE_TELEMETRY`].
//!
//! Timestamps and node ids are LEB128 unsigned varints: the common case
//! (small simulated times, small node ids) costs one or two bytes instead
//! of eight. Terminal Chandy–Misra NULLs (`time == NULL_TS == u64::MAX`)
//! get their own message tag rather than a ten-byte varint — they are the
//! per-cut-edge termination currency, so the codec makes them both cheap
//! and unambiguous.
//!
//! Decoding is total: every path through [`decode_frame`] and
//! [`read_frame`] returns a [`WireError`] on truncated, corrupt, or
//! malformed input. Nothing in this module panics on untrusted bytes.

use circuit::{Logic, NodeId, Target};
use shard::comm::{ShardMsg, NULL_TS};

/// First two bytes of every frame, little-endian on the wire.
pub const MAGIC: u16 = 0x5DE5;

/// Current protocol version. Bump on any incompatible layout change;
/// peers reject mismatches at [`Frame::Hello`] time and per frame.
pub const VERSION: u8 = 2;

/// Hard upper bound on a frame payload. A length field above this is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Frame header size (magic + version + kind + payload length).
pub const HEADER_LEN: usize = 8;

/// CRC trailer size.
pub const TRAILER_LEN: usize = 4;

const KIND_BATCH: u8 = 0;
const KIND_DONE: u8 = 1;
const KIND_SHUTDOWN: u8 = 2;
const KIND_OUTCOME: u8 = 3;
const KIND_HELLO: u8 = 4;
const KIND_CLOCK_PING: u8 = 5;
const KIND_CLOCK_PONG: u8 = 6;
const KIND_TELEMETRY: u8 = 7;

/// `Hello::features` bit: this rank emits and accepts the telemetry
/// frame kinds (`ClockPing`/`ClockPong`/`Telemetry`). Send those frames
/// only to peers that advertised the bit.
pub const FEATURE_TELEMETRY: u64 = 1 << 0;

const TAG_EVENT: u8 = 0;
const TAG_NULL: u8 = 1;
const TAG_TERMINAL_NULL: u8 = 2;
const TAG_BARRIER_REQUEST: u8 = 3;
const TAG_BARRIER: u8 = 4;
const TAG_TRANSFERRED: u8 = 5;
const TAG_RETIRE: u8 = 6;

/// Everything that can go wrong while decoding bytes off a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-frame (or mid-varint).
    Truncated,
    /// First two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// Frame carried an unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// CRC mismatch: the frame was corrupted in flight.
    BadChecksum { expected: u32, found: u32 },
    /// Unknown message tag inside a batch payload.
    BadTag(u8),
    /// A field held a value its type forbids (logic byte not 0/1,
    /// payload timestamp equal to the NULL sentinel, oversized node id).
    BadValue,
    /// Varint did not fit in 64 bits.
    Overflow,
    /// Payload length field exceeded [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Payload decoded cleanly but left unconsumed bytes.
    TrailingBytes,
    /// Underlying socket error while reading.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadChecksum { expected, found } => {
                write!(f, "checksum mismatch: expected {expected:#010x}, found {found:#010x}")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValue => write!(f, "field value out of range"),
            WireError::Overflow => write!(f, "varint overflows u64"),
            WireError::TooLarge(n) => write!(f, "payload length {n} exceeds limit"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::Io(kind) => write!(f, "socket read failed: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One unit of socket traffic. Batches carry the simulation protocol;
/// the rest are control frames for setup and distributed termination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Coalesced cross-shard messages from one source shard. `seq` is a
    /// 1-based per-(source shard, peer) counter: after a reconnect the
    /// receiver drops any frame whose `seq` is not beyond the last one it
    /// applied. Each message is paired with its destination shard id.
    Batch {
        src: u64,
        seq: u64,
        msgs: Vec<(u64, ShardMsg)>,
    },
    /// Worker → coordinator: all local shards finished cleanly.
    Done { process: u64 },
    /// Coordinator → workers: every process is done, tear down.
    Shutdown,
    /// Worker → coordinator: one shard's encoded `ShardOutcome` blob.
    /// The blob format belongs to the engine layer; the wire treats it
    /// as opaque bytes.
    Outcome { shard: u64, blob: Vec<u8> },
    /// Connection handshake: who is dialing, a digest of the run
    /// configuration so mismatched processes fail fast instead of
    /// desynchronizing mid-run, and the sender's session epoch (the
    /// checkpoint epoch a restarted rank resumed from; 0 when fresh) so
    /// stale pre-restart incarnations are fenced off.
    Hello {
        process: u64,
        num_shards: u64,
        digest: u64,
        session_epoch: u64,
        /// Capability bitmask (see [`FEATURE_TELEMETRY`]). Encoded on
        /// the wire only when non-zero, so a zero-feature handshake is
        /// byte-identical to the pre-extension encoding.
        features: u64,
    },
    /// Clock-offset probe: `t_send_ns` is the sender's monotonic clock
    /// (its recorder timebase) at send. The receiver answers immediately
    /// with a [`Frame::ClockPong`] echoing it.
    ClockPing { from: u64, t_send_ns: u64 },
    /// Answer to a [`Frame::ClockPing`]: `echo_ns` is the ping's
    /// `t_send_ns` unchanged; `t_rx_ns`/`t_tx_ns` are the responder's
    /// monotonic clock when the ping arrived and when this pong left.
    /// With the pinger's own receive stamp that makes the four NTP
    /// timestamps, so the responder's processing delay cancels out of
    /// the offset/RTT estimate.
    ClockPong {
        from: u64,
        echo_ns: u64,
        t_rx_ns: u64,
        t_tx_ns: u64,
    },
    /// Rank-tagged telemetry snapshot (metrics + sampled trace-ring
    /// flush), sent toward the coordinator. The blob encoding belongs to
    /// the observability layer (`obs::fleet`); the wire carries it
    /// opaquely, CRC-covered like any other payload.
    Telemetry { from: u64, seq: u64, blob: Vec<u8> },
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table generated at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// LEB128 unsigned varints.

/// Append `v` as a LEB128 unsigned varint (1..=10 bytes).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Read a LEB128 unsigned varint from `buf` starting at `*pos`,
/// advancing `*pos` past it.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if shift == 63 && (b & 0x7F) > 1 {
            return Err(WireError::Overflow);
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::Overflow);
        }
    }
}

/// Read a single byte.
pub fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    let b = *buf.get(*pos).ok_or(WireError::Truncated)?;
    *pos += 1;
    Ok(b)
}

// ---------------------------------------------------------------------------
// ShardMsg codec.

/// Append one cross-shard message to a batch payload.
pub fn put_msg(buf: &mut Vec<u8>, msg: &ShardMsg) {
    match *msg {
        ShardMsg::Event { target, time, value } => {
            buf.push(TAG_EVENT);
            put_uvarint(buf, u64::from(target.node.0));
            buf.push(target.port);
            put_uvarint(buf, time);
            buf.push(value.as_bit() as u8);
        }
        ShardMsg::Null { target, time } if time == NULL_TS => {
            buf.push(TAG_TERMINAL_NULL);
            put_uvarint(buf, u64::from(target.node.0));
            buf.push(target.port);
        }
        ShardMsg::Null { target, time } => {
            buf.push(TAG_NULL);
            put_uvarint(buf, u64::from(target.node.0));
            buf.push(target.port);
            put_uvarint(buf, time);
        }
        ShardMsg::BarrierRequest { from, epoch } => {
            buf.push(TAG_BARRIER_REQUEST);
            put_uvarint(buf, from as u64);
            put_uvarint(buf, epoch);
        }
        ShardMsg::Barrier {
            from,
            epoch,
            load,
            depth,
        } => {
            buf.push(TAG_BARRIER);
            put_uvarint(buf, from as u64);
            put_uvarint(buf, epoch);
            put_uvarint(buf, load);
            put_uvarint(buf, depth);
        }
        ShardMsg::Transferred { from, epoch } => {
            buf.push(TAG_TRANSFERRED);
            put_uvarint(buf, from as u64);
            put_uvarint(buf, epoch);
        }
        ShardMsg::Retire { from } => {
            buf.push(TAG_RETIRE);
            put_uvarint(buf, from as u64);
        }
    }
}

fn get_shard_id(buf: &[u8], pos: &mut usize) -> Result<usize, WireError> {
    let id = get_uvarint(buf, pos)?;
    usize::try_from(id).map_err(|_| WireError::BadValue)
}

fn get_target(buf: &[u8], pos: &mut usize) -> Result<Target, WireError> {
    let node = get_uvarint(buf, pos)?;
    let node = u32::try_from(node).map_err(|_| WireError::BadValue)?;
    let port = get_u8(buf, pos)?;
    Ok(Target {
        node: NodeId(node),
        port,
    })
}

/// Decode one cross-shard message from a batch payload.
pub fn get_msg(buf: &[u8], pos: &mut usize) -> Result<ShardMsg, WireError> {
    let tag = get_u8(buf, pos)?;
    match tag {
        TAG_EVENT => {
            let target = get_target(buf, pos)?;
            let time = get_uvarint(buf, pos)?;
            if time == NULL_TS {
                return Err(WireError::BadValue);
            }
            let value = match get_u8(buf, pos)? {
                0 => Logic::Zero,
                1 => Logic::One,
                _ => return Err(WireError::BadValue),
            };
            Ok(ShardMsg::Event { target, time, value })
        }
        TAG_NULL => {
            let target = get_target(buf, pos)?;
            let time = get_uvarint(buf, pos)?;
            // Terminal nulls have their own tag; a lookahead null at the
            // sentinel is a malformed (non-canonical) encoding.
            if time == NULL_TS {
                return Err(WireError::BadValue);
            }
            Ok(ShardMsg::Null { target, time })
        }
        TAG_TERMINAL_NULL => {
            let target = get_target(buf, pos)?;
            Ok(ShardMsg::Null {
                target,
                time: NULL_TS,
            })
        }
        TAG_BARRIER_REQUEST => {
            let from = get_shard_id(buf, pos)?;
            let epoch = get_uvarint(buf, pos)?;
            Ok(ShardMsg::BarrierRequest { from, epoch })
        }
        TAG_BARRIER => {
            let from = get_shard_id(buf, pos)?;
            let epoch = get_uvarint(buf, pos)?;
            let load = get_uvarint(buf, pos)?;
            let depth = get_uvarint(buf, pos)?;
            Ok(ShardMsg::Barrier {
                from,
                epoch,
                load,
                depth,
            })
        }
        TAG_TRANSFERRED => {
            let from = get_shard_id(buf, pos)?;
            let epoch = get_uvarint(buf, pos)?;
            Ok(ShardMsg::Transferred { from, epoch })
        }
        TAG_RETIRE => {
            let from = get_shard_id(buf, pos)?;
            Ok(ShardMsg::Retire { from })
        }
        other => Err(WireError::BadTag(other)),
    }
}

// ---------------------------------------------------------------------------
// Frame codec.

fn frame_kind(frame: &Frame) -> u8 {
    match frame {
        Frame::Batch { .. } => KIND_BATCH,
        Frame::Done { .. } => KIND_DONE,
        Frame::Shutdown => KIND_SHUTDOWN,
        Frame::Outcome { .. } => KIND_OUTCOME,
        Frame::Hello { .. } => KIND_HELLO,
        Frame::ClockPing { .. } => KIND_CLOCK_PING,
        Frame::ClockPong { .. } => KIND_CLOCK_PONG,
        Frame::Telemetry { .. } => KIND_TELEMETRY,
    }
}

fn put_payload(buf: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Batch { src, seq, msgs } => {
            put_uvarint(buf, *src);
            put_uvarint(buf, *seq);
            put_uvarint(buf, msgs.len() as u64);
            for (dst, msg) in msgs {
                put_uvarint(buf, *dst);
                put_msg(buf, msg);
            }
        }
        Frame::Done { process } => put_uvarint(buf, *process),
        Frame::Shutdown => {}
        Frame::Outcome { shard, blob } => {
            put_uvarint(buf, *shard);
            put_uvarint(buf, blob.len() as u64);
            buf.extend_from_slice(blob);
        }
        Frame::Hello {
            process,
            num_shards,
            digest,
            session_epoch,
            features,
        } => {
            put_uvarint(buf, *process);
            put_uvarint(buf, *num_shards);
            put_uvarint(buf, *digest);
            put_uvarint(buf, *session_epoch);
            // Trailing capability mask, omitted when zero so a
            // no-features handshake stays byte-identical to the
            // pre-extension encoding.
            if *features != 0 {
                put_uvarint(buf, *features);
            }
        }
        Frame::ClockPing { from, t_send_ns } => {
            put_uvarint(buf, *from);
            put_uvarint(buf, *t_send_ns);
        }
        Frame::ClockPong {
            from,
            echo_ns,
            t_rx_ns,
            t_tx_ns,
        } => {
            put_uvarint(buf, *from);
            put_uvarint(buf, *echo_ns);
            put_uvarint(buf, *t_rx_ns);
            put_uvarint(buf, *t_tx_ns);
        }
        Frame::Telemetry { from, seq, blob } => {
            put_uvarint(buf, *from);
            put_uvarint(buf, *seq);
            put_uvarint(buf, blob.len() as u64);
            buf.extend_from_slice(blob);
        }
    }
}

fn get_payload(kind: u8, buf: &[u8]) -> Result<Frame, WireError> {
    let mut pos = 0;
    let frame = match kind {
        KIND_BATCH => {
            let src = get_uvarint(buf, &mut pos)?;
            let seq = get_uvarint(buf, &mut pos)?;
            let count = get_uvarint(buf, &mut pos)?;
            // A message is at least two bytes; reject counts the payload
            // cannot possibly hold before reserving for them.
            if count > (buf.len() as u64) {
                return Err(WireError::BadValue);
            }
            let mut msgs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let dst = get_uvarint(buf, &mut pos)?;
                msgs.push((dst, get_msg(buf, &mut pos)?));
            }
            Frame::Batch { src, seq, msgs }
        }
        KIND_DONE => Frame::Done {
            process: get_uvarint(buf, &mut pos)?,
        },
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_OUTCOME => {
            let shard = get_uvarint(buf, &mut pos)?;
            let len = get_uvarint(buf, &mut pos)?;
            let end = pos
                .checked_add(usize::try_from(len).map_err(|_| WireError::BadValue)?)
                .ok_or(WireError::BadValue)?;
            if end > buf.len() {
                return Err(WireError::Truncated);
            }
            let blob = buf[pos..end].to_vec();
            pos = end;
            Frame::Outcome { shard, blob }
        }
        KIND_HELLO => {
            let process = get_uvarint(buf, &mut pos)?;
            let num_shards = get_uvarint(buf, &mut pos)?;
            let digest = get_uvarint(buf, &mut pos)?;
            let session_epoch = get_uvarint(buf, &mut pos)?;
            // Optional trailing capability mask (absent == 0).
            let features = if pos < buf.len() {
                get_uvarint(buf, &mut pos)?
            } else {
                0
            };
            Frame::Hello {
                process,
                num_shards,
                digest,
                session_epoch,
                features,
            }
        }
        KIND_CLOCK_PING => Frame::ClockPing {
            from: get_uvarint(buf, &mut pos)?,
            t_send_ns: get_uvarint(buf, &mut pos)?,
        },
        KIND_CLOCK_PONG => Frame::ClockPong {
            from: get_uvarint(buf, &mut pos)?,
            echo_ns: get_uvarint(buf, &mut pos)?,
            t_rx_ns: get_uvarint(buf, &mut pos)?,
            t_tx_ns: get_uvarint(buf, &mut pos)?,
        },
        KIND_TELEMETRY => {
            let from = get_uvarint(buf, &mut pos)?;
            let seq = get_uvarint(buf, &mut pos)?;
            let len = get_uvarint(buf, &mut pos)?;
            let end = pos
                .checked_add(usize::try_from(len).map_err(|_| WireError::BadValue)?)
                .ok_or(WireError::BadValue)?;
            if end > buf.len() {
                return Err(WireError::Truncated);
            }
            let blob = buf[pos..end].to_vec();
            pos = end;
            Frame::Telemetry { from, seq, blob }
        }
        other => return Err(WireError::BadKind(other)),
    };
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(frame)
}

/// Encode `frame` into a self-delimiting byte string (header, payload,
/// CRC trailer).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 16);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(frame_kind(frame));
    buf.extend_from_slice(&[0; 4]); // payload length placeholder
    put_payload(&mut buf, frame);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[4..8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode one frame from the front of `buf`. Returns the frame and the
/// number of bytes it occupied.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let kind = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    let body_end = HEADER_LEN + len;
    let found = u32::from_le_bytes([
        buf[body_end],
        buf[body_end + 1],
        buf[body_end + 2],
        buf[body_end + 3],
    ]);
    let expected = crc32(&buf[..body_end]);
    if found != expected {
        return Err(WireError::BadChecksum { expected, found });
    }
    let frame = get_payload(kind, &buf[HEADER_LEN..body_end])?;
    Ok((frame, total))
}

fn read_full(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    allow_eof_at_start: bool,
) -> Result<bool, WireError> {
    let mut read = 0;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                if read == 0 && allow_eof_at_start {
                    return Ok(false);
                }
                return Err(WireError::Truncated);
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(true)
}

/// Read one frame from a blocking reader. `Ok(None)` means the stream
/// ended cleanly at a frame boundary; EOF inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header, true)? {
        return Ok(None);
    }
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let kind = header[3];
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let mut rest = vec![0u8; len + TRAILER_LEN];
    read_full(r, &mut rest, false)?;
    let found = u32::from_le_bytes([
        rest[len],
        rest[len + 1],
        rest[len + 2],
        rest[len + 3],
    ]);
    let mut checked = Vec::with_capacity(HEADER_LEN + len);
    checked.extend_from_slice(&header);
    checked.extend_from_slice(&rest[..len]);
    let expected = crc32(&checked);
    if found != expected {
        return Err(WireError::BadChecksum { expected, found });
    }
    let frame = get_payload(kind, &rest[..len])?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(node: u32, port: u8) -> Target {
        Target {
            node: NodeId(node),
            port,
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn uvarint_round_trips_edge_values() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_rejects_overflow_and_truncation() {
        // Eleven continuation bytes can never be a u64.
        let buf = [0xFF; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), Err(WireError::Overflow));
        // A lone continuation byte is truncated input.
        let mut pos = 0;
        assert_eq!(get_uvarint(&[0x80], &mut pos), Err(WireError::Truncated));
    }

    #[test]
    fn terminal_null_has_compact_canonical_form() {
        let msg = ShardMsg::Null {
            target: target(3, 1),
            time: NULL_TS,
        };
        let mut buf = Vec::new();
        put_msg(&mut buf, &msg);
        // tag + node varint + port: three bytes, not a 10-byte varint.
        assert_eq!(buf.len(), 3);
        let mut pos = 0;
        assert_eq!(get_msg(&buf, &mut pos), Ok(msg));
    }

    #[test]
    fn control_messages_round_trip() {
        let msgs = [
            ShardMsg::BarrierRequest { from: 3, epoch: 7 },
            ShardMsg::Barrier {
                from: 0,
                epoch: 12,
                load: 40_000,
                depth: 17,
            },
            ShardMsg::Transferred { from: 2, epoch: 12 },
            ShardMsg::Retire { from: 1 },
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            put_msg(&mut buf, &msg);
            let mut pos = 0;
            assert_eq!(get_msg(&buf, &mut pos), Ok(msg));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn non_canonical_terminal_null_rejected() {
        // TAG_NULL carrying the sentinel timestamp must not decode.
        let mut buf = vec![1u8]; // TAG_NULL
        put_uvarint(&mut buf, 3);
        buf.push(0);
        put_uvarint(&mut buf, NULL_TS);
        let mut pos = 0;
        assert_eq!(get_msg(&buf, &mut pos), Err(WireError::BadValue));
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Batch {
                src: 2,
                seq: 17,
                msgs: vec![
                    (
                        0,
                        ShardMsg::Event {
                            target: target(9, 0),
                            time: 42,
                            value: Logic::One,
                        },
                    ),
                    (
                        1,
                        ShardMsg::Null {
                            target: target(1000, 3),
                            time: 7,
                        },
                    ),
                    (
                        3,
                        ShardMsg::Null {
                            target: target(5, 2),
                            time: NULL_TS,
                        },
                    ),
                    (1, ShardMsg::Barrier { from: 2, epoch: 4, load: 10, depth: 0 }),
                    (0, ShardMsg::Retire { from: 2 }),
                ],
            },
            Frame::Done { process: 1 },
            Frame::Shutdown,
            Frame::Outcome {
                shard: 3,
                blob: vec![1, 2, 3, 255],
            },
            Frame::Hello {
                process: 0,
                num_shards: 8,
                digest: 0xDEAD_BEEF,
                session_epoch: 12,
                features: 0,
            },
            Frame::Hello {
                process: 1,
                num_shards: 4,
                digest: 7,
                session_epoch: 0,
                features: FEATURE_TELEMETRY,
            },
            Frame::ClockPing {
                from: 0,
                t_send_ns: 1_234_567_890,
            },
            Frame::ClockPong {
                from: 1,
                echo_ns: 1_234_567_890,
                t_rx_ns: 42,
                t_tx_ns: 77,
            },
            Frame::Telemetry {
                from: 1,
                seq: 9,
                blob: vec![0, 1, 2, 254, 255],
            },
        ];
        for frame in &frames {
            let bytes = encode_frame(frame);
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(&decoded, frame);
            assert_eq!(used, bytes.len());
            // And through the streaming reader.
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(frame));
            assert_eq!(read_frame(&mut cursor).unwrap(), None);
        }
    }

    #[test]
    fn bad_magic_version_checksum_detected() {
        let bytes = encode_frame(&Frame::Done { process: 4 });

        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(matches!(decode_frame(&b), Err(WireError::BadMagic(_))));

        let mut b = bytes.clone();
        b[2] = 9;
        assert_eq!(decode_frame(&b), Err(WireError::BadVersion(9)));

        let mut b = bytes.clone();
        *b.last_mut().unwrap() ^= 0x01;
        assert!(matches!(decode_frame(&b), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let bytes = encode_frame(&Frame::Batch {
            src: 0,
            seq: 1,
            msgs: vec![(
                2,
                ShardMsg::Event {
                    target: target(77, 1),
                    time: 123456,
                    value: Logic::Zero,
                },
            )],
        });
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]), Err(WireError::Truncated));
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            if cut == 0 {
                assert_eq!(read_frame(&mut cursor), Ok(None));
            } else {
                assert!(read_frame(&mut cursor).is_err());
            }
        }
    }

    #[test]
    fn zero_feature_hello_is_byte_identical_to_legacy_encoding() {
        // With telemetry off the handshake must be bit-identical to the
        // pre-extension wire format: four varints, no trailing mask.
        let hello = Frame::Hello {
            process: 2,
            num_shards: 8,
            digest: 0xABCD,
            session_epoch: 3,
            features: 0,
        };
        let bytes = encode_frame(&hello);
        let mut legacy = Vec::with_capacity(HEADER_LEN + 16);
        legacy.extend_from_slice(&MAGIC.to_le_bytes());
        legacy.push(VERSION);
        legacy.push(KIND_HELLO);
        legacy.extend_from_slice(&[0; 4]);
        put_uvarint(&mut legacy, 2);
        put_uvarint(&mut legacy, 8);
        put_uvarint(&mut legacy, 0xABCD);
        put_uvarint(&mut legacy, 3);
        let len = (legacy.len() - HEADER_LEN) as u32;
        legacy[4..8].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&legacy);
        legacy.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes, legacy);
        // And a legacy (featureless) Hello decodes with features == 0.
        let (decoded, _) = decode_frame(&legacy).unwrap();
        assert_eq!(decoded, hello);
    }

    #[test]
    fn telemetry_blob_and_truncation_are_total() {
        let frame = Frame::Telemetry {
            from: 3,
            seq: 1,
            blob: vec![9; 100],
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap().0, frame);
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_without_allocation() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::TooLarge(u32::MAX as usize)));
    }
}
