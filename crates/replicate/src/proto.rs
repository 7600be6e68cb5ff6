//! The `des-svc` job protocol: Hello-fenced, versioned frames over TCP.
//!
//! Same shape as the sim-net shard fabric: a fixed header (own magic +
//! version), varint-packed payload, CRC32 trailer (via
//! `crate::frame`), and a mandatory `Hello` exchange before anything
//! else — a client or worker whose protocol digest or version differs
//! is rejected at the first frame, never half-way into a job. The
//! decoder is total: every malformed byte string maps to a
//! [`WireError`].
//!
//! Two peer roles speak it:
//!
//! * **clients** submit [`crate::spec::JobSpec`]s, poll progress and
//!   fetch aggregates (`Submit`/`Progress`/`Fetch`);
//! * **workers** (remote ranks) register and receive replication
//!   slices (`Assign`), streaming rows back (`RowBatch`) until the
//!   slice completes (`AssignDone`).

use net::wire::{get_u8, get_uvarint, put_uvarint, WireError};

use crate::agg::JobAggregate;
use crate::executor::RunRow;
use crate::spec::JobSpec;

/// Job-protocol magic (distinct from the shard fabric and the store).
pub const SVC_MAGIC: u16 = 0x5DE6;
/// Job-protocol version.
pub const SVC_VERSION: u8 = 1;
/// The digest both ends present in `Hello`: a fingerprint of the
/// protocol revision (bump [`SVC_VERSION`] *and* this string on any
/// semantic change).
pub fn proto_digest() -> u64 {
    crate::agg::fnv1a(b"des-svc job protocol v1")
}

/// Rows per `RowBatch` frame a worker streams back.
pub const ROW_BATCH: usize = 64;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_OK: u8 = 2;
const KIND_SUBMIT: u8 = 3;
const KIND_SUBMITTED: u8 = 4;
const KIND_REJECT: u8 = 5;
const KIND_PROGRESS: u8 = 6;
const KIND_PROGRESS_REPORT: u8 = 7;
const KIND_FETCH: u8 = 8;
const KIND_RESULTS: u8 = 9;
const KIND_ASSIGN: u8 = 10;
const KIND_ROW_BATCH: u8 = 11;
const KIND_ASSIGN_DONE: u8 = 12;
const KIND_SHUTDOWN: u8 = 13;

/// Who is dialing in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// Submits jobs and fetches results.
    Client = 0,
    /// Executes assigned replication slices.
    Worker = 1,
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// Admitted; none of its runs claimed yet.
    Queued = 0,
    /// At least one run claimed, not ended.
    Running = 1,
    /// Finished; results fetchable.
    Done = 2,
    /// Aborted by a run error.
    Failed = 3,
}

impl JobState {
    /// Stable label for reports and metrics.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> Result<JobState, WireError> {
        Ok(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            other => return Err(WireError::BadTag(other)),
        })
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcFrame {
    /// First frame on every connection.
    Hello {
        /// Dialing role.
        role: Role,
        /// Worker thread count (0 for clients).
        threads: u32,
        /// Must equal [`proto_digest`].
        digest: u64,
    },
    /// Server's fence acknowledgement.
    HelloOk {
        /// Server session epoch (restarts bump it).
        epoch: u64,
    },
    /// Client → server: enqueue a job.
    Submit {
        /// The sweep to run.
        spec: JobSpec,
    },
    /// Server → client: job accepted.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// Server → peer: request refused (reason is human-readable).
    Reject {
        /// Why.
        reason: String,
    },
    /// Client → server: how far along is `job`?
    Progress {
        /// Job id.
        job: u64,
    },
    /// Server → client: live progress.
    ProgressReport {
        /// Job id.
        job: u64,
        /// Lifecycle state.
        state: JobState,
        /// Runs completed.
        completed: u64,
        /// Total runs the job will execute.
        total: u64,
        /// Jobs admitted with no run claimed yet.
        queued_jobs: u64,
        /// Jobs with a run claimed and not yet ended.
        inflight_jobs: u64,
    },
    /// Client → server: fetch the aggregate of a finished job.
    Fetch {
        /// Job id.
        job: u64,
    },
    /// Server → client: the cross-run aggregate.
    Results {
        /// Job id.
        job: u64,
        /// Aggregated histograms (digest-stable minus wall columns).
        agg: JobAggregate,
    },
    /// Server → worker: run replications `[rep_start, rep_start+rep_count)`
    /// of every cell.
    Assign {
        /// Job id.
        job: u64,
        /// First replication index of the slice.
        rep_start: u32,
        /// Slice length.
        rep_count: u32,
        /// The spec to execute.
        spec: JobSpec,
    },
    /// Worker → server: a batch of finished rows.
    RowBatch {
        /// Job id.
        job: u64,
        /// Completed rows (any order).
        rows: Vec<RunRow>,
    },
    /// Worker → server: the assigned slice is finished (or failed —
    /// the server re-runs failed slices locally).
    AssignDone {
        /// Job id.
        job: u64,
        /// Echo of the assignment.
        rep_start: u32,
        /// Echo of the assignment.
        rep_count: u32,
        /// False when the slice errored; its rows must be discarded.
        ok: bool,
    },
    /// Ask the server to drain and exit (clients), or the server
    /// telling a worker to exit.
    Shutdown,
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = get_uvarint(buf, pos)? as usize;
    if len > 1024 {
        return Err(WireError::BadValue);
    }
    let end = pos.checked_add(len).ok_or(WireError::Overflow)?;
    if end > buf.len() {
        return Err(WireError::Truncated);
    }
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| WireError::BadValue)?;
    *pos = end;
    Ok(s.to_string())
}

fn put_row(out: &mut Vec<u8>, row: &RunRow) {
    put_uvarint(out, row.cell as u64);
    put_uvarint(out, row.rep as u64);
    put_uvarint(out, row.values.len() as u64);
    for &v in &row.values {
        put_uvarint(out, v);
    }
}

fn get_row(buf: &[u8], pos: &mut usize) -> Result<RunRow, WireError> {
    let cell = get_uvarint(buf, pos)?;
    let rep = get_uvarint(buf, pos)?;
    let n = get_uvarint(buf, pos)?;
    if cell > u32::MAX as u64 || rep > u32::MAX as u64 || n > 64 {
        return Err(WireError::BadValue);
    }
    let mut values = Vec::with_capacity(n as usize);
    for _ in 0..n {
        values.push(get_uvarint(buf, pos)?);
    }
    Ok(RunRow { cell: cell as u32, rep: rep as u32, values })
}

fn kind_of(frame: &SvcFrame) -> u8 {
    match frame {
        SvcFrame::Hello { .. } => KIND_HELLO,
        SvcFrame::HelloOk { .. } => KIND_HELLO_OK,
        SvcFrame::Submit { .. } => KIND_SUBMIT,
        SvcFrame::Submitted { .. } => KIND_SUBMITTED,
        SvcFrame::Reject { .. } => KIND_REJECT,
        SvcFrame::Progress { .. } => KIND_PROGRESS,
        SvcFrame::ProgressReport { .. } => KIND_PROGRESS_REPORT,
        SvcFrame::Fetch { .. } => KIND_FETCH,
        SvcFrame::Results { .. } => KIND_RESULTS,
        SvcFrame::Assign { .. } => KIND_ASSIGN,
        SvcFrame::RowBatch { .. } => KIND_ROW_BATCH,
        SvcFrame::AssignDone { .. } => KIND_ASSIGN_DONE,
        SvcFrame::Shutdown => KIND_SHUTDOWN,
    }
}

/// Encode one frame (header + payload + CRC).
pub fn encode_svc_frame(frame: &SvcFrame) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    match frame {
        SvcFrame::Hello { role, threads, digest } => {
            p.push(*role as u8);
            put_uvarint(&mut p, *threads as u64);
            put_uvarint(&mut p, *digest);
        }
        SvcFrame::HelloOk { epoch } => put_uvarint(&mut p, *epoch),
        SvcFrame::Submit { spec } => p.extend_from_slice(&spec.encode()),
        SvcFrame::Submitted { job } => put_uvarint(&mut p, *job),
        SvcFrame::Reject { reason } => put_string(&mut p, reason),
        SvcFrame::Progress { job } => put_uvarint(&mut p, *job),
        SvcFrame::ProgressReport { job, state, completed, total, queued_jobs, inflight_jobs } => {
            put_uvarint(&mut p, *job);
            p.push(*state as u8);
            put_uvarint(&mut p, *completed);
            put_uvarint(&mut p, *total);
            put_uvarint(&mut p, *queued_jobs);
            put_uvarint(&mut p, *inflight_jobs);
        }
        SvcFrame::Fetch { job } => put_uvarint(&mut p, *job),
        SvcFrame::Results { job, agg } => {
            put_uvarint(&mut p, *job);
            p.extend_from_slice(&agg.encode());
        }
        SvcFrame::Assign { job, rep_start, rep_count, spec } => {
            put_uvarint(&mut p, *job);
            put_uvarint(&mut p, *rep_start as u64);
            put_uvarint(&mut p, *rep_count as u64);
            p.extend_from_slice(&spec.encode());
        }
        SvcFrame::RowBatch { job, rows } => {
            put_uvarint(&mut p, *job);
            put_uvarint(&mut p, rows.len() as u64);
            for row in rows {
                put_row(&mut p, row);
            }
        }
        SvcFrame::AssignDone { job, rep_start, rep_count, ok } => {
            put_uvarint(&mut p, *job);
            put_uvarint(&mut p, *rep_start as u64);
            put_uvarint(&mut p, *rep_count as u64);
            p.push(*ok as u8);
        }
        SvcFrame::Shutdown => {}
    }
    crate::frame::encode(SVC_MAGIC, SVC_VERSION, kind_of(frame), &p)
}

/// Decode one frame payload. Total: every malformed input errors.
pub fn decode_svc_payload(kind: u8, buf: &[u8]) -> Result<SvcFrame, WireError> {
    let mut pos = 0;
    let frame = match kind {
        KIND_HELLO => {
            let role = match get_u8(buf, &mut pos)? {
                0 => Role::Client,
                1 => Role::Worker,
                other => return Err(WireError::BadTag(other)),
            };
            let threads = get_uvarint(buf, &mut pos)?;
            if threads > 4096 {
                return Err(WireError::BadValue);
            }
            SvcFrame::Hello { role, threads: threads as u32, digest: get_uvarint(buf, &mut pos)? }
        }
        KIND_HELLO_OK => SvcFrame::HelloOk { epoch: get_uvarint(buf, &mut pos)? },
        KIND_SUBMIT => SvcFrame::Submit { spec: JobSpec::decode_at(buf, &mut pos)? },
        KIND_SUBMITTED => SvcFrame::Submitted { job: get_uvarint(buf, &mut pos)? },
        KIND_REJECT => SvcFrame::Reject { reason: get_string(buf, &mut pos)? },
        KIND_PROGRESS => SvcFrame::Progress { job: get_uvarint(buf, &mut pos)? },
        KIND_PROGRESS_REPORT => SvcFrame::ProgressReport {
            job: get_uvarint(buf, &mut pos)?,
            state: JobState::from_u8(get_u8(buf, &mut pos)?)?,
            completed: get_uvarint(buf, &mut pos)?,
            total: get_uvarint(buf, &mut pos)?,
            queued_jobs: get_uvarint(buf, &mut pos)?,
            inflight_jobs: get_uvarint(buf, &mut pos)?,
        },
        KIND_FETCH => SvcFrame::Fetch { job: get_uvarint(buf, &mut pos)? },
        KIND_RESULTS => SvcFrame::Results {
            job: get_uvarint(buf, &mut pos)?,
            agg: JobAggregate::decode_at(buf, &mut pos)?,
        },
        KIND_ASSIGN => {
            let job = get_uvarint(buf, &mut pos)?;
            let rep_start = get_uvarint(buf, &mut pos)?;
            let rep_count = get_uvarint(buf, &mut pos)?;
            if rep_start > u32::MAX as u64 || rep_count > u32::MAX as u64 {
                return Err(WireError::BadValue);
            }
            SvcFrame::Assign {
                job,
                rep_start: rep_start as u32,
                rep_count: rep_count as u32,
                spec: JobSpec::decode_at(buf, &mut pos)?,
            }
        }
        KIND_ROW_BATCH => {
            let job = get_uvarint(buf, &mut pos)?;
            let n = get_uvarint(buf, &mut pos)?;
            if n > (ROW_BATCH * 4) as u64 {
                return Err(WireError::BadValue);
            }
            let mut rows = Vec::with_capacity(n as usize);
            for _ in 0..n {
                rows.push(get_row(buf, &mut pos)?);
            }
            SvcFrame::RowBatch { job, rows }
        }
        KIND_ASSIGN_DONE => {
            let job = get_uvarint(buf, &mut pos)?;
            let rep_start = get_uvarint(buf, &mut pos)?;
            let rep_count = get_uvarint(buf, &mut pos)?;
            if rep_start > u32::MAX as u64 || rep_count > u32::MAX as u64 {
                return Err(WireError::BadValue);
            }
            SvcFrame::AssignDone {
                job,
                rep_start: rep_start as u32,
                rep_count: rep_count as u32,
                ok: match get_u8(buf, &mut pos)? {
                    0 => false,
                    1 => true,
                    other => return Err(WireError::BadTag(other)),
                },
            }
        }
        KIND_SHUTDOWN => SvcFrame::Shutdown,
        other => return Err(WireError::BadKind(other)),
    };
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(frame)
}

/// Read one frame from a blocking reader (`Ok(None)` = clean EOF).
pub fn read_svc_frame(r: &mut impl std::io::Read) -> Result<Option<SvcFrame>, WireError> {
    match crate::frame::read(SVC_MAGIC, SVC_VERSION, r)? {
        None => Ok(None),
        Some((kind, payload)) => Ok(Some(decode_svc_payload(kind, &payload)?)),
    }
}

/// Write one frame to a blocking writer.
pub fn write_svc_frame(w: &mut impl std::io::Write, frame: &SvcFrame) -> std::io::Result<()> {
    w.write_all(&encode_svc_frame(frame))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::sample_spec;

    fn sample_frames() -> Vec<SvcFrame> {
        let spec = sample_spec();
        let mut agg = JobAggregate::for_spec(&spec);
        let width = agg.cells[0].hists.len();
        agg.record_row(0, &vec![7; width]);
        vec![
            SvcFrame::Hello { role: Role::Client, threads: 0, digest: proto_digest() },
            SvcFrame::Hello { role: Role::Worker, threads: 8, digest: proto_digest() },
            SvcFrame::HelloOk { epoch: 3 },
            SvcFrame::Submit { spec: spec.clone() },
            SvcFrame::Submitted { job: 1 },
            SvcFrame::Reject { reason: "job 9 unknown".into() },
            SvcFrame::Progress { job: 1 },
            SvcFrame::ProgressReport {
                job: 1,
                state: JobState::Running,
                completed: 120,
                total: 400,
                queued_jobs: 2,
                inflight_jobs: 1,
            },
            SvcFrame::Fetch { job: 1 },
            SvcFrame::Results { job: 1, agg },
            SvcFrame::Assign { job: 1, rep_start: 100, rep_count: 50, spec },
            SvcFrame::RowBatch {
                job: 1,
                rows: vec![
                    RunRow { cell: 0, rep: 3, values: vec![1, 2, 3] },
                    RunRow { cell: 2, rep: 107, values: vec![u64::MAX, 0] },
                ],
            },
            SvcFrame::AssignDone { job: 1, rep_start: 100, rep_count: 50, ok: true },
            SvcFrame::AssignDone { job: 1, rep_start: 0, rep_count: 1, ok: false },
            SvcFrame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_svc_frame(&frame);
            let mut r = &bytes[..];
            let back = read_svc_frame(&mut r).expect("read").expect("some");
            assert_eq!(back, frame);
            assert!(read_svc_frame(&mut r).expect("eof").is_none());
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_svc_frame(f));
        }
        let mut r = &stream[..];
        for f in &frames {
            assert_eq!(&read_svc_frame(&mut r).unwrap().unwrap(), f);
        }
        assert!(read_svc_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn every_truncation_errors() {
        for frame in sample_frames() {
            let bytes = encode_svc_frame(&frame);
            for cut in 1..bytes.len() {
                let mut r = &bytes[..cut];
                assert!(read_svc_frame(&mut r).is_err(), "cut {cut} of {frame:?}");
            }
        }
    }

    #[test]
    fn corruption_is_caught_never_panics() {
        for frame in sample_frames() {
            let bytes = encode_svc_frame(&frame);
            for i in 0..bytes.len() {
                let mut m = bytes.clone();
                m[i] ^= 0x20;
                let mut r = &m[..];
                assert!(read_svc_frame(&mut r).is_err(), "flip {i} of {frame:?}");
            }
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        assert!(matches!(decode_svc_payload(200, &[]), Err(WireError::BadKind(200))));
        let mut p = Vec::new();
        put_uvarint(&mut p, 1);
        p.push(0xfe); // trailing garbage after Progress { job }
        assert!(matches!(
            decode_svc_payload(KIND_PROGRESS, &p),
            Err(WireError::TrailingBytes)
        ));
    }
}
