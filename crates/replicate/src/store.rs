//! The columnar run store: per-metric column chunks on disk.
//!
//! One file per job. Layout (all frames via [`crate::frame`], own
//! magic so a store file can never be confused with a checkpoint or a
//! protocol stream):
//!
//! ```text
//! HDR   { job spec (versioned codec) }
//! CHUNK { cell, column, count, (rep, value) × count }   …repeated…
//! END   { total rows, aggregate digest }
//! ```
//!
//! Chunks are *columnar*: each frame carries one metric column of one
//! scenario cell, so a reader that only wants `latency_sum` percentiles
//! touches only those frames. Rows arrive from the run pool
//! (and remote ranks) in completion order; each carries its replication
//! index, so on-disk order is irrelevant to the aggregate — histograms
//! are order-free and the reader re-indexes by `(cell, column, rep)`.
//!
//! Durability follows `checkpoint.rs`: everything is written to
//! `<path>.tmp`, fsync'd, then atomically renamed. A crash leaves no
//! file, an ignorable `.tmp`, or a complete file whose CRCs and END
//! digest verify. [`RunStoreReader::open`] validates every frame CRC,
//! re-aggregates, recomputes the deterministic digest and compares it
//! to the writer's — a reread is bit-identical or it is an error.

use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use net::wire::{get_uvarint, put_uvarint, WireError};

use crate::agg::JobAggregate;
use crate::spec::JobSpec;

/// Store file magic ("column store", distinct from net and checkpoint).
pub const STORE_MAGIC: u16 = 0x5C01;
/// Store format version.
pub const STORE_VERSION: u8 = 1;

const KIND_HDR: u8 = 1;
const KIND_CHUNK: u8 = 2;
const KIND_END: u8 = 3;

/// Rows buffered per cell before its columns are flushed as chunks.
const CHUNK_ROWS: usize = 256;

/// Everything that can go wrong reading or writing a store file.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Framing or codec violation (CRC, truncation, bad varint…).
    Wire(WireError),
    /// A `(cell, column, rep)` slot was written twice.
    DuplicateRow { cell: u32, rep: u32 },
    /// The file ended with fewer rows than END declared, or a rep slot
    /// was never filled.
    Incomplete { expected: u64, found: u64 },
    /// The re-aggregated digest differs from the one the writer sealed.
    DigestMismatch { expected: u64, found: u64 },
    /// A chunk referenced a cell/column/rep outside the spec's shape.
    BadLayout,
    /// No END frame — the writer never finished (torn file).
    Unsealed,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Wire(e) => write!(f, "store frame: {e}"),
            StoreError::DuplicateRow { cell, rep } => {
                write!(f, "duplicate row cell={cell} rep={rep}")
            }
            StoreError::Incomplete { expected, found } => {
                write!(f, "incomplete store: {found}/{expected} rows")
            }
            StoreError::DigestMismatch { expected, found } => write!(
                f,
                "aggregate digest mismatch: sealed {expected:#018x}, reread {found:#018x}"
            ),
            StoreError::BadLayout => write!(f, "chunk outside the spec's shape"),
            StoreError::Unsealed => write!(f, "store was never sealed (missing END)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// Streaming writer: buffers rows per cell, flushes columnar chunks,
/// seals with END + fsync + rename.
pub struct RunStoreWriter {
    out: BufWriter<std::fs::File>,
    tmp: PathBuf,
    path: PathBuf,
    /// Per cell: buffered `(rep, row values)` not yet chunked.
    pending: Vec<Vec<(u32, Vec<u64>)>>,
    /// Column count per cell (deterministic metrics + wall).
    widths: Vec<usize>,
    agg: JobAggregate,
}

impl RunStoreWriter {
    /// Create `<path>.tmp` and write the header.
    pub fn create(path: impl Into<PathBuf>, spec: &JobSpec) -> Result<RunStoreWriter, StoreError> {
        let path = path.into();
        let name = path.file_name().unwrap_or_default().to_string_lossy().to_string();
        let tmp = path.with_file_name(format!("{name}.tmp"));
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        out.write_all(&crate::frame::encode(STORE_MAGIC, STORE_VERSION, KIND_HDR, &spec.encode()))?;
        let agg = JobAggregate::for_spec(spec);
        let widths = agg.cells.iter().map(|c| c.hists.len()).collect();
        Ok(RunStoreWriter {
            out,
            tmp,
            path,
            pending: vec![Vec::new(); spec.cells.len()],
            widths,
            agg,
        })
    }

    /// Stream one run row (values aligned with the cell's columns,
    /// wall last). Rows may arrive in any order.
    pub fn push_row(&mut self, cell: u32, rep: u32, values: &[u64]) -> Result<(), StoreError> {
        let c = cell as usize;
        if c >= self.pending.len() || values.len() != self.widths[c] {
            return Err(StoreError::BadLayout);
        }
        self.agg.record_row(c, values);
        self.pending[c].push((rep, values.to_vec()));
        if self.pending[c].len() >= CHUNK_ROWS {
            self.flush_cell(c)?;
        }
        Ok(())
    }

    fn flush_cell(&mut self, cell: usize) -> Result<(), StoreError> {
        let rows = std::mem::take(&mut self.pending[cell]);
        if rows.is_empty() {
            return Ok(());
        }
        for col in 0..self.widths[cell] {
            let mut payload = Vec::with_capacity(rows.len() * 4 + 16);
            put_uvarint(&mut payload, cell as u64);
            put_uvarint(&mut payload, col as u64);
            put_uvarint(&mut payload, rows.len() as u64);
            for (rep, values) in &rows {
                put_uvarint(&mut payload, *rep as u64);
                put_uvarint(&mut payload, values[col]);
            }
            self.out
                .write_all(&crate::frame::encode(STORE_MAGIC, STORE_VERSION, KIND_CHUNK, &payload))?;
        }
        Ok(())
    }

    /// The aggregate folded so far (what END will seal).
    pub fn aggregate(&self) -> &JobAggregate {
        &self.agg
    }

    /// Flush remaining chunks, seal with END, fsync, rename into place.
    /// Returns the final aggregate.
    pub fn finish(mut self) -> Result<JobAggregate, StoreError> {
        for cell in 0..self.pending.len() {
            self.flush_cell(cell)?;
        }
        let mut end = Vec::new();
        put_uvarint(&mut end, self.agg.total_runs);
        put_uvarint(&mut end, self.agg.digest());
        self.out.write_all(&crate::frame::encode(STORE_MAGIC, STORE_VERSION, KIND_END, &end))?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        drop(self.out);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(self.agg)
    }
}

/// A fully validated store file.
pub struct RunStoreReader {
    /// The spec the header carried.
    pub spec: JobSpec,
    /// Per cell, per column, per rep: the stored values.
    pub columns: Vec<Vec<Vec<u64>>>,
    /// The re-aggregated (and digest-verified) cross-run aggregate.
    pub aggregate: JobAggregate,
}

impl RunStoreReader {
    /// Open and validate `path`: every frame CRC, the row shape, row
    /// completeness, and the sealed aggregate digest.
    pub fn open(path: impl AsRef<Path>) -> Result<RunStoreReader, StoreError> {
        let file = std::fs::File::open(path.as_ref())?;
        Self::read_from(std::io::BufReader::new(file))
    }

    /// Same as [`RunStoreReader::open`] over any reader.
    pub fn read_from(mut r: impl Read) -> Result<RunStoreReader, StoreError> {
        let (kind, hdr) = crate::frame::read(STORE_MAGIC, STORE_VERSION, &mut r)?
            .ok_or(StoreError::Unsealed)?;
        if kind != KIND_HDR {
            return Err(StoreError::Wire(WireError::BadKind(kind)));
        }
        let spec = JobSpec::decode(&hdr)?;
        let shape = JobAggregate::for_spec(&spec);
        let reps = spec.replications as usize;
        // cell → col → rep → value; filled tracks which slots are set.
        let mut columns: Vec<Vec<Vec<u64>>> =
            shape.cells.iter().map(|c| vec![vec![0u64; reps]; c.hists.len()]).collect();
        let mut filled: Vec<Vec<Vec<bool>>> =
            shape.cells.iter().map(|c| vec![vec![false; reps]; c.hists.len()]).collect();

        let mut sealed: Option<(u64, u64)> = None;
        loop {
            match crate::frame::read(STORE_MAGIC, STORE_VERSION, &mut r)? {
                None => break,
                Some(_) if sealed.is_some() => {
                    return Err(StoreError::Wire(WireError::TrailingBytes))
                }
                Some((KIND_CHUNK, payload)) => {
                    decode_chunk(&payload, &mut columns, &mut filled)?;
                }
                Some((KIND_END, payload)) => {
                    let mut pos = 0;
                    let rows = get_uvarint(&payload, &mut pos)?;
                    let digest = get_uvarint(&payload, &mut pos)?;
                    if pos != payload.len() {
                        return Err(StoreError::Wire(WireError::TrailingBytes));
                    }
                    sealed = Some((rows, digest));
                }
                Some((kind, _)) => return Err(StoreError::Wire(WireError::BadKind(kind))),
            }
        }
        let (sealed_rows, sealed_digest) = sealed.ok_or(StoreError::Unsealed)?;

        // Completeness: every (cell, col, rep) slot exactly once.
        let mut aggregate = JobAggregate::for_spec(&spec);
        for (cell, cols) in columns.iter().enumerate() {
            for rep in 0..reps {
                for col_filled in &filled[cell] {
                    if !col_filled[rep] {
                        let found: u64 = filled
                            .iter()
                            .flat_map(|cols| cols.first())
                            .map(|c| c.iter().filter(|&&f| f).count() as u64)
                            .sum();
                        return Err(StoreError::Incomplete { expected: sealed_rows, found });
                    }
                }
                let row: Vec<u64> = cols.iter().map(|col| col[rep]).collect();
                aggregate.record_row(cell, &row);
            }
        }
        if aggregate.total_runs != sealed_rows {
            return Err(StoreError::Incomplete {
                expected: sealed_rows,
                found: aggregate.total_runs,
            });
        }
        let found = aggregate.digest();
        if found != sealed_digest {
            return Err(StoreError::DigestMismatch { expected: sealed_digest, found });
        }
        Ok(RunStoreReader { spec, columns, aggregate })
    }
}

fn decode_chunk(
    payload: &[u8],
    columns: &mut [Vec<Vec<u64>>],
    filled: &mut [Vec<Vec<bool>>],
) -> Result<(), StoreError> {
    let mut pos = 0;
    let cell = get_uvarint(payload, &mut pos)? as usize;
    let col = get_uvarint(payload, &mut pos)? as usize;
    let count = get_uvarint(payload, &mut pos)?;
    if cell >= columns.len() || col >= columns[cell].len() {
        return Err(StoreError::BadLayout);
    }
    let reps = columns[cell][col].len();
    if count > reps as u64 {
        return Err(StoreError::BadLayout);
    }
    for _ in 0..count {
        let rep = get_uvarint(payload, &mut pos)? as usize;
        let value = get_uvarint(payload, &mut pos)?;
        if rep >= reps {
            return Err(StoreError::BadLayout);
        }
        if filled[cell][col][rep] {
            return Err(StoreError::DuplicateRow { cell: cell as u32, rep: rep as u32 });
        }
        filled[cell][col][rep] = true;
        columns[cell][col][rep] = value;
    }
    if pos != payload.len() {
        return Err(StoreError::Wire(WireError::TrailingBytes));
    }
    Ok(())
}

/// Collect `job-*.cols` files under `dir` (newest job id last).
pub fn list_store_files(dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "cols")
                && p.file_stem().is_some_and(|s| s.to_string_lossy().starts_with("job-"))
        })
        .collect();
    out.sort();
    Ok(out)
}

/// In-memory row sink the service uses before chunks hit disk; also
/// handy in tests. Maps `(cell, rep)` → values.
#[derive(Default)]
pub struct RowBuffer {
    rows: HashMap<(u32, u32), Vec<u64>>,
}

impl RowBuffer {
    /// Insert a row; duplicate `(cell, rep)` is an error.
    pub fn insert(&mut self, cell: u32, rep: u32, values: Vec<u64>) -> Result<(), StoreError> {
        if self.rows.insert((cell, rep), values).is_some() {
            return Err(StoreError::DuplicateRow { cell, rep });
        }
        Ok(())
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drain in deterministic `(cell, rep)` order.
    pub fn drain_sorted(&mut self) -> Vec<((u32, u32), Vec<u64>)> {
        let mut rows: Vec<_> = self.rows.drain().collect();
        rows.sort_by_key(|(k, _)| *k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::sample_spec;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("replicate-store-{tag}-{}.cols", std::process::id()));
        p
    }

    fn write_full_store(path: &Path, spec: &JobSpec) -> JobAggregate {
        let mut w = RunStoreWriter::create(path, spec).expect("create");
        let widths: Vec<usize> =
            JobAggregate::for_spec(spec).cells.iter().map(|c| c.hists.len()).collect();
        // Deterministic synthetic rows, pushed in scrambled order.
        let mut order: Vec<(u32, u32)> = (0..spec.cells.len() as u32)
            .flat_map(|c| (0..spec.replications).map(move |r| (c, r)))
            .collect();
        order.sort_by_key(|&(c, r)| crate::spec::splitmix64(((c as u64) << 32) | r as u64));
        for (cell, rep) in order {
            let row: Vec<u64> = (0..widths[cell as usize])
                .map(|col| {
                    crate::spec::splitmix64(spec.seed_for(cell, rep) ^ col as u64) >> 40
                })
                .collect();
            w.push_row(cell, rep, &row).expect("push");
        }
        w.finish().expect("finish")
    }

    #[test]
    fn store_round_trips_to_identical_aggregate() {
        let spec = sample_spec();
        let path = tmp_path("roundtrip");
        let sealed = write_full_store(&path, &spec);
        let reread = RunStoreReader::open(&path).expect("open");
        assert_eq!(reread.spec, spec);
        assert_eq!(reread.aggregate, sealed);
        assert_eq!(reread.aggregate.digest(), sealed.digest());
        assert_eq!(reread.aggregate.total_runs, spec.total_runs());
        // Columnar access: one column of one cell.
        assert_eq!(reread.columns[0][0].len(), spec.replications as usize);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_store_leaves_only_tmp() {
        let spec = sample_spec();
        let path = tmp_path("torn");
        let mut w = RunStoreWriter::create(&path, &spec).expect("create");
        w.push_row(0, 0, &[1; 5]).expect("push");
        drop(w); // no finish(): simulated crash
        assert!(!path.exists(), "unfinished store must not appear at the final path");
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(tmp.exists());
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn truncation_and_corruption_are_errors_never_panics() {
        let spec = sample_spec();
        let path = tmp_path("corrupt");
        write_full_store(&path, &spec);
        let bytes = std::fs::read(&path).expect("read");
        // Every truncation point fails.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                RunStoreReader::read_from(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        // Every byte corruption fails (CRC per frame covers all bytes).
        for i in (0..bytes.len()).step_by(3) {
            let mut m = bytes.clone();
            m[i] ^= 0x10;
            assert!(RunStoreReader::read_from(&m[..]).is_err(), "flip at {i} must error");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_rows_detected() {
        let spec = sample_spec();
        let path = tmp_path("missing");
        let mut w = RunStoreWriter::create(&path, &spec).expect("create");
        let width = JobAggregate::for_spec(&spec).cells[0].hists.len();
        w.push_row(0, 0, &vec![1; width]).expect("push");
        w.finish().expect("finish");
        match RunStoreReader::open(&path) {
            Err(StoreError::Incomplete { .. }) => {}
            other => panic!("expected Incomplete, got {other:?}", other = other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_rows_detected() {
        let spec = sample_spec();
        let mut buf = RowBuffer::default();
        buf.insert(0, 1, vec![1]).unwrap();
        assert!(matches!(
            buf.insert(0, 1, vec![2]),
            Err(StoreError::DuplicateRow { cell: 0, rep: 1 })
        ));
        // And on disk: write the same rep twice.
        let path = tmp_path("dup");
        let mut w = RunStoreWriter::create(&path, &spec).expect("create");
        let width = JobAggregate::for_spec(&spec).cells[0].hists.len();
        for _ in 0..2 {
            w.push_row(0, 3, &vec![9; width]).expect("push accepts; reader rejects");
        }
        w.finish().expect("finish");
        assert!(RunStoreReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
