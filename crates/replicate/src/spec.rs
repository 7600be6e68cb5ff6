//! Job specifications: what a replication sweep runs.
//!
//! A [`JobSpec`] is a seed sweep crossed with a parameter grid: a list
//! of scenario *cells* (each a named [`WorkloadSpec`] — a PHOLD ring or
//! an M/M/c queueing network configuration) and a replication count.
//! Every `(cell, rep)` pair becomes one independent simulation run
//! whose seed is a pure function of `(base_seed, cell, rep)`
//! ([`JobSpec::seed_for`]), so a job's output is bit-reproducible on
//! any machine, any thread count, and any local/remote split.
//!
//! The codec is versioned, varint-packed and **total**: every byte
//! string either decodes to a spec that [`JobSpec::validate`] accepts
//! or returns a [`WireError`] — never a panic. Framing (length + CRC)
//! is supplied by the layers above (the job protocol in [`crate::proto`]
//! and the column store in [`crate::store`]); this module only encodes
//! payload bytes.

use model::phold::PholdConfig;
use model::queueing::MmcSpec;
use net::wire::{get_u8, get_uvarint, put_uvarint, WireError};

pub use fault::splitmix64;

/// Spec payload codec version (bumped on any layout change).
pub const SPEC_VERSION: u8 = 1;

/// Upper bounds the decoder enforces so a hostile or corrupt spec
/// cannot make the service allocate or simulate unboundedly.
pub const MAX_NAME_LEN: usize = 128;
/// Maximum scenario cells per job.
pub const MAX_CELLS: usize = 4096;
/// Maximum total runs (`cells × replications`) per job.
pub const MAX_RUNS: u64 = 1 << 24;

const TAG_PHOLD: u8 = 0;
const TAG_MMC: u8 = 1;

/// One simulatable workload configuration.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// PHOLD ring (see `model::phold`).
    Phold(PholdConfig),
    /// M/M/c tandem queueing network (see `model::queueing`).
    Mmc(MmcSpec),
}

impl PartialEq for WorkloadSpec {
    fn eq(&self, other: &Self) -> bool {
        // f64 fields compare by bit pattern: the codec round-trips bits
        // exactly, and NaN never validates, so this is a true equality.
        let mut a = Vec::new();
        let mut b = Vec::new();
        self.encode(&mut a);
        other.encode(&mut b);
        a == b
    }
}
impl Eq for WorkloadSpec {}

impl WorkloadSpec {
    /// Short label for tables and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Phold(_) => "phold",
            WorkloadSpec::Mmc(_) => "mmc",
        }
    }

    /// The deterministic per-run metric columns this workload yields,
    /// in the order [`crate::executor::execute_run`] produces them.
    /// Every column is a pure function of the run seed, so cross-run
    /// aggregates over them are bit-reproducible. The executor appends
    /// one extra *non-deterministic* column, [`crate::agg::WALL_COL`].
    pub fn metric_names(&self) -> &'static [&'static str] {
        match self {
            WorkloadSpec::Phold(_) => &["events", "checksum", "remote_sent", "hop_sum"],
            WorkloadSpec::Mmc(_) => {
                &["events", "checksum", "completed", "latency_sum", "wait_sum", "served"]
            }
        }
    }

    /// Append the versionless payload encoding of this workload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkloadSpec::Phold(p) => {
                out.push(TAG_PHOLD);
                put_uvarint(out, p.lps as u64);
                put_uvarint(out, p.population as u64);
                put_uvarint(out, p.lookahead);
                put_uvarint(out, p.remote_fraction.to_bits());
                put_uvarint(out, p.mean_delay.to_bits());
            }
            WorkloadSpec::Mmc(m) => {
                out.push(TAG_MMC);
                put_uvarint(out, m.stations as u64);
                put_uvarint(out, m.servers as u64);
                put_uvarint(out, m.mean_interarrival.to_bits());
                put_uvarint(out, m.mean_service.to_bits());
                match m.feedback {
                    None => out.push(0),
                    Some(p) => {
                        out.push(1);
                        put_uvarint(out, p.to_bits());
                    }
                }
            }
        }
    }

    /// Decode one workload from `buf` at `pos`, validating every field.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<WorkloadSpec, WireError> {
        let w = match get_u8(buf, pos)? {
            TAG_PHOLD => WorkloadSpec::Phold(PholdConfig {
                lps: usize_field(buf, pos, MAX_CELLS * 64)?,
                population: usize_field(buf, pos, 1 << 20)?,
                lookahead: get_uvarint(buf, pos)?,
                remote_fraction: f64_field(buf, pos)?,
                mean_delay: f64_field(buf, pos)?,
            }),
            TAG_MMC => WorkloadSpec::Mmc(MmcSpec {
                stations: usize_field(buf, pos, 1 << 16)?,
                servers: usize_field(buf, pos, 1 << 16)?,
                mean_interarrival: f64_field(buf, pos)?,
                mean_service: f64_field(buf, pos)?,
                feedback: match get_u8(buf, pos)? {
                    0 => None,
                    1 => Some(f64_field(buf, pos)?),
                    other => return Err(WireError::BadTag(other)),
                },
            }),
            other => return Err(WireError::BadTag(other)),
        };
        w.validate()?;
        Ok(w)
    }

    /// Reject configurations the workload builders would panic on (or
    /// that make no simulatable sense). Called by the decoder so the
    /// service never executes an invalid remote spec.
    pub fn validate(&self) -> Result<(), WireError> {
        let finite_prob = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        let positive = |m: f64| m.is_finite() && m > 0.0;
        let ok = match self {
            WorkloadSpec::Phold(p) => {
                p.lps >= 1
                    && p.population >= 1
                    && p.lookahead >= 1
                    && finite_prob(p.remote_fraction)
                    && positive(p.mean_delay)
            }
            WorkloadSpec::Mmc(m) => {
                m.stations >= 1
                    && m.servers >= 1
                    && positive(m.mean_interarrival)
                    && positive(m.mean_service)
                    && m.feedback.is_none_or(|p| finite_prob(p) && p < 1.0)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(WireError::BadValue)
        }
    }
}

fn usize_field(buf: &[u8], pos: &mut usize, max: usize) -> Result<usize, WireError> {
    let v = get_uvarint(buf, pos)?;
    if v > max as u64 {
        return Err(WireError::BadValue);
    }
    Ok(v as usize)
}

fn f64_field(buf: &[u8], pos: &mut usize) -> Result<f64, WireError> {
    Ok(f64::from_bits(get_uvarint(buf, pos)?))
}

/// One named point of the parameter grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioCell {
    /// Cell label used in reports and store headers (e.g. `"la=4"`).
    pub name: String,
    /// The workload this cell simulates.
    pub workload: WorkloadSpec,
}

/// A replication job: `cells × replications` independent seeded runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Job label (store header, metrics, reports).
    pub name: String,
    /// Root of the per-run seed derivation.
    pub base_seed: u64,
    /// Replications per cell (the seed sweep).
    pub replications: u32,
    /// Simulated horizon every run stops at (exclusive).
    pub horizon: u64,
    /// The parameter grid.
    pub cells: Vec<ScenarioCell>,
}

impl JobSpec {
    /// `cells × replications`.
    pub fn total_runs(&self) -> u64 {
        self.cells.len() as u64 * self.replications as u64
    }

    /// Deterministic per-run seed: SplitMix64 over `(base_seed, cell,
    /// rep)`. Independent of execution order, thread count, and
    /// local/remote placement — the root of the determinism contract.
    pub fn seed_for(&self, cell: u32, rep: u32) -> u64 {
        let lane = ((cell as u64) << 32) | (rep as u64 + 1);
        splitmix64(self.base_seed ^ splitmix64(lane))
    }

    /// FNV-1a digest of the canonical encoding; stored in the column
    /// store header and echoed by the service so results are never
    /// attributed to the wrong spec.
    pub fn digest(&self) -> u64 {
        crate::agg::fnv1a(&self.encode())
    }

    /// Versioned payload encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(SPEC_VERSION);
        put_uvarint(&mut out, self.name.len() as u64);
        out.extend_from_slice(self.name.as_bytes());
        put_uvarint(&mut out, self.base_seed);
        put_uvarint(&mut out, self.replications as u64);
        put_uvarint(&mut out, self.horizon);
        put_uvarint(&mut out, self.cells.len() as u64);
        for cell in &self.cells {
            put_uvarint(&mut out, cell.name.len() as u64);
            out.extend_from_slice(cell.name.as_bytes());
            cell.workload.encode(&mut out);
        }
        out
    }

    /// Total decoder: consumes exactly `buf` or errors.
    pub fn decode(buf: &[u8]) -> Result<JobSpec, WireError> {
        let mut pos = 0;
        let spec = Self::decode_at(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(spec)
    }

    /// Decode one spec from `buf` at `pos` (for embedding in frames).
    pub fn decode_at(buf: &[u8], pos: &mut usize) -> Result<JobSpec, WireError> {
        let version = get_u8(buf, pos)?;
        if version != SPEC_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let name = string_field(buf, pos)?;
        let base_seed = get_uvarint(buf, pos)?;
        let replications = get_uvarint(buf, pos)?;
        let horizon = get_uvarint(buf, pos)?;
        let num_cells = get_uvarint(buf, pos)?;
        if num_cells == 0 || num_cells > MAX_CELLS as u64 {
            return Err(WireError::BadValue);
        }
        let mut cells = Vec::with_capacity(num_cells as usize);
        for _ in 0..num_cells {
            cells.push(ScenarioCell {
                name: string_field(buf, pos)?,
                workload: WorkloadSpec::decode(buf, pos)?,
            });
        }
        let spec = JobSpec {
            name,
            base_seed,
            replications: u32::try_from(replications).map_err(|_| WireError::BadValue)?,
            horizon,
            cells,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The invariants every accepted job satisfies.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.name.is_empty()
            || self.name.len() > MAX_NAME_LEN
            || self.replications == 0
            || self.horizon == 0
            || self.cells.is_empty()
            || self.cells.len() > MAX_CELLS
            || self.total_runs() > MAX_RUNS
        {
            return Err(WireError::BadValue);
        }
        for cell in &self.cells {
            if cell.name.is_empty() || cell.name.len() > MAX_NAME_LEN {
                return Err(WireError::BadValue);
            }
            cell.workload.validate()?;
        }
        Ok(())
    }

    /// Convenience constructor: a PHOLD lookahead sweep — one cell per
    /// lookahead value, everything else from `base`.
    pub fn phold_sweep(
        name: impl Into<String>,
        base: PholdConfig,
        lookaheads: &[u64],
        base_seed: u64,
        replications: u32,
        horizon: u64,
    ) -> JobSpec {
        let cells = lookaheads
            .iter()
            .map(|&la| ScenarioCell {
                name: format!("la={la}"),
                workload: WorkloadSpec::Phold(PholdConfig { lookahead: la, ..base }),
            })
            .collect();
        JobSpec { name: name.into(), base_seed, replications, horizon, cells }
    }
}

fn string_field(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = get_uvarint(buf, pos)? as usize;
    if len > MAX_NAME_LEN {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_spec() -> JobSpec {
        let mut spec = JobSpec::phold_sweep(
            "sweep",
            PholdConfig { lps: 8, population: 2, lookahead: 4, remote_fraction: 0.5, mean_delay: 10.0 },
            &[2, 4, 8],
            42,
            10,
            300,
        );
        spec.cells.push(ScenarioCell {
            name: "mmc".into(),
            workload: WorkloadSpec::Mmc(MmcSpec {
                stations: 3,
                servers: 2,
                mean_interarrival: 6.0,
                mean_service: 9.0,
                feedback: Some(0.3),
            }),
        });
        spec
    }

    #[test]
    fn spec_round_trips() {
        let spec = sample_spec();
        let bytes = spec.encode();
        let back = JobSpec::decode(&bytes).expect("round trip");
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
        assert_eq!(spec.total_runs(), 40);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = sample_spec().encode();
        for cut in 0..bytes.len() {
            assert!(
                JobSpec::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_spec().encode();
        bytes.push(0);
        assert!(matches!(JobSpec::decode(&bytes), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample_spec().encode();
        bytes[0] = SPEC_VERSION + 1;
        assert!(matches!(JobSpec::decode(&bytes), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut zero_reps = sample_spec();
        zero_reps.replications = 0;
        assert!(JobSpec::decode(&zero_reps.encode()).is_err());

        let mut nan = sample_spec();
        nan.cells[0].workload = WorkloadSpec::Phold(PholdConfig {
            remote_fraction: f64::NAN,
            ..PholdConfig::default()
        });
        assert!(JobSpec::decode(&nan.encode()).is_err());

        let mut runaway = sample_spec();
        runaway.replications = u32::MAX;
        assert!(JobSpec::decode(&runaway.encode()).is_err());
    }

    #[test]
    fn decoder_is_total_on_mutated_bytes() {
        // Deterministic byte-flip fuzz: no input may panic.
        let bytes = sample_spec().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                let _ = JobSpec::decode(&m); // must return, never panic
            }
        }
    }

    #[test]
    fn seeds_are_unique_and_order_free() {
        let spec = sample_spec();
        let mut seen = std::collections::HashSet::new();
        for cell in 0..spec.cells.len() as u32 {
            for rep in 0..spec.replications {
                assert!(seen.insert(spec.seed_for(cell, rep)), "seed collision");
            }
        }
        assert_eq!(spec.seed_for(1, 3), spec.seed_for(1, 3));
        assert_ne!(spec.seed_for(0, 1), spec.seed_for(1, 0));
    }
}
