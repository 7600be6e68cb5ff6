//! Everything a workload feeds the program, as a pure function of
//! `--seed`. The program receives only these generated inputs; the seed
//! itself never reaches an engine.

use circuit::generators::kogge_stone_adder;
use circuit::{Circuit, DelayModel, Stimulus};
use model::phold::PholdConfig;
use model::DetRng;
use replicate::spec::{splitmix64, JobSpec};

/// The default seed. Seed 11 is the held-out seed: check a claim on it
/// after developing the change on this one.
pub const DEFAULT_SEED: u64 = 3;

/// An independent stream of `seed` for one purpose.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    splitmix64(seed ^ splitmix64(lane))
}

// ---------------------------------------------------------------------------
// ks128-seq, ks128-sharded

/// Stimulus vectors per job. Two vectors is about 1.09 M events, short
/// enough that the slower sharded engine still finishes 300 jobs in a run.
pub const KS128_VECTORS: usize = 2;
const KS128_PERIOD: u64 = 10;

pub struct Ks128 {
    pub circuit: Circuit,
    pub stimulus: Stimulus,
    pub delays: DelayModel,
}

/// The paper's ks128 circuit driven by seeded random vectors.
pub fn ks128(seed: u64) -> Ks128 {
    let circuit = kogge_stone_adder(128);
    let stimulus =
        Stimulus::random_vectors(&circuit, KS128_VECTORS, KS128_PERIOD, sub_seed(seed, 1));
    Ks128 {
        circuit,
        stimulus,
        delays: DelayModel::standard(),
    }
}

// ---------------------------------------------------------------------------
// phold-cut

pub const PHOLD_CUT: PholdConfig = PholdConfig {
    lps: 1024,
    population: 8,
    lookahead: 4,
    remote_fraction: 0.5,
    mean_delay: 10.0,
};
pub const PHOLD_CUT_HORIZON: u64 = 200;

pub fn phold_cut_seed(seed: u64) -> u64 {
    sub_seed(seed, 2)
}

// ---------------------------------------------------------------------------
// svc-mixed

/// Gap between small jobs, and the half-width of the uniform jitter on
/// each arrival. The jitter keeps arrivals from locking phase with the
/// collector's poll tick and with the big jobs.
pub const SMALL_GAP_MS: f64 = 20.0;
const SMALL_JITTER_MS: f64 = 5.0;
/// Gap between big jobs and its jitter.
pub const BIG_GAP_MS: f64 = 250.0;
const BIG_JITTER_MS: f64 = 50.0;

pub const SMALL_REPS: u32 = 8;
pub const BIG_REPS: u32 = 370;
/// Distinct job specs per size, cycled through by the schedule, so that
/// consecutive jobs are not the same computation.
pub const SMALL_VARIANTS: usize = 4;
pub const BIG_VARIANTS: usize = 2;

const SVC_PHOLD: PholdConfig = PholdConfig {
    lps: 16,
    population: 4,
    lookahead: 4,
    remote_fraction: 0.5,
    mean_delay: 10.0,
};
const SVC_HORIZON: u64 = 400;

/// One arrival of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is due, in milliseconds from the start of the loop.
    pub due_ms: f64,
    pub big: bool,
    /// Which of the size's job specs to submit.
    pub variant: usize,
}

/// Every arrival of slice `slice` due in `[0, span_ms)`, in due order. A
/// pure function of its arguments: the same seed gives the same schedule
/// on every host. Arrivals sit on a grid (one per gap) and each is moved
/// by its own jitter, so every slice offers the same number of jobs
/// whatever the seed; the slices of one run differ in their jitter, so a
/// run pools as many different placements of small jobs against big ones
/// as it has slices.
pub fn svc_schedule(seed: u64, slice: u64, span_ms: f64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    // One stream of randomness per job size and slice, so that a longer
    // span extends the schedule without moving the arrivals before it.
    let mut stream = |big: bool, first_ms: f64, gap_ms: f64, jitter_ms: f64, variants: usize| {
        let lane = if big { 4 } else { 3 };
        let mut rng = DetRng::new(sub_seed(sub_seed(seed, lane), slice));
        for n in 0.. {
            let grid_ms = first_ms + n as f64 * gap_ms;
            if grid_ms >= span_ms {
                break;
            }
            arrivals.push(Arrival {
                due_ms: grid_ms + jitter_ms * (2.0 * rng.uniform() - 1.0),
                big,
                variant: n % variants,
            });
        }
    };
    // Both grids start one jitter in, so that no job is due before 0.
    stream(
        false,
        SMALL_JITTER_MS,
        SMALL_GAP_MS,
        SMALL_JITTER_MS,
        SMALL_VARIANTS,
    );
    // The first big job lands half a gap in, so a short slice still has
    // small jobs on both sides of it.
    stream(
        true,
        BIG_GAP_MS / 2.0,
        BIG_GAP_MS,
        BIG_JITTER_MS,
        BIG_VARIANTS,
    );
    arrivals.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    arrivals
}

/// The job spec of one arrival kind.
pub fn svc_spec(seed: u64, big: bool, variant: usize) -> JobSpec {
    let (name, reps, lane) = if big {
        (format!("big-{variant}"), BIG_REPS, 100 + variant as u64)
    } else {
        (format!("small-{variant}"), SMALL_REPS, 200 + variant as u64)
    };
    JobSpec::phold_sweep(
        name,
        SVC_PHOLD,
        &[SVC_PHOLD.lookahead],
        sub_seed(seed, lane),
        reps,
        SVC_HORIZON,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = svc_schedule(3, 0, 4_000.0);
        assert_eq!(a, svc_schedule(3, 0, 4_000.0));
        assert_ne!(a, svc_schedule(11, 0, 4_000.0));
        // The slices of one run get different stretches of the schedule.
        assert_ne!(a, svc_schedule(3, 1, 4_000.0));
        // A longer span extends the schedule without moving what came before.
        let longer = svc_schedule(3, 0, 8_000.0);
        assert_eq!(longer.len(), 2 * a.len());
        assert!(a.iter().all(|j| longer.contains(j)));
    }

    #[test]
    fn schedule_keeps_its_rates_and_order() {
        let span_ms = 20_000.0;
        let jobs = svc_schedule(7, 2, span_ms);
        assert!(jobs.windows(2).all(|w| w[0].due_ms <= w[1].due_ms));
        assert!(jobs.iter().all(|j| j.due_ms >= 0.0));
        // The grid fixes the counts: every seed offers the same load.
        let big = jobs.iter().filter(|j| j.big).count() as f64;
        let small = jobs.len() as f64 - big;
        assert_eq!((small, big), (span_ms / SMALL_GAP_MS, span_ms / BIG_GAP_MS));
        assert!(jobs
            .iter()
            .all(|j| j.variant < if j.big { BIG_VARIANTS } else { SMALL_VARIANTS }));
    }

    #[test]
    fn every_input_follows_the_seed() {
        assert_eq!(ks128(3).stimulus, ks128(3).stimulus);
        assert_ne!(ks128(3).stimulus, ks128(11).stimulus);
        assert_ne!(phold_cut_seed(3), phold_cut_seed(11));
        assert_eq!(svc_spec(3, true, 1), svc_spec(3, true, 1));
        assert_ne!(
            svc_spec(3, true, 0).base_seed,
            svc_spec(3, true, 1).base_seed
        );
        assert_ne!(
            svc_spec(3, false, 0).base_seed,
            svc_spec(11, false, 0).base_seed
        );
        assert_eq!(svc_spec(3, false, 2).replications, SMALL_REPS);
    }
}
