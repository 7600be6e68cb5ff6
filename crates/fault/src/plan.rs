//! Seeded, counter-based fault plans.
//!
//! A [`FaultPlan`] is consulted by engines at well-defined *decision
//! points* (task spawn, `try_lock_all` attempt, node activation, Galois
//! commit). Each decision point draws the next value from a per-kind
//! atomic counter and hashes `(seed, kind, counter)` through splitmix64
//! to a uniform value, so:
//!
//! * a disabled plan costs one relaxed atomic load per check;
//! * two runs with the same seed make identical decision *streams* — the
//!   Nth lock-acquire decision is the same in both runs even if a
//!   different thread happens to execute it;
//! * injection counts are exposed via [`InjectionCounts`] so tests can
//!   assert that faults actually fired.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kinds of decision points a plan can inject at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic a simulation task at spawn/claim time.
    SpawnPanic,
    /// Force a `try_lock_all` attempt to report failure.
    TryLockFail,
    /// Delay a node activation (straggler).
    Straggler,
    /// Force a Galois iteration to conflict and abort.
    GaloisConflict,
}

impl FaultKind {
    fn salt(self) -> u64 {
        match self {
            FaultKind::SpawnPanic => 0x5350_414e,
            FaultKind::TryLockFail => 0x4c4f_434b,
            FaultKind::Straggler => 0x534c_4f57,
            FaultKind::GaloisConflict => 0x434f_4e46,
        }
    }
}

/// How many faults of each kind a plan has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionCounts {
    pub panics: u64,
    pub lock_failures: u64,
    pub stragglers: u64,
    pub conflicts: u64,
}

#[derive(Debug, Default)]
struct Counters {
    spawns: AtomicU64,
    shard_asks: AtomicU64,
    migration_asks: AtomicU64,
    lock_attempts: AtomicU64,
    activations: AtomicU64,
    commits: AtomicU64,
    injected_panics: AtomicU64,
    injected_lock_failures: AtomicU64,
    injected_stragglers: AtomicU64,
    injected_conflicts: AtomicU64,
    // Sticky (reset-immune) latches for the recovery faults: a restarted
    // attempt calls `reset()` before running, but a killed rank must stay
    // killed and a dropped link must stay dropped across the restore, or
    // the injection would refire forever and recovery could never finish.
    rank_kill_fired: AtomicU64,
    link_frames_seen: AtomicU64,
    link_drop_fired: AtomicU64,
}

/// A deterministic description of the faults to inject into one run.
///
/// Construct with [`FaultPlan::seeded`] and the builder methods, or
/// [`FaultPlan::none`] for a no-op plan. Plans are internally mutable
/// (atomic counters) and are shared across workers behind an `Arc`.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    active: bool,
    /// Panic the task handling the Nth spawn decision (1-based).
    panic_on_spawn: Option<u64>,
    /// Panic the worker running the given shard (sharded engine only).
    panic_in_shard: Option<u64>,
    /// Panic a shard core entering the given migration epoch (1-based;
    /// sharded engine with rebalancing only).
    panic_on_migration: Option<u64>,
    /// Probability that a `try_lock_all` attempt is forced to fail.
    trylock_fail_rate: f64,
    /// Probability that a node activation is delayed, and by how much.
    straggler_rate: f64,
    straggler_delay: Duration,
    /// Probability that a Galois commit is forced to conflict.
    conflict_rate: f64,
    /// Deliberately wedge the run: suppress all progress so the watchdog
    /// must trip. Used by the watchdog tests.
    wedge: bool,
    /// Kill rank `.0` (panic its shard cores) when it reaches checkpoint
    /// epoch `.1` — the fault the recovery path restores from.
    kill_rank_at_epoch: Option<(u64, u64)>,
    /// Simulate a link failure on the reader for peer `.0` after `.1`
    /// frames have arrived from it (distributed fabric only).
    drop_link: Option<(u64, u64)>,
    counters: Counters,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64 mixing step: the workspace's one stateless 64-bit hash,
/// used wherever a decision must be a pure function of a seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan that injects nothing. All checks are single relaxed loads.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            active: false,
            panic_on_spawn: None,
            panic_in_shard: None,
            panic_on_migration: None,
            trylock_fail_rate: 0.0,
            straggler_rate: 0.0,
            straggler_delay: Duration::ZERO,
            conflict_rate: 0.0,
            wedge: false,
            kill_rank_at_epoch: None,
            drop_link: None,
            counters: Counters::default(),
        }
    }

    /// An empty active plan with the given seed; add faults with the
    /// builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            active: true,
            ..Self::none()
        }
    }

    /// Panic the task handling the `n`th spawn decision (1-based).
    pub fn panic_on_spawn(mut self, n: u64) -> Self {
        assert!(n >= 1, "spawn indices are 1-based");
        self.panic_on_spawn = Some(n);
        self
    }

    /// Panic the worker running shard `shard` (sharded engine): a
    /// shard-targeted variant of [`FaultPlan::panic_on_spawn`] that pins
    /// the failure to one partition regardless of activation interleaving.
    pub fn panic_in_shard(mut self, shard: u64) -> Self {
        self.panic_in_shard = Some(shard);
        self
    }

    /// Panic the first shard core that enters migration epoch `n`
    /// (1-based): exercises failure containment at the most delicate
    /// point of the rebalancing protocol, while peers are waiting at the
    /// epoch barrier.
    pub fn panic_on_migration(mut self, n: u64) -> Self {
        assert!(n >= 1, "migration epochs are 1-based");
        self.panic_on_migration = Some(n);
        self
    }

    /// Force each `try_lock_all` attempt to fail with probability `rate`.
    pub fn fail_trylock(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.trylock_fail_rate = rate;
        self
    }

    /// Delay each node activation by `delay` with probability `rate`.
    pub fn straggler(mut self, rate: f64, delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.straggler_rate = rate;
        self.straggler_delay = delay;
        self
    }

    /// Force each Galois commit to conflict with probability `rate`.
    pub fn force_conflicts(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.conflict_rate = rate;
        self
    }

    /// Wedge the run deliberately so the no-progress watchdog must trip.
    pub fn wedged(mut self) -> Self {
        self.wedge = true;
        self
    }

    /// Kill rank `rank` when it reaches checkpoint epoch `epoch`
    /// (1-based): its shard cores panic at the barrier, before the
    /// epoch's snapshot is written, so a restore resumes from epoch
    /// `epoch - 1`. The latch is *sticky across [`FaultPlan::reset`]* —
    /// the restarted attempt must not be killed again.
    pub fn kill_rank_at_epoch(mut self, rank: u64, epoch: u64) -> Self {
        assert!(epoch >= 1, "checkpoint epochs are 1-based");
        self.kill_rank_at_epoch = Some((rank, epoch));
        self
    }

    /// Drop the inbound link from peer `peer` after `after_frames` frames
    /// have been read from it: the reader fails as if the socket died,
    /// exercising reconnect/recovery without a real network fault. Sticky
    /// across [`FaultPlan::reset`], like [`FaultPlan::kill_rank_at_epoch`].
    pub fn drop_link(mut self, peer: u64, after_frames: u64) -> Self {
        self.drop_link = Some((peer, after_frames));
        self
    }

    /// True if any injection is configured. Engines use this to skip all
    /// fault bookkeeping on the hot path for plain runs.
    pub fn is_active(&self) -> bool {
        self.active
            && (self.panic_on_spawn.is_some()
                || self.panic_in_shard.is_some()
                || self.panic_on_migration.is_some()
                || self.trylock_fail_rate > 0.0
                || self.straggler_rate > 0.0
                || self.conflict_rate > 0.0
                || self.wedge
                || self.kill_rank_at_epoch.is_some()
                || self.drop_link.is_some())
    }

    /// True if the plan wedges the run (progress deliberately suppressed).
    pub fn is_wedged(&self) -> bool {
        self.active && self.wedge
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn roll(&self, kind: FaultKind, counter: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ kind.salt().wrapping_mul(0x9E37_79B9).wrapping_add(counter));
        unit(h) < rate
    }

    /// Decision point: a simulation task is being spawned/claimed.
    /// Returns true exactly once, for the configured spawn index.
    pub fn should_panic_spawn(&self) -> bool {
        let Some(n) = self.panic_on_spawn else {
            return false;
        };
        let at = self.counters.spawns.fetch_add(1, Ordering::Relaxed) + 1;
        if at == n {
            self.counters.injected_panics.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decision point: the worker for shard `shard` is about to run a node.
    /// Returns true exactly once, the first time the targeted shard asks.
    pub fn should_panic_shard(&self, shard: u64) -> bool {
        if self.panic_in_shard != Some(shard) {
            return false;
        }
        // Reuse the spawn counter family: fire on this shard's first ask.
        if self.counters.shard_asks.fetch_add(1, Ordering::Relaxed) == 0 {
            self.counters.injected_panics.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decision point: a shard core is entering migration epoch `epoch`
    /// (1-based). Returns true exactly once, for the first core that asks
    /// at the configured epoch.
    pub fn should_panic_migration(&self, epoch: u64) -> bool {
        if self.panic_on_migration != Some(epoch) {
            return false;
        }
        if self.counters.migration_asks.fetch_add(1, Ordering::Relaxed) == 0 {
            self.counters.injected_panics.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decision point: rank `rank`'s shard cores are entering checkpoint
    /// epoch `epoch` (1-based). Returns true exactly once per plan value,
    /// for the first core that asks on the targeted rank at the targeted
    /// epoch — and never again, even after [`FaultPlan::reset`].
    pub fn should_kill_rank(&self, rank: u64, epoch: u64) -> bool {
        if self.kill_rank_at_epoch != Some((rank, epoch)) {
            return false;
        }
        if self.counters.rank_kill_fired.fetch_add(1, Ordering::Relaxed) == 0 {
            self.counters.injected_panics.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decision point: one frame just arrived from peer `peer`. Returns
    /// true exactly once, when the configured frame count is reached; the
    /// reader then fails the link as if the socket had died. Sticky
    /// across [`FaultPlan::reset`].
    pub fn should_drop_link(&self, peer: u64) -> bool {
        let Some((target, after)) = self.drop_link else {
            return false;
        };
        if peer != target {
            return false;
        }
        let seen = self.counters.link_frames_seen.fetch_add(1, Ordering::Relaxed) + 1;
        seen >= after && self.counters.link_drop_fired.fetch_add(1, Ordering::Relaxed) == 0
    }

    /// Decision point: a `try_lock_all` attempt is about to run. Returns
    /// true if the attempt must be treated as failed.
    pub fn should_fail_trylock(&self) -> bool {
        if self.trylock_fail_rate <= 0.0 {
            return false;
        }
        let c = self.counters.lock_attempts.fetch_add(1, Ordering::Relaxed);
        if self.roll(FaultKind::TryLockFail, c, self.trylock_fail_rate) {
            self.counters
                .injected_lock_failures
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decision point: a node activation is starting. Returns the delay to
    /// apply, if this activation is selected as a straggler.
    pub fn straggler_delay(&self) -> Option<Duration> {
        if self.straggler_rate <= 0.0 {
            return None;
        }
        let c = self.counters.activations.fetch_add(1, Ordering::Relaxed);
        if self.roll(FaultKind::Straggler, c, self.straggler_rate) {
            self.counters
                .injected_stragglers
                .fetch_add(1, Ordering::Relaxed);
            Some(self.straggler_delay)
        } else {
            None
        }
    }

    /// Decision point: a Galois iteration is about to commit. Returns true
    /// if it must be forced to conflict and abort.
    pub fn should_force_conflict(&self) -> bool {
        if self.conflict_rate <= 0.0 {
            return false;
        }
        let c = self.counters.commits.fetch_add(1, Ordering::Relaxed);
        if self.roll(FaultKind::GaloisConflict, c, self.conflict_rate) {
            self.counters
                .injected_conflicts
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Snapshot of how many faults have been injected so far.
    pub fn injected(&self) -> InjectionCounts {
        InjectionCounts {
            panics: self.counters.injected_panics.load(Ordering::Relaxed),
            lock_failures: self
                .counters
                .injected_lock_failures
                .load(Ordering::Relaxed),
            stragglers: self.counters.injected_stragglers.load(Ordering::Relaxed),
            conflicts: self.counters.injected_conflicts.load(Ordering::Relaxed),
        }
    }

    /// Reset decision counters so the same plan value can drive another
    /// run with an identical decision stream. The recovery latches
    /// ([`FaultPlan::kill_rank_at_epoch`], [`FaultPlan::drop_link`]) are
    /// deliberately *not* reset: a restored attempt re-runs the plan but
    /// must not re-suffer the fault it is recovering from.
    pub fn reset(&self) {
        self.counters.spawns.store(0, Ordering::Relaxed);
        self.counters.shard_asks.store(0, Ordering::Relaxed);
        self.counters.migration_asks.store(0, Ordering::Relaxed);
        self.counters.lock_attempts.store(0, Ordering::Relaxed);
        self.counters.activations.store(0, Ordering::Relaxed);
        self.counters.commits.store(0, Ordering::Relaxed);
        self.counters.injected_panics.store(0, Ordering::Relaxed);
        self.counters
            .injected_lock_failures
            .store(0, Ordering::Relaxed);
        self.counters.injected_stragglers.store(0, Ordering::Relaxed);
        self.counters.injected_conflicts.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_values() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for _ in 0..100 {
            assert!(!plan.should_panic_spawn());
            assert!(!plan.should_fail_trylock());
            assert!(plan.straggler_delay().is_none());
            assert!(!plan.should_force_conflict());
        }
        assert_eq!(plan.injected(), InjectionCounts::default());
    }

    #[test]
    fn spawn_panic_fires_exactly_once_at_index() {
        let plan = FaultPlan::seeded(1).panic_on_spawn(3);
        let fired: Vec<bool> = (0..6).map(|_| plan.should_panic_spawn()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(plan.injected().panics, 1);
    }

    #[test]
    fn shard_panic_targets_one_shard_and_fires_once() {
        let plan = FaultPlan::seeded(3).panic_in_shard(2);
        assert!(plan.is_active());
        assert!(!plan.should_panic_shard(0));
        assert!(!plan.should_panic_shard(1));
        assert!(plan.should_panic_shard(2));
        assert!(!plan.should_panic_shard(2)); // only once
        assert_eq!(plan.injected().panics, 1);
        // Reset replays the decision.
        plan.reset();
        assert!(plan.should_panic_shard(2));
    }

    #[test]
    fn migration_panic_targets_one_epoch_and_fires_once() {
        let plan = FaultPlan::seeded(11).panic_on_migration(2);
        assert!(plan.is_active());
        assert!(!plan.should_panic_migration(1));
        assert!(plan.should_panic_migration(2));
        assert!(!plan.should_panic_migration(2)); // only once
        assert_eq!(plan.injected().panics, 1);
        plan.reset();
        assert!(plan.should_panic_migration(2));
    }

    #[test]
    fn rank_kill_fires_once_and_survives_reset() {
        let plan = FaultPlan::seeded(5).kill_rank_at_epoch(1, 2);
        assert!(plan.is_active());
        assert!(!plan.should_kill_rank(0, 2)); // wrong rank
        assert!(!plan.should_kill_rank(1, 1)); // wrong epoch
        assert!(plan.should_kill_rank(1, 2));
        assert!(!plan.should_kill_rank(1, 2)); // only once
        assert_eq!(plan.injected().panics, 1);
        // The restarted attempt resets counters but must not be re-killed.
        plan.reset();
        assert!(!plan.should_kill_rank(1, 2));
    }

    #[test]
    fn link_drop_fires_after_frame_count_and_survives_reset() {
        let plan = FaultPlan::seeded(5).drop_link(1, 3);
        assert!(plan.is_active());
        assert!(!plan.should_drop_link(0)); // wrong peer, does not count
        assert!(!plan.should_drop_link(1)); // frame 1
        assert!(!plan.should_drop_link(1)); // frame 2
        assert!(plan.should_drop_link(1)); // frame 3: fire
        assert!(!plan.should_drop_link(1)); // latched
        plan.reset();
        assert!(!plan.should_drop_link(1));
    }

    #[test]
    fn decision_stream_is_reproducible() {
        let a = FaultPlan::seeded(42).fail_trylock(0.3);
        let b = FaultPlan::seeded(42).fail_trylock(0.3);
        let sa: Vec<bool> = (0..256).map(|_| a.should_fail_trylock()).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.should_fail_trylock()).collect();
        assert_eq!(sa, sb);
        assert!(a.injected().lock_failures > 0);

        // And reset replays the same stream.
        a.reset();
        let sa2: Vec<bool> = (0..256).map(|_| a.should_fail_trylock()).collect();
        assert_eq!(sa, sa2);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::seeded(1).fail_trylock(0.5);
        let b = FaultPlan::seeded(2).fail_trylock(0.5);
        let sa: Vec<bool> = (0..128).map(|_| a.should_fail_trylock()).collect();
        let sb: Vec<bool> = (0..128).map(|_| b.should_fail_trylock()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rate_extremes_behave() {
        let always = FaultPlan::seeded(5).force_conflicts(1.0);
        assert!((0..32).all(|_| always.should_force_conflict()));

        let never = FaultPlan::seeded(5).fail_trylock(0.0);
        assert!((0..32).all(|_| !never.should_fail_trylock()));
    }

    #[test]
    fn straggler_returns_configured_delay() {
        let plan = FaultPlan::seeded(9).straggler(1.0, Duration::from_millis(2));
        assert_eq!(plan.straggler_delay(), Some(Duration::from_millis(2)));
        assert_eq!(plan.injected().stragglers, 1);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::seeded(7).fail_trylock(0.25);
        let hits = (0..4000).filter(|_| plan.should_fail_trylock()).count();
        assert!(
            (700..1300).contains(&hits),
            "expected ~1000 hits at rate 0.25, got {hits}"
        );
    }
}
