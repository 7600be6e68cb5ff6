//! Deterministic capped-exponential backoff for link (re)connection.
//!
//! Recovery must stay reproducible under test: two runs with the same
//! `FaultPlan` seed must produce *identical* retry schedules, so the
//! jitter is not sampled from a thread-local RNG but hashed from
//! `(seed, peer, attempt)` with splitmix64. The schedule is pure state —
//! it performs no sleeping itself; callers sleep for whatever
//! [`BackoffSchedule::next_delay`] returns.
//!
//! Shape: attempt `n` draws uniformly from `[cap_n / 2, cap_n]` where
//! `cap_n = min(base << n, cap)` — exponential growth with a capped
//! ceiling and at most 2× spread, so the expected total wait stays
//! within a small constant factor of the deterministic equivalent while
//! two ranks redialing each other never phase-lock.

use std::time::Duration;

use fault::splitmix64;

/// Default first-retry ceiling.
pub const DEFAULT_BASE: Duration = Duration::from_millis(10);

/// Default cap on any single retry delay.
pub const DEFAULT_CAP: Duration = Duration::from_millis(500);

/// A deterministic per-link retry schedule.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    seed: u64,
    peer: u64,
    attempt: u64,
    base: Duration,
    cap: Duration,
}

impl BackoffSchedule {
    /// Schedule for the link toward `peer`, jitter-seeded by `seed`
    /// (typically the run's `FaultPlan` seed), with default bounds.
    pub fn new(seed: u64, peer: u64) -> Self {
        Self::with_bounds(seed, peer, DEFAULT_BASE, DEFAULT_CAP)
    }

    /// Schedule with explicit base and cap.
    pub fn with_bounds(seed: u64, peer: u64, base: Duration, cap: Duration) -> Self {
        assert!(!base.is_zero() && cap >= base);
        BackoffSchedule {
            seed,
            peer,
            attempt: 0,
            base,
            cap,
        }
    }

    /// Number of delays handed out so far.
    pub fn attempts(&self) -> u64 {
        self.attempt
    }

    /// The delay to sleep before the next retry. Advances the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let attempt = self.attempt;
        self.attempt += 1;
        // Capped exponential ceiling; the shift saturates long before
        // the cap does for any sane bounds.
        let ceiling = self
            .base
            .saturating_mul(1u32 << attempt.min(20) as u32)
            .min(self.cap);
        let ceil_us = ceiling.as_micros() as u64;
        let half = ceil_us / 2;
        let h = splitmix64(
            self.seed
                ^ self.peer.wrapping_mul(0x9E37_79B9)
                ^ attempt.wrapping_mul(0x85EB_CA6B),
        );
        let jitter = if half == 0 { 0 } else { h % (half + 1) };
        Duration::from_micros(half + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = BackoffSchedule::new(42, 1);
        let mut b = BackoffSchedule::new(42, 1);
        let da: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(da, db);
        assert_eq!(a.attempts(), 12);
    }

    #[test]
    fn different_seed_or_peer_diverges() {
        let mut a = BackoffSchedule::new(1, 0);
        let mut b = BackoffSchedule::new(2, 0);
        let mut c = BackoffSchedule::new(1, 3);
        let da: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        let dc: Vec<Duration> = (0..8).map(|_| c.next_delay()).collect();
        assert_ne!(da, db);
        assert_ne!(da, dc);
    }

    #[test]
    fn delays_grow_exponentially_then_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(160);
        let mut s = BackoffSchedule::with_bounds(7, 0, base, cap);
        let delays: Vec<Duration> = (0..10).map(|_| s.next_delay()).collect();
        for (n, d) in delays.iter().enumerate() {
            let ceiling = base.saturating_mul(1 << n.min(20) as u32).min(cap);
            assert!(*d <= ceiling, "attempt {n}: {d:?} > {ceiling:?}");
            assert!(*d >= ceiling / 2, "attempt {n}: {d:?} < {:?}", ceiling / 2);
        }
        // Late attempts are pinned to the cap window.
        assert!(delays[9] >= cap / 2 && delays[9] <= cap);
    }
}
