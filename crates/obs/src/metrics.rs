//! Counters, gauges, and log₂-bucketed histograms.
//!
//! Metric handles are `Option<Arc<...>>`: a handle from a disabled
//! recorder is `None`, so every hot-path operation on it is a single
//! branch — no atomic traffic, no allocation. Handles are fetched once
//! at engine setup and kept in worker state, never looked up per event.
//!
//! Histograms use HDR-style logarithmic buckets: bucket 0 holds exact
//! zeros and bucket `i` (1..=64) holds values in `[2^(i-1), 2^i - 1]`,
//! i.e. `index = 64 - value.leading_zeros()`. That gives full `u64`
//! range with 65 fixed slots and ≤2× relative error, which is plenty
//! for latency/depth distributions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: one for zero plus one per bit width.
pub const NUM_BUCKETS: usize = 65;

/// Well-known metric name: live events in an execution context's event
/// arena (gauge, labelled by thread). One slab per shard thread/actor/model
/// executor thread — the fleet-wide sum is the in-flight event population.
pub const ARENA_LIVE: &str = "sim_arena_live";

/// Well-known metric name: high-water arena occupancy (gauge). The
/// working-set size `EngineConfig::with_arena` should pre-size to.
pub const ARENA_HIGH_WATER: &str = "sim_arena_high_water";

/// Well-known metric name: ready-batch size per node wakeup (histogram).
/// Batched delivery drains whole batches into a reusable scratch buffer;
/// this distribution shows how many events each wakeup amortizes over.
pub const DRAIN_BATCH_EVENTS: &str = "sim_drain_batch_events";

/// Bucket index for a value (log₂ rule; see the module docs).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that drops every update (disabled recorder).
    pub const fn off() -> Counter {
        Counter(None)
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that drops every update (disabled recorder).
    pub const fn off() -> Gauge {
        Gauge(None)
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram.
#[derive(Debug)]
pub struct HistogramCore {
    pub(crate) buckets: [AtomicU64; NUM_BUCKETS],
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [(); NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that drops every sample (disabled recorder).
    pub const fn off() -> Histogram {
        Histogram(None)
    }

    /// Record one sample: three relaxed atomic adds, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether this handle feeds a live histogram.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Copy out the current distribution (empty snapshot when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(core) = &self.0 else {
            return HistogramSnapshot::default();
        };
        let buckets: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            sum: core.sum.load(Ordering::Relaxed),
            count: core.count.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a histogram's distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Raw per-bucket counts, indexed like [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing quantile `q` (0.0..=1.0).
    /// Resolution is the bucket width, i.e. within 2× of the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// `(upper_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_powers_of_two() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper_bound(0), 0);
        // 1 is the sole occupant of bucket 1.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_upper_bound(1), 1);
        // Each power of two opens a new bucket; its predecessor closes one.
        for bit in 1..64 {
            let p: u64 = 1 << bit;
            assert_eq!(bucket_index(p), bit + 1, "2^{bit} opens bucket {}", bit + 1);
            assert_eq!(bucket_index(p - 1), bit, "2^{bit}-1 closes bucket {bit}");
            assert_eq!(bucket_upper_bound(bit), p - 1);
        }
        // Max value lands in the last bucket, whose bound is saturated.
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_upper_bound(200), u64::MAX);
    }

    #[test]
    fn histogram_records_across_edges() {
        let h = Histogram(Some(Arc::new(HistogramCore::default())));
        for v in [0, 0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 9);
        // 1+2+3+4+7+8 = 25; the u64::MAX sample wraps the sum (documented
        // fetch_add semantics — sums of ns-scale values never get close).
        assert_eq!(snap.sum, 25u64.wrapping_add(u64::MAX));
        assert_eq!(snap.buckets[0], 2); // the zeros
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 2); // 4, 7
        assert_eq!(snap.buckets[4], 1); // 8
        assert_eq!(snap.buckets[64], 1); // u64::MAX
        assert_eq!(
            snap.nonzero_buckets(),
            vec![(0, 2), (1, 1), (3, 2), (7, 2), (15, 1), (u64::MAX, 1)]
        );
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let h = Histogram(Some(Arc::new(HistogramCore::default())));
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 1); // rank clamps to the first sample
        assert_eq!(snap.quantile(0.5), 63); // rank 50 falls in [32,63]
        assert_eq!(snap.quantile(1.0), 127); // rank 100 falls in [64,127]
        assert_eq!(snap.mean(), 5050 / 100);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::off();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::off();
        g.set(5);
        g.set_max(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::off();
        h.record(42);
        assert!(!h.is_enabled());
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert_eq!(h.snapshot().quantile(0.5), 0);
    }
}
