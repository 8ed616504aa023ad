//! Metric handle types: [`Counter`], [`Gauge`] and [`Histogram`].
//!
//! Handles are cheap to clone (`Arc` around atomics) and updated with
//! `Ordering::Relaxed` — each metric is an independent statistical
//! accumulator, so no cross-metric ordering is required.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonically increasing counter.
///
/// Counters never decrease and are never reset: consumers that want
/// deltas (e.g. per-interval rates) subtract successive reads, the
/// same contract Prometheus counters have.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        // Skipping zero deltas keeps accounting-style call sites
        // (which unconditionally add per-op quantities, several of
        // which are usually 0) off the RMW for free: a predicted
        // branch is cheaper than a relaxed fetch_add.
        if delta != 0 {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (free-list depth, queue length, ...).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Add `delta` to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtract `delta` from the gauge.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.0.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries
    /// (the last one is the `+Inf` overflow bucket). The total
    /// observation count is the sum of these — not a separate
    /// atomic, keeping `observe` at two RMWs.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// Fixed-bucket histogram over `u64` observations (nanoseconds, bit
/// counts, ...). Buckets are chosen at registration time; observing
/// is two relaxed atomic adds plus a branchless-ish bucket scan over
/// a handful of bounds.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn disconnected(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: sorted,
            buckets,
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one sample into its bucket.
    #[inline]
    pub fn observe(&self, value: u64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observe the nanoseconds since `started`, a
    /// [`crate::Sampler::start`] answer; an unsampled request (`None`)
    /// observes nothing.
    #[inline]
    pub fn observe_since(&self, started: Option<Instant>) {
        if let Some(started) = started {
            self.observe(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Total observations (sum over all buckets).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Finite bucket upper bounds (the trailing `+Inf` bucket is
    /// implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let h = Histogram::disconnected(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 100 + 5000);
        // le=10 gets {5,10}; le=100 gets {11,100}; le=1000 none; +Inf {5000}.
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 1]);
        assert_eq!(h.bounds(), &[10, 100, 1000]);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let h = Histogram::disconnected(&[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
    }

    #[test]
    fn observe_since_skips_unsampled_requests() {
        let h = Histogram::disconnected(&[u64::MAX]);
        h.observe_since(None);
        assert_eq!(h.count(), 0);
        let started = Instant::now();
        h.observe_since(Some(started));
        assert_eq!(h.count(), 1);
        assert!(u128::from(h.sum()) <= started.elapsed().as_nanos());
    }

    #[test]
    fn clones_share_state() {
        let a = Counter::default();
        let b = a.clone();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }
}
