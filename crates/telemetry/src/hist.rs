//! Log2-bucketed histograms for latency and hold times.
//!
//! One bucket layout (64 buckets, `bucket = floor(log2(ns))`, covering
//! 1 ns … ~9 s) in two forms. [`AtomicHistogram`] is recordable
//! concurrently: each bucket is a relaxed `AtomicU64`, so a record is
//! one `fetch_add` plus one `fetch_max`. [`HistogramSnapshot`] is its
//! plain copy, also recordable by a single owner (the workload
//! harness's per-thread latency samples); merging either is a vector
//! add. Histograms are per-lock, not per-shard — a record already
//! touches a distribution-dependent bucket, so the line-spread of the
//! buckets themselves provides most of the sharding effect; the hot
//! monotone counters are the sharded ones (see [`crate::counters`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (1 ns up to ~2^63 ns).
pub const BUCKETS: usize = 64;

#[inline]
fn bucket_for(ns: u64) -> usize {
    // floor(log2(ns)) with ns = 0 mapping to bucket 0.
    (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
}

/// A concurrently recordable log2 histogram of nanosecond samples.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed; exact once quiescent).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.counts[bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Reads the current contents (racy snapshot).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (b, c) in buckets.iter_mut().zip(self.counts.iter()) {
            *b = c.load(Ordering::Relaxed);
            count += *b;
        }
        HistogramSnapshot {
            buckets,
            count,
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of an [`AtomicHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` ns
    /// (bucket 0 also absorbs 0 ns).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Largest recorded sample, ns.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one sample (the single-owner counterpart of
    /// [`AtomicHistogram::record`]).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_for(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Approximate percentile (upper bound of the containing bucket), ns.
    /// `p` in `[0, 1]`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (i + 1)).saturating_sub(1).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Adds another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket-wise difference (`self - earlier`), saturating at zero. The
    /// max is kept from `self` (maxima are not differentiable).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        let mut count = 0u64;
        for (a, b) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *a = a.saturating_sub(*b);
            count += *a;
        }
        out.count = count;
        out
    }

    /// Whether any samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 0);
        assert_eq!(bucket_for(2), 1);
        assert_eq!(bucket_for(3), 1);
        assert_eq!(bucket_for(4), 2);
        assert_eq!(bucket_for(1023), 9);
        assert_eq!(bucket_for(1024), 10);
        assert_eq!(bucket_for(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_snapshot_percentile() {
        let h = AtomicHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 1_000_000);
        let p50 = s.percentile_ns(0.50);
        assert!((100..256).contains(&p50), "p50 = {p50}");
        assert!(s.percentile_ns(0.999) >= 524_287);
    }

    #[test]
    fn merge_and_diff_round_trip() {
        let h = AtomicHistogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1000);
        let after = h.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.count, 1);
        let mut m = before;
        m.merge(&d);
        assert_eq!(m.count, after.count);
    }

    #[test]
    fn empty_is_zero() {
        let s = AtomicHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.percentile_ns(0.99), 0);
        let h = HistogramSnapshot::default();
        assert_eq!(h.percentile_ns(0.5), 0);
        assert_eq!(h.count, 0);
        assert_eq!(h.max_ns, 0);
    }

    #[test]
    fn recorded_percentiles_are_monotone_and_bounded() {
        let mut h = HistogramSnapshot::default();
        for ns in [10u64, 20, 30, 100, 1_000, 10_000, 100_000] {
            h.record(ns);
        }
        let p50 = h.percentile_ns(0.5);
        let p99 = h.percentile_ns(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max_ns);
        assert_eq!(h.count, 7);
    }

    #[test]
    fn recorded_merge_accumulates() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(5);
        b.record(500);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.max_ns, 5_000);
    }

    #[test]
    fn recorded_median_lands_in_right_bucket() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..100 {
            h.record(100); // bucket 6 (64..128)
        }
        h.record(1_000_000);
        let p50 = h.percentile_ns(0.50);
        assert!((100..256).contains(&p50), "p50 = {p50}");
    }
}
