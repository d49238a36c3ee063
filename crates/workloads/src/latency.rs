//! Per-acquisition latency distributions.
//!
//! Figure 5 reports throughput; a production lock also needs tail-latency
//! visibility (how long can one `lock_read`/`lock_write` stall?). This
//! module measures per-operation acquisition latency into log-scaled
//! histograms and reports percentiles — the `latency` binary drives it.
//!
//! The histogram is a fixed 64-bucket log2 layout (1 ns … ~9 s), so
//! recording is two instructions and merging across threads is a vector
//! add; no allocation happens on the measured path.

use crate::config::{LockKind, LockOptions, WorkloadConfig};
use crate::dispatch::LockVisitor;
use oll_core::{RwHandle, RwLockFamily};
use oll_telemetry::LockSnapshot;
use oll_util::XorShift64;
use std::sync::Barrier;
use std::time::Instant;

const BUCKETS: usize = 64;

/// A log2-bucketed latency histogram (nanoseconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    #[inline]
    fn bucket_for(ns: u64) -> usize {
        // bucket = floor(log2(ns)) with ns=0 mapping to bucket 0.
        (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_for(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Summarizes this histogram into the fixed percentile set the
    /// reports carry.
    pub fn summarize(&self) -> LatencySummary {
        LatencySummary::from(self)
    }

    /// Approximate percentile (upper bound of the bucket containing it),
    /// in nanoseconds. `p` in [0, 1].
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i: 2^(i+1) - 1.
                return (1u64 << (i + 1)).saturating_sub(1).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }
}

/// Latency percentiles for one operation class.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    fn from(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            p50_ns: h.percentile_ns(0.50),
            p99_ns: h.percentile_ns(0.99),
            p999_ns: h.percentile_ns(0.999),
            max_ns: h.max_ns(),
        }
    }
}

/// Read- and write-acquisition latency for one lock/workload.
#[derive(Debug, Clone, Copy)]
pub struct LatencyResult {
    /// The lock measured.
    pub kind: LockKind,
    /// Threads used.
    pub threads: usize,
    /// Read percentage used.
    pub read_pct: u32,
    /// Read-acquisition (`lock_read`) latency.
    pub read: LatencySummary,
    /// Write-acquisition (`lock_write`) latency.
    pub write: LatencySummary,
}

/// [`measure_latency`] as the visitor [`LockKind::with_lock`] takes.
struct MeasureLatency<'a>(&'a WorkloadConfig);

impl LockVisitor for MeasureLatency<'_> {
    type Out = (LatencyHistogram, LatencyHistogram, Option<LockSnapshot>);

    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Self::Out {
        measure_latency(&lock, self.0)
    }
}

fn measure_latency<L: RwLockFamily>(
    lock: &L,
    config: &WorkloadConfig,
) -> (LatencyHistogram, LatencyHistogram, Option<LockSnapshot>) {
    let barrier = Barrier::new(config.threads);
    let merged: std::sync::Mutex<(LatencyHistogram, LatencyHistogram)> =
        std::sync::Mutex::new((LatencyHistogram::new(), LatencyHistogram::new()));

    std::thread::scope(|scope| {
        for tid in 0..config.threads {
            let barrier = &barrier;
            let merged = &merged;
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity sized to thread count");
                let mut rng = XorShift64::for_thread(config.seed, tid);
                let mut reads = LatencyHistogram::new();
                let mut writes = LatencyHistogram::new();
                barrier.wait();
                for _ in 0..config.acquisitions_per_thread {
                    if rng.percent(config.read_pct) {
                        let t0 = Instant::now();
                        handle.lock_read();
                        reads.record(t0.elapsed().as_nanos() as u64);
                        handle.unlock_read();
                    } else {
                        let t0 = Instant::now();
                        handle.lock_write();
                        writes.record(t0.elapsed().as_nanos() as u64);
                        handle.unlock_write();
                    }
                }
                let mut m = merged.lock().unwrap();
                m.0.merge(&reads);
                m.1.merge(&writes);
            });
        }
    });
    let snap = lock.telemetry().snapshot();
    let (reads, writes) = merged.into_inner().unwrap();
    (reads, writes, snap)
}

/// Measures acquisition-latency distributions for `kind` under `config`.
pub fn run_latency(kind: LockKind, config: &WorkloadConfig) -> LatencyResult {
    run_latency_profiled(kind, config).0
}

/// Like [`run_latency`], additionally returning the lock's telemetry
/// profile for the run (`None` unless built with the `telemetry`
/// feature and the lock is instrumented).
pub fn run_latency_profiled(
    kind: LockKind,
    config: &WorkloadConfig,
) -> (LatencyResult, Option<LockSnapshot>) {
    run_latency_profiled_with(kind, config, &LockOptions::default())
}

/// Like [`run_latency_profiled`], building the lock under `opts` (see
/// [`LockKind::with_lock`] for what each option does to which kind).
pub fn run_latency_profiled_with(
    kind: LockKind,
    config: &WorkloadConfig,
    opts: &LockOptions,
) -> (LatencyResult, Option<LockSnapshot>) {
    let (reads, writes, mut profile) = kind.with_lock(config.threads, opts, MeasureLatency(config));
    if let Some(p) = &mut profile {
        p.name = format!("{} t={}", kind.name(), config.threads);
    }
    (
        LatencyResult {
            kind,
            threads: config.threads,
            read_pct: config.read_pct,
            read: LatencySummary::from(&reads),
            write: LatencySummary::from(&writes),
        },
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_for(0), 0);
        assert_eq!(LatencyHistogram::bucket_for(1), 0);
        assert_eq!(LatencyHistogram::bucket_for(2), 1);
        assert_eq!(LatencyHistogram::bucket_for(3), 1);
        assert_eq!(LatencyHistogram::bucket_for(4), 2);
        assert_eq!(LatencyHistogram::bucket_for(1023), 9);
        assert_eq!(LatencyHistogram::bucket_for(1024), 10);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 100, 1_000, 10_000, 100_000] {
            h.record(ns);
        }
        let p50 = h.percentile_ns(0.5);
        let p99 = h.percentile_ns(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max_ns());
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_ns(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5);
        b.record(500);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 5_000);
    }

    #[test]
    fn median_lands_in_right_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(100); // bucket 6 (64..128)
        }
        h.record(1_000_000);
        let p50 = h.percentile_ns(0.50);
        assert!((100..256).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn end_to_end_latency_run() {
        let config = WorkloadConfig {
            threads: 2,
            read_pct: 80,
            acquisitions_per_thread: 500,
            critical_work: 0,
            outside_work: 0,
            seed: 7,
            runs: 1,
            verify: false,
        };
        for kind in [LockKind::Foll, LockKind::SolarisLike] {
            let r = run_latency(kind, &config);
            assert_eq!(r.read.count + r.write.count, 1_000);
            assert!(r.read.count > r.write.count, "80% reads");
            assert!(r.read.p50_ns <= r.read.p99_ns);
            assert!(r.read.p99_ns <= r.read.p999_ns.max(r.read.max_ns));
        }
    }

    #[test]
    fn biased_latency_run_counts_every_acquisition() {
        let config = WorkloadConfig {
            threads: 2,
            read_pct: 80,
            acquisitions_per_thread: 500,
            critical_work: 0,
            outside_work: 0,
            seed: 7,
            runs: 1,
            verify: false,
        };
        let opts = LockOptions {
            biased: true,
            ..LockOptions::default()
        };
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_latency_profiled_with(kind, &config, &opts);
            assert_eq!(r.read.count + r.write.count, 1_000, "{}", kind.name());
        }
    }
}
