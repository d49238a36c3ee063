//! Per-acquisition latency distributions.
//!
//! Figure 5 reports throughput; a production lock also needs tail-latency
//! visibility (how long can one `lock_read`/`lock_write` stall?). This
//! module measures per-operation acquisition latency into log-scaled
//! histograms and reports percentiles — the `latency` binary drives it.
//!
//! The histogram is the telemetry crate's fixed 64-bucket log2 layout
//! (1 ns … ~9 s, [`HistogramSnapshot`]), one per thread, so recording is
//! two instructions and merging across threads is a vector add; no
//! allocation happens on the measured path.

use crate::config::{LockKind, LockOptions, WorkloadConfig};
use crate::dispatch::LockVisitor;
use oll_core::{RwHandle, RwLockFamily};
use oll_telemetry::{HistogramSnapshot, LockSnapshot};
use oll_util::XorShift64;
use std::sync::Barrier;
use std::time::Instant;

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
    pub(crate) fn from(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            p50_ns: h.percentile_ns(0.50),
            p99_ns: h.percentile_ns(0.99),
            p999_ns: h.percentile_ns(0.999),
            max_ns: h.max_ns,
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
    type Out = (HistogramSnapshot, HistogramSnapshot, Option<LockSnapshot>);

    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Self::Out {
        measure_latency(&lock, self.0)
    }
}

fn measure_latency<L: RwLockFamily>(
    lock: &L,
    config: &WorkloadConfig,
) -> (HistogramSnapshot, HistogramSnapshot, Option<LockSnapshot>) {
    let barrier = Barrier::new(config.threads);
    let merged =
        std::sync::Mutex::new((HistogramSnapshot::default(), HistogramSnapshot::default()));

    std::thread::scope(|scope| {
        for tid in 0..config.threads {
            let barrier = &barrier;
            let merged = &merged;
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity sized to thread count");
                let mut rng = XorShift64::for_thread(config.seed, tid);
                let mut reads = HistogramSnapshot::default();
                let mut writes = HistogramSnapshot::default();
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
