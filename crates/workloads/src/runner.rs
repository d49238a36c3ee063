//! The throughput runner: the paper's tight acquire/release loop (§5.1).

use crate::config::{LockKind, LockOptions, WorkloadConfig};
use crate::dispatch::LockVisitor;
use oll::core::{RwHandle, RwLockFamily};
use oll::telemetry::LockSnapshot;
use oll::util::XorShift64;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The outcome of one throughput measurement (averaged over
/// `config.runs` repetitions).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// The lock measured.
    pub kind: LockKind,
    /// Thread count used.
    pub threads: usize,
    /// Read percentage used.
    pub read_pct: u32,
    /// Mean acquisitions per second over all runs.
    pub acquires_per_sec: f64,
    /// Mean wall time of a run.
    pub elapsed: Duration,
    /// Total acquisitions in one run.
    pub total_acquisitions: usize,
}

#[inline]
fn dummy_work(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// [`measure`] as the visitor [`LockKind::with_lock`] takes.
struct Measure<'a>(&'a WorkloadConfig);

impl LockVisitor for Measure<'_> {
    type Out = (Duration, Option<LockSnapshot>);

    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Self::Out {
        measure(&lock, self.0)
    }
}

/// Measures one run: barrier-synchronized start, join-synchronized stop.
/// The snapshot is the lock's full telemetry for the run (`None` unless
/// built with the `telemetry` feature).
fn measure<L: RwLockFamily>(lock: &L, config: &WorkloadConfig) -> (Duration, Option<LockSnapshot>) {
    // Thread spawn/registration cost happens before the barrier. Each
    // worker records its own start (at barrier release) and end (after its
    // last release); the run's elapsed time is max(end) - min(start),
    // i.e. "the amount of time needed for all threads to complete" their
    // acquisitions. Workers must self-timestamp: on an oversubscribed
    // machine a coordinator thread may not be scheduled again until the
    // workers are already done.
    let barrier = Barrier::new(config.threads);
    let state = AtomicI64::new(0);

    let spans: std::sync::Mutex<Vec<(Instant, Instant)>> =
        std::sync::Mutex::new(Vec::with_capacity(config.threads));
    std::thread::scope(|scope| {
        for tid in 0..config.threads {
            let barrier = &barrier;
            let state = &state;
            let spans = &spans;
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity sized to thread count");
                let mut rng = XorShift64::for_thread(config.seed, tid);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.acquisitions_per_thread {
                    if rng.percent(config.read_pct) {
                        handle.lock_read();
                        if config.verify {
                            let s = state.fetch_add(1, Ordering::SeqCst);
                            assert!(s >= 0, "reader entered while a writer was inside");
                        }
                        dummy_work(config.critical_work);
                        if config.verify {
                            state.fetch_sub(1, Ordering::SeqCst);
                        }
                        handle.unlock_read();
                    } else {
                        handle.lock_write();
                        if config.verify {
                            let s = state.swap(-1, Ordering::SeqCst);
                            assert_eq!(s, 0, "writer entered while the lock was held");
                        }
                        dummy_work(config.critical_work);
                        if config.verify {
                            state.store(0, Ordering::SeqCst);
                        }
                        handle.unlock_write();
                    }
                    dummy_work(config.outside_work);
                }
                let end = Instant::now();
                spans.lock().unwrap().push((start, end));
            });
        }
    });
    let spans = spans.into_inner().unwrap();
    let first_start = spans.iter().map(|s| s.0).min().expect("threads ran");
    let last_end = spans.iter().map(|s| s.1).max().expect("threads ran");
    let snap = lock.telemetry().snapshot();
    (last_end.duration_since(first_start), snap)
}

/// Runs `config` against lock `kind`, averaging `config.runs` repetitions.
pub fn run_throughput(kind: LockKind, config: &WorkloadConfig) -> ThroughputResult {
    run_throughput_profiled(kind, config).0
}

/// Like [`run_throughput`], additionally returning the lock's telemetry
/// profile accumulated over all runs. The profile is `None` unless the
/// workspace was built with the `telemetry` feature (the instrumented
/// locks record; uninstrumented baselines return an empty-handed
/// snapshot of nothing and also yield `None`).
pub fn run_throughput_profiled(
    kind: LockKind,
    config: &WorkloadConfig,
) -> (ThroughputResult, Option<LockSnapshot>) {
    run_throughput_profiled_with(kind, config, &LockOptions::default())
}

/// Like [`run_throughput_profiled`], building the lock under `opts`
/// (see [`LockKind::with_lock`] for what each option does to which
/// kind).
pub fn run_throughput_profiled_with(
    kind: LockKind,
    config: &WorkloadConfig,
    opts: &LockOptions,
) -> (ThroughputResult, Option<LockSnapshot>) {
    let mut total = Duration::ZERO;
    let mut profile: Option<LockSnapshot> = None;
    let runs = config.runs.max(1);
    for _ in 0..runs {
        let (elapsed, snap) = kind.with_lock(config.threads, opts, Measure(config));
        total += elapsed;
        match (&mut profile, snap) {
            (Some(p), Some(s)) => p.merge(&s),
            (p @ None, Some(s)) => *p = Some(s),
            _ => {}
        }
    }
    if let Some(p) = &mut profile {
        // Each run registered a fresh lock under an auto-sequenced name;
        // label the aggregate by what was measured instead.
        p.name = format!("{} t={}", kind.name(), config.threads);
    }
    let mean = total / runs as u32;
    let total_acqs = config.total_acquisitions();
    (
        ThroughputResult {
            kind,
            threads: config.threads,
            read_pct: config.read_pct,
            acquires_per_sec: total_acqs as f64 / mean.as_secs_f64(),
            elapsed: mean,
            total_acquisitions: total_acqs,
        },
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(read_pct: u32) -> WorkloadConfig {
        WorkloadConfig {
            threads: 3,
            read_pct,
            acquisitions_per_thread: 300,
            critical_work: 0,
            outside_work: 0,
            seed: 42,
            runs: 1,
            verify: true,
        }
    }

    #[test]
    fn every_lock_survives_verified_mixed_workload() {
        for kind in LockKind::ALL {
            let r = run_throughput(kind, &tiny(70));
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive throughput",
                kind.name()
            );
            assert_eq!(r.total_acquisitions, 900);
        }
    }

    #[test]
    fn read_only_and_write_only_extremes() {
        for kind in LockKind::FIGURE5 {
            run_throughput(kind, &tiny(100));
            run_throughput(kind, &tiny(0));
        }
    }

    #[test]
    fn shape_options_produce_working_oll_locks() {
        let opts = LockOptions {
            shape_threads: Some(2),
            ..LockOptions::default()
        };
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(90), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive shaped throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn biased_options_produce_working_oll_locks() {
        let opts = LockOptions {
            biased: true,
            ..LockOptions::default()
        };
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(90), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive biased throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn cohort_options_produce_working_oll_locks() {
        let opts = LockOptions {
            cohort: true,
            ..LockOptions::default()
        };
        // Write-heavy mixes exercise the cohort writer gate; GOLL has no
        // cohort path and must ignore the flag.
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(10), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive cohort throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn single_thread_runs() {
        let config = WorkloadConfig {
            threads: 1,
            ..tiny(50)
        };
        let r = run_throughput(LockKind::Foll, &config);
        assert_eq!(r.threads, 1);
    }
}
