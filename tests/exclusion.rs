//! Cross-crate exclusion tests: every lock in the workspace must enforce
//! reader-writer exclusion under randomized mixed workloads. These drive
//! the same harness the benchmarks use, with the invariant oracle
//! enabled, so the code path measured by Figure 5 is the code path
//! verified here.

use oll_workloads::{run_throughput, LockKind, WorkloadConfig};

fn verified(threads: usize, read_pct: u32, acquisitions: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        read_pct,
        acquisitions_per_thread: acquisitions,
        critical_work: 0,
        outside_work: 0,
        seed: 0xDEAD_BEEF,
        runs: 1,
        verify: true,
    }
}

#[test]
fn all_locks_mixed_70_30() {
    for kind in LockKind::ALL {
        let r = run_throughput(kind, &verified(4, 70, 1_000));
        assert!(r.acquires_per_sec > 0.0, "{}", kind.name());
    }
}

#[test]
fn all_locks_read_heavy_99() {
    for kind in LockKind::ALL {
        run_throughput(kind, &verified(4, 99, 1_000));
    }
}

#[test]
fn all_locks_write_only() {
    for kind in LockKind::ALL {
        run_throughput(kind, &verified(4, 0, 400));
    }
}

#[test]
fn all_locks_read_only() {
    for kind in LockKind::ALL {
        run_throughput(kind, &verified(4, 100, 2_000));
    }
}

#[test]
fn figure5_locks_with_critical_work() {
    // Non-empty critical sections shift the interleavings (holders get
    // preempted inside); the oracle must still hold.
    for kind in LockKind::FIGURE5 {
        let config = WorkloadConfig {
            critical_work: 64,
            ..verified(4, 80, 500)
        };
        run_throughput(kind, &config);
    }
}

#[test]
fn figure5_locks_oversubscribed() {
    // More threads than cores: exercises the yielding backoff paths.
    for kind in LockKind::FIGURE5 {
        run_throughput(kind, &verified(8, 90, 400));
    }
}

#[test]
fn seeds_vary_interleavings() {
    for seed in [1u64, 2, 3, 0xFFFF_FFFF_FFFF_FFFF] {
        let config = WorkloadConfig {
            seed,
            ..verified(4, 60, 500)
        };
        run_throughput(LockKind::Foll, &config);
        run_throughput(LockKind::Roll, &config);
        run_throughput(LockKind::Goll, &config);
    }
}
