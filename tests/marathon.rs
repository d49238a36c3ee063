//! Long-running stress tests, `#[ignore]`d by default. Run explicitly:
//!
//! ```sh
//! cargo test --release --test marathon -- --ignored --test-threads 1
//! ```
//!
//! Each marathon runs a verified mixed workload long enough for the
//! scheduler to generate preemption patterns that short tests rarely hit
//! (holders descheduled mid-critical-section, hand-offs landing on
//! sleeping threads, node pools cycling thousands of times).

use oll_workloads::{run_throughput, LockKind, WorkloadConfig};

fn marathon(kind: LockKind, read_pct: u32) {
    let config = WorkloadConfig {
        threads: 8,
        read_pct,
        acquisitions_per_thread: 50_000,
        critical_work: 8,
        outside_work: 4,
        seed: 0xC0FF_EE00,
        runs: 1,
        verify: true,
    };
    let r = run_throughput(kind, &config);
    assert!(r.acquires_per_sec > 0.0);
}

macro_rules! marathon_test {
    ($name:ident, $kind:expr, $pct:expr) => {
        #[test]
        #[ignore = "long-running; invoke with --ignored"]
        fn $name() {
            marathon($kind, $pct);
        }
    };
}

marathon_test!(goll_marathon_read_heavy, LockKind::Goll, 95);
marathon_test!(goll_marathon_mixed, LockKind::Goll, 50);
marathon_test!(foll_marathon_read_heavy, LockKind::Foll, 95);
marathon_test!(foll_marathon_mixed, LockKind::Foll, 50);
marathon_test!(roll_marathon_read_heavy, LockKind::Roll, 95);
marathon_test!(roll_marathon_mixed, LockKind::Roll, 50);
marathon_test!(ksuh_marathon_read_heavy, LockKind::Ksuh, 95);
marathon_test!(ksuh_marathon_mixed, LockKind::Ksuh, 50);
marathon_test!(solaris_marathon_mixed, LockKind::SolarisLike, 50);
