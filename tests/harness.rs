//! End-to-end checks of the Figure 5 harness itself: panel sweeps produce
//! complete, well-formed output, and the relationships that should hold
//! on *any* machine (not just the paper's 256-thread T5440) do hold.

use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};
use oll_workloads::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
use oll_workloads::report::{factor_at_peak, render_csv, render_table};
use oll_workloads::sweep::{run_panel, SweepOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

fn tiny_opts(locks: Vec<LockKind>) -> SweepOptions {
    SweepOptions {
        thread_counts: vec![1, 2, 4],
        locks,
        base: WorkloadConfig {
            threads: 1,
            read_pct: 100,
            acquisitions_per_thread: 1_500,
            critical_work: 0,
            outside_work: 0,
            seed: 0x600D_F00D,
            runs: 1,
            verify: false,
        },
        progress: false,
        collect_telemetry: false,
        lock_options: LockOptions::default(),
    }
}

#[test]
fn every_panel_runs_with_figure5_locks() {
    // One quick point per panel keeps this test minutes-proof.
    let opts = SweepOptions {
        thread_counts: vec![2],
        ..tiny_opts(LockKind::FIGURE5.to_vec())
    };
    for panel in Fig5Panel::ALL {
        let r = run_panel(panel, &opts);
        assert_eq!(r.series.len(), 5);
        for s in &r.series {
            assert_eq!(s.points.len(), 1);
            assert!(s.points[0].acquires_per_sec > 0.0);
            assert_eq!(s.points[0].read_pct, panel.read_pct());
        }
        let table = render_table(&r);
        assert!(table.contains("Figure 5"));
        let csv = render_csv(&r, true);
        assert_eq!(csv.lines().count(), 1 + 5);
    }
}

/// What "readers share; writers serialize" means, checked structurally:
/// `K` readers are inside the lock at once (they cannot leave until all
/// of them, and the main thread, have met at a barrier), a writer cannot
/// get in beside them, and gets in once they are gone. The throughput shape
/// this implies (read-only beats write-only) is a measurement, so it
/// lives in `benchmark/` (`read_only` vs `write_heavy`) with repetitions
/// and a noise bound, not in a test.
fn readers_share_and_exclude_a_writer<L: RwLockFamily>(lock: L) {
    const K: usize = 4;
    let name = lock.name();
    let (inside, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let (all_hold, release) = (Barrier::new(K + 1), Barrier::new(K + 1));
    let mut writer = lock.handle().unwrap();
    std::thread::scope(|s| {
        for _ in 0..K {
            s.spawn(|| {
                let mut h = lock.handle().unwrap();
                h.lock_read();
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                all_hold.wait();
                release.wait();
                inside.fetch_sub(1, Ordering::SeqCst);
                h.unlock_read();
            });
        }
        all_hold.wait();
        let writer_got_in = writer.try_lock_write();
        // Let the readers go before asserting: a panic while they wait
        // would hang the scope instead of failing the test.
        release.wait();
        assert!(!writer_got_in, "{name}: writer beside {K} readers");
    });
    assert_eq!(high_water.load(Ordering::SeqCst), K, "{name}: sharing");
    // Blocking, not `try_lock_write`: FOLL/ROLL's try succeeds only on an
    // empty queue, and the departed readers' node is still its tail.
    writer.lock_write();
    writer.unlock_write();
}

#[test]
fn readers_share_and_exclude_a_writer_for_rw_locks() {
    readers_share_and_exclude_a_writer(FollLock::new(5));
    readers_share_and_exclude_a_writer(RollLock::new(5));
    readers_share_and_exclude_a_writer(GollLock::new(5));
}

#[test]
fn factor_helper_compares_series() {
    let opts = tiny_opts(vec![LockKind::Foll, LockKind::Ksuh]);
    let panel = run_panel(Fig5Panel::A, &opts);
    let f = factor_at_peak(&panel, LockKind::Foll, LockKind::Ksuh).unwrap();
    assert!(f.is_finite() && f > 0.0);
}

#[test]
fn csv_rows_are_parseable() {
    let opts = SweepOptions {
        thread_counts: vec![1, 2],
        ..tiny_opts(vec![LockKind::Goll])
    };
    let panel = run_panel(Fig5Panel::C, &opts);
    let csv = render_csv(&panel, true);
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 6, "line: {line}");
        assert_eq!(fields[0], "c");
        assert_eq!(fields[1], "95");
        assert!(fields[3].parse::<usize>().is_ok());
        assert!(fields[4].parse::<f64>().unwrap() > 0.0);
        assert!(fields[5].parse::<f64>().unwrap() > 0.0);
    }
}
