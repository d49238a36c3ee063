//! NUMA cohort writer gate conformance: the per-socket writer queues
//! layered over FOLL/ROLL (`FollBuilder::cohort` / `RollBuilder::cohort`)
//! must preserve reader-writer exclusion and FIFO order *within* a
//! cohort, and the batch bound must actually bound writer starvation
//! *across* cohorts: a waiter on another socket gets the lock after at
//! most `cohort_batch` consecutive same-socket hand-offs.
//!
//! The cross-cohort tests force a two-rank topology with
//! `cohort_ranks(2)` and pin threads with `set_cohort`, so they run the
//! remote path deterministically even on single-socket CI hardware.

use oll::{FollLock, RollLock, RwHandle, RwLockFamily};
use oll_workloads::{run_throughput_profiled_with, LockKind, LockOptions, WorkloadConfig};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn verified(threads: usize, read_pct: u32, acquisitions: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        read_pct,
        acquisitions_per_thread: acquisitions,
        critical_work: 0,
        outside_work: 0,
        seed: 0xC0_0409,
        runs: 1,
        verify: true,
    }
}

/// The benchmark harness's exclusion oracle over the cohort-enabled
/// locks: the gate orders writers, the underlying queue still excludes,
/// and a mixed workload must never see a reader alongside a writer.
#[test]
fn cohort_locks_preserve_exclusion() {
    let opts = LockOptions {
        cohort: true,
        ..LockOptions::default()
    };
    for kind in [LockKind::Foll, LockKind::Roll] {
        for read_pct in [0, 50, 95] {
            let (r, _) = run_throughput_profiled_with(kind, &verified(4, read_pct, 500), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive cohort throughput at {read_pct}% reads",
                kind.name()
            );
        }
    }
}

/// Exclusion must survive the full option stack: cohort gate below,
/// BRAVO reader biasing above (`build_biased` passthrough).
#[test]
fn cohort_locks_preserve_exclusion_under_bravo() {
    let opts = LockOptions {
        cohort: true,
        biased: true,
        ..LockOptions::default()
    };
    for kind in [LockKind::Foll, LockKind::Roll] {
        let (r, _) = run_throughput_profiled_with(kind, &verified(4, 80, 500), &opts);
        assert!(
            r.acquires_per_sec > 0.0,
            "{}: nonpositive biased cohort throughput",
            kind.name()
        );
    }
}

// Writers pinned to the same cohort must acquire in arrival order: the
// gate's local grant chain walks the per-cohort queue FIFO, same as the
// global MCS queue it stands in for. Arrival order is forced by parking
// each writer well before the next one starts.

#[test]
fn foll_fifo_within_cohort() {
    let lock = FollLock::builder(4).cohort(true).cohort_ranks(2).build();
    assert!(lock.is_cohort());
    let order = Mutex::new(Vec::new());
    let mut holder = lock.handle().unwrap();
    holder.set_cohort(0);
    holder.lock_write();
    std::thread::scope(|scope| {
        for tag in 0..3usize {
            let lock = &lock;
            let order = &order;
            scope.spawn(move || {
                let mut w = lock.handle().unwrap();
                w.set_cohort(0);
                w.lock_write();
                order.lock().unwrap().push(tag);
                w.unlock_write();
            });
            // Generous spacing: the writer above is parked in cohort 0's
            // queue long before the next one arrives.
            std::thread::sleep(Duration::from_millis(50));
        }
        holder.unlock_write();
    });
    assert_eq!(
        *order.lock().unwrap(),
        vec![0, 1, 2],
        "same-cohort writers must be granted in arrival order"
    );
}

#[test]
fn roll_fifo_within_cohort() {
    let lock = RollLock::builder(4).cohort(true).cohort_ranks(2).build();
    assert!(lock.is_cohort());
    let order = Mutex::new(Vec::new());
    let mut holder = lock.handle().unwrap();
    holder.set_cohort(0);
    holder.lock_write();
    std::thread::scope(|scope| {
        for tag in 0..3usize {
            let lock = &lock;
            let order = &order;
            scope.spawn(move || {
                let mut w = lock.handle().unwrap();
                w.set_cohort(0);
                w.lock_write();
                order.lock().unwrap().push(tag);
                w.unlock_write();
            });
            std::thread::sleep(Duration::from_millis(50));
        }
        holder.unlock_write();
    });
    assert_eq!(
        *order.lock().unwrap(),
        vec![0, 1, 2],
        "same-cohort writers must be granted in arrival order"
    );
}

/// The uncontended fast path: a writer on a cohort-enabled lock whose
/// cohort queue is empty *and* whose global queue is idle bypasses the
/// gate and acquires like a plain writer. The bypass must be invisible
/// to correctness — cycles before a contended gate drain, the drain
/// itself (FIFO through the gate), and cycles after it must all
/// succeed, and the queue must end empty so node reclamation survived
/// the mode switches.
#[test]
fn uncontended_bypass_keeps_gate_consistent() {
    macro_rules! drive {
        ($lock:expr) => {{
            let lock = &$lock;
            let mut h = lock.handle().unwrap();
            h.set_cohort(0);
            // Nobody else is queued anywhere: every cycle rides the
            // bypass.
            for _ in 0..200 {
                h.lock_write();
                h.unlock_write();
                h.lock_read();
                h.unlock_read();
            }
            // Engage the gate: hold, park three cohort writers, drain
            // FIFO.
            let order = Mutex::new(Vec::new());
            h.lock_write();
            std::thread::scope(|scope| {
                for tag in 0..3usize {
                    let order = &order;
                    scope.spawn(move || {
                        let mut w = lock.handle().unwrap();
                        w.set_cohort(0);
                        w.lock_write();
                        order.lock().unwrap().push(tag);
                        w.unlock_write();
                    });
                    std::thread::sleep(Duration::from_millis(50));
                }
                h.unlock_write();
            });
            assert_eq!(
                *order.lock().unwrap(),
                vec![0, 1, 2],
                "gate drain after bypassed cycles lost FIFO order"
            );
            // The drain left the gate idle again: bypass cycles resume,
            // and the closing read/write pair recycles the lone reader
            // node so the queue can drain empty.
            for _ in 0..200 {
                h.lock_write();
                h.unlock_write();
            }
            h.lock_read();
            h.unlock_read();
            h.lock_write();
            h.unlock_write();
            drop(h);
            assert!(lock.is_queue_empty());
        }};
    }
    drive!(FollLock::builder(5).cohort(true).cohort_ranks(2).build());
    drive!(RollLock::builder(5).cohort(true).cohort_ranks(2).build());
}

/// The starvation bound. A writer parked on the *other* cohort while
/// the local cohort hands the lock around must be granted after at most
/// `cohort_batch` local hand-offs: the release path counts grants in
/// the grant word and, at the bound, releases the global queue (where
/// the remote cohort's owner waits) before continuing locally. With a
/// batch bound of 3 and eight eager local writers, at most 3 of them
/// may beat the remote writer.
#[test]
fn batch_bound_releases_cross_cohort() {
    const BATCH: u32 = 3;
    const LOCALS: usize = 8;
    let lock = Arc::new(
        FollLock::builder(2 + LOCALS)
            .cohort(true)
            .cohort_ranks(2)
            .build(),
    );
    lock.knobs().set_cohort_batch(BATCH);
    assert_eq!(lock.cohort_batch(), BATCH);
    assert_eq!(lock.cohort_count(), 2);

    // `true` = a local (cohort 0) acquisition, `false` = the remote.
    let order = Mutex::new(Vec::new());
    let mut holder = lock.handle().unwrap();
    holder.set_cohort(0);
    holder.lock_write();
    std::thread::scope(|scope| {
        let lock = &lock;
        let order = &order;
        scope.spawn(move || {
            let mut w = lock.handle().unwrap();
            w.set_cohort(1);
            w.lock_write(); // heads cohort 1: parks in the global queue
            order.lock().unwrap().push(false);
            w.unlock_write();
        });
        // Let the remote writer reach the global queue first …
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..LOCALS {
            scope.spawn(move || {
                let mut w = lock.handle().unwrap();
                w.set_cohort(0);
                w.lock_write(); // parks in cohort 0 behind the holder
                order.lock().unwrap().push(true);
                w.unlock_write();
            });
        }
        // … and the locals pile up behind the holder before the drain.
        std::thread::sleep(Duration::from_millis(100));
        holder.unlock_write();
    });

    let order = order.lock().unwrap();
    assert_eq!(order.len(), 1 + LOCALS, "every writer completed");
    let remote_at = order
        .iter()
        .position(|local| !local)
        .expect("remote writer acquired");
    assert!(
        remote_at <= BATCH as usize,
        "remote writer waited through {remote_at} local grants, \
         batch bound is {BATCH}: {order:?}"
    );
}

/// Timeout/cancel excision inside the cohort queue: a queued cohort
/// writer that gives up must unlink without losing the grant chain,
/// whether the next grant lands on it mid-cancel or not.
#[test]
fn cohort_writer_timeouts_keep_the_lock_functional() {
    use oll::TimedHandle;
    const THREADS: usize = 4;
    const ITERS: usize = 200;
    let lock = Arc::new(
        FollLock::builder(THREADS)
            .cohort(true)
            .cohort_ranks(2)
            .build(),
    );
    lock.knobs().set_cohort_batch(2);
    let state = Arc::new(AtomicI64::new(0));
    let mut threads = Vec::new();
    for tid in 0..THREADS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            h.set_cohort(tid % 2);
            let mut rng = oll::util::XorShift64::for_thread(0xC0_1EAD, tid);
            for _ in 0..ITERS {
                let timeout = Duration::from_micros(rng.next_below(150));
                if rng.percent(70) {
                    if h.lock_write_timeout(timeout).is_ok() {
                        assert_eq!(state.swap(-1, Ordering::SeqCst), 0, "writer not alone");
                        state.store(0, Ordering::SeqCst);
                        h.unlock_write();
                    }
                } else if h.lock_read_timeout(timeout).is_ok() {
                    assert!(
                        state.fetch_add(1, Ordering::SeqCst) >= 0,
                        "reader under writer"
                    );
                    state.fetch_sub(1, Ordering::SeqCst);
                    h.unlock_read();
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut h = lock.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    // The write cycle last: a lone reader's node stays queued after its
    // unlock (reader nodes outlive acquisitions), and the writer is what
    // closes and recycles it, letting the queue drain empty.
    h.lock_write();
    h.unlock_write();
    assert!(lock.is_queue_empty());
}

/// Directed race at the cohort release's local-vs-remote decision: the
/// releaser reads a nil `qnext`, and the fault plan widens the window
/// before its tail CAS so a new local writer can enqueue exactly there.
/// Whichever way each race lands — local hand-off to the late arrival
/// or global release — the lock must stay functional and drain empty.
#[cfg(feature = "fault-injection")]
#[test]
fn cohort_tail_cas_race_under_fault_injection() {
    use oll::util::fault::FaultPlan;
    use oll::TimedHandle;

    // The fault plan is process-global; `fault_injection.rs` serializes
    // its tests the same way, and this file has only one plan user.
    const THREADS: usize = 5;
    const ITERS: usize = 300;
    let _plan = FaultPlan::sometimes(0xC0_0410, "cohort", 60, 8).install();

    let lock = Arc::new(
        FollLock::builder(THREADS)
            .cohort(true)
            .cohort_ranks(2)
            .build(),
    );
    lock.knobs().set_cohort_batch(2);
    let state = Arc::new(AtomicI64::new(0));
    let mut threads = Vec::new();
    for tid in 0..THREADS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            h.set_cohort(tid % 2);
            let mut rng = oll::util::XorShift64::for_thread(0xC0_0411, tid);
            for _ in 0..ITERS {
                if rng.percent(80) {
                    h.lock_write();
                    assert_eq!(state.swap(-1, Ordering::SeqCst), 0, "writer not alone");
                    state.store(0, Ordering::SeqCst);
                    h.unlock_write();
                } else {
                    let timeout = Duration::from_micros(rng.next_below(100));
                    if h.lock_write_timeout(timeout).is_ok() {
                        assert_eq!(state.swap(-1, Ordering::SeqCst), 0, "writer not alone");
                        state.store(0, Ordering::SeqCst);
                        h.unlock_write();
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    assert!(lock.is_queue_empty());
}
