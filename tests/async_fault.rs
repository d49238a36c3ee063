//! The lost-wakeup regression the waker protocol exists to prevent:
//! a grant landing in the window between a pending poll registering its
//! task waker and returning `Pending`. The fault plan stretches exactly
//! that window (the `async.*.pending-window` sites sit after a
//! successful `WakerSlot::register` and before the post-register grant
//! re-check), so across 1000 seeded iterations the hand-off repeatedly
//! lands inside it. If the re-check were missing, the task would sleep
//! forever on a grant that already happened and `wait_idle` would hang.
//!
//! Run with `cargo test --features async,fault-injection --test
//! async_fault`. Without both features this file compiles to nothing.

#![cfg(all(feature = "async", feature = "fault-injection", not(loom)))]

use oll::util::fault::FaultPlan;
use oll::AsyncRwLock;
use oll_workloads::async_exec::Executor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The fault plan is process-global; serialize the tests that install one.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One iteration: hold the write gate, let a task queue and (with
/// injected yields) dawdle inside the register→Pending window, release
/// the gate so the grant races the window, and demand the task still
/// completes. 1000 seeded iterations walk the yield schedule across the
/// window; a lost wakeup hangs `wait_idle` (and the test times out)
/// rather than failing an assertion.
fn grant_vs_register_race(site_filter: &str, write_task: bool, seed: u64) {
    const ITERS: usize = 1000;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(seed, site_filter, 60, 8).install();

    let lock = Arc::new(AsyncRwLock::new(0u64));
    let exec = Executor::new(2);
    let grants = Arc::new(AtomicU64::new(0));
    for i in 0..ITERS {
        let gate = lock.try_write().expect("gate is uncontended");
        {
            let lock = Arc::clone(&lock);
            let grants = Arc::clone(&grants);
            exec.spawn(async move {
                if write_task {
                    *lock.write().await += 1;
                } else {
                    std::hint::black_box(*lock.read().await);
                }
                grants.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait until the task has queued, then fire the grant into the
        // (possibly stretched) register window.
        while lock.queued_waiters() == 0 {
            std::thread::yield_now();
        }
        drop(gate);
        exec.wait_idle();
        assert_eq!(
            grants.load(Ordering::Relaxed),
            (i + 1) as u64,
            "task neither granted nor woken"
        );
        assert_eq!(lock.queued_waiters(), 0);
        assert_eq!(lock.csnzi_snapshot().surplus(), 0);
    }
    assert_eq!(
        *lock.try_read().expect("free"),
        if write_task { ITERS as u64 } else { 0 }
    );
}

#[test]
fn read_grant_races_waker_registration() {
    grant_vs_register_race("async.read.pending-window", false, 0xA11C_E5ED);
}

#[test]
fn write_grant_races_waker_registration() {
    grant_vs_register_race("async.write.pending-window", true, 0xB0B5_EEDB);
}

/// The before-queue-mutex sites widen the window between the failed
/// fast path and joining the queue, so the gate's release sweeps across
/// the enqueue itself (the open re-check under the mutex must retry the
/// fast path rather than strand the task behind an open lock).
#[test]
fn release_races_the_enqueue() {
    const ITERS: usize = 1000;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(0xEB_B10C, "async.read.before-queue-mutex", 60, 8).install();

    let lock = Arc::new(AsyncRwLock::new(0u64));
    let exec = Executor::new(2);
    let grants = Arc::new(AtomicU64::new(0));
    for i in 0..ITERS {
        let gate = lock.try_write().expect("gate is uncontended");
        {
            let lock = Arc::clone(&lock);
            let grants = Arc::clone(&grants);
            exec.spawn(async move {
                std::hint::black_box(*lock.read().await);
                grants.fetch_add(1, Ordering::Relaxed);
            });
        }
        // No queued-waiter handshake here: drop the gate immediately so
        // the release lands anywhere in the task's acquisition path —
        // before the fast-path retry, inside the widened pre-mutex
        // window, or after the enqueue.
        std::thread::yield_now();
        drop(gate);
        exec.wait_idle();
        assert_eq!(grants.load(Ordering::Relaxed), (i + 1) as u64);
        assert_eq!(lock.queued_waiters(), 0);
        assert_eq!(lock.csnzi_snapshot().surplus(), 0);
    }
}
