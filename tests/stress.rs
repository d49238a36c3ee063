//! Longer randomized stress: handle churn (threads registering and
//! deregistering mid-flight), protected-data consistency through the
//! `RwLock<T>` wrapper, and mixed try/blocking usage.

use oll::baselines::KsuhLock;
use oll::{FollLock, GollLock, RollLock, RwHandle, RwLock, RwLockFamily};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Threads repeatedly register, do a burst of lock operations, and drop
/// their handle — slots and queue nodes must recycle cleanly.
fn handle_churn<L: RwLockFamily + 'static>(lock: L, threads: usize) {
    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));
    let mut joins = Vec::new();
    for tid in 0..threads {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        joins.push(std::thread::spawn(move || {
            let mut rng = oll::util::XorShift64::for_thread(808, tid);
            for _round in 0..50 {
                // May transiently fail while other threads hold slots.
                let Ok(mut h) = lock.handle() else {
                    std::thread::yield_now();
                    continue;
                };
                for _ in 0..50 {
                    if rng.percent(75) {
                        h.lock_read();
                        assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                        state.fetch_sub(1, Ordering::SeqCst);
                        h.unlock_read();
                    } else {
                        h.lock_write();
                        assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
                        state.store(0, Ordering::SeqCst);
                        h.unlock_write();
                    }
                }
                // handle drops here; slot + nodes return to the pool
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn goll_handle_churn() {
    // Capacity below thread count: forces slot contention and reuse.
    handle_churn(GollLock::new(3), 5);
}

#[test]
fn foll_handle_churn() {
    handle_churn(FollLock::new(3), 5);
}

#[test]
fn roll_handle_churn() {
    handle_churn(RollLock::new(3), 5);
}

#[test]
fn ksuh_handle_churn() {
    handle_churn(KsuhLock::new(3), 5);
}

/// Data-consistency through the wrapper: concurrent increments through
/// write guards are never lost, and read guards always see a consistent
/// pair of fields.
#[test]
fn rwlock_wrapper_data_consistency() {
    #[derive(Default)]
    struct Pair {
        a: u64,
        b: u64, // invariant: b == 2 * a
    }

    const THREADS: usize = 4;
    const PER: usize = 2_000;
    let data = Arc::new(RwLock::new(RollLock::new(THREADS), Pair::default()));
    let mut joins = Vec::new();
    for tid in 0..THREADS {
        let data = Arc::clone(&data);
        joins.push(std::thread::spawn(move || {
            let mut me = data.owner().unwrap();
            let mut rng = oll::util::XorShift64::for_thread(99, tid);
            for _ in 0..PER {
                if rng.percent(60) {
                    let g = me.read();
                    assert_eq!(g.b, 2 * g.a, "torn write observed");
                } else {
                    let mut g = me.write();
                    g.a += 1;
                    // Deliberate torn intermediate state, hidden by the lock.
                    std::hint::black_box(&g.a);
                    g.b = 2 * g.a;
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut me = data.owner().unwrap();
    let g = me.read();
    assert_eq!(g.b, 2 * g.a);
    assert!(g.a > 0);
}

/// Mixed try/blocking usage: failed try-locks must leave no residue that
/// blocks later acquisitions.
#[test]
fn try_lock_failures_leave_no_residue() {
    run_try_residue(GollLock::new(4));
    run_try_residue(FollLock::new(4));
    run_try_residue(RollLock::new(4));
    run_try_residue(KsuhLock::new(4));

    fn run_try_residue<L: RwLockFamily + 'static>(lock: L) {
        let lock = Arc::new(lock);
        let state = Arc::new(AtomicI64::new(0));
        let mut joins = Vec::new();
        for tid in 0..4 {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            joins.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll::util::XorShift64::for_thread(31337, tid);
                for _ in 0..1_500 {
                    match rng.next_below(4) {
                        0 => {
                            if h.try_lock_read() {
                                assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                                state.fetch_sub(1, Ordering::SeqCst);
                                h.unlock_read();
                            }
                        }
                        1 => {
                            if h.try_lock_write() {
                                assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
                                state.store(0, Ordering::SeqCst);
                                h.unlock_write();
                            }
                        }
                        2 => {
                            h.lock_read();
                            assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                            state.fetch_sub(1, Ordering::SeqCst);
                            h.unlock_read();
                        }
                        _ => {
                            h.lock_write();
                            assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
                            state.store(0, Ordering::SeqCst);
                            h.unlock_write();
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
