//! The §2.2 lazy-tree allocation end-to-end: every OLL lock defers its
//! C-SNZI tree until the first tree arrival, and all three must behave
//! identically whether or not that tree has been allocated yet.

use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

fn exclusion_stress<L: RwLockFamily + 'static>(lock: L, threads: usize) {
    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));
    let mut joins = Vec::new();
    for tid in 0..threads {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        joins.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            let mut rng = oll::util::XorShift64::for_thread(2121, tid);
            for _ in 0..1_000 {
                if rng.percent(80) {
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
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn goll_lazy_tree_stress() {
    exclusion_stress(GollLock::builder(4).build(), 4);
}

#[test]
fn foll_lazy_tree_stress() {
    exclusion_stress(FollLock::builder(4).build(), 4);
}

#[test]
fn roll_lazy_tree_stress() {
    exclusion_stress(RollLock::builder(4).build(), 4);
}

#[test]
fn goll_lazy_tree_stays_unallocated_without_contention() {
    // A single uncontended thread always arrives at the root, so the tree
    // never materializes.
    let lock = GollLock::builder(4).build();
    let mut h = lock.handle().unwrap();
    for _ in 0..100 {
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }
    drop(h);
    assert!(!lock.is_inflated());
}
