//! The C-SNZI tree adapts to contention end to end: every OLL lock's
//! reader C-SNZI allocates its tree at its first tree arrival (§2.2), and
//! each handle routes its own arrivals there only on its own contention
//! evidence. All three OLL locks must behave identically whether or not
//! the tree has been allocated, and the allocation must be observable
//! through the lock API.

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
            let mut rng = oll::util::XorShift64::for_thread(4242, tid);
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
fn goll_adaptive_stress() {
    exclusion_stress(GollLock::new(4), 4);
}

#[test]
fn foll_adaptive_stress() {
    exclusion_stress(FollLock::new(4), 4);
}

#[test]
fn roll_adaptive_stress() {
    exclusion_stress(RollLock::new(4), 4);
}

#[test]
fn adaptive_stress_with_eager_tree_threshold() {
    // arrival_threshold(0) pins every arrival to the tree, so the whole
    // stress runs on allocated trees (maximum tree traffic).
    exclusion_stress(GollLock::builder(4).arrival_threshold(0).build(), 4);
    exclusion_stress(FollLock::builder(4).arrival_threshold(0).build(), 4);
    exclusion_stress(RollLock::builder(4).arrival_threshold(0).build(), 4);
}

#[test]
fn uncontended_adaptive_locks_never_inflate() {
    // A single thread never meets another arrival at the root, so no
    // contention is ever measured and no tree may be allocated.
    fn check<L: RwLockFamily>(lock: L, label: &str, inflated: fn(&L) -> bool) {
        assert!(!inflated(&lock), "{label} allocated a tree at build");
        let mut h = lock.handle().unwrap();
        for _ in 0..200 {
            h.lock_read();
            h.unlock_read();
            h.lock_write();
            h.unlock_write();
        }
        drop(h);
        assert!(!inflated(&lock), "{label} allocated without contention");
    }
    check(GollLock::new(4), "GOLL", GollLock::is_inflated);
    check(FollLock::new(4), "FOLL", FollLock::is_inflated);
    check(RollLock::new(4), "ROLL", RollLock::is_inflated);
}

#[test]
fn tree_routed_arrivals_inflate_adaptive_locks() {
    // Pinning arrivals to the tree (threshold 0) is the deterministic
    // stand-in for a streak of crowded root arrivals: the very first read
    // must allocate the tree.
    let goll = GollLock::builder(4).arrival_threshold(0).build();
    assert!(!goll.is_inflated());
    let mut h = goll.handle().unwrap();
    h.lock_read();
    assert!(goll.is_inflated(), "GOLL tree arrival did not allocate");
    h.unlock_read();

    let foll = FollLock::builder(4).arrival_threshold(0).build();
    assert!(!foll.is_inflated());
    let mut h = foll.handle().unwrap();
    h.lock_read();
    assert!(foll.is_inflated(), "FOLL tree arrival did not allocate");
    h.unlock_read();

    let roll = RollLock::builder(4).arrival_threshold(0).build();
    assert!(!roll.is_inflated());
    let mut h = roll.handle().unwrap();
    h.lock_read();
    assert!(roll.is_inflated(), "ROLL tree arrival did not allocate");
    h.unlock_read();
}

#[test]
fn adaptive_locks_work_at_capacity_one() {
    // Degenerate sizing: capacity 1 clamps every shape computation.
    for threshold in [0, oll::csnzi::ArrivalPolicy::DEFAULT_THRESHOLD] {
        let lock = GollLock::builder(1).arrival_threshold(threshold).build();
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }
}

#[test]
fn adaptive_handles_survive_reader_writer_interleaving() {
    // Readers join while a writer queues: the C-SNZI is closed and
    // reopened across the hand-off, and its tree (allocated by the first
    // pinned tree arrival) stays in use across open/close cycles.
    let lock = Arc::new(FollLock::builder(3).arrival_threshold(0).build());
    std::thread::scope(|scope| {
        for tid in 0..3 {
            let lock = Arc::clone(&lock);
            scope.spawn(move || {
                let mut h = lock.handle().unwrap();
                for i in 0..500 {
                    if (i + tid) % 4 == 0 {
                        h.lock_write();
                        h.unlock_write();
                    } else {
                        h.lock_read();
                        h.unlock_read();
                    }
                }
            });
        }
    });
    assert!(lock.is_inflated());
}
