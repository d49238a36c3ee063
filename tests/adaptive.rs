//! The adaptive C-SNZI option end-to-end: all three OLL locks must
//! behave identically when their reader C-SNZIs start root-only and
//! inflate under measured contention, and the inflation lifecycle must
//! be observable through the lock API.

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
    exclusion_stress(GollLock::builder(4).adaptive(true).build(), 4);
}

#[test]
fn foll_adaptive_stress() {
    exclusion_stress(FollLock::builder(4).adaptive(true).build(), 4);
}

#[test]
fn roll_adaptive_stress() {
    exclusion_stress(RollLock::builder(4).adaptive(true).build(), 4);
}

#[test]
fn adaptive_stress_with_eager_tree_threshold() {
    // arrival_threshold(0) pins every arrival to the tree, so the whole
    // stress runs on inflated C-SNZIs (maximum tree traffic).
    exclusion_stress(
        GollLock::builder(4)
            .adaptive(true)
            .arrival_threshold(0)
            .build(),
        4,
    );
    exclusion_stress(
        FollLock::builder(4)
            .adaptive(true)
            .arrival_threshold(0)
            .build(),
        4,
    );
    exclusion_stress(
        RollLock::builder(4)
            .adaptive(true)
            .arrival_threshold(0)
            .build(),
        4,
    );
}

#[test]
fn builders_report_adaptive_mode() {
    assert!(GollLock::builder(2).adaptive(true).build().is_adaptive());
    assert!(FollLock::builder(2).adaptive(true).build().is_adaptive());
    assert!(RollLock::builder(2).adaptive(true).build().is_adaptive());
    assert!(!GollLock::new(2).is_adaptive());
    assert!(!FollLock::new(2).is_adaptive());
    assert!(!RollLock::new(2).is_adaptive());
}

#[test]
fn adaptive_supersedes_lazy_tree() {
    let lock = GollLock::builder(2).lazy_tree(true).adaptive(true).build();
    assert!(lock.is_adaptive());
}

#[test]
fn uncontended_adaptive_locks_never_inflate() {
    // A single thread never meets another arrival at the root, so no
    // contention is ever measured and the tree must not materialize.
    let goll = GollLock::builder(4).adaptive(true).build();
    let mut h = goll.handle().unwrap();
    for _ in 0..200 {
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }
    drop(h);
    assert!(!goll.is_inflated(), "GOLL inflated without contention");

    let foll = FollLock::builder(4).adaptive(true).build();
    let mut h = foll.handle().unwrap();
    for _ in 0..200 {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);
    assert!(!foll.is_inflated(), "FOLL inflated without contention");

    let roll = RollLock::builder(4).adaptive(true).build();
    let mut h = roll.handle().unwrap();
    for _ in 0..200 {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);
    assert!(!roll.is_inflated(), "ROLL inflated without contention");
}

#[test]
fn tree_routed_arrivals_inflate_adaptive_locks() {
    // Pinning arrivals to the tree (threshold 0) is the deterministic
    // stand-in for a streak of crowded root arrivals: the very first read must
    // build and activate the tree.
    let goll = GollLock::builder(4)
        .adaptive(true)
        .arrival_threshold(0)
        .build();
    let mut h = goll.handle().unwrap();
    h.lock_read();
    assert!(goll.is_inflated(), "GOLL tree arrival did not inflate");
    h.unlock_read();

    let foll = FollLock::builder(4)
        .adaptive(true)
        .arrival_threshold(0)
        .build();
    let mut h = foll.handle().unwrap();
    h.lock_read();
    assert!(foll.is_inflated(), "FOLL tree arrival did not inflate");
    h.unlock_read();

    let roll = RollLock::builder(4)
        .adaptive(true)
        .arrival_threshold(0)
        .build();
    let mut h = roll.handle().unwrap();
    h.lock_read();
    assert!(roll.is_inflated(), "ROLL tree arrival did not inflate");
    h.unlock_read();
}

#[test]
fn adaptive_locks_work_at_capacity_one() {
    // Degenerate sizing: capacity 1 clamps every shape computation.
    for _ in 0..3 {
        let lock = GollLock::builder(1).adaptive(true).build();
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }
}

#[test]
fn adaptive_handles_survive_reader_writer_interleaving() {
    // Readers join while a writer queues: the adaptive C-SNZI is closed
    // and reopened across the hand-off, exercising inflation state across
    // open/close cycles.
    let lock = Arc::new(
        FollLock::builder(3)
            .adaptive(true)
            .arrival_threshold(0)
            .build(),
    );
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
