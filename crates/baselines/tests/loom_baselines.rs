//! Loom model checks for the trickiest baselines.
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p oll-baselines --test loom_baselines --release
//! ```
//!
//! KSUH gets the most attention: its reader splice-out mutates *shared*
//! queue links under per-node try-locks, which is exactly the kind of
//! protocol where a unit test samples interleavings and a model checker
//! enumerates them.

#![cfg(loom)]

use loom::model::Builder;
use loom::sync::atomic::{AtomicI64, Ordering};
use loom::sync::Arc;
use oll_baselines::{CentralizedRwLock, KsuhLock, SolarisLikeRwLock};
use oll_core::{RwHandle, RwLockFamily};

fn model(f: impl Fn() + Sync + Send + 'static) {
    let mut b = Builder::new();
    b.preemption_bound = Some(3);
    b.check(f);
}

fn reader_vs_writer<L, F>(make: F)
where
    L: RwLockFamily + 'static,
    F: Fn(usize) -> L + Sync + Send + 'static,
{
    model(move || {
        let lock = Arc::new(make(2));
        let state = Arc::new(AtomicI64::new(0));

        let l2 = Arc::clone(&lock);
        let s2 = Arc::clone(&state);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_write();
            assert_eq!(s2.swap(-1, Ordering::SeqCst), 0, "writer not exclusive");
            s2.store(0, Ordering::SeqCst);
            h.unlock_write();
        });

        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(
            state.fetch_add(1, Ordering::SeqCst) >= 0,
            "reader beside writer"
        );
        state.fetch_sub(1, Ordering::SeqCst);
        h.unlock_read();

        t.join().unwrap();
    });
}

#[test]
fn loom_ksuh_reader_vs_writer() {
    reader_vs_writer(KsuhLock::new);
}

/// Two KSUH readers releasing in racing orders: the splice-out protocol
/// (self+prev locks, tail CAS, link restore) must keep the queue sound.
#[test]
fn loom_ksuh_two_readers_splice() {
    model(|| {
        let lock = Arc::new(KsuhLock::new(2));

        let l2 = Arc::clone(&lock);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_read();
            h.unlock_read();
        });

        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        t.join().unwrap();

        // The queue must be fully drained: a writer acquires instantly.
        let mut w = lock.handle().unwrap();
        assert!(w.try_lock_write(), "queue not drained after splices");
        w.unlock_write();
    });
}

#[test]
fn loom_solaris_like_reader_vs_writer() {
    reader_vs_writer(SolarisLikeRwLock::new);
}

#[test]
fn loom_centralized_reader_vs_writer() {
    reader_vs_writer(CentralizedRwLock::new);
}
