//! Loom model checks for the OLL locks.
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p oll-core --test loom_locks --release
//! ```
//!
//! The models are minimal (two or three threads) but exercise the protocol
//! corners that unit tests can only sample: the FOLL reader/writer enqueue
//! race (open-vs-close on the shared reader node, §4.2), the reader-node
//! recycling handshake, GOLL's arrive/close/hand-off triangle, and — since
//! read arrivals became unconditional — the arrival that lands on a closed
//! C-SNZI and takes itself back, possibly as the last departer. A
//! preemption bound keeps the busy-wait state space tractable; loom still
//! explores every bounded interleaving of the atomics.
//!
//! These run only where loom resolves (network); offline, the root-word
//! protocol they lean on is checked exhaustively by
//! `crates/csnzi/tests/root_protocol_model.rs`.

#![cfg(loom)]

use loom::model::Builder;
use loom::sync::atomic::{AtomicI64, Ordering};
use loom::sync::Arc;
use oll_core::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};

fn model(f: impl Fn() + Sync + Send + 'static) {
    let mut b = Builder::new();
    b.preemption_bound = Some(3);
    b.check(f);
}

/// One reader vs. one writer on FOLL: the oracle must never see a reader
/// and the writer inside together, whichever way the enqueue race goes.
#[test]
fn loom_foll_reader_vs_writer_exclusion() {
    model(|| {
        let lock = Arc::new(FollLock::new(2));
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

/// Two FOLL readers: both must get in (sharing a node or racing the
/// enqueue), and the node pool must end consistent.
#[test]
fn loom_foll_two_readers_share() {
    model(|| {
        let lock = Arc::new(FollLock::new(2));

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
        // Queue ends with at most the one steady-state reader node.
        let mut w = lock.handle().unwrap();
        w.lock_write();
        w.unlock_write();
        assert!(lock.is_queue_empty());
    });
}

/// Two FOLL writers: plain MCS hand-off under the model checker.
#[test]
fn loom_foll_two_writers_exclude() {
    model(|| {
        let lock = Arc::new(FollLock::new(2));
        let state = Arc::new(AtomicI64::new(0));

        let l2 = Arc::clone(&lock);
        let s2 = Arc::clone(&state);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_write();
            assert_eq!(s2.swap(-1, Ordering::SeqCst), 0);
            s2.store(0, Ordering::SeqCst);
            h.unlock_write();
        });

        let mut h = lock.handle().unwrap();
        h.lock_write();
        assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
        state.store(0, Ordering::SeqCst);
        h.unlock_write();

        t.join().unwrap();
        assert!(lock.is_queue_empty());
    });
}

/// GOLL reader vs. writer: the C-SNZI close/arrive race plus the queue
/// hand-off (the releasing side must always wake the enqueued side).
#[test]
fn loom_goll_reader_vs_writer_exclusion() {
    model(|| {
        let lock = Arc::new(GollLock::new(2));
        let state = Arc::new(AtomicI64::new(0));

        let l2 = Arc::clone(&lock);
        let s2 = Arc::clone(&state);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_write();
            assert_eq!(s2.swap(-1, Ordering::SeqCst), 0);
            s2.store(0, Ordering::SeqCst);
            h.unlock_write();
        });

        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
        state.fetch_sub(1, Ordering::SeqCst);
        h.unlock_read();

        t.join().unwrap();
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true), "lock ends free");
    });
}

/// A read arrival landing on a closed lock while its last reader leaves:
/// a reader holds, a writer closes and queues, and a third thread's
/// `try_lock_read` lands its `fetch_add` on the draining word. Whichever
/// decrement drains the word — the reader's depart or the failed arrival's
/// undo — hands the lock to the writer, exactly once; the writer must get
/// in alone, and the lock must end free.
fn failed_arrival_vs_last_reader<L>(lock: L)
where
    L: RwLockFamily + Send + Sync + 'static,
{
    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));

    let mut r = lock.handle().unwrap();
    r.lock_read();
    state.fetch_add(1, Ordering::SeqCst);

    let writer = {
        let (lock, state) = (Arc::clone(&lock), Arc::clone(&state));
        loom::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            h.lock_write();
            assert_eq!(state.swap(-1, Ordering::SeqCst), 0, "writer not alone");
            state.store(0, Ordering::SeqCst);
            h.unlock_write();
        })
    };
    let prober = {
        let (lock, state) = (Arc::clone(&lock), Arc::clone(&state));
        loom::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            if h.try_lock_read() {
                assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                state.fetch_sub(1, Ordering::SeqCst);
                h.unlock_read();
            }
        })
    };

    state.fetch_sub(1, Ordering::SeqCst);
    r.unlock_read();
    writer.join().unwrap();
    prober.join().unwrap();

    // (A queue lock may keep the prober's reader node queued, so not
    // `try_lock_write`.)
    let mut h = lock.handle().unwrap();
    h.lock_write();
    assert_eq!(state.load(Ordering::SeqCst), 0, "lock ends free");
    h.unlock_write();
}

#[test]
fn loom_goll_failed_arrival_vs_last_reader() {
    model(|| {
        let lock = GollLock::new(4);
        failed_arrival_vs_last_reader(lock);
    });
}

#[test]
fn loom_foll_failed_arrival_vs_last_reader() {
    model(|| failed_arrival_vs_last_reader(FollLock::new(4)));
}

#[test]
fn loom_roll_failed_arrival_vs_last_reader() {
    model(|| failed_arrival_vs_last_reader(RollLock::new(4)));
}

/// GOLL upgrade racing a second reader: either the upgrade wins (sole
/// reader) or it fails and the read hold survives.
#[test]
fn loom_goll_upgrade_race() {
    use oll_core::UpgradableHandle;
    model(|| {
        let lock = Arc::new(GollLock::new(2));

        let l2 = Arc::clone(&lock);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_read();
            h.unlock_read();
        });

        let mut h = lock.handle().unwrap();
        h.lock_read();
        if h.try_upgrade() {
            h.unlock_write();
        } else {
            h.unlock_read();
        }

        t.join().unwrap();
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true));
    });
}

/// ROLL reader vs. writer exclusion (the deferred-close writer path).
#[test]
fn loom_roll_reader_vs_writer_exclusion() {
    model(|| {
        let lock = Arc::new(RollLock::new(2));
        let state = Arc::new(AtomicI64::new(0));

        let l2 = Arc::clone(&lock);
        let s2 = Arc::clone(&state);
        let t = loom::thread::spawn(move || {
            let mut h = l2.handle().unwrap();
            h.lock_write();
            assert_eq!(s2.swap(-1, Ordering::SeqCst), 0);
            s2.store(0, Ordering::SeqCst);
            h.unlock_write();
        });

        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
        state.fetch_sub(1, Ordering::SeqCst);
        h.unlock_read();

        t.join().unwrap();
    });
}
