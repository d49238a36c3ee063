//! Timed, cancellable acquisition (the robustness extension): every lock
//! with a [`TimedHandle`] must undo a timed-out acquisition completely —
//! C-SNZI surplus departed, queue entries excised or abandoned-and-
//! reclaimed, hand-off chains intact — leaving the lock immediately
//! re-acquirable in both modes.

use oll::telemetry::LockEvent;
use oll::util::backoff::Deadline;
use oll::{
    Bravo, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, SelfTuning, TimedHandle, TimedOut,
};
use oll_baselines::{SolarisLikeRwLock, StdRwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous bound for acquisitions that must succeed: long enough for any
/// CI machine, short enough to fail the test rather than hang it. A hang
/// detector, never a speed claim — every deadline that must *not* fire is
/// this one; only deadlines that *must* fire are short.
const MUST: Duration = Duration::from_secs(20);

/// How many acquisitions have queued behind a holder so far: the lock's
/// own slow-path counts where telemetry is compiled in and the lock is
/// instrumented (slow-path events are recorded at enqueue, before the
/// wait starts), else the `announced` count the waiter threads bump right
/// before they call in.
fn queued<L: RwLockFamily>(lock: &L, announced: &AtomicU64) -> u64 {
    match lock.telemetry().snapshot() {
        Some(s) => s.get(LockEvent::ReadSlow) + s.get(LockEvent::WriteSlow),
        None => announced.load(Ordering::SeqCst),
    }
}

/// Stages a scenario without sleeping: polls until [`queued`] reaches
/// `target`. Staging only — a waiter that queues later than observed still
/// acquires or times out correctly, the scenario is just less contended
/// than intended — but a waiter that *never* shows up fails the test.
fn wait_queued<L: RwLockFamily>(lock: &L, announced: &AtomicU64, target: u64) {
    let give_up = Instant::now() + MUST;
    while queued(lock, announced) < target {
        assert!(Instant::now() < give_up, "waiter never queued");
        std::thread::yield_now();
    }
}

/// The acceptance scenario: a writer holds the lock, N readers time out,
/// and every one of them undoes cleanly — afterwards the lock works in
/// both modes with no leftover surplus, queue nodes, or waiter bits.
fn readers_time_out_and_undo<L>(lock: L)
where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    const READERS: usize = 4;
    let mut w = lock.handle().unwrap();
    w.lock_write();

    let mut readers: Vec<_> = (0..READERS).map(|_| lock.handle().unwrap()).collect();
    for r in &mut readers {
        // An already-expired deadline: the wait must cancel immediately.
        assert!(r.lock_read_deadline(Instant::now()).is_err());
        // The undo must leave the handle reusable for another timed try.
        assert!(r.lock_read_timeout(Duration::from_millis(2)).is_err());
    }

    w.unlock_write();

    // All cancelled readers can immediately acquire together...
    for r in &mut readers {
        r.lock_read_timeout(MUST).expect("lock not re-acquirable");
    }
    for r in &mut readers {
        r.unlock_read();
    }
    // ...and the writer can too (this drains any node a reader left).
    w.lock_write_timeout(MUST).expect("lock not re-acquirable");
    w.unlock_write();
}

/// Mirror scenario: a reader holds the lock, N writers time out; the
/// abandoned writer nodes must be reclaimed transparently on next use.
fn writers_time_out_and_undo<L>(lock: L)
where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    const WRITERS: usize = 4;
    let mut r = lock.handle().unwrap();
    r.lock_read();

    let mut writers: Vec<_> = (0..WRITERS).map(|_| lock.handle().unwrap()).collect();
    for w in &mut writers {
        assert!(w.lock_write_deadline(Instant::now()).is_err());
    }

    r.unlock_read();

    for w in &mut writers {
        w.lock_write_timeout(MUST).expect("lock not re-acquirable");
        w.unlock_write();
    }
    r.lock_read_timeout(MUST).expect("lock not re-acquirable");
    r.unlock_read();
}

/// A timed wait that outlives the conflicting hold must succeed; one that
/// doesn't must fail — with real threads and real waiting.
fn timed_read_respects_hold_duration<L>(lock: L)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let lock = Arc::new(lock);
    let announced = Arc::new(AtomicU64::new(0));
    let mut w = lock.handle().unwrap();
    w.lock_write();

    let short = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            let mut r = lock.handle().unwrap();
            r.lock_read_timeout(Duration::from_millis(10)).is_err()
        })
    };
    assert!(short.join().unwrap(), "short timeout should have expired");

    let already = queued(&*lock, &announced);
    let long = {
        let lock = Arc::clone(&lock);
        let announced = Arc::clone(&announced);
        std::thread::spawn(move || {
            let mut r = lock.handle().unwrap();
            announced.fetch_add(1, Ordering::SeqCst);
            let ok = r.lock_read_timeout(MUST).is_ok();
            if ok {
                r.unlock_read();
            }
            ok
        })
    };
    // Release only once the long reader is waiting behind the writer.
    wait_queued(&*lock, &announced, already + 1);
    w.unlock_write();
    assert!(long.join().unwrap(), "long timeout should have succeeded");
}

/// Every thread mixes timed and untimed acquisitions under contention;
/// the single-writer / no-writer-with-readers invariant must hold across
/// every grant, cancellation, and abandoned-node takeover.
fn mixed_timed_stress<L>(lock: L, seed: u64)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    const THREADS: usize = 6;
    const ITERS: usize = 600;
    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));
    let mut threads = Vec::new();
    for tid in 0..THREADS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            let mut rng = oll_util::XorShift64::for_thread(seed, tid);
            for _ in 0..ITERS {
                let timeout = Duration::from_micros(rng.next_below(300));
                match rng.next_below(4) {
                    0 => {
                        if h.lock_read_timeout(timeout).is_ok() {
                            assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                            state.fetch_sub(1, Ordering::SeqCst);
                            h.unlock_read();
                        }
                    }
                    1 => {
                        if h.lock_write_timeout(timeout).is_ok() {
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
    for t in threads {
        t.join().unwrap();
    }
    // Quiesced: both modes acquire immediately.
    let mut h = lock.handle().unwrap();
    h.lock_write_timeout(MUST).unwrap();
    h.unlock_write();
}

/// A deadline that counts how often it is asked, and reports expired from
/// its `expires_at`-th query on. Parks for a millisecond at most, so a
/// wait that parks on it still comes back to ask again.
struct Counting {
    queries: Cell<u32>,
    expires_at: u32,
}

impl Counting {
    fn new(expires_at: u32) -> Self {
        Self {
            queries: Cell::new(0),
            expires_at,
        }
    }

    fn query(&self) -> bool {
        let n = self.queries.get() + 1;
        self.queries.set(n);
        n >= self.expires_at
    }
}

impl Deadline for &Counting {
    fn expired(self) -> bool {
        self.query()
    }

    fn park(self) {
        if !self.query() {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
}

/// The property a relative timeout's saving rests on: an acquisition that
/// does not wait never asks its deadline (so `*_timeout` reads no clock),
/// and one that waits does, gives up when told to, and leaves no trace.
fn deadline_queried_only_when_waiting<L>(lock: L)
where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let mut holder = lock.handle().unwrap();
    let mut h = lock.handle().unwrap();

    // Free lock: a deadline that would expire at its first query is
    // never asked.
    let d = Counting::new(1);
    h.lock_read_deadline(&d)
        .expect("a free lock cannot time out");
    h.unlock_read();
    assert_eq!(d.queries.get(), 0, "uncontended read asked its deadline");
    let d = Counting::new(1);
    h.lock_write_deadline(&d)
        .expect("a free lock cannot time out");
    h.unlock_write();
    assert_eq!(d.queries.get(), 0, "uncontended write asked its deadline");

    // Behind a holder: asked, and obeyed.
    holder.lock_write();
    let d = Counting::new(3);
    assert_eq!(h.lock_read_deadline(&d), Err(TimedOut));
    assert!(d.queries.get() >= 1, "blocked read never asked");
    let d = Counting::new(3);
    assert_eq!(h.lock_write_deadline(&d), Err(TimedOut));
    assert!(d.queries.get() >= 1, "blocked write never asked");
    holder.unlock_write();
    holder.lock_read();
    let d = Counting::new(3);
    assert_eq!(h.lock_write_deadline(&d), Err(TimedOut));
    assert!(
        d.queries.get() >= 1,
        "write blocked by a reader never asked"
    );
    holder.unlock_read();

    // Nothing left behind: both modes acquire.
    h.lock_write_timeout(MUST).expect("lock not re-acquirable");
    h.unlock_write();
    h.lock_read_timeout(MUST).expect("lock not re-acquirable");
    holder
        .lock_read_timeout(MUST)
        .expect("lock not re-acquirable");
    h.unlock_read();
    holder.unlock_read();
}

/// `Duration::MAX` is a timeout that never fires, not an overflow: it
/// acquires a free lock, and waits out a holder that lets go.
fn max_timeout_acquires<L>(lock: L)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    {
        let mut h = lock.handle().unwrap();
        h.lock_read_timeout(Duration::MAX).unwrap();
        h.unlock_read();
        h.lock_write_timeout(Duration::MAX).unwrap();
        h.unlock_write();
        drop(h.read_timeout(Duration::MAX).unwrap());
        drop(h.write_timeout(Duration::MAX).unwrap());
    }

    let lock = Arc::new(lock);
    let announced = Arc::new(AtomicU64::new(0));
    let mut w = lock.handle().unwrap();
    for write in [false, true] {
        w.lock_write();
        let already = queued(&*lock, &announced);
        let waiter = {
            let lock = Arc::clone(&lock);
            let announced = Arc::clone(&announced);
            std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                announced.fetch_add(1, Ordering::SeqCst);
                if write {
                    h.lock_write_timeout(Duration::MAX).unwrap();
                    h.unlock_write();
                } else {
                    h.lock_read_timeout(Duration::MAX).unwrap();
                    h.unlock_read();
                }
            })
        };
        wait_queued(&*lock, &announced, already + 1);
        w.unlock_write();
        waiter.join().expect("Duration::MAX waiter failed");
    }
}

macro_rules! timed_lock_suite {
    ($mod_name:ident, $make:expr, $seed:expr) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn readers_time_out_and_undo_cleanly() {
                readers_time_out_and_undo($make(8));
            }

            #[test]
            fn writers_time_out_and_undo_cleanly() {
                writers_time_out_and_undo($make(8));
            }

            #[test]
            fn timed_read_respects_hold_duration() {
                super::timed_read_respects_hold_duration($make(4));
            }

            #[test]
            fn mixed_timed_stress_keeps_exclusion() {
                mixed_timed_stress($make(8), $seed);
            }

            #[test]
            fn deadline_queried_only_when_waiting() {
                super::deadline_queried_only_when_waiting($make(4));
            }

            #[test]
            fn max_timeout_acquires() {
                super::max_timeout_acquires($make(4));
            }
        }
    };
}

timed_lock_suite!(goll, GollLock::new, 0xA11CE);
timed_lock_suite!(foll, FollLock::new, 0xB0B);
timed_lock_suite!(roll, RollLock::new, 0xCAFE);
timed_lock_suite!(solaris_like, SolarisLikeRwLock::new, 0xD00D);
timed_lock_suite!(std_rw, StdRwLock::new, 0xE66);
timed_lock_suite!(bravo_roll, |n| Bravo::new(RollLock::new(n)), 0xB1A5);
timed_lock_suite!(
    self_tuning,
    |n| SelfTuning::new(Bravo::new(RollLock::new(n))),
    0x70E
);

/// Regression: a turnstile-lock writer marks the word under the queue
/// mutex before it checks its deadline — GOLL closes the C-SNZI, the
/// Solaris-like lock sets `writeWanted|hasWaiters` — so one that finds
/// readers inside and times out there leaves the lock *marked with readers
/// and an empty queue*. The last departing reader's hand-off must free the
/// word, or every later reader blocks forever.
fn cancelled_writer_leaves_no_stale_mark<L>(lock: L)
where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let mut r = lock.handle().unwrap();
    r.lock_read();

    let mut w = lock.handle().unwrap();
    assert!(w.lock_write_deadline(Instant::now()).is_err());

    r.unlock_read(); // must free the marked word

    let mut r2 = lock.handle().unwrap();
    r2.lock_read_timeout(MUST)
        .expect("word left marked by the cancelled writer");
    r2.unlock_read();
    w.lock_write_timeout(MUST).unwrap();
    w.unlock_write();
}

#[test]
fn goll_cancelled_writer_reopens_csnzi() {
    cancelled_writer_leaves_no_stale_mark(GollLock::new(4));
}

#[test]
fn solaris_like_cancelled_writer_clears_waiter_bits() {
    cancelled_writer_leaves_no_stale_mark(SolarisLikeRwLock::new(4));
}

/// FOLL: a reader whose node was closed by a queued writer and whose
/// timeout makes it the node's last departer must hand the lock off (the
/// `MustHandOff` cancellation path), not orphan the queued writer.
#[test]
fn foll_cancelled_last_reader_hands_off() {
    let lock = Arc::new(FollLock::new(4));
    let announced = Arc::new(AtomicU64::new(0));

    // W1 parks the queue head.
    let mut w1 = lock.handle().unwrap();
    w1.lock_write();

    // R enqueues a reader node behind W1 and waits. Its deadline is the one
    // in this scenario that must fire, so it is short — but long enough
    // for W2 to get in behind it first.
    let r_thread = {
        let lock = Arc::clone(&lock);
        let announced = Arc::clone(&announced);
        std::thread::spawn(move || {
            let mut r = lock.handle().unwrap();
            announced.fetch_add(1, Ordering::SeqCst);
            r.lock_read_timeout(Duration::from_millis(150)).is_err()
        })
    };
    wait_queued(&*lock, &announced, 1);

    // W2 enqueues behind R's node and closes its C-SNZI (FOLL closes
    // immediately), making R the node's only — and last — departer.
    let w2_thread = {
        let lock = Arc::clone(&lock);
        let announced = Arc::clone(&announced);
        std::thread::spawn(move || {
            let mut w2 = lock.handle().unwrap();
            announced.fetch_add(1, Ordering::SeqCst);
            w2.lock_write();
            w2.unlock_write();
        })
    };
    wait_queued(&*lock, &announced, 2);

    // R times out: its cancel must leave the node abandoned (or perform
    // the hand-off itself), so that W1's release reaches W2.
    assert!(r_thread.join().unwrap(), "reader should have timed out");
    w1.unlock_write();
    w2_thread.join().unwrap();

    let mut h = lock.handle().unwrap();
    h.lock_write_timeout(MUST).unwrap();
    h.unlock_write();
    assert!(lock.is_queue_empty(), "a cancelled node stayed queued");
}

/// FOLL/ROLL: a writer that abandons its queue node must be able to drop
/// its handle (slot reuse!) and a fresh handle must acquire normally —
/// the reclaim handshake runs in Drop.
#[test]
fn abandoned_writer_node_reclaimed_on_drop() {
    fn check<L>(lock: &L)
    where
        L: RwLockFamily,
        for<'a> L::Handle<'a>: TimedHandle,
    {
        let mut r = lock.handle().unwrap();
        r.lock_read();
        {
            let mut w = lock.handle().unwrap();
            assert!(w.lock_write_deadline(Instant::now()).is_err());
            // Holder releases; the abandoned node's takeover release runs.
            r.unlock_read();
            // `w` dropped here with a possibly pending reclaim.
        }
        let mut w2 = lock.handle().unwrap();
        w2.lock_write_timeout(MUST).unwrap();
        w2.unlock_write();
        r.lock_read_timeout(MUST).unwrap();
        r.unlock_read();
    }
    check(&FollLock::new(4));
    check(&RollLock::new(4));
}

/// The data-carrying wrapper's timed guards: Err leaves the lock free,
/// Ok hands back a live guard.
#[test]
fn rwlock_wrapper_timed_guards() {
    let rw = oll::RwLock::new(GollLock::new(2), 7u32);
    let mut a = rw.owner().unwrap();
    let mut b = rw.owner().unwrap();

    let g = a.write();
    assert!(b.read_timeout(Duration::from_millis(5)).is_err());
    assert!(b.write_timeout(Duration::from_millis(5)).is_err());
    drop(g);

    *b.write_timeout(MUST).unwrap() = 9;
    assert_eq!(*b.read_timeout(MUST).unwrap(), 9);
}
