//! The Solaris-kernel-style reader-writer lock (§3.1 of the paper).
//!
//! A single central lockword holds the reader count plus `writeLocked`,
//! `writeWanted`, and `hasWaiters` bits. Conflicting threads enqueue in a
//! turnstile after atomically setting the waiter bits, and releasing
//! threads *hand over* ownership: the lockword is moved directly to the
//! next holder's state before they are woken, so "threads always own the
//! lock upon awakening".
//!
//! This is the user-space reproduction the paper itself benchmarks (§5.1).
//! Its scaling problem — every reader CASes the shared lockword twice per
//! critical section — is what GOLL's C-SNZI removes: §3.2 defines GOLL as
//! this lock with the lockword replaced. So both are the one
//! [`oll_core::turnstile_lock`] skeleton, and this file is the lockword.

use oll_core::turnstile_lock::{Attempt, FaultSites, Lockword, TurnstileHandle, TurnstileLock};
use oll_telemetry::Telemetry;
use oll_util::sync::{AtomicU64, Ordering};
use oll_util::turnstile::{Handoff, LockedQueue};
use oll_util::CachePadded;

const WRITE_LOCKED: u64 = 0b001;
const WRITE_WANTED: u64 = 0b010;
const HAS_WAITERS: u64 = 0b100;
const READER_UNIT: u64 = 0b1000;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Word(u64);

impl Word {
    fn readers(self) -> u64 {
        self.0 / READER_UNIT
    }
    fn write_locked(self) -> bool {
        self.0 & WRITE_LOCKED != 0
    }
    fn write_wanted(self) -> bool {
        self.0 & WRITE_WANTED != 0
    }
    fn has_waiters(self) -> bool {
        self.0 & HAS_WAITERS != 0
    }
    fn make(readers: u64, locked: bool, wanted: bool, waiters: bool) -> Self {
        Word(
            readers * READER_UNIT
                + if locked { WRITE_LOCKED } else { 0 }
                + if wanted { WRITE_WANTED } else { 0 }
                + if waiters { HAS_WAITERS } else { 0 },
        )
    }
    /// Whether a reader must queue rather than count itself in.
    fn blocks_readers(self) -> bool {
        self.write_locked() || self.write_wanted()
    }
    /// Whether a writer may take the word (a stale `writeWanted` is
    /// overwritten).
    fn free_for_writer(self) -> bool {
        self.readers() == 0 && !self.write_locked() && !self.has_waiters()
    }
}

/// The §3.1 lockword, on a cache line of its own.
#[doc(hidden)]
pub struct SolarisWord(CachePadded<AtomicU64>);

impl Default for SolarisWord {
    fn default() -> Self {
        Self(CachePadded::new(AtomicU64::new(0)))
    }
}

impl SolarisWord {
    fn load(&self) -> Word {
        Word(self.0.load(Ordering::Acquire))
    }

    fn cas(&self, old: Word, new: Word) -> bool {
        self.0
            .compare_exchange(old.0, new.0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Invariant: readers > 0 ∧ `hasWaiters` ⇒ `writeWanted`. A reader sets
/// `hasWaiters` only on a word that blocks readers, which with readers
/// inside means `writeWanted`; a writer sets both bits at once; a hand-off
/// to readers sets both or neither. So once the last reader sees
/// `hasWaiters`, `writeWanted` keeps every other reader out and nothing
/// but a writer re-marking it can touch the word: the reader owns the lock
/// with no re-check under the mutex.
impl Lockword for SolarisWord {
    const NAME: &'static str = "Solaris-like";
    const SITES: FaultSites = FaultSites {
        read_before_queue_mutex: "solaris.read.before-queue-mutex",
        read_queued: "solaris.read.queued",
        read_timeout: "solaris.read.timeout",
        read_cancel_vs_handoff: "solaris.read.cancel-vs-handoff",
        write_before_queue_mutex: "solaris.write.before-queue-mutex",
        write_queued: "solaris.write.queued",
        write_timeout: "solaris.write.timeout",
        write_cancel_vs_handoff: "solaris.write.cancel-vs-handoff",
        unlock_read_before_handoff: "solaris.unlock_read.before-handoff",
    };
    type Local = ();
    type ReadHold = ();
    const GRANTED_READ: () = ();

    fn try_read(&self, (): &mut (), _: &Telemetry) -> Attempt {
        let w = self.load();
        if w.blocks_readers() {
            Attempt::Blocked
        } else if self.cas(w, Word(w.0 + READER_UNIT)) {
            Attempt::Acquired(())
        } else {
            Attempt::Retry
        }
    }

    fn try_write(&self) -> Attempt {
        let w = self.load();
        if !w.free_for_writer() {
            Attempt::Blocked
        } else if self.cas(w, Word::make(0, true, false, false)) {
            Attempt::Acquired(())
        } else {
            Attempt::Retry
        }
    }

    /// Sets `hasWaiters` under the mutex, so that the releaser cannot miss
    /// the reader about to queue.
    fn reader_under_mutex(&self) -> bool {
        let w = self.load();
        w.blocks_readers() && (w.has_waiters() || self.cas(w, Word(w.0 | HAS_WAITERS)))
    }

    fn writer_under_mutex(&self) -> Attempt {
        let w = self.load();
        if w.free_for_writer() || !self.cas(w, Word(w.0 | HAS_WAITERS | WRITE_WANTED)) {
            Attempt::Retry
        } else {
            Attempt::Blocked
        }
    }

    fn release_read(&self, (): ()) -> bool {
        loop {
            let w = self.load();
            debug_assert!(w.readers() > 0, "unlock_read without read hold");
            debug_assert!(
                !w.has_waiters() || w.write_wanted(),
                "hasWaiters without writeWanted"
            );
            if w.readers() == 1 && w.has_waiters() {
                return true;
            }
            if self.cas(w, Word(w.0 - READER_UNIT)) {
                return false;
            }
        }
    }

    fn release_write_unqueued(&self) -> bool {
        loop {
            let w = self.load();
            debug_assert!(w.write_locked(), "unlock_write without write hold");
            if w.has_waiters() {
                return false;
            }
            if self.cas(w, Word(0)) {
                return true;
            }
        }
    }

    /// Also recomputes the waiter bits that a waiter which gave up left
    /// stale.
    fn hand_off(&self, handoff: &Handoff, q: &LockedQueue<'_>) {
        let word = match *handoff {
            Handoff::None => Word(0),
            Handoff::Writer(_) => Word::make(0, true, q.has_writers(), !q.is_empty()),
            // The readers go at once, so what remains queued is writers.
            Handoff::Readers {
                total,
                writers_remain,
                ..
            } => Word::make(total, false, writers_remain, writers_remain),
        };
        self.0.store(word.0, Ordering::Release);
    }
}

/// The Solaris-like central-lockword reader-writer lock; `new` and
/// `with_strategy` are the skeleton's.
pub type SolarisLikeRwLock = TurnstileLock<SolarisWord>;

/// Per-thread handle for [`SolarisLikeRwLock`].
pub type SolarisLikeHandle<'a> = TurnstileHandle<'a, SolarisWord>;

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use oll_core::raw::{RwHandle, RwLockFamily};
    use oll_util::event::WaitStrategy;
    use std::sync::atomic::{AtomicI64, Ordering as O};
    use std::sync::Arc as StdArc;

    #[test]
    fn word_packing() {
        let w = Word::make(5, true, false, true);
        assert_eq!(w.readers(), 5);
        assert!(w.write_locked());
        assert!(!w.write_wanted());
        assert!(w.has_waiters());
    }

    #[test]
    fn uncontended_round_trip() {
        let lock = SolarisLikeRwLock::new(2);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
        assert_eq!(lock.word().0.load(O::SeqCst), 0);
    }

    #[test]
    fn try_paths() {
        let lock = SolarisLikeRwLock::new(3);
        let mut r = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        assert!(r.try_lock_read());
        assert!(!w.try_lock_write());
        r.unlock_read();
        assert!(w.try_lock_write());
        assert!(!r.try_lock_read());
        w.unlock_write();
    }

    #[test]
    fn a_writer_timed_out_after_marking_leaves_the_bits_to_the_last_reader() {
        use oll_core::raw::TimedHandle;
        let lock = SolarisLikeRwLock::new(2);
        let mut r = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        r.lock_read();
        assert!(w.lock_write_deadline(std::time::Instant::now()).is_err());
        let marked = Word::make(1, false, true, true);
        assert_eq!(lock.word().0.load(O::SeqCst), marked.0);
        assert!(lock.is_queue_empty());
        r.unlock_read();
        assert_eq!(lock.word().0.load(O::SeqCst), 0);
    }

    #[test]
    fn writer_handoff_wakes_waiting_readers() {
        let lock = StdArc::new(SolarisLikeRwLock::new(4));
        let mut w = lock.handle().unwrap();
        w.lock_write();
        let readers_in = StdArc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let lock = StdArc::clone(&lock);
            let readers_in = StdArc::clone(&readers_in);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                h.lock_read();
                readers_in.fetch_add(1, O::SeqCst);
                h.unlock_read();
            }));
        }
        // Give readers time to hit the slow path and enqueue.
        std::thread::sleep(std::time::Duration::from_millis(30));
        w.unlock_write();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(readers_in.load(O::SeqCst), 3);
        assert_eq!(lock.word().0.load(O::SeqCst), 0);
    }

    #[test]
    fn exclusion_stress_both_strategies() {
        for strategy in [WaitStrategy::SpinThenYield, WaitStrategy::SpinThenPark] {
            const THREADS: usize = 6;
            let lock = StdArc::new(SolarisLikeRwLock::with_strategy(THREADS, strategy));
            let state = StdArc::new(AtomicI64::new(0));
            let mut handles = Vec::new();
            for tid in 0..THREADS {
                let lock = StdArc::clone(&lock);
                let state = StdArc::clone(&state);
                handles.push(std::thread::spawn(move || {
                    use oll_core::raw::TimedHandle;
                    let mut h = lock.handle().unwrap();
                    let mut rng = oll_util::XorShift64::for_thread(31, tid);
                    for _ in 0..1_000 {
                        // A third of the acquisitions are timed, short
                        // enough that many expire queued — some of them
                        // after a hand-off has already counted them.
                        let timeout = std::time::Duration::from_micros(rng.next_below(30));
                        let timed = rng.percent(33);
                        if rng.percent(70) {
                            if !timed {
                                h.lock_read();
                            } else if h.lock_read_timeout(timeout).is_err() {
                                continue;
                            }
                            assert!(state.fetch_add(1, O::SeqCst) >= 0);
                            state.fetch_sub(1, O::SeqCst);
                            h.unlock_read();
                        } else {
                            if !timed {
                                h.lock_write();
                            } else if h.lock_write_timeout(timeout).is_err() {
                                continue;
                            }
                            assert_eq!(state.swap(-1, O::SeqCst), 0);
                            state.store(0, O::SeqCst);
                            h.unlock_write();
                        }
                    }
                }));
            }
            for t in handles {
                t.join().unwrap();
            }
            // Every waiter that gave up is out of the queue, and one the
            // hand-off had counted before it gave up has released.
            assert_eq!(lock.word().0.load(O::SeqCst), 0);
            assert!(lock.is_queue_empty());
        }
    }
}
