//! The Solaris-kernel-style reader-writer lock (§3.1 of the paper).
//!
//! A single central lockword holds the reader count plus `writeLocked`,
//! `writeWanted`, and `hasWaiters` bits. Conflicting threads enqueue in a
//! turnstile — [`oll_util::turnstile`], the very one GOLL queues on — after
//! atomically setting the waiter bits, and releasing threads *hand over*
//! ownership: the lockword is moved directly to the next holder's state
//! before they are woken, so "threads always own the lock upon awakening".
//!
//! This is the user-space reproduction the paper itself benchmarks ("the
//! Solaris implementation cannot be used in user-space", §5.1), with the
//! same alternating hand-off policy and spin-based waiting. Its scaling
//! problem — every reader CASes the shared lockword twice per critical
//! section — is exactly what the GOLL lock's C-SNZI removes: §3.2 defines
//! GOLL as this lock with the lockword replaced, so the two share the queue
//! and differ in what this file holds, the lockword protocol.

use oll_core::raw::{RwHandle, RwLockFamily};
use oll_core::TimedOut;
use oll_hazard::Hazard;
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::backoff::{Backoff, BackoffPolicy, Deadline, Never};
use oll_util::event::WaitStrategy;
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::sync::{AtomicU64, Ordering};
use oll_util::turnstile::{Handoff, LockedQueue, Turnstile};
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

/// The Solaris-like central-lockword reader-writer lock.
pub struct SolarisLikeRwLock {
    word: CachePadded<AtomicU64>,
    /// The handle on slot `i` queues for writing on cell `i`.
    turnstile: Turnstile,
    slots: SlotRegistry,
    backoff: BackoffPolicy,
    telemetry: Telemetry,
    hazard: Hazard,
}

impl SolarisLikeRwLock {
    /// Creates a lock for at most `capacity` concurrent threads with
    /// spin-based waiters (the paper's configuration).
    pub fn new(capacity: usize) -> Self {
        Self::with_strategy(capacity, WaitStrategy::SpinThenYield)
    }

    /// Creates a lock with an explicit waiter strategy.
    pub fn with_strategy(capacity: usize, strategy: WaitStrategy) -> Self {
        let capacity = capacity.max(1);
        let telemetry = Telemetry::register("Solaris-like");
        let hazard = Hazard::new();
        hazard.attach_telemetry(&telemetry);
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
            turnstile: Turnstile::new(capacity, strategy),
            slots: SlotRegistry::new(capacity),
            backoff: BackoffPolicy::default(),
            telemetry,
            hazard,
        }
    }

    fn load(&self) -> Word {
        Word(self.word.load(Ordering::Acquire))
    }

    fn cas(&self, old: Word, new: Word) -> bool {
        self.word
            .compare_exchange(old.0, new.0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Hand-off after a write release or a last-reader release; called
    /// with the turnstile locked and the lock still owned by the caller.
    /// §5.1's policy, as in GOLL and the kernel: writers hand to all
    /// waiting readers, readers hand to the first waiting writer. The
    /// lockword is moved to the next holder's state — which also recomputes
    /// waiter bits a timed-out waiter left stale — before the mutex drops,
    /// and the waiters are woken after.
    fn handover(&self, mut q: LockedQueue<'_>, from_reader: bool) {
        let handoff = if from_reader {
            q.dequeue_for_reader_release()
        } else {
            q.dequeue_for_writer_release()
        };
        let word = match handoff {
            // Spurious hasWaiters: actually free the lock.
            Handoff::None => Word(0),
            Handoff::Writer(_) => {
                self.telemetry.incr(LockEvent::HandoffToWriter);
                Word::make(0, true, q.has_writers(), !q.is_empty())
            }
            // The readers go at once, so what remains queued is writers.
            Handoff::Readers {
                total,
                writers_remain,
                ..
            } => {
                self.telemetry.incr(LockEvent::HandoffToReaders);
                Word::make(total, false, writers_remain, writers_remain)
            }
        };
        self.word.store(word.0, Ordering::Release);
        drop(q);
        // The cell index doubles as the trace causality token, matching
        // what each waiter stamped on its `enqueued` marker.
        self.turnstile.grant(handoff, |cell| {
            self.telemetry.trace_granted(u64::from(cell))
        });
    }
}

impl RwLockFamily for SolarisLikeRwLock {
    type Handle<'a> = SolarisLikeHandle<'a>;

    fn handle(&self) -> Result<SolarisLikeHandle<'_>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(SolarisLikeHandle {
            lock: self,
            slot,
            hold: Timer::inactive(),
        })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        "Solaris-like"
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn hazard(&self) -> Hazard {
        self.hazard.clone()
    }
}

/// Per-thread handle for [`SolarisLikeRwLock`].
pub struct SolarisLikeHandle<'a> {
    lock: &'a SolarisLikeRwLock,
    /// Capacity reservation, and the index of this handle's writer cell.
    slot: SlotGuard<'a>,
    /// Hold-time timer for the handle's outstanding acquisition.
    hold: Timer,
}

impl SolarisLikeHandle<'_> {
    /// The read acquisition, blocking and timed alike: a deadline adds a
    /// give-up point wherever nothing is held yet, and a cancellation after
    /// a wait that outlasts it.
    fn acquire_read<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        let lock = self.lock;
        let acquire = lock.telemetry.begin_read();
        let mut b = Backoff::with_policy(lock.backoff);
        loop {
            let w = lock.load();
            // Fast path: no conflicting request.
            if !w.blocks_readers() {
                if lock.cas(w, Word(w.0 + READER_UNIT)) {
                    lock.telemetry.incr(LockEvent::ReadFast);
                    lock.telemetry.record_read_acquire(&acquire);
                    self.hold = lock.telemetry.timer();
                    return Ok(());
                }
                b.backoff();
                if deadline.expired() {
                    return self.timed_out();
                }
                continue;
            }
            if deadline.expired() {
                return self.timed_out();
            }
            // Conflict: enqueue under the turnstile mutex, setting
            // hasWaiters atomically so releasers cannot miss us.
            let mut q = lock.turnstile.lock();
            let w = lock.load();
            if !w.blocks_readers() {
                continue; // conflict vanished; retry fast path
            }
            if !w.has_waiters() && !lock.cas(w, Word(w.0 | HAS_WAITERS)) {
                continue; // lockword moved; re-evaluate
            }
            let group = q.join_readers(self.slot.slot());
            lock.telemetry.incr(LockEvent::ReadSlow);
            lock.telemetry.trace_enqueued(u64::from(group));
            drop(q);
            if lock.turnstile.wait_until(group, deadline) {
                // Ownership was handed over: the releaser already counted
                // us into the lockword.
                lock.turnstile.acknowledge(group);
                lock.telemetry.record_read_acquire(&acquire);
                self.hold = lock.telemetry.timer();
                return Ok(());
            }
            self.cancel_wait(group);
            return self.timed_out();
        }
    }

    /// The write acquisition, blocking and timed alike; a deadline adds the
    /// same two things as in [`acquire_read`](Self::acquire_read).
    fn acquire_write<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        let lock = self.lock;
        let acquire = lock.telemetry.begin_write();
        let mut b = Backoff::with_policy(lock.backoff);
        loop {
            let w = lock.load();
            if w.free_for_writer() {
                if lock.cas(w, Word::make(0, true, false, false)) {
                    lock.telemetry.incr(LockEvent::WriteFast);
                    lock.telemetry.record_write_acquire(&acquire);
                    self.hold = lock.telemetry.timer();
                    return Ok(());
                }
                b.backoff();
                if deadline.expired() {
                    return self.timed_out();
                }
                continue;
            }
            if deadline.expired() {
                return self.timed_out();
            }
            let mut q = lock.turnstile.lock();
            let w = lock.load();
            if w.free_for_writer() || !lock.cas(w, Word(w.0 | HAS_WAITERS | WRITE_WANTED)) {
                continue;
            }
            let cell = q.enqueue_writer(self.slot.slot());
            lock.telemetry.incr(LockEvent::WriteSlow);
            lock.telemetry.trace_enqueued(u64::from(cell));
            drop(q);
            if lock.turnstile.wait_until(cell, deadline) {
                lock.telemetry.record_write_acquire(&acquire);
                self.hold = lock.telemetry.timer();
                return Ok(());
            }
            self.cancel_wait(cell);
            return self.timed_out();
        }
    }

    /// The deadline passed with nothing held (any more).
    fn timed_out(&self) -> Result<(), TimedOut> {
        self.lock.telemetry.incr(LockEvent::Timeout);
        Err(TimedOut)
    }

    /// Gives up the wait on `cell` once its deadline has passed. A releaser
    /// may concurrently dequeue the cell (and, for a reader, count it into
    /// the lockword), and the turnstile mutex is the arbiter: a cell still
    /// queued is excised and nothing is held (waiter bits this leaves stale
    /// are recomputed by the next release's `handover`); a dequeued one
    /// means the hand-off already made this waiter a holder, which waits
    /// for the (imminent) signal and undoes the hold with a normal release.
    fn cancel_wait(&mut self, cell: u32) {
        let lock = self.lock;
        if lock.turnstile.lock().excise(cell) {
            lock.telemetry.incr(LockEvent::Cancel);
            return;
        }
        lock.turnstile.wait_until(cell, Never);
        self.hold = lock.telemetry.timer();
        if lock.turnstile.is_group(cell) {
            lock.turnstile.acknowledge(cell);
            self.unlock_read();
        } else {
            self.unlock_write();
        }
    }
}

impl RwHandle for SolarisLikeHandle<'_> {
    fn hazard(&self) -> Hazard {
        self.lock.hazard.clone()
    }

    fn lock_read(&mut self) {
        let granted = self.acquire_read(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    fn unlock_read(&mut self) {
        let lock = self.lock;
        lock.telemetry.record_read_hold(&self.hold);
        loop {
            let w = lock.load();
            debug_assert!(w.readers() > 0, "unlock_read without read hold");
            if w.readers() > 1 || !w.has_waiters() {
                if lock.cas(w, Word(w.0 - READER_UNIT)) {
                    return;
                }
                continue;
            }
            // Last reader with waiters: hand over instead of releasing.
            let q = lock.turnstile.lock();
            // Re-check under the mutex (a reader may have slipped in? No:
            // writeWanted blocks new readers, and waiters imply a writer —
            // but re-check anyway to stay robust to policy changes).
            let w = lock.load();
            if w.readers() > 1 || !w.has_waiters() {
                continue;
            }
            lock.handover(q, true);
            return;
        }
    }

    fn lock_write(&mut self) {
        let granted = self.acquire_write(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    fn unlock_write(&mut self) {
        let lock = self.lock;
        lock.telemetry.record_write_hold(&self.hold);
        loop {
            let w = lock.load();
            debug_assert!(w.write_locked(), "unlock_write without write hold");
            if !w.has_waiters() {
                if lock.cas(w, Word(0)) {
                    return;
                }
                continue;
            }
            let q = lock.turnstile.lock();
            if !lock.load().has_waiters() {
                continue;
            }
            lock.handover(q, false);
            return;
        }
    }

    fn try_lock_read(&mut self) -> bool {
        let w = self.lock.load();
        if !w.blocks_readers() && self.lock.cas(w, Word(w.0 + READER_UNIT)) {
            self.lock.telemetry.incr(LockEvent::ReadFast);
            self.hold = self.lock.telemetry.timer();
            true
        } else {
            false
        }
    }

    fn try_lock_write(&mut self) -> bool {
        let w = self.lock.load();
        if w.free_for_writer() && self.lock.cas(w, Word::make(0, true, false, false)) {
            self.lock.telemetry.incr(LockEvent::WriteFast);
            self.hold = self.lock.telemetry.timer();
            true
        } else {
            false
        }
    }
}

/// Timed acquisition: a waiter that times out excises itself from the
/// turnstile (`SolarisLikeHandle::cancel_wait`).
#[cfg(not(loom))]
impl oll_core::raw::TimedHandle for SolarisLikeHandle<'_> {
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_read(deadline)
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_write(deadline)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
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
        assert_eq!(lock.word.load(O::SeqCst), 0);
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
        assert_eq!(lock.word.load(O::SeqCst), 0);
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
            assert_eq!(lock.word.load(O::SeqCst), 0);
            assert!(lock.turnstile.lock().is_empty());
        }
    }
}
