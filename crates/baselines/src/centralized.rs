//! The naive centralized reader-writer lock: one CAS-able word holding a
//! reader count and a writer flag.
//!
//! This is the strawman every scalable-lock paper (including §1 of ours)
//! opens with: correct, simple, and serializing — every acquisition and
//! every release is a compare-and-swap on the same cache line, so
//! read-only workloads degrade as threads are added. `benchmark/`
//! reports it as `baselines.centralized.ops_s`, the yardstick for the
//! C-SNZI locks on the same workload.
//!
//! Word layout: bit 0 = write-locked, bit 1 = write-wanted (so writers are
//! not starved by a steady reader stream), bits 2.. = reader count.

use oll_core::raw::{RwHandle, RwLockFamily};
use oll_util::backoff::{Backoff, BackoffPolicy};
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::sync::{AtomicU64, Ordering};
use oll_util::CachePadded;

const WRITE_LOCKED: u64 = 0b01;
const WRITE_WANTED: u64 = 0b10;
const READER_UNIT: u64 = 0b100;

/// The centralized CAS-word reader-writer lock.
pub struct CentralizedRwLock {
    word: CachePadded<AtomicU64>,
    slots: SlotRegistry,
    backoff: BackoffPolicy,
}

impl CentralizedRwLock {
    /// Creates a lock for at most `capacity` concurrent threads.
    pub fn new(capacity: usize) -> Self {
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
            slots: SlotRegistry::new(capacity.max(1)),
            backoff: BackoffPolicy::default(),
        }
    }

    fn try_read_once(&self) -> bool {
        let w = self.word.load(Ordering::Acquire);
        if w & (WRITE_LOCKED | WRITE_WANTED) != 0 {
            return false;
        }
        self.word
            .compare_exchange(w, w + READER_UNIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn try_write_once(&self) -> bool {
        // Claim only from the fully free or write-wanted-by-us states.
        let w = self.word.load(Ordering::Acquire);
        if w & !WRITE_WANTED != 0 {
            return false;
        }
        self.word
            .compare_exchange(w, WRITE_LOCKED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

impl RwLockFamily for CentralizedRwLock {
    type Handle<'a> = CentralizedHandle<'a>;

    fn handle(&self) -> Result<CentralizedHandle<'_>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(CentralizedHandle { lock: self, slot })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        "Centralized"
    }
}

/// Per-thread handle for [`CentralizedRwLock`].
pub struct CentralizedHandle<'a> {
    lock: &'a CentralizedRwLock,
    #[allow(dead_code)] // held for capacity accounting, like every lock here
    slot: SlotGuard<'a>,
}

impl RwHandle for CentralizedHandle<'_> {
    fn lock_read(&mut self) {
        let mut b = Backoff::with_policy(self.lock.backoff);
        while !self.lock.try_read_once() {
            b.backoff();
        }
    }

    fn unlock_read(&mut self) {
        let old = self.lock.word.fetch_sub(READER_UNIT, Ordering::AcqRel);
        debug_assert!(old >= READER_UNIT, "unlock_read without read hold");
    }

    fn lock_write(&mut self) {
        let mut b = Backoff::with_policy(self.lock.backoff);
        // Announce intent so readers stop streaming past us.
        loop {
            let w = self.lock.word.load(Ordering::Acquire);
            if w == 0 || w == WRITE_WANTED {
                if self
                    .lock
                    .word
                    .compare_exchange(w, WRITE_LOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
            } else if w & WRITE_WANTED == 0 && w & WRITE_LOCKED == 0 {
                // Readers inside and nobody has claimed intent: claim it.
                let _ = self.lock.word.compare_exchange(
                    w,
                    w | WRITE_WANTED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            b.backoff();
        }
    }

    fn unlock_write(&mut self) {
        let old = self.lock.word.swap(0, Ordering::AcqRel);
        debug_assert!(old & WRITE_LOCKED != 0, "unlock_write without write hold");
    }

    fn try_lock_read(&mut self) -> bool {
        self.lock.try_read_once()
    }

    fn try_lock_write(&mut self) -> bool {
        self.lock.try_write_once()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering as O};
    use std::sync::Arc;

    #[test]
    fn read_write_round_trip() {
        let lock = CentralizedRwLock::new(2);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
        assert_eq!(lock.word.load(O::SeqCst), 0);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let lock = CentralizedRwLock::new(3);
        let mut r1 = lock.handle().unwrap();
        let mut r2 = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        r1.lock_read();
        assert!(r2.try_lock_read());
        assert!(!w.try_lock_write());
        r1.unlock_read();
        r2.unlock_read();
        assert!(w.try_lock_write());
        assert!(!r1.try_lock_read());
        w.unlock_write();
    }

    #[test]
    fn write_wanted_blocks_new_readers() {
        let lock = CentralizedRwLock::new(3);
        let mut r1 = lock.handle().unwrap();
        let mut r2 = lock.handle().unwrap();
        r1.lock_read();
        // Simulate a writer announcing intent.
        lock.word.fetch_or(WRITE_WANTED, O::SeqCst);
        assert!(!r2.try_lock_read());
        lock.word.fetch_and(!WRITE_WANTED, O::SeqCst);
        assert!(r2.try_lock_read());
        r1.unlock_read();
        r2.unlock_read();
    }

    #[test]
    fn exclusion_stress() {
        const THREADS: usize = 6;
        let lock = Arc::new(CentralizedRwLock::new(THREADS));
        let state = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(21, tid);
                for _ in 0..1_500 {
                    if rng.percent(70) {
                        h.lock_read();
                        assert!(state.fetch_add(1, O::SeqCst) >= 0);
                        state.fetch_sub(1, O::SeqCst);
                        h.unlock_read();
                    } else {
                        h.lock_write();
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
        assert_eq!(lock.word.load(O::SeqCst), 0);
    }
}
