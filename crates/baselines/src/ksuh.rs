//! The **KSUH** lock (Krieger, Stumm, Unrau & Hanna, ICPP'93) — the
//! paper's main distributed-queue competitor ("the fastest MCS-style
//! reader-writer lock we found", §5.1).
//!
//! Like the MCS reader-writer lock it keeps a queue of per-thread nodes,
//! but it eliminates the shared reader count and next-writer fields: the
//! queue is *doubly linked*, and a reader releasing the lock **splices
//! itself out** of the middle of the queue, so the set of active readers
//! is represented implicitly by the nodes still ahead of the first
//! writer. The last reader ahead of a writer discovers, when it splices,
//! that it is the queue head, and hands the lock over.
//!
//! The cost the paper criticizes remains: "the pointer to the tail of the
//! queue is still updated by every thread, whether reader or writer, and
//! so is still a significant point of contention" (§1).
//!
//! Splices of adjacent nodes are serialized by tiny per-node spinlocks
//! with a try-lock/validate/retry discipline (lock yourself, then your
//! predecessor, then re-validate the link). All queue-link atomics use
//! `SeqCst`: the activate-successor handshake relies on a total store
//! order between `spin` writes and `next` reads.

use oll_core::raw::{RwHandle, RwLockFamily};
use oll_util::backoff::{spin_until, Backoff, BackoffPolicy};
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::sync::{AtomicBool, AtomicU32, Ordering::SeqCst};
use oll_util::CachePadded;

const NIL: u32 = u32::MAX;
const KIND_READER: u32 = 0;
const KIND_WRITER: u32 = 1;

struct Node {
    kind: AtomicU32,
    prev: AtomicU32,
    next: AtomicU32,
    /// `true` while the owner is waiting for the lock.
    spin: AtomicBool,
    /// Per-node splice lock.
    lk: AtomicBool,
}

/// The KSUH fair reader-writer lock.
pub struct KsuhLock {
    tail: CachePadded<AtomicU32>,
    nodes: Box<[CachePadded<Node>]>,
    slots: SlotRegistry,
    backoff: BackoffPolicy,
}

impl KsuhLock {
    /// Creates a lock for at most `capacity` concurrent threads.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            tail: CachePadded::new(AtomicU32::new(NIL)),
            nodes: (0..capacity)
                .map(|_| {
                    CachePadded::new(Node {
                        kind: AtomicU32::new(KIND_READER),
                        prev: AtomicU32::new(NIL),
                        next: AtomicU32::new(NIL),
                        spin: AtomicBool::new(false),
                        lk: AtomicBool::new(false),
                    })
                })
                .collect(),
            slots: SlotRegistry::new(capacity),
            backoff: BackoffPolicy::default(),
        }
    }

    fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    fn lock_node(&self, i: u32) {
        let mut b = Backoff::with_policy(self.backoff);
        while self
            .node(i)
            .lk
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_err()
        {
            b.relax();
        }
    }

    fn try_lock_node(&self, i: u32) -> bool {
        self.node(i)
            .lk
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_ok()
    }

    fn unlock_node(&self, i: u32) {
        self.node(i).lk.store(false, SeqCst);
    }

    fn reader_lock(&self, me: u32) {
        let node = self.node(me);
        node.kind.store(KIND_READER, SeqCst);
        node.next.store(NIL, SeqCst);
        node.prev.store(NIL, SeqCst);
        node.spin.store(true, SeqCst);
        let pred = self.tail.swap(me, SeqCst);
        if pred == NIL {
            node.spin.store(false, SeqCst);
        } else {
            let pnode = self.node(pred);
            node.prev.store(pred, SeqCst);
            pnode.next.store(me, SeqCst);
            // If our predecessor is an *active* reader, enter immediately;
            // otherwise wait to be activated. (If the predecessor activates
            // concurrently, SeqCst guarantees that either we see its clear
            // spin here, or its post-activation propagation sees our link.)
            if pnode.kind.load(SeqCst) == KIND_READER && !pnode.spin.load(SeqCst) {
                node.spin.store(false, SeqCst);
            } else {
                spin_until(self.backoff, || !node.spin.load(SeqCst));
            }
        }
        // Chained wakeup: an acquiring reader activates a waiting reader
        // successor.
        let n = node.next.load(SeqCst);
        if n != NIL && self.node(n).kind.load(SeqCst) == KIND_READER {
            self.node(n).spin.store(false, SeqCst);
        }
    }

    fn reader_unlock(&self, me: u32) {
        let node = self.node(me);
        self.lock_node(me);
        // Lock our predecessor, re-validating `prev` after each attempt:
        // the predecessor may splice itself out while we chase it.
        let mut prev;
        let mut b = Backoff::with_policy(self.backoff);
        loop {
            prev = node.prev.load(SeqCst);
            if prev == NIL {
                break;
            }
            if self.try_lock_node(prev) {
                if node.prev.load(SeqCst) == prev {
                    break; // stable: prev cannot splice while we hold its lock
                }
                self.unlock_node(prev);
            }
            b.relax();
        }
        let mut next = node.next.load(SeqCst);
        if next == NIL {
            // Possibly the tail: try to detach. Clear the predecessor's
            // next *before* the CAS so a post-CAS enqueuer's link to the
            // predecessor is never overwritten.
            if prev != NIL {
                self.node(prev).next.store(NIL, SeqCst);
            }
            if self.tail.compare_exchange(me, prev, SeqCst, SeqCst).is_ok() {
                if prev != NIL {
                    self.unlock_node(prev);
                }
                self.unlock_node(me);
                return;
            }
            // Someone is enqueuing behind us; wait for the link, then
            // splice below (restoring the predecessor's next).
            spin_until(self.backoff, || node.next.load(SeqCst) != NIL);
            next = node.next.load(SeqCst);
        }
        let nnode = self.node(next);
        nnode.prev.store(prev, SeqCst);
        if prev == NIL {
            // We were the queue head: hand the lock over to our successor
            // (a writer gains exclusivity; a reader group gains the lock
            // and propagates).
            self.unlock_node(me);
            nnode.spin.store(false, SeqCst);
        } else {
            self.node(prev).next.store(next, SeqCst);
            self.unlock_node(prev);
            self.unlock_node(me);
        }
    }

    fn writer_lock(&self, me: u32) {
        let node = self.node(me);
        node.kind.store(KIND_WRITER, SeqCst);
        node.next.store(NIL, SeqCst);
        node.prev.store(NIL, SeqCst);
        node.spin.store(true, SeqCst);
        let pred = self.tail.swap(me, SeqCst);
        if pred == NIL {
            node.spin.store(false, SeqCst);
            return;
        }
        node.prev.store(pred, SeqCst);
        self.node(pred).next.store(me, SeqCst);
        spin_until(self.backoff, || !node.spin.load(SeqCst));
    }

    fn writer_unlock(&self, me: u32) {
        let node = self.node(me);
        // A writer is always the queue head while it holds the lock, and
        // waiting threads never splice, so no node locks are needed here —
        // this is exactly the MCS mutex release plus the prev reset.
        let mut next = node.next.load(SeqCst);
        if next == NIL {
            if self.tail.compare_exchange(me, NIL, SeqCst, SeqCst).is_ok() {
                return;
            }
            spin_until(self.backoff, || node.next.load(SeqCst) != NIL);
            next = node.next.load(SeqCst);
        }
        let nnode = self.node(next);
        nnode.prev.store(NIL, SeqCst);
        nnode.spin.store(false, SeqCst);
    }
}

impl RwLockFamily for KsuhLock {
    type Handle<'a> = KsuhHandle<'a>;

    fn handle(&self) -> Result<KsuhHandle<'_>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(KsuhHandle { lock: self, slot })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        "KSUH"
    }
}

/// Per-thread handle for [`KsuhLock`].
pub struct KsuhHandle<'a> {
    lock: &'a KsuhLock,
    slot: SlotGuard<'a>,
}

impl RwHandle for KsuhHandle<'_> {
    fn lock_read(&mut self) {
        self.lock.reader_lock(self.slot.slot() as u32);
    }

    fn unlock_read(&mut self) {
        self.lock.reader_unlock(self.slot.slot() as u32);
    }

    fn lock_write(&mut self) {
        self.lock.writer_lock(self.slot.slot() as u32);
    }

    fn unlock_write(&mut self) {
        self.lock.writer_unlock(self.slot.slot() as u32);
    }

    /// Conservative: only succeeds on an empty queue.
    fn try_lock_read(&mut self) -> bool {
        let lock = self.lock;
        let me = self.slot.slot() as u32;
        if lock.tail.load(SeqCst) != NIL {
            return false;
        }
        let node = lock.node(me);
        node.kind.store(KIND_READER, SeqCst);
        node.next.store(NIL, SeqCst);
        node.prev.store(NIL, SeqCst);
        node.spin.store(false, SeqCst);
        lock.tail.compare_exchange(NIL, me, SeqCst, SeqCst).is_ok()
    }

    fn try_lock_write(&mut self) -> bool {
        let lock = self.lock;
        let me = self.slot.slot() as u32;
        if lock.tail.load(SeqCst) != NIL {
            return false;
        }
        let node = lock.node(me);
        node.kind.store(KIND_WRITER, SeqCst);
        node.next.store(NIL, SeqCst);
        node.prev.store(NIL, SeqCst);
        node.spin.store(false, SeqCst);
        lock.tail.compare_exchange(NIL, me, SeqCst, SeqCst).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering as O};
    use std::sync::Arc;

    #[test]
    fn uncontended_round_trip() {
        let lock = KsuhLock::new(2);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
        assert_eq!(lock.tail.load(SeqCst), NIL);
    }

    #[test]
    fn readers_share_and_splice_in_any_order() {
        let lock = KsuhLock::new(3);
        let mut r1 = lock.handle().unwrap();
        let mut r2 = lock.handle().unwrap();
        let mut r3 = lock.handle().unwrap();
        r1.lock_read();
        r2.lock_read();
        r3.lock_read();
        // Middle first, then head, then tail.
        r2.unlock_read();
        r1.unlock_read();
        r3.unlock_read();
        assert_eq!(lock.tail.load(SeqCst), NIL);
    }

    #[test]
    fn writer_waits_for_all_readers() {
        let lock = Arc::new(KsuhLock::new(4));
        let mut r1 = lock.handle().unwrap();
        let mut r2 = lock.handle().unwrap();
        r1.lock_read();
        r2.lock_read();
        let l2 = Arc::clone(&lock);
        let entered = Arc::new(AtomicI64::new(0));
        let e2 = Arc::clone(&entered);
        let t = std::thread::spawn(move || {
            let mut w = l2.handle().unwrap();
            w.lock_write();
            e2.store(1, O::SeqCst);
            w.unlock_write();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(entered.load(O::SeqCst), 0);
        r1.unlock_read(); // head leaves; r2 still active
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(entered.load(O::SeqCst), 0, "one reader still inside");
        r2.unlock_read(); // last reader hands over
        t.join().unwrap();
        assert_eq!(entered.load(O::SeqCst), 1);
    }

    #[test]
    fn try_paths_on_empty_queue_only() {
        let lock = KsuhLock::new(3);
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        assert!(a.try_lock_read());
        // Queue non-empty (the reader node), so conservative try fails.
        assert!(!b.try_lock_write());
        a.unlock_read();
        assert!(b.try_lock_write());
        b.unlock_write();
    }

    #[test]
    fn exclusion_stress() {
        const THREADS: usize = 6;
        let lock = Arc::new(KsuhLock::new(THREADS));
        let state = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(55, tid);
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
        assert_eq!(lock.tail.load(SeqCst), NIL);
    }

    #[test]
    fn read_heavy_stress() {
        const THREADS: usize = 8;
        let lock = Arc::new(KsuhLock::new(THREADS));
        let state = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(123, tid);
                for _ in 0..1_000 {
                    if rng.percent(95) {
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
        assert_eq!(lock.tail.load(SeqCst), NIL);
    }
}
