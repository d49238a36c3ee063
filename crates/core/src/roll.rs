//! The **ROLL** lock (§4.3 of the paper): the reader-preference OLL lock.
//!
//! ROLL is the [`QueueLock`] of [`foll`](crate::foll) under a different
//! ordering policy. It relaxes FOLL's strict FIFO ordering: a reader that
//! finds a *still waiting* group of readers in the queue joins that group —
//! overtaking any writers queued behind it — instead of enqueuing at the
//! tail. Two mechanisms make this work, and they are the policy's two
//! hooks:
//!
//! 1. The queue is doubly linked (`prev` pointers, set by each enqueuer),
//!    so a reader arriving at a writer tail can search backward for a
//!    reader node still in the `WAITING` hand-off state
//!    (`OrderPolicy::overtake`).
//! 2. A writer that enqueues behind a reader node does **not** close its
//!    C-SNZI immediately (as FOLL does); it waits until that group becomes
//!    *active* first (`OrderPolicy::WAIT_FOR_ACTIVE`). While the group is
//!    waiting, its C-SNZI stays open and late readers can keep joining.
//!
//! The lock also caches a pointer to "the last known reader node with
//! threads still busy-waiting" ([`LastReaderHint`]), updated on joins and
//! enqueues and cleared on failed joins, which short-circuits most
//! searches (the §4.3 optimization).

use crate::foll::node_state::WAITING;
use crate::foll::{
    read_sites, NodeRef, OrderPolicy, QueueBuilder, QueueHandle, QueueLock, ReadSites,
};
use oll_csnzi::Ticket;
use oll_util::sync::{AtomicU32, Ordering};
use oll_util::CachePadded;

/// The reader-preference ordering policy (§4.3): a reader that meets a
/// writer tail first tries to join a reader group still waiting further up
/// the queue, and a writer lets its reader predecessor become active
/// before closing it.
#[derive(Debug, Clone, Copy)]
pub struct ReaderPreference;

/// Builder for [`RollLock`].
pub type RollBuilder = QueueBuilder<ReaderPreference>;

/// The reader-preference OLL lock (§4.3).
///
/// ```
/// use oll_core::{RollLock, RwHandle, RwLockFamily};
///
/// let lock = RollLock::new(8);
/// let mut me = lock.handle().unwrap();
/// assert!(me.try_read().is_some());
/// ```
pub type RollLock = QueueLock<ReaderPreference>;

/// Per-thread handle for [`RollLock`].
pub type RollHandle<'a> = QueueHandle<'a, ReaderPreference>;

/// ROLL's lock-wide state: a cached reference to the last known
/// still-waiting reader node (§4.3's search optimization).
pub struct LastReaderHint {
    node: CachePadded<AtomicU32>,
}

impl LastReaderHint {
    fn set(&self, node: NodeRef) {
        self.node.store(node.raw(), Ordering::Release);
    }

    fn clear(&self, node: NodeRef) {
        // Only clear our own stale value; someone may have published a
        // fresher hint.
        let _ = self.node.compare_exchange(
            node.raw(),
            NodeRef::NIL.raw(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    fn load(&self) -> NodeRef {
        NodeRef::from_raw(self.node.load(Ordering::Acquire))
    }
}

impl OrderPolicy for ReaderPreference {
    type State = LastReaderHint;
    const NAME: &'static str = "ROLL";
    const SITES: ReadSites = read_sites!("roll");
    /// Do not close a waiting reader group's C-SNZI — that group must stay
    /// joinable until it holds the lock.
    const WAIT_FOR_ACTIVE: bool = true;

    fn new_state() -> LastReaderHint {
        LastReaderHint {
            node: CachePadded::new(AtomicU32::new(NodeRef::NIL.raw())),
        }
    }

    /// Tries to join a still-waiting reader node (hint first, then a
    /// backward traversal from `tail`). On success the caller holds an
    /// arrival on that node and needs only to wait out its spin flag.
    fn overtake(handle: &mut QueueHandle<'_, Self>, tail: NodeRef) -> Option<(usize, Ticket)> {
        let lock = handle.lock;
        let core = &lock.core;

        // 1. Hint path: one load instead of a queue traversal.
        let hint = lock.order.load();
        if hint.is_reader() {
            if core.rnode(hint.index()).state.load(Ordering::Acquire) == WAITING {
                if let Some(ticket) = handle.arrive_at(hint.index()) {
                    return Some((hint.index(), ticket));
                }
            }
            lock.order.clear(hint);
        }

        // 2. Backward search from the tail. `prev` links are best-effort
        // (an enqueuer publishes its node before its prev link, and
        // recycled nodes leave stale values), but that is safe: joining is
        // validated by the arrival itself — `Arrive` only succeeds on an
        // open C-SNZI, and open C-SNZIs belong to enqueued reader nodes
        // (an arrival that lands anywhere else takes itself back, and
        // `arrive_at` settles what that may owe).
        let mut cur = tail;
        let mut steps = 0usize;
        let cap = core.slots.capacity() * 2;
        while !cur.is_nil() && steps < cap {
            if cur.is_reader() {
                if core.rnode(cur.index()).state.load(Ordering::Acquire) == WAITING {
                    if let Some(ticket) = handle.arrive_at(cur.index()) {
                        lock.order.set(cur);
                        return Some((cur.index(), ticket));
                    }
                }
                // Waiting group not joinable (already closed) or group is
                // active: per §4.3, fall back to enqueuing a fresh node.
                return None;
            }
            let prev = core.wnode(cur.index()).prev.load(Ordering::Acquire);
            cur = NodeRef::from_raw(prev);
            steps += 1;
        }
        None
    }

    fn enqueued_behind_writer(lock: &QueueLock<Self>, node: NodeRef) {
        lock.order.set(node);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::raw::{RwHandle, RwLockFamily, TimedHandle};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering as O};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// How a scenario's threads acquire: through the blocking calls, or
    /// through the timed ones with a deadline far enough away (a hang
    /// detector, not a speed claim) that it never fires.
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Blocking,
        FarDeadline,
    }

    impl Mode {
        fn lock_read(self, h: &mut RollHandle<'_>) {
            match self {
                Mode::Blocking => h.lock_read(),
                Mode::FarDeadline => h
                    .lock_read_deadline(Instant::now() + Duration::from_secs(20))
                    .expect("far deadline fired"),
            }
        }

        fn lock_write(self, h: &mut RollHandle<'_>) {
            match self {
                Mode::Blocking => h.lock_write(),
                Mode::FarDeadline => h
                    .lock_write_deadline(Instant::now() + Duration::from_secs(20))
                    .expect("far deadline fired"),
            }
        }
    }

    #[test]
    fn uncontended_read_write() {
        let lock = RollLock::new(4);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
        assert!(lock.is_queue_empty());
    }

    #[test]
    fn readers_share_a_node() {
        let lock = RollLock::new(4);
        let mut h1 = lock.handle().unwrap();
        let mut h2 = lock.handle().unwrap();
        h1.lock_read();
        h2.lock_read();
        h2.unlock_read();
        h1.unlock_read();
        let mut w = lock.handle().unwrap();
        w.lock_write();
        w.unlock_write();
        assert!(lock.is_queue_empty());
    }

    #[test]
    fn try_paths_match_foll_semantics() {
        let lock = RollLock::new(3);
        let mut r = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        assert!(r.try_lock_read());
        assert!(!w.try_lock_write());
        r.unlock_read();
        let mut r2 = lock.handle().unwrap();
        assert!(r2.try_lock_read()); // joins the still-queued active node
        r2.unlock_read();
    }

    #[test]
    fn reader_overtakes_waiting_writer() {
        for mode in [Mode::Blocking, Mode::FarDeadline] {
            reader_overtakes_waiting_writer_in(mode);
        }
    }

    fn reader_overtakes_waiting_writer_in(mode: Mode) {
        // Construct the scenario of §4.3 deterministically:
        //  1. R1 read-locks (reader node N1 at head, active).
        //  2. W enqueues behind N1 and waits for the lock.
        //  3. R2 arrives; tail is W's node; R2 enqueues node N2 (waiting).
        //  4. R3 arrives; tail is still W; R3 must *join N2*, overtaking W.
        //  5. R1 releases: W gets the lock (N1 closed after activity),
        //     then W releases to N2's two readers.
        let lock = Arc::new(RollLock::new(8));
        let writer_in = Arc::new(AtomicBool::new(false));
        let writer_out = Arc::new(AtomicBool::new(false));
        let readers_in = Arc::new(AtomicI64::new(0));

        let mut r1 = lock.handle().unwrap();
        mode.lock_read(&mut r1);

        // Writer thread parks in the queue.
        let wl = Arc::clone(&lock);
        let wi = Arc::clone(&writer_in);
        let wo = Arc::clone(&writer_out);
        let writer = std::thread::spawn(move || {
            let mut h = wl.handle().unwrap();
            wi.store(true, O::SeqCst);
            mode.lock_write(&mut h);
            h.unlock_write();
            wo.store(true, O::SeqCst);
        });
        while !writer_in.load(O::SeqCst) {
            std::thread::yield_now();
        }
        // Give the writer time to actually enqueue behind N1.
        while lock.core.load_tail().is_reader() {
            std::thread::yield_now();
        }

        // R2 and R3: both should end up waiting on one shared node.
        let mut overtakers = Vec::new();
        for _ in 0..2 {
            let rl = Arc::clone(&lock);
            let ri = Arc::clone(&readers_in);
            overtakers.push(std::thread::spawn(move || {
                let mut h = rl.handle().unwrap();
                mode.lock_read(&mut h);
                ri.fetch_add(1, O::SeqCst);
                while ri.load(O::SeqCst) < 2 {
                    std::thread::yield_now(); // both inside together
                }
                h.unlock_read();
            }));
        }

        // Writer must still be queued (readers can't have released it).
        assert!(!writer_out.load(O::SeqCst), "{mode:?}");
        r1.unlock_read();

        writer.join().unwrap();
        for t in overtakers {
            t.join().unwrap();
        }
        assert_eq!(readers_in.load(O::SeqCst), 2, "{mode:?}");
    }

    #[test]
    fn mixed_stress_exclusion() {
        const THREADS: usize = 6;
        const ITERS: usize = 1_500;
        let lock = Arc::new(RollLock::new(THREADS));
        let state = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(99, tid);
                for _ in 0..ITERS {
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
    }
}
