//! The **GOLL** lock (§3.2 of the paper): the general OLL reader-writer
//! lock, the Solaris kernel lock of §3.1 with the central lockword
//! replaced by a C-SNZI. So it is the [turnstile lock](crate::turnstile_lock)
//! over a [`CSnzi`], and this file holds what the C-SNZI does at each of
//! that lock's steps, plus what needs the C-SNZI's direct count: upgrade
//! and downgrade (§3.2.1).
//!
//! State encoding (the C-SNZI *is* the lockword):
//!
//! | C-SNZI state            | lock state                          |
//! |-------------------------|-------------------------------------|
//! | open, surplus = 0       | free                                |
//! | owned                   | write-acquired, or being handed off |
//! | open, surplus > 0       | read-acquired                       |
//! | draining (closed, > 0)  | read-acquired, writer(s) waiting    |
//! | drained (closed, = 0)   | last reader left, hand-off unclaimed|
//!
//! (The `oll_csnzi::root` module docs define the states; a failed
//! arrival's transient surplus can sit on any closed word.)
//!
//! Readers acquire with `Arrive` and release with `Depart`; writers
//! acquire with `CloseIfEmpty`/`Close` and release with `Open`/
//! `OpenWithArrivals`. Whoever's decrement drains a closed C-SNZI and
//! wins the claim — a departing reader, or a reader whose arrival landed
//! on the closed word and was taken back — owns the lock and releases it.
//! Conflicting requests queue on the turnstile, and releases *hand over*
//! ownership: a woken thread already owns the lock.

use crate::raw::UpgradableHandle;
use crate::turnstile_lock::{Attempt, FaultSites, Lockword, TurnstileHandle, TurnstileLock};
use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, LeafCursor, Ticket, TreeShape};
use oll_telemetry::{LockEvent, Telemetry};
use oll_util::event::WaitStrategy;
use oll_util::turnstile::{Handoff, LockedQueue};

/// Builder for [`GollLock`].
#[derive(Debug, Clone)]
pub struct GollBuilder {
    capacity: usize,
    shape: Option<TreeShape>,
    strategy: WaitStrategy,
    arrival_threshold: u32,
    #[cfg(not(loom))]
    biased: bool,
    telemetry_name: Option<String>,
}

impl GollBuilder {
    /// Starts a builder for a lock used by at most `capacity` concurrent
    /// threads.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            shape: None,
            strategy: WaitStrategy::SpinThenYield,
            arrival_threshold: ArrivalPolicy::DEFAULT_THRESHOLD,
            #[cfg(not(loom))]
            biased: false,
            telemetry_name: None,
        }
    }

    /// Enables BRAVO-style reader biasing for
    /// [`build_biased`](Self::build_biased): biased reads bypass the lock
    /// through the process-global visible-readers table (zero shared
    /// RMWs) until a writer revokes the bias.
    #[cfg(not(loom))]
    pub fn biased(mut self, biased: bool) -> Self {
        self.biased = biased;
        self
    }

    /// Builds the lock wrapped in the [`Bravo`](crate::Bravo) biasing
    /// layer. The wrapper passes straight through unless
    /// [`biased(true)`](Self::biased) was set, so one call site serves
    /// both configurations.
    #[cfg(not(loom))]
    pub fn build_biased(self) -> crate::Bravo<GollLock> {
        let biased = self.biased;
        crate::Bravo::wrapping(self.build(), biased)
    }

    /// Names this lock's telemetry instance (default `"GOLL#<seq>"`).
    /// No effect unless built with the `telemetry` feature.
    pub fn telemetry_name(mut self, name: &str) -> Self {
        self.telemetry_name = Some(name.to_string());
        self
    }

    /// Overrides the C-SNZI tree shape (default: one leaf per thread).
    /// The tree is allocated by the first reader arrival that goes to it.
    pub fn tree_shape(mut self, shape: TreeShape) -> Self {
        self.shape = Some(shape);
        self
    }

    /// Sets how waiters burn time (default: spin-then-yield, like the
    /// paper's spin-based condition variables).
    pub fn wait_strategy(mut self, strategy: WaitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the C-SNZI arrival threshold: a root arrival that finds this
    /// many others in flight is a crowded one, and this many crowded ones
    /// in a row move the handle's arrivals to the tree.
    pub fn arrival_threshold(mut self, threshold: u32) -> Self {
        self.arrival_threshold = threshold;
        self
    }

    /// Builds the lock.
    pub fn build(self) -> GollLock {
        let capacity = self.capacity.max(1);
        let shape = self
            .shape
            .unwrap_or_else(|| TreeShape::for_threads(capacity));
        let telemetry = Telemetry::register("GOLL");
        if let Some(name) = &self.telemetry_name {
            telemetry.rename(name);
        }
        let mut csnzi = CSnzi::new(shape);
        csnzi.attach_telemetry(telemetry.clone());
        // Each handle's arrival policy, and the cached C-SNZI leaf it
        // places on its first tree arrival.
        let local = (
            ArrivalPolicy::new(self.arrival_threshold),
            LeafCursor::new(),
        );
        TurnstileLock::from_word(csnzi, local, capacity, self.strategy, telemetry)
    }
}

/// The general OLL reader-writer lock (§3.2).
///
/// ```
/// use oll_core::{GollLock, RwHandle, RwLockFamily, UpgradableHandle};
///
/// let lock = GollLock::new(4);
/// let mut me = lock.handle().unwrap();
///
/// // Check-then-act with an atomic upgrade (§3.2.1):
/// me.lock_read();
/// if me.try_upgrade() {
///     // sole reader: now write-held with no release window
///     me.unlock_write();
/// } else {
///     me.unlock_read();
/// }
/// ```
pub type GollLock = TurnstileLock<CSnzi>;

/// Per-thread handle for [`GollLock`] (the paper's `Local` record plus the
/// thread's arrival policy).
pub type GollHandle<'a> = TurnstileHandle<'a, CSnzi>;

impl GollLock {
    /// Creates a lock for at most `capacity` concurrent threads with the
    /// paper's default configuration.
    pub fn new(capacity: usize) -> Self {
        GollBuilder::new(capacity).build()
    }

    /// Starts a [`GollBuilder`].
    pub fn builder(capacity: usize) -> GollBuilder {
        GollBuilder::new(capacity)
    }

    /// Diagnostic snapshot of the C-SNZI root (racy).
    pub fn csnzi_snapshot(&self) -> oll_csnzi::RootWord {
        self.word.root_snapshot()
    }

    /// Whether the C-SNZI has allocated its tree: some reader arrival has
    /// gone to it (racy; for diagnostics and tests).
    pub fn is_inflated(&self) -> bool {
        self.word.is_tree_allocated()
    }
}

/// The C-SNZI as the lockword: "blocked" is closed, "marked for the
/// releaser" is closed too, and the last departer of a closed C-SNZI owns
/// the lock in the write-acquired state.
impl Lockword for CSnzi {
    const NAME: &'static str = "GOLL";
    const SITES: FaultSites = FaultSites {
        read_before_queue_mutex: "goll.read.before-queue-mutex",
        read_queued: "goll.read.queued",
        read_timeout: "goll.read.timeout",
        read_cancel_vs_handoff: "goll.read.cancel-vs-handoff",
        write_before_queue_mutex: "goll.write.before-queue-mutex",
        write_queued: "goll.write.queued",
        write_timeout: "goll.write.timeout",
        write_cancel_vs_handoff: "goll.write.cancel-vs-handoff",
        unlock_read_before_handoff: "goll.unlock_read.before-handoff",
    };
    type Local = (ArrivalPolicy, LeafCursor);
    type ReadHold = Ticket;
    /// The releaser pre-arrives at the root on each reader's behalf
    /// (`OpenWithArrivals`), so they depart directly from the root.
    const GRANTED_READ: Ticket = Ticket::ROOT;

    /// One C-SNZI arrival.
    #[inline]
    fn try_read(
        &self,
        (policy, cursor): &mut Self::Local,
        telemetry: &Telemetry,
    ) -> Attempt<Ticket> {
        let ticket = self.arrive_cached(policy, cursor);
        match ticket.failure() {
            None => {
                // Root-word arrivals hit the shared line, tree arrivals a
                // distributed one.
                telemetry.incr(if ticket.is_root() {
                    LockEvent::ArriveDirect
                } else {
                    LockEvent::ArriveTree
                });
                Attempt::Acquired(ticket)
            }
            Some(CancelOutcome::Undone) => Attempt::Blocked,
            Some(CancelOutcome::MustHandOff) => Attempt::MustHandOff,
        }
    }

    #[inline]
    fn try_write(&self) -> Attempt {
        if self.close_if_empty() {
            Attempt::Acquired(())
        } else {
            Attempt::Blocked
        }
    }

    #[inline]
    fn reader_under_mutex(&self) -> bool {
        !self.query().open
    }

    /// `Close` sets the "write wanted" state: if it returns true the lock
    /// was free after all and the writer owns it.
    #[inline]
    fn writer_under_mutex(&self) -> Attempt {
        if self.close() {
            Attempt::Acquired(())
        } else {
            Attempt::Blocked
        }
    }

    #[inline]
    fn release_read(&self, ticket: Ticket) -> bool {
        !self.depart(ticket)
    }

    #[inline]
    fn hand_off(&self, handoff: &Handoff, _: &LockedQueue<'_>) {
        match *handoff {
            Handoff::None => self.open(),
            // Owned is exactly the write-acquired state.
            Handoff::Writer(_) => {}
            // Reopen directly into the read-acquired state, staying closed
            // iff writers remain.
            Handoff::Readers {
                total,
                writers_remain,
                ..
            } => self.open_with_arrivals(total, writers_remain),
        }
    }
}

impl UpgradableHandle for GollHandle<'_> {
    fn try_upgrade(&mut self) -> bool {
        let ticket = self
            .read_hold
            .take()
            .expect("try_upgrade without read hold");
        let lock = self.lock;
        // §3.2.1: trade our arrival for a direct arrival at the root, then
        // we are the sole holder iff the root shows exactly (direct = 1,
        // tree = 0). The upgrade commits by CASing that word (open flavor)
        // to owned-empty, consuming our arrival.
        let ticket = lock.word.trade_to_direct(ticket);
        if lock.word.try_upgrade_sole_direct() {
            lock.telemetry.incr(LockEvent::Upgrade);
            lock.telemetry.record_read_hold(&self.hold);
            self.hold = lock.telemetry.timer();
            self.write_held = true;
            true
        } else {
            // Keep holding for reading (with the traded root ticket).
            lock.telemetry.incr(LockEvent::UpgradeFail);
            self.read_hold = Some(ticket);
            false
        }
    }

    fn downgrade(&mut self) {
        debug_assert!(self.write_held, "downgrade without write hold");
        let lock = self.lock;
        self.write_held = false;
        lock.telemetry.incr(LockEvent::Downgrade);
        lock.telemetry.record_write_hold(&self.hold);
        // Atomically become a reader, bringing any waiting readers along
        // (they would otherwise sit behind us even though the lock is now
        // read-held).
        let mut q = lock.turnstile.lock();
        let handoff = q.dequeue_for_downgrade();
        let readers = match handoff {
            Handoff::Readers { total, .. } => {
                lock.telemetry.incr(LockEvent::HandoffToReaders);
                total
            }
            Handoff::None => 0,
            Handoff::Writer(_) => unreachable!("downgrade never dequeues writers"),
        };
        lock.word.open_with_arrivals(readers + 1, !q.is_empty());
        drop(q);
        lock.signal(handoff);
        self.hold = lock.telemetry.timer();
        self.read_hold = Some(Ticket::ROOT);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::raw::{RwHandle, RwLockFamily};
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn uncontended_read_and_write() {
        let lock = GollLock::new(4);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
        // Lock ends free.
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true));
    }

    #[test]
    fn guards_release_on_drop() {
        let lock = GollLock::new(2);
        let mut h = lock.handle().unwrap();
        {
            let _g = h.read();
        }
        {
            let _g = h.write();
        }
        assert!(lock.csnzi_snapshot().open);
    }

    #[test]
    fn multiple_concurrent_readers() {
        let lock = GollLock::new(4);
        let mut h1 = lock.handle().unwrap();
        let mut h2 = lock.handle().unwrap();
        h1.lock_read();
        h2.lock_read();
        assert!(lock.csnzi_snapshot().surplus() >= 1);
        h1.unlock_read();
        h2.unlock_read();
        assert_eq!(lock.csnzi_snapshot().surplus(), 0);
    }

    #[test]
    fn try_write_fails_while_read_held() {
        let lock = GollLock::new(2);
        let mut r = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        r.lock_read();
        assert!(!w.try_lock_write());
        r.unlock_read();
        assert!(w.try_lock_write());
        w.unlock_write();
    }

    #[test]
    fn try_read_fails_while_write_held() {
        let lock = GollLock::new(2);
        let mut w = lock.handle().unwrap();
        let mut r = lock.handle().unwrap();
        w.lock_write();
        assert!(!r.try_lock_read());
        w.unlock_write();
        assert!(r.try_lock_read());
        r.unlock_read();
    }

    #[test]
    fn capacity_enforced() {
        let lock = GollLock::new(1);
        let _h = lock.handle().unwrap();
        assert!(lock.handle().is_err());
    }

    #[test]
    fn upgrade_sole_reader_succeeds() {
        let lock = GollLock::new(2);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(h.try_upgrade());
        // Now write-held: no readers may enter.
        let mut r = lock.handle().unwrap();
        assert!(!r.try_lock_read());
        h.unlock_write();
        assert!(r.try_lock_read());
        r.unlock_read();
    }

    #[test]
    fn upgrade_fails_with_two_readers_and_keeps_read_hold() {
        let lock = GollLock::new(2);
        let mut h1 = lock.handle().unwrap();
        let mut h2 = lock.handle().unwrap();
        h1.lock_read();
        h2.lock_read();
        assert!(!h1.try_upgrade());
        // h1 still holds for reading.
        h2.unlock_read();
        assert!(h1.try_upgrade());
        h1.unlock_write();
    }

    #[test]
    fn downgrade_lets_readers_in() {
        let lock = GollLock::new(2);
        let mut w = lock.handle().unwrap();
        let mut r = lock.handle().unwrap();
        w.lock_write();
        w.downgrade();
        // Now read-held: other readers may join, writers may not.
        assert!(r.try_lock_read());
        r.unlock_read();
        w.unlock_read();
        let snap = lock.csnzi_snapshot();
        assert_eq!((snap.surplus(), snap.open), (0, true));
    }

    #[test]
    fn guard_level_upgrade_round_trip() {
        let lock = GollLock::new(2);
        let mut h = lock.handle().unwrap();
        let g = h.read();
        let Ok(g) = g.try_upgrade() else {
            panic!("sole reader upgrades");
        };
        let _g = g.downgrade();
    }

    #[test]
    fn writers_exclude_each_other() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = StdArc::new(GollLock::new(THREADS));
        let counter = StdArc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = StdArc::clone(&lock);
            let counter = StdArc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                for _ in 0..ITERS {
                    h.lock_write();
                    let v = counter.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(v, 0, "another writer inside the critical section");
                    counter.fetch_sub(1, Ordering::SeqCst);
                    h.unlock_write();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert!(lock.csnzi_snapshot().open);
    }

    #[test]
    fn readers_and_writers_exclude() {
        for strategy in STRATEGIES {
            rw_exclusion_stress_with(strategy);
        }
    }

    const STRATEGIES: [WaitStrategy; 2] = [WaitStrategy::SpinThenYield, WaitStrategy::SpinThenPark];

    fn rw_exclusion_stress_with(strategy: WaitStrategy) {
        const THREADS: usize = 6;
        const ITERS: usize = 1_500;
        let lock = StdArc::new(GollLock::builder(THREADS).wait_strategy(strategy).build());
        // counter > 0: readers inside; counter == -1: a writer inside.
        let state = StdArc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = StdArc::clone(&lock);
            let state = StdArc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(42, tid);
                for _ in 0..ITERS {
                    if rng.percent(70) {
                        h.lock_read();
                        let s = state.fetch_add(1, Ordering::SeqCst);
                        assert!(s >= 0, "reader entered while writer inside");
                        state.fetch_sub(1, Ordering::SeqCst);
                        h.unlock_read();
                    } else {
                        h.lock_write();
                        let s = state.swap(-1, Ordering::SeqCst);
                        assert_eq!(s, 0, "writer entered while lock held");
                        state.store(0, Ordering::SeqCst);
                        h.unlock_write();
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true));
    }

    #[test]
    fn spin_then_park_strategy_works() {
        const THREADS: usize = 4;
        let lock = StdArc::new(
            GollLock::builder(THREADS)
                .wait_strategy(WaitStrategy::SpinThenPark)
                .build(),
        );
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = StdArc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                for _ in 0..500 {
                    h.lock_write();
                    h.unlock_write();
                    h.lock_read();
                    h.unlock_read();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
    }

    /// Sets up: W0 holds for writing; one reader and one writer queue
    /// behind it (in that order); W0 releases. Returns which class entered
    /// first ('R' or 'W').
    fn first_after_writer_release(strategy: WaitStrategy) -> char {
        use std::sync::atomic::AtomicU8;
        use std::time::Duration;

        let lock = StdArc::new(GollLock::builder(4).wait_strategy(strategy).build());
        let mut w0 = lock.handle().unwrap();
        w0.lock_write();

        let first = StdArc::new(AtomicU8::new(0));
        let mut threads = Vec::new();
        {
            let lock = StdArc::clone(&lock);
            let first = StdArc::clone(&first);
            threads.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                h.lock_read();
                let _ = first.compare_exchange(0, b'R', Ordering::SeqCst, Ordering::SeqCst);
                h.unlock_read();
            }));
        }
        std::thread::sleep(Duration::from_millis(30)); // reader enqueues first
        {
            let lock = StdArc::clone(&lock);
            let first = StdArc::clone(&first);
            threads.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                h.lock_write();
                let _ = first.compare_exchange(0, b'W', Ordering::SeqCst, Ordering::SeqCst);
                h.unlock_write();
            }));
        }
        std::thread::sleep(Duration::from_millis(30)); // writer enqueues second
        w0.unlock_write();
        for t in threads {
            t.join().unwrap();
        }
        first.load(Ordering::SeqCst) as char
    }

    #[test]
    fn writer_release_handoff_order_follows_policy() {
        // A releasing writer hands to the waiting readers (§5.1), here
        // also the earlier arrival.
        for strategy in STRATEGIES {
            assert_eq!(first_after_writer_release(strategy), 'R');
        }
    }

    #[test]
    #[should_panic(expected = "unlock_read without read hold")]
    fn unbalanced_unlock_panics() {
        let lock = GollLock::new(1);
        let mut h = lock.handle().unwrap();
        h.unlock_read();
    }
}
