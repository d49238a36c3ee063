//! The **GOLL** lock (§3.2 of the paper): the general OLL reader-writer
//! lock, modeled on the Solaris kernel lock with the central lockword
//! replaced by a C-SNZI.
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
//! Conflicting requests queue on a mutex-protected wait queue (the
//! turnstile role), and releases *hand over* ownership: a woken thread
//! already owns the lock.

use crate::raw::{RwHandle, RwLockFamily, TimedOut, UpgradableHandle};
use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, LeafCursor, Ticket, TreeShape};
use oll_hazard::Hazard;
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::backoff::{Deadline, Never};
use oll_util::event::WaitStrategy;
use oll_util::fault;
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::turnstile::{Handoff, Turnstile, NIL};

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
        let hazard = Hazard::new();
        hazard.attach_telemetry(&telemetry);
        GollLock {
            csnzi,
            turnstile: Turnstile::new(capacity, self.strategy),
            slots: SlotRegistry::new(capacity),
            arrival_threshold: self.arrival_threshold,
            telemetry,
            hazard,
        }
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
pub struct GollLock {
    csnzi: CSnzi,
    /// The wait queue (the turnstile role) and the cells the handles wait
    /// on: the handle on slot `i` queues for writing on cell `i`.
    turnstile: Turnstile,
    slots: SlotRegistry,
    arrival_threshold: u32,
    telemetry: Telemetry,
    hazard: Hazard,
}

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
        self.csnzi.root_snapshot()
    }

    /// Whether the C-SNZI has allocated its tree: some reader arrival has
    /// gone to it (racy; for diagnostics and tests).
    pub fn is_inflated(&self) -> bool {
        self.csnzi.is_tree_allocated()
    }

    /// Delivers a hand-off; called once the queue mutex is dropped.
    #[inline]
    fn signal(&self, handoff: Handoff) {
        // The cell index doubles as the trace causality token: it is the
        // one value both the granting and the woken thread share, so
        // `granted` here joins the grantee's `enqueued`.
        self.turnstile.grant(handoff, |cell| {
            self.telemetry.trace_granted(u64::from(cell))
        });
    }

    /// The caller owns the lock in the write-acquired state (the C-SNZI is
    /// *owned*) — a releasing writer, or the last departer of a closed
    /// C-SNZI — and hands it on: a writer to every waiting reader, a
    /// reader to the first waiting writer (§5.1).
    #[inline]
    fn release_owned(&self, from_reader: bool) {
        let mut q = self.turnstile.lock();
        let handoff = if from_reader {
            q.dequeue_for_reader_release()
        } else {
            q.dequeue_for_writer_release()
        };
        match handoff {
            // Nobody waits. After a reader that is possible too: the
            // writer that closed the C-SNZI has since cancelled its timed
            // acquisition.
            Handoff::None => self.csnzi.open(),
            // Owned is exactly the write-acquired state; nothing to
            // change.
            Handoff::Writer(_) => self.telemetry.incr(LockEvent::HandoffToWriter),
            Handoff::Readers {
                total,
                writers_remain,
                ..
            } => {
                self.telemetry.incr(LockEvent::HandoffToReaders);
                // Reopen directly into the read-acquired state, staying
                // closed iff writers remain. (After a reader: the writer
                // that closed the C-SNZI cancelled and only readers
                // remain.)
                self.csnzi.open_with_arrivals(total, writers_remain);
            }
        }
        drop(q);
        self.signal(handoff);
    }
}

impl RwLockFamily for GollLock {
    type Handle<'a> = GollHandle<'a>;

    fn handle(&self) -> Result<GollHandle<'_>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(GollHandle {
            lock: self,
            slot,
            waiting_on: NIL,
            policy: ArrivalPolicy::new(self.arrival_threshold),
            cursor: LeafCursor::new(),
            read_ticket: None,
            write_held: false,
            hold: Timer::inactive(),
        })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        "GOLL"
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn hazard(&self) -> Hazard {
        self.hazard.clone()
    }
}

/// Per-thread handle for [`GollLock`] (the paper's `Local` record plus the
/// thread's arrival policy).
pub struct GollHandle<'a> {
    lock: &'a GollLock,
    /// Capacity reservation, and the index of this handle's writer cell
    /// (the leaf cursor, not the slot index, drives C-SNZI placement).
    slot: SlotGuard<'a>,
    /// The cell this handle is queued on — its writer cell, or the cell of
    /// the readers group it joined — from the enqueue until the grant is
    /// taken or the wait is cancelled; else [`NIL`].
    waiting_on: u32,
    policy: ArrivalPolicy,
    /// Cached C-SNZI leaf: topology-placed on first tree arrival, then
    /// sticky until a leaf-level CAS failure migrates it.
    cursor: LeafCursor,
    read_ticket: Option<Ticket>,
    write_held: bool,
    /// Started when an acquisition succeeds, recorded as hold time at
    /// release. One outstanding acquisition per handle, so one timer.
    hold: Timer,
}

impl GollHandle<'_> {
    /// The read fast path: one C-SNZI arrival. `false`: the C-SNZI is
    /// closed — and if taking the failed arrival back made this thread the
    /// last departer, the lock has been handed on before returning, so the
    /// caller carries on as after any failed arrival.
    #[inline]
    fn arrive(&mut self) -> bool {
        let lock = self.lock;
        let ticket = lock.csnzi.arrive_cached(&mut self.policy, &mut self.cursor);
        match ticket.failure() {
            None => {
                // Root-word arrivals hit the shared line, tree arrivals a
                // distributed one.
                lock.telemetry.incr(if ticket.is_root() {
                    LockEvent::ArriveDirect
                } else {
                    LockEvent::ArriveTree
                });
                lock.telemetry.incr(LockEvent::ReadFast);
                self.hold = lock.telemetry.timer();
                self.read_ticket = Some(ticket);
                true
            }
            Some(CancelOutcome::Undone) => false,
            Some(CancelOutcome::MustHandOff) => {
                lock.release_owned(true);
                false
            }
        }
    }

    /// The read acquisition, blocking and timed alike. A deadline adds a
    /// free give-up point before the queue mutex (nothing is held yet) and
    /// a cancellation after a wait that outlasts it, arbitrated by the
    /// queue mutex against the releaser's hand-off.
    fn acquire_read<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.read_ticket.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        let lock = self.lock;
        let acquire = lock.telemetry.begin_read();
        loop {
            // Fast path: in the absence of conflicting requests this is the
            // only step, and it never touches the queue mutex.
            if self.arrive() {
                lock.telemetry.record_read_acquire(&acquire);
                return Ok(());
            }
            // C-SNZI closed: a writer owns or has claimed the lock.
            if deadline.expired() {
                lock.telemetry.incr(LockEvent::Timeout);
                return Err(TimedOut);
            }
            fault::inject("goll.read.before-queue-mutex");
            let mut q = lock.turnstile.lock();
            if lock.csnzi.query().open {
                // The writer released before we got the mutex; retry.
                drop(q);
                continue;
            }
            let group = q.join_readers(self.slot.slot());
            self.waiting_on = group;
            lock.telemetry.incr(LockEvent::ReadSlow);
            lock.telemetry.trace_enqueued(u64::from(group));
            drop(q);
            fault::inject("goll.read.queued");
            // The releasing thread pre-arrives at the root on our behalf
            // (OpenWithArrivals), so we depart directly from the root.
            if lock.turnstile.wait_until(group, deadline) {
                lock.telemetry.record_read_acquire(&acquire);
                self.take_grant();
                return Ok(());
            }
            fault::inject("goll.read.timeout");
            self.cancel_wait();
            lock.telemetry.incr(LockEvent::Timeout);
            return Err(TimedOut);
        }
    }

    /// The wait on `waiting_on` is over and this handle owns what it waited
    /// for: the write hold, or a read hold a releaser pre-arrived for.
    fn take_grant(&mut self) {
        let lock = self.lock;
        let cell = std::mem::replace(&mut self.waiting_on, NIL);
        self.hold = lock.telemetry.timer();
        if lock.turnstile.is_group(cell) {
            lock.turnstile.acknowledge(cell);
            self.read_ticket = Some(Ticket::ROOT);
        } else {
            self.write_held = true;
        }
    }

    /// Gives up the wait on `waiting_on`: its deadline passed, or the
    /// waiter is unwinding. Race: a releaser may concurrently dequeue the
    /// cell (and, for a reader, pre-arrive on its behalf). The queue mutex
    /// is the arbiter — a cell still queued is excised and nothing is held;
    /// a dequeued one means the hand-off already counted this waiter, which
    /// must take the hold and then undo it with a normal release.
    fn cancel_wait(&mut self) {
        let lock = self.lock;
        let cell = self.waiting_on;
        let excised = lock.turnstile.lock().excise(cell);
        if excised {
            self.waiting_on = NIL;
            lock.telemetry.incr(LockEvent::Cancel);
            return;
        }
        // Yield-only: the unwind of a panic here would re-enter this
        // function from `drop`, and a second panic aborts.
        fault::inject_yield_only(if lock.turnstile.is_group(cell) {
            "goll.read.cancel-vs-handoff"
        } else {
            "goll.write.cancel-vs-handoff"
        });
        lock.turnstile.wait_until(cell, Never);
        self.take_grant();
        if self.write_held {
            self.unlock_write();
        } else {
            self.unlock_read();
        }
    }

    /// A wait that an unwind interrupted (a panic injected at
    /// `goll.*.queued`) is still pending when the handle is next used, or
    /// dropped: the cell must not stay linked under a handle that no
    /// longer waits on it, let alone under the slot's next claimant.
    #[inline]
    fn settle_interrupted_wait(&mut self) {
        if self.waiting_on != NIL {
            self.cancel_wait();
        }
    }

    /// The write acquisition, blocking and timed alike; a deadline adds the
    /// same two things as in [`acquire_read`](Self::acquire_read).
    fn acquire_write<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.read_ticket.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        let lock = self.lock;
        let acquire = lock.telemetry.begin_write();
        // Fast path: free lock.
        if lock.csnzi.close_if_empty() {
            lock.telemetry.incr(LockEvent::WriteFast);
            lock.telemetry.record_write_acquire(&acquire);
            self.hold = lock.telemetry.timer();
            self.write_held = true;
            return Ok(());
        }
        fault::inject("goll.write.before-queue-mutex");
        let mut q = lock.turnstile.lock();
        // Close (sets the "write wanted" state): if it returns true the
        // lock was free after all and we own it.
        if lock.csnzi.close() {
            lock.telemetry.incr(LockEvent::WriteSlow);
            drop(q);
            lock.telemetry.record_write_acquire(&acquire);
            self.hold = lock.telemetry.timer();
            self.write_held = true;
            return Ok(());
        }
        // Expired before enqueueing: leave without a queue entry. Our
        // `close` may have moved the C-SNZI to closed-with-readers with no
        // writer queued; the last departing reader handles that (its
        // dequeue finds nothing and reopens).
        if deadline.expired() {
            drop(q);
            lock.telemetry.incr(LockEvent::Timeout);
            return Err(TimedOut);
        }
        let cell = q.enqueue_writer(self.slot.slot());
        self.waiting_on = cell;
        lock.telemetry.incr(LockEvent::WriteSlow);
        lock.telemetry.trace_enqueued(u64::from(cell));
        drop(q);
        fault::inject("goll.write.queued");
        // Whoever releases the lock hands it to us in the write-acquired
        // state before signaling.
        if lock.turnstile.wait_until(cell, deadline) {
            lock.telemetry.record_write_acquire(&acquire);
            self.take_grant();
            return Ok(());
        }
        fault::inject("goll.write.timeout");
        self.cancel_wait();
        lock.telemetry.incr(LockEvent::Timeout);
        Err(TimedOut)
    }
}

impl RwHandle for GollHandle<'_> {
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
        let ticket = self
            .read_ticket
            .take()
            .expect("unlock_read without read hold");
        self.lock.telemetry.record_read_hold(&self.hold);
        if self.lock.csnzi.depart(ticket) {
            return;
        }
        // We are the last departer of a *closed* C-SNZI: the lock is now in
        // the write-acquired state and we must hand it to a waiter.
        fault::inject("goll.unlock_read.before-handoff");
        self.lock.release_owned(true);
    }

    fn lock_write(&mut self) {
        let granted = self.acquire_write(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    fn unlock_write(&mut self) {
        debug_assert!(self.write_held, "unlock_write without write hold");
        self.write_held = false;
        self.lock.telemetry.record_write_hold(&self.hold);
        self.lock.release_owned(false);
    }

    fn try_lock_read(&mut self) -> bool {
        debug_assert!(self.read_ticket.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        self.arrive()
    }

    fn try_lock_write(&mut self) -> bool {
        debug_assert!(self.read_ticket.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        if self.lock.csnzi.close_if_empty() {
            self.lock.telemetry.incr(LockEvent::WriteFast);
            self.hold = self.lock.telemetry.timer();
            self.write_held = true;
            true
        } else {
            false
        }
    }
}

#[cfg(not(loom))]
impl crate::raw::TimedHandle for GollHandle<'_> {
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_read(deadline)
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_write(deadline)
    }
}

impl UpgradableHandle for GollHandle<'_> {
    fn try_upgrade(&mut self) -> bool {
        let ticket = self
            .read_ticket
            .take()
            .expect("try_upgrade without read hold");
        // §3.2.1: trade our arrival for a direct arrival at the root, then
        // we are the sole holder iff the root shows exactly (direct = 1,
        // tree = 0). The upgrade commits by CASing that word (open flavor)
        // to owned-empty, consuming our arrival.
        let ticket = self.lock.csnzi.trade_to_direct(ticket);
        if self.lock.csnzi.try_upgrade_sole_direct() {
            self.lock.telemetry.incr(LockEvent::Upgrade);
            self.lock.telemetry.record_read_hold(&self.hold);
            self.hold = self.lock.telemetry.timer();
            self.write_held = true;
            true
        } else {
            // Keep holding for reading (with the traded root ticket).
            self.lock.telemetry.incr(LockEvent::UpgradeFail);
            self.read_ticket = Some(ticket);
            false
        }
    }

    fn downgrade(&mut self) {
        debug_assert!(self.write_held, "downgrade without write hold");
        self.write_held = false;
        self.lock.telemetry.incr(LockEvent::Downgrade);
        self.lock.telemetry.record_write_hold(&self.hold);
        // Atomically become a reader, bringing any waiting readers along
        // (they would otherwise sit behind us even though the lock is now
        // read-held).
        let mut q = self.lock.turnstile.lock();
        let handoff = q.dequeue_for_downgrade();
        match &handoff {
            Handoff::Readers { total, .. } => {
                self.lock.telemetry.incr(LockEvent::HandoffToReaders);
                let close = !q.is_empty();
                self.lock.csnzi.open_with_arrivals(total + 1, close);
            }
            Handoff::None => {
                let close = !q.is_empty();
                self.lock.csnzi.open_with_arrivals(1, close);
            }
            Handoff::Writer(_) => unreachable!("downgrade never dequeues writers"),
        }
        drop(q);
        self.lock.signal(handoff);
        self.hold = self.lock.telemetry.timer();
        self.read_ticket = Some(Ticket::ROOT);
    }
}

impl Drop for GollHandle<'_> {
    fn drop(&mut self) {
        debug_assert!(
            self.read_ticket.is_none() && !self.write_held,
            "GOLL handle dropped while holding the lock"
        );
        self.settle_interrupted_wait();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
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
