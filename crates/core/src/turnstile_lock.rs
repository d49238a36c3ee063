//! The turnstile lock, once: a lockword plus the [`oll_util::turnstile`]
//! wait queue, on which a releaser *hands over* ownership so that a woken
//! thread already owns the lock.
//!
//! §3.1 of the paper describes the Solaris kernel lock that way, and §3.2
//! defines GOLL as that lock with its lockword replaced by a C-SNZI. So the
//! steps are written here once, in [`TurnstileLock`] and its
//! [`TurnstileHandle`]: the fast path, the give-up point before the queue
//! mutex, the re-check of the word under it, the enqueue, the wait, the
//! grant or the cancellation, and the one hand-off a releasing owner makes.
//! What happens to the word at each step is a [`Lockword`]'s:
//! [`GollLock`](crate::GollLock) is this lock over a C-SNZI (`goll.rs`),
//! and `oll_baselines::SolarisLikeRwLock` is it over the §3.1 word of a
//! reader count and `writeLocked`/`writeWanted`/`hasWaiters` bits.

use crate::raw::{RwHandle, RwLockFamily, TimedOut};
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::backoff::{Backoff, Deadline, Never};
use oll_util::event::WaitStrategy;
use oll_util::fault;
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::turnstile::{Handoff, LockedQueue, Turnstile, NIL};

/// What an attempt on a lockword found.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt<H = ()> {
    /// The caller holds the lock, by `H`.
    Acquired(H),
    /// The caller must queue.
    Blocked,
    /// Blocked, and undoing the attempt made the caller the last departer
    /// of a closed word: it owns the lock and must hand it on.
    MustHandOff,
    /// The word moved under the caller: try again from the fast path.
    Retry,
}

/// A lock's fault-injection sites (`oll_util::fault`), one per window of
/// the skeleton's steps: `<lock>.read.*`, `<lock>.write.*` and
/// `<lock>.unlock_read.before-handoff`. The `cancel-vs-handoff` ones are
/// yield-only.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct FaultSites {
    pub read_before_queue_mutex: &'static str,
    pub read_queued: &'static str,
    pub read_timeout: &'static str,
    pub read_cancel_vs_handoff: &'static str,
    pub write_before_queue_mutex: &'static str,
    pub write_queued: &'static str,
    pub write_timeout: &'static str,
    pub write_cancel_vs_handoff: &'static str,
    pub unlock_read_before_handoff: &'static str,
}

/// A turnstile lock's lockword: what it does at each of the skeleton's
/// steps. The `*_under_mutex` methods run with the queue mutex held.
#[doc(hidden)]
pub trait Lockword: Send + Sync + Sized {
    /// The lock's [`RwLockFamily::name`].
    const NAME: &'static str;
    /// The lock's fault-injection sites.
    const SITES: FaultSites;
    /// A handle's own state for the read fast path.
    type Local: Clone + Send + Sync;
    /// What a read holder keeps until it releases.
    type ReadHold: Copy;
    /// The read hold of a reader that a hand-off counted into the word.
    const GRANTED_READ: Self::ReadHold;

    /// The read fast path.
    fn try_read(&self, local: &mut Self::Local, telemetry: &Telemetry) -> Attempt<Self::ReadHold>;

    /// The write fast path; never `Blocked` on a free word.
    fn try_write(&self) -> Attempt;

    /// After a blocked read fast path: `true` if the reader must still
    /// queue, the word marked so that its owner's release looks in the
    /// queue; `false` to retry.
    fn reader_under_mutex(&self) -> bool;

    /// After a blocked write fast path: acquired, blocked (the word marked
    /// as for a reader), or retry.
    fn writer_under_mutex(&self) -> Attempt;

    /// Releases a read hold; `true` if the caller was the last reader of a
    /// marked word, and so owns the lock and must hand it on.
    fn release_read(&self, hold: Self::ReadHold) -> bool;

    /// Releases a write hold without the queue mutex if nobody can be
    /// waiting; `false` leaves the caller owning the lock, to hand it on.
    #[inline]
    fn release_write_unqueued(&self) -> bool {
        false
    }

    /// With the queue mutex held, the owner moves the word to the state
    /// `handoff` leaves: free if nobody waits, else held by the dequeued
    /// writer or readers, and blocking readers iff writers remain in `q`.
    fn hand_off(&self, handoff: &Handoff, q: &LockedQueue<'_>);
}

/// A lockword `W` plus the turnstile its conflicting requests queue on;
/// see the [module docs](self).
pub struct TurnstileLock<W: Lockword> {
    pub(crate) word: W,
    /// The wait queue and the cells the handles wait on: the handle on
    /// slot `i` queues for writing on cell `i`.
    pub(crate) turnstile: Turnstile,
    slots: SlotRegistry,
    /// The read fast-path state each new handle starts from.
    local: W::Local,
    pub(crate) telemetry: Telemetry,
}

impl<W: Lockword> TurnstileLock<W> {
    /// A lock over `word` for at most `capacity` concurrent threads, whose
    /// handles start from `local`, wait by `strategy` and count into
    /// `telemetry`.
    pub(crate) fn from_word(
        word: W,
        local: W::Local,
        capacity: usize,
        strategy: WaitStrategy,
        telemetry: Telemetry,
    ) -> Self {
        let capacity = capacity.max(1);
        Self {
            word,
            turnstile: Turnstile::new(capacity, strategy),
            slots: SlotRegistry::new(capacity),
            local,
            telemetry,
        }
    }

    /// The lockword (racy; for diagnostics and tests).
    #[doc(hidden)]
    pub fn word(&self) -> &W {
        &self.word
    }

    /// Whether no handle is queued (racy; for diagnostics and tests).
    #[doc(hidden)]
    pub fn is_queue_empty(&self) -> bool {
        self.turnstile.lock().is_empty()
    }

    /// Delivers a hand-off; called once the queue mutex is dropped.
    #[inline]
    pub(crate) fn signal(&self, handoff: Handoff) {
        // The cell index doubles as the trace causality token: it is the
        // one value both the granting and the woken thread share, so
        // `granted` here joins the grantee's `enqueued`.
        self.turnstile.grant(handoff, |cell| {
            self.telemetry.trace_granted(u64::from(cell))
        });
    }

    /// The caller owns the lock — a releasing writer, or the last reader
    /// of a word someone waits on — and hands it on: a writer to every
    /// waiting reader, a reader to the first waiting writer (§5.1). It may
    /// find nobody: the waiter that marked the word has since cancelled.
    /// The word is moved to the next holders' state before the mutex
    /// drops, and they are woken after.
    #[inline]
    fn release_owned(&self, from_reader: bool) {
        let mut q = self.turnstile.lock();
        let handoff = if from_reader {
            q.dequeue_for_reader_release()
        } else {
            q.dequeue_for_writer_release()
        };
        match handoff {
            Handoff::None => {}
            Handoff::Writer(_) => self.telemetry.incr(LockEvent::HandoffToWriter),
            Handoff::Readers { .. } => self.telemetry.incr(LockEvent::HandoffToReaders),
        }
        self.word.hand_off(&handoff, &q);
        drop(q);
        self.signal(handoff);
    }
}

/// A word that needs no configuration, and whose handles keep no state of
/// their own, needs no builder either. (GOLL's C-SNZI has a tree shape and
/// its handles an arrival policy: it builds through `GollBuilder`.)
impl<W: Lockword<Local = ()> + Default> TurnstileLock<W> {
    /// Creates a lock for at most `capacity` concurrent threads with
    /// spin-based waiters (the paper's configuration).
    pub fn new(capacity: usize) -> Self {
        Self::with_strategy(capacity, WaitStrategy::SpinThenYield)
    }

    /// Creates a lock with an explicit waiter strategy.
    pub fn with_strategy(capacity: usize, strategy: WaitStrategy) -> Self {
        let telemetry = Telemetry::register(W::NAME);
        Self::from_word(W::default(), (), capacity, strategy, telemetry)
    }
}

impl<W: Lockword> RwLockFamily for TurnstileLock<W> {
    type Handle<'a>
        = TurnstileHandle<'a, W>
    where
        W: 'a;

    fn handle(&self) -> Result<TurnstileHandle<'_, W>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(TurnstileHandle {
            lock: self,
            slot,
            waiting_on: NIL,
            local: self.local.clone(),
            read_hold: None,
            write_held: false,
            hold: Timer::inactive(),
        })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        W::NAME
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }
}

/// Per-thread handle for a [`TurnstileLock`] (the paper's `Local` record).
pub struct TurnstileHandle<'a, W: Lockword> {
    pub(crate) lock: &'a TurnstileLock<W>,
    /// Capacity reservation, and the index of this handle's writer cell.
    slot: SlotGuard<'a>,
    /// The cell this handle is queued on — its writer cell, or the cell of
    /// the readers group it joined — from the enqueue until the grant is
    /// taken or the wait is cancelled; else [`NIL`].
    waiting_on: u32,
    local: W::Local,
    pub(crate) read_hold: Option<W::ReadHold>,
    pub(crate) write_held: bool,
    /// Started when an acquisition succeeds, recorded as hold time at
    /// release. One outstanding acquisition per handle, so one timer.
    pub(crate) hold: Timer,
}

impl<W: Lockword> TurnstileHandle<'_, W> {
    /// The read fast path. A `MustHandOff` has handed the lock on before
    /// this returns, so the caller carries on as after any blocked one.
    #[inline]
    fn arrive(&mut self) -> Attempt {
        let lock = self.lock;
        match lock.word.try_read(&mut self.local, &lock.telemetry) {
            Attempt::Acquired(hold) => {
                lock.telemetry.incr(LockEvent::ReadFast);
                self.hold = lock.telemetry.timer();
                self.read_hold = Some(hold);
                Attempt::Acquired(())
            }
            Attempt::MustHandOff => {
                lock.release_owned(true);
                Attempt::Blocked
            }
            Attempt::Blocked => Attempt::Blocked,
            Attempt::Retry => Attempt::Retry,
        }
    }

    /// The read acquisition, blocking and timed alike. A deadline adds a
    /// free give-up point before the queue mutex (nothing is held yet) and
    /// a cancellation after a wait that outlasts it, arbitrated by the
    /// queue mutex against the releaser's hand-off.
    fn acquire_read<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.read_hold.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        let lock = self.lock;
        let acquire = lock.telemetry.begin_read();
        let mut backoff = Backoff::new();
        loop {
            // Fast path: in the absence of conflicting requests this is the
            // only step, and it never touches the queue mutex.
            match self.arrive() {
                Attempt::Acquired(()) => {
                    lock.telemetry.record_read_acquire(&acquire);
                    return Ok(());
                }
                Attempt::Retry => {
                    backoff.backoff();
                    continue;
                }
                Attempt::Blocked | Attempt::MustHandOff => {}
            }
            // A writer holds or wants the lock.
            if deadline.expired() {
                lock.telemetry.incr(LockEvent::Timeout);
                return Err(TimedOut);
            }
            fault::inject(W::SITES.read_before_queue_mutex);
            let mut q = lock.turnstile.lock();
            if !lock.word.reader_under_mutex() {
                // The writer released before we got the mutex; retry.
                drop(q);
                continue;
            }
            let group = q.join_readers(self.slot.slot());
            self.waiting_on = group;
            lock.telemetry.incr(LockEvent::ReadSlow);
            lock.telemetry.trace_enqueued(u64::from(group));
            drop(q);
            fault::inject(W::SITES.read_queued);
            // The releaser counts us into the word before it wakes us.
            if lock.turnstile.wait_until(group, deadline) {
                lock.telemetry.record_read_acquire(&acquire);
                self.take_grant();
                return Ok(());
            }
            fault::inject(W::SITES.read_timeout);
            self.cancel_wait();
            lock.telemetry.incr(LockEvent::Timeout);
            return Err(TimedOut);
        }
    }

    /// The write acquisition, blocking and timed alike; a deadline adds the
    /// same two things as in [`acquire_read`](Self::acquire_read).
    fn acquire_write<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.read_hold.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        let lock = self.lock;
        let acquire = lock.telemetry.begin_write();
        let mut backoff = Backoff::new();
        let path = loop {
            // Fast path: free lock.
            match lock.word.try_write() {
                Attempt::Acquired(()) => break LockEvent::WriteFast,
                Attempt::Retry => {
                    backoff.backoff();
                    continue;
                }
                Attempt::Blocked | Attempt::MustHandOff => {}
            }
            fault::inject(W::SITES.write_before_queue_mutex);
            let mut q = lock.turnstile.lock();
            match lock.word.writer_under_mutex() {
                Attempt::Acquired(()) => break LockEvent::WriteSlow,
                Attempt::Retry => continue,
                Attempt::Blocked | Attempt::MustHandOff => {}
            }
            // Expired before enqueueing: leave without a queue entry. The
            // word stays marked with no writer queued; its owner's release
            // handles that (the dequeue finds nothing and frees the word).
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
            fault::inject(W::SITES.write_queued);
            // Whoever releases the lock hands it to us in the write-acquired
            // state before signaling.
            if lock.turnstile.wait_until(cell, deadline) {
                lock.telemetry.record_write_acquire(&acquire);
                self.take_grant();
                return Ok(());
            }
            fault::inject(W::SITES.write_timeout);
            self.cancel_wait();
            lock.telemetry.incr(LockEvent::Timeout);
            return Err(TimedOut);
        };
        lock.telemetry.incr(path);
        lock.telemetry.record_write_acquire(&acquire);
        self.hold = lock.telemetry.timer();
        self.write_held = true;
        Ok(())
    }

    /// The wait on `waiting_on` is over and this handle owns what it waited
    /// for: the write hold, or a read hold a releaser counted in.
    fn take_grant(&mut self) {
        let lock = self.lock;
        let cell = std::mem::replace(&mut self.waiting_on, NIL);
        self.hold = lock.telemetry.timer();
        if lock.turnstile.is_group(cell) {
            lock.turnstile.acknowledge(cell);
            self.read_hold = Some(W::GRANTED_READ);
        } else {
            self.write_held = true;
        }
    }

    /// Gives up the wait on `waiting_on`: its deadline passed, or the
    /// waiter is unwinding. Race: a releaser may concurrently dequeue the
    /// cell (and, for a reader, count it into the word). The queue mutex is
    /// the arbiter — a cell still queued is excised and nothing is held; a
    /// dequeued one means the hand-off already counted this waiter, which
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
            W::SITES.read_cancel_vs_handoff
        } else {
            W::SITES.write_cancel_vs_handoff
        });
        lock.turnstile.wait_until(cell, Never);
        self.take_grant();
        if self.write_held {
            self.unlock_write();
        } else {
            self.unlock_read();
        }
    }

    /// A wait that an unwind interrupted (a panic injected at a `queued`
    /// site) is still pending when the handle is next used, or dropped: the
    /// cell must not stay linked under a handle that no longer waits on
    /// it, let alone under the slot's next claimant.
    #[inline]
    fn settle_interrupted_wait(&mut self) {
        if self.waiting_on != NIL {
            self.cancel_wait();
        }
    }
}

impl<W: Lockword> RwHandle for TurnstileHandle<'_, W> {
    fn lock_read(&mut self) {
        let granted = self.acquire_read(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    fn unlock_read(&mut self) {
        let hold = self
            .read_hold
            .take()
            .expect("unlock_read without read hold");
        self.lock.telemetry.record_read_hold(&self.hold);
        if !self.lock.word.release_read(hold) {
            return;
        }
        fault::inject(W::SITES.unlock_read_before_handoff);
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
        if !self.lock.word.release_write_unqueued() {
            self.lock.release_owned(false);
        }
    }

    fn try_lock_read(&mut self) -> bool {
        debug_assert!(self.read_hold.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        self.arrive() == Attempt::Acquired(())
    }

    fn try_lock_write(&mut self) -> bool {
        debug_assert!(self.read_hold.is_none() && !self.write_held);
        self.settle_interrupted_wait();
        if self.lock.word.try_write() != Attempt::Acquired(()) {
            return false;
        }
        self.lock.telemetry.incr(LockEvent::WriteFast);
        self.hold = self.lock.telemetry.timer();
        self.write_held = true;
        true
    }
}

#[cfg(not(loom))]
impl<W: Lockword> crate::raw::TimedHandle for TurnstileHandle<'_, W> {
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_read(deadline)
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_write(deadline)
    }
}

impl<W: Lockword> Drop for TurnstileHandle<'_, W> {
    fn drop(&mut self) {
        debug_assert!(
            self.read_hold.is_none() && !self.write_held,
            "{} handle dropped while holding the lock",
            W::NAME
        );
        self.settle_interrupted_wait();
    }
}
