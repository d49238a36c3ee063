//! Hardening layer for the OLL reader-writer locks: panic-safe
//! poisoning, online deadlock detection, and a starvation watchdog with
//! graceful degradation, as one wrapper, [`Watched<L>`], over any
//! [`RwLockFamily`] lock.
//!
//! The paper's C-SNZI/queue algorithms assume every acquirer eventually
//! releases. In a long-running service three things break that
//! assumption: a holder *panics* mid-critical-section, two locks are
//! acquired in *inconsistent order*, and a biased lock's revocation
//! *stalls* behind a reader convoy. A [`Watched`] lock reacts to all
//! three while the process can still do something about it:
//!
//! * **Panic-safe poisoning** — the RAII guards in `oll-core` already
//!   route an unwinding release through the normal undo machinery
//!   (C-SNZI departs, four-state node hand-off, turnstile excision,
//!   bias-slot erase), so a panicking holder never strands waiters. A
//!   write released while its thread panics additionally marks the
//!   `Watched` lock poisoned; [`WatchedHandle::read_checked`] /
//!   [`WatchedHandle::write_checked`] surface the mark until
//!   [`Watched::clear_poison`].
//! * **Online deadlock detection** — every hold is recorded in a
//!   process-global wait-for [`graph`] (dense thread ids mirroring the
//!   flight recorder's), and a watched blocker publishes the edge to
//!   the lock it waits on; a cycle check on each expired wait slice
//!   turns a hang into [`AcquireError::DeadlockDetected`].
//! * **Starvation watchdog** — a watched writer that outwaits the stall
//!   threshold escalates: telemetry event → trace anomaly → *graceful
//!   degradation*, which sets the watchdog's [`Veto::Watchdog`] in the
//!   wrapped lock's BRAVO bias switch so the bias cannot re-arm until a
//!   write gets through again. Write progress clears that bit alone: a
//!   veto of the user's or of `SelfTuning`'s stays in force.
//!
//! The wrapper is the switch: a lock that is not wrapped carries no
//! hazard state and runs no hazard code.

#![cfg(not(loom))]
#![warn(missing_docs)]

pub mod graph;

use oll_core::bravo::{BiasSwitch, Veto};
use oll_core::{
    ReadGuard, RwHandle, RwLockFamily, TimedHandle, TimedOut, UpgradableHandle, WriteGuard,
};
use oll_telemetry::LockEvent;
use oll_util::backoff::Deadline;
use oll_util::slots::SlotError;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Default wait-slice length for watched acquisitions: how often a
/// watched blocker wakes to run the deadlock/watchdog checks.
pub const DEFAULT_WATCH_INTERVAL: Duration = Duration::from_millis(2);

/// Default writer stall threshold before the watchdog starts escalating.
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(100);

fn next_lock_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A hazard-watching layer over any [`RwLockFamily`] lock: poisons on a
/// panicking write release, records every hold in the wait-for graph,
/// and runs the deadlock check and the starvation watchdog while a
/// watched acquisition waits.
///
/// ```
/// use oll_core::{GollLock, RwHandle, RwLockFamily};
/// use oll_hazard::{AcquireError, Watched};
/// use std::time::{Duration, Instant};
///
/// let lock = Watched::new(GollLock::new(8));
/// let mut h = lock.handle().unwrap();
/// match h.write_checked() {                    // std-style checked API
///     Ok(g) => drop(g),
///     Err(poisoned) => {                       // lock still acquired; repair
///         lock.clear_poison();
///         drop(poisoned.into_inner());
///     }
/// }
/// match h.lock_write_watched(Instant::now() + Duration::from_secs(1)) {
///     Ok(()) => h.unlock_write(),
///     Err(AcquireError::DeadlockDetected) => { /* cycle reported, wait withdrawn */ }
///     Err(AcquireError::TimedOut) => { /* plain deadline expiry */ }
/// }
/// ```
pub struct Watched<L> {
    inner: L,
    /// Process-unique nonzero id naming this lock in the wait-for graph.
    lock_id: u64,
    poisoned: AtomicBool,
    /// Watchdog escalation: 0 = quiet, 1 = telemetry, 2 = trace
    /// anomaly, 3 = degraded (the watchdog's bias veto set).
    stall_level: AtomicU8,
    interval: Duration,
    stall_threshold: Duration,
}

impl<L> Watched<L> {
    /// Wraps `inner`, with [`DEFAULT_WATCH_INTERVAL`] slices and a
    /// [`DEFAULT_STALL_THRESHOLD`] watchdog.
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            lock_id: next_lock_id(),
            poisoned: AtomicBool::new(false),
            stall_level: AtomicU8::new(0),
            interval: DEFAULT_WATCH_INTERVAL,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
        }
    }

    /// Sets the wait-slice length watched acquisitions chop their
    /// deadline into (floored at 100 µs so a misconfigured interval
    /// cannot busy-spin the checks).
    pub fn watch_interval(mut self, interval: Duration) -> Self {
        self.interval = interval.max(Duration::from_micros(100));
        self
    }

    /// Sets the writer stall threshold the watchdog escalates at.
    pub fn stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = threshold.max(Duration::from_nanos(1));
        self
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Whether a write holder has panicked since the last
    /// [`Watched::clear_poison`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Current watchdog escalation level, 0–3 (diagnostics/tests).
    pub fn stall_level(&self) -> u8 {
        self.stall_level.load(Ordering::Relaxed)
    }
}

impl<L: RwLockFamily> Watched<L> {
    /// Clears the poison mark after the caller has restored whatever
    /// invariant the panicking writer may have broken.
    pub fn clear_poison(&self) {
        if self.poisoned.swap(false, Ordering::AcqRel) {
            self.inner.telemetry().incr(LockEvent::PoisonCleared);
        }
    }

    fn poison(&self) {
        if !self.poisoned.swap(true, Ordering::AcqRel) {
            self.inner.telemetry().incr(LockEvent::Poisoned);
        }
    }

    /// Runs the cycle check from the calling (blocked) thread, counting
    /// a `deadlock_detected` event on a positive answer.
    fn deadlocked(&self) -> bool {
        let found = graph::deadlocked();
        if found {
            self.inner.telemetry().incr(LockEvent::DeadlockDetected);
        }
        found
    }

    /// Watchdog input: a watched writer has been waiting `stalled` so
    /// far. `≥ 1×` the threshold counts a `watchdog_stall` event, `≥ 2×`
    /// another (the trace anomaly pass picks repeated stalls up), `≥ 3×`
    /// degrades the lock: sets the watchdog's veto on its bias.
    fn note_writer_stall(&self, stalled: Duration) {
        let threshold = self.stall_threshold.as_nanos();
        let target = (stalled.as_nanos() / threshold).min(3) as u8;
        let mut level = self.stall_level.load(Ordering::Relaxed);
        while level < target {
            match self.stall_level.compare_exchange(
                level,
                level + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    level += 1;
                    let event = if level == 3 {
                        if let Some(switch) = self.inner.bias_switch() {
                            switch.set_veto(Veto::Watchdog, true);
                        }
                        LockEvent::BiasDegraded
                    } else {
                        LockEvent::WatchdogStall
                    };
                    self.inner.telemetry().incr(event);
                }
                Err(now) => level = now,
            }
        }
    }

    /// Progress note: an acquisition or release completed. Resets the
    /// watchdog ladder; only a *write* getting through proves the
    /// degradation did its job, so only a write lifts the watchdog's veto.
    fn note_progress(&self, write: bool) {
        if self.stall_level.load(Ordering::Relaxed) != 0 {
            self.stall_level.store(0, Ordering::Relaxed);
        }
        if write {
            if let Some(switch) = self.inner.bias_switch() {
                switch.set_veto(Veto::Watchdog, false);
            }
        }
    }
}

impl<L: RwLockFamily> RwLockFamily for Watched<L> {
    type Handle<'a>
        = WatchedHandle<'a, L>
    where
        Self: 'a,
        L: 'a;

    fn handle(&self) -> Result<Self::Handle<'_>, SlotError> {
        Ok(WatchedHandle {
            lock: self,
            inner: self.inner.handle()?,
        })
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn telemetry(&self) -> oll_telemetry::Telemetry {
        self.inner.telemetry()
    }

    fn bias_switch(&self) -> Option<&BiasSwitch> {
        self.inner.bias_switch()
    }
}

/// Why a watched acquisition returned without the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// The deadline passed. Same guarantees as [`TimedOut`]: the
    /// acquisition was fully undone.
    TimedOut,
    /// The process-global wait-for graph contains a cycle through the
    /// calling thread: every hold this wait depends on is itself
    /// blocked, transitively, on a lock this thread holds. Waiting
    /// longer cannot succeed; the acquisition was fully undone so the
    /// caller can release what it holds and retry in a consistent
    /// order.
    DeadlockDetected,
}

impl core::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AcquireError::TimedOut => f.write_str("lock acquisition timed out"),
            AcquireError::DeadlockDetected => {
                f.write_str("lock acquisition abandoned: wait-for cycle detected")
            }
        }
    }
}

impl std::error::Error for AcquireError {}

impl From<TimedOut> for AcquireError {
    fn from(_: TimedOut) -> Self {
        AcquireError::TimedOut
    }
}

/// The lock was acquired, but a previous write holder panicked inside
/// its critical section and nobody has called [`Watched::clear_poison`]
/// yet. Carries the guard: acquisition succeeded and the caller decides
/// whether the protected state is salvageable — the same shape as
/// [`std::sync::PoisonError`].
pub struct PoisonError<G> {
    guard: G,
}

impl<G> PoisonError<G> {
    /// Wraps a guard acquired on a poisoned lock.
    pub fn new(guard: G) -> Self {
        Self { guard }
    }

    /// Consumes the error, yielding the guard it carries.
    pub fn into_inner(self) -> G {
        self.guard
    }

    /// The guard, by shared reference.
    pub fn get_ref(&self) -> &G {
        &self.guard
    }

    /// The guard, by exclusive reference.
    pub fn get_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G> core::fmt::Debug for PoisonError<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoisonError").finish_non_exhaustive()
    }
}

impl<G> core::fmt::Display for PoisonError<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("lock poisoned: a write holder panicked in its critical section")
    }
}

impl<G> std::error::Error for PoisonError<G> {}

/// A registered thread's view of a [`Watched`] lock: the wrapped lock's
/// handle plus the hazard bookkeeping around each of its operations.
pub struct WatchedHandle<'a, L: RwLockFamily> {
    lock: &'a Watched<L>,
    inner: L::Handle<'a>,
}

impl<L: RwLockFamily> WatchedHandle<'_, L> {
    /// A hold was taken: record it in the wait-for graph (which also
    /// withdraws any wait edge) and note progress.
    fn acquired(&self, write: bool) {
        graph::acquired(self.lock.lock_id, write);
        self.lock.note_progress(write);
    }

    /// A hold is about to be released. Poisons a write released during
    /// a panic unwind *before* the release, so the mark is visible to
    /// the waiters the unlock wakes.
    fn releasing(&self, write: bool) {
        if write && std::thread::panicking() {
            self.lock.poison();
        }
        self.lock.note_progress(write);
        graph::released(self.lock.lock_id, write);
    }

    /// Like [`read`](RwHandle::read), but reports whether a previous
    /// write holder panicked. The lock *is* acquired either way; the
    /// `Err` arm carries the guard so the caller can inspect the
    /// protected state and [`Watched::clear_poison`] after restoring
    /// invariants.
    pub fn read_checked(
        &mut self,
    ) -> Result<ReadGuard<'_, Self>, PoisonError<ReadGuard<'_, Self>>> {
        let lock = self.lock;
        let guard = self.read();
        if lock.is_poisoned() {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Like [`write`](RwHandle::write), but reports poisoning; see
    /// [`read_checked`](Self::read_checked).
    pub fn write_checked(
        &mut self,
    ) -> Result<WriteGuard<'_, Self>, PoisonError<WriteGuard<'_, Self>>> {
        let lock = self.lock;
        let guard = self.write();
        if lock.is_poisoned() {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

impl<L: RwLockFamily> RwHandle for WatchedHandle<'_, L> {
    fn lock_read(&mut self) {
        self.inner.lock_read();
        self.acquired(false);
    }

    fn unlock_read(&mut self) {
        self.releasing(false);
        self.inner.unlock_read();
    }

    fn lock_write(&mut self) {
        self.inner.lock_write();
        self.acquired(true);
    }

    fn unlock_write(&mut self) {
        self.releasing(true);
        self.inner.unlock_write();
    }

    fn try_lock_read(&mut self) -> bool {
        let ok = self.inner.try_lock_read();
        if ok {
            self.acquired(false);
        }
        ok
    }

    fn try_lock_write(&mut self) -> bool {
        let ok = self.inner.try_lock_write();
        if ok {
            self.acquired(true);
        }
        ok
    }
}

impl<'a, L: RwLockFamily> TimedHandle for WatchedHandle<'a, L>
where
    L::Handle<'a>: TimedHandle,
{
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.inner.lock_read_deadline(deadline)?;
        self.acquired(false);
        Ok(())
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.inner.lock_write_deadline(deadline)?;
        self.acquired(true);
        Ok(())
    }
}

/// Watched acquisitions: deadline waits that run the deadlock and
/// starvation checks while blocked.
///
/// A watched acquisition publishes its wait-for edge, then chops its
/// deadline into watch-interval slices and issues one [`TimedHandle`]
/// deadline wait per slice. Each time a slice expires without a grant,
/// the blocker — from its own context, no background thread — runs the
/// cycle check over the wait-for graph and, for writers, feeds the
/// watchdog's escalation ladder. The slicing relies on the
/// [`TimedHandle`] contract: an expired slice leaves *no* partial
/// arrival behind (C-SNZI departed, queue node excised), so re-arriving
/// for the next slice is always legal.
impl<'a, L: RwLockFamily> WatchedHandle<'a, L>
where
    L::Handle<'a>: TimedHandle,
{
    fn lock_watched(&mut self, write: bool, deadline: Instant) -> Result<(), AcquireError> {
        let lock = self.lock;
        let start = Instant::now();
        graph::begin_wait(lock.lock_id);
        let err = loop {
            let slice = deadline.min(Instant::now() + lock.interval);
            let granted = if write {
                self.inner.lock_write_deadline(slice)
            } else {
                self.inner.lock_read_deadline(slice)
            };
            if granted.is_ok() {
                // Recording the hold withdraws the wait edge too.
                self.acquired(write);
                return Ok(());
            }
            if Instant::now() >= deadline {
                break AcquireError::TimedOut;
            }
            if lock.deadlocked() {
                break AcquireError::DeadlockDetected;
            }
            if write {
                lock.note_writer_stall(start.elapsed());
            }
        };
        graph::end_wait();
        Err(err)
    }

    /// Acquires for reading, running the deadlock check while blocked.
    pub fn lock_read_watched(&mut self, deadline: Instant) -> Result<(), AcquireError> {
        self.lock_watched(false, deadline)
    }

    /// Acquires for writing, running the deadlock check and the
    /// starvation watchdog while blocked.
    pub fn lock_write_watched(&mut self, deadline: Instant) -> Result<(), AcquireError> {
        self.lock_watched(true, deadline)
    }

    /// Watched read acquisition returning a guard.
    pub fn read_watched(&mut self, deadline: Instant) -> Result<ReadGuard<'_, Self>, AcquireError> {
        self.lock_read_watched(deadline)?;
        Ok(ReadGuard::new(self))
    }

    /// Watched write acquisition returning a guard.
    pub fn write_watched(
        &mut self,
        deadline: Instant,
    ) -> Result<WriteGuard<'_, Self>, AcquireError> {
        self.lock_write_watched(deadline)?;
        Ok(WriteGuard::new(self))
    }
}

impl<'a, L: RwLockFamily> UpgradableHandle for WatchedHandle<'a, L>
where
    L::Handle<'a>: UpgradableHandle,
{
    fn try_upgrade(&mut self) -> bool {
        let ok = self.inner.try_upgrade();
        if ok {
            // A read release plus a write acquisition, atomically from
            // the lock's point of view.
            graph::released(self.lock.lock_id, false);
            self.acquired(true);
        }
        ok
    }

    fn downgrade(&mut self) {
        // A write release plus a read acquisition that never lets the
        // lock go in between.
        self.releasing(true);
        self.inner.downgrade();
        self.acquired(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oll_core::{Bravo, GollLock, Regime, RollLock, SelfTuning, TuningConfig};

    #[test]
    fn poison_round_trip() {
        let w = Watched::new(GollLock::new(2));
        assert!(w.lock_id > 0);
        let mut h = w.handle().unwrap();
        // Not panicking, so a write release leaves it clean.
        h.lock_write();
        h.unlock_write();
        assert!(!w.is_poisoned());
        // Direct poisoning works.
        w.poison();
        assert!(w.is_poisoned());
        assert!(h.write_checked().is_err());
        w.clear_poison();
        assert!(!w.is_poisoned());
        assert!(h.read_checked().is_ok());
    }

    #[test]
    fn watchdog_ladder_escalates_and_resets() {
        let w =
            Watched::new(Bravo::new(GollLock::new(2))).stall_threshold(Duration::from_millis(10));
        let knobs = w.inner().knobs();
        w.note_writer_stall(Duration::from_millis(5));
        assert_eq!(w.stall_level(), 0);
        w.note_writer_stall(Duration::from_millis(12));
        assert_eq!(w.stall_level(), 1);
        assert!(knobs.bias_allowed());
        w.note_writer_stall(Duration::from_millis(25));
        assert_eq!(w.stall_level(), 2);
        assert!(knobs.bias_allowed());
        w.note_writer_stall(Duration::from_millis(35));
        assert_eq!(w.stall_level(), 3);
        assert!(!knobs.bias_allowed(), "level 3 degrades the bias");
        // A further stall note cannot go past 3, and the user's allow
        // lifts only the user's own veto.
        knobs.set_bias_allowed(true);
        w.note_writer_stall(Duration::from_secs(1));
        assert_eq!(w.stall_level(), 3);
        assert!(!knobs.bias_allowed());
        // Read progress resets the ladder but not the degrade; write
        // progress lifts it.
        w.note_progress(false);
        assert_eq!(w.stall_level(), 0);
        assert!(!knobs.bias_allowed());
        w.note_progress(true);
        assert!(knobs.bias_allowed());
    }

    /// The watchdog lifts only its own veto: write progress after a
    /// degrade leaves the bias forbidden while `SelfTuning`, nested
    /// inside, still classifies the mix as write-heavy.
    #[test]
    fn write_progress_keeps_the_tuners_veto() {
        let config = TuningConfig {
            window: u32::MAX,
            hysteresis: 1,
            cooldown: 0,
        };
        let w = Watched::new(SelfTuning::with_config(
            Bravo::new(RollLock::new(2)).private_table(64),
            config,
        ))
        .stall_threshold(Duration::from_millis(10));
        w.note_writer_stall(Duration::from_millis(35));
        assert_eq!(w.stall_level(), 3);
        let tuned = w.inner();
        let mut h = tuned.handle().unwrap();
        for _ in 0..10 {
            h.lock_write();
            h.unlock_write();
        }
        h.flush();
        tuned.tick();
        assert_eq!(tuned.regime(), Regime::WriteHeavy);
        w.note_progress(true);
        assert!(
            !tuned.inner().knobs().bias_allowed(),
            "write progress re-allowed a bias the controller forbids"
        );
    }

    #[test]
    fn watch_interval_is_floored() {
        let w = Watched::new(GollLock::new(1)).watch_interval(Duration::from_nanos(1));
        assert_eq!(w.interval, Duration::from_micros(100));
        let w = w.watch_interval(Duration::from_millis(7));
        assert_eq!(w.interval, Duration::from_millis(7));
    }

    #[test]
    fn sole_waiter_is_not_deadlocked() {
        let w = Watched::new(GollLock::new(2));
        let held = std::sync::Barrier::new(2);
        let done = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut a = w.handle().unwrap();
                a.lock_write();
                held.wait();
                done.wait();
                a.unlock_write();
            });
            held.wait();
            let mut b = w.handle().unwrap();
            let err = b
                .lock_write_watched(Instant::now() + Duration::from_millis(20))
                .unwrap_err();
            assert_eq!(err, AcquireError::TimedOut, "sole waiter cannot deadlock");
            done.wait();
        });
    }

    #[test]
    fn waiting_on_a_lock_this_thread_holds_is_a_deadlock() {
        let w = Watched::new(GollLock::new(2)).watch_interval(Duration::from_millis(1));
        let mut a = w.handle().unwrap();
        let mut b = w.handle().unwrap();
        a.lock_write();
        let err = b
            .lock_read_watched(Instant::now() + Duration::from_secs(20))
            .unwrap_err();
        assert_eq!(err, AcquireError::DeadlockDetected);
        a.unlock_write();
        b.lock_read_watched(Instant::now() + Duration::from_secs(20))
            .unwrap();
        b.unlock_read();
    }
}
