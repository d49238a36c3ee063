//! The common reader-writer-lock interface all locks in this workspace
//! implement.
//!
//! The design mirrors the paper's API shape: every algorithm has per-thread
//! `Local` state (default queue nodes, C-SNZI tickets, arrival policy), so
//! a thread first **registers** with a lock to obtain a handle ([`RwLockFamily::handle`]), and all
//! lock operations go through the handle. A handle supports one outstanding
//! acquisition at a time (exactly like the paper's `Local` record); the
//! RAII guards returned by [`RwHandle::read`] / [`RwHandle::write`] enforce
//! balanced lock/unlock pairs at compile time.

#[cfg(not(loom))]
use oll_util::backoff::{Deadline, Timeout};
use oll_util::slots::SlotError;

/// A reader-writer lock whose per-thread state lives in a handle.
pub trait RwLockFamily: Send + Sync {
    /// The per-thread handle type.
    type Handle<'a>: RwHandle
    where
        Self: 'a;

    /// Registers the calling thread, claiming one of the lock's thread
    /// slots. Fails if more than `capacity` handles are live at once.
    fn handle(&self) -> Result<Self::Handle<'_>, SlotError>;

    /// Maximum number of concurrently registered threads.
    fn capacity(&self) -> usize;

    /// A short, stable name for harness output (e.g. `"FOLL"`).
    fn name(&self) -> &'static str;

    /// This lock's telemetry handle. Instrumented locks (GOLL, FOLL,
    /// ROLL, the Solaris-like baseline) return their live handle when
    /// built with the `telemetry` feature; the default is an inert
    /// handle, so uninstrumented baselines need no code.
    fn telemetry(&self) -> oll_telemetry::Telemetry {
        oll_telemetry::Telemetry::disabled()
    }

    /// The switch that decides whether this lock's [`Bravo`] bias may
    /// re-arm, when it has one: `Bravo` returns its own, the wrappers
    /// over a lock (`SelfTuning`, `Watched`) forward their inner lock's,
    /// and every other lock keeps the `None` default. A controller sets
    /// its own [`Veto`] through it, however the wrappers are nested.
    ///
    /// [`Bravo`]: crate::Bravo
    /// [`Veto`]: crate::bravo::Veto
    #[cfg(not(loom))]
    fn bias_switch(&self) -> Option<&crate::bravo::BiasSwitch> {
        None
    }
}

/// A registered thread's view of a reader-writer lock.
///
/// The raw `lock_*`/`unlock_*` methods exist for the benchmark harness
/// (which measures acquire/release pairs directly); application code should
/// prefer [`read`](Self::read) and [`write`](Self::write), whose guards
/// cannot be unbalanced.
///
/// # Contract
/// A handle has at most one outstanding acquisition. `unlock_read` must
/// follow `lock_read` (and similarly for writes) on the *same* handle;
/// implementations panic on misuse rather than corrupt the lock.
pub trait RwHandle {
    /// Acquires the lock for reading (shared).
    fn lock_read(&mut self);

    /// Releases a read acquisition.
    fn unlock_read(&mut self);

    /// Acquires the lock for writing (exclusive).
    fn lock_write(&mut self);

    /// Releases a write acquisition.
    fn unlock_write(&mut self);

    /// Attempts a read acquisition without waiting for conflicting
    /// holders. May fail spuriously under contention.
    fn try_lock_read(&mut self) -> bool;

    /// Attempts a write acquisition without waiting. May fail spuriously
    /// under contention.
    fn try_lock_write(&mut self) -> bool;

    /// Acquires for reading and returns a guard that releases on drop.
    fn read(&mut self) -> ReadGuard<'_, Self>
    where
        Self: Sized,
    {
        self.lock_read();
        ReadGuard::new(self)
    }

    /// Acquires for writing and returns a guard that releases on drop.
    fn write(&mut self) -> WriteGuard<'_, Self>
    where
        Self: Sized,
    {
        self.lock_write();
        WriteGuard::new(self)
    }

    /// Attempts a read acquisition, returning a guard on success.
    fn try_read(&mut self) -> Option<ReadGuard<'_, Self>>
    where
        Self: Sized,
    {
        if self.try_lock_read() {
            Some(ReadGuard::new(self))
        } else {
            None
        }
    }

    /// Attempts a write acquisition, returning a guard on success.
    fn try_write(&mut self) -> Option<WriteGuard<'_, Self>>
    where
        Self: Sized,
    {
        if self.try_lock_write() {
            Some(WriteGuard::new(self))
        } else {
            None
        }
    }
}

/// A timed acquisition gave up: the deadline passed before the lock could
/// be acquired. The acquisition was fully undone — no ticket, queue node,
/// or waiter registration is left behind, and the handle may immediately
/// retry or acquire in the other mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

impl core::fmt::Display for TimedOut {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("lock acquisition timed out")
    }
}

impl std::error::Error for TimedOut {}

/// Timed, cancellable acquisition.
///
/// A deadline acquisition either succeeds (having the same effect as the
/// untimed `lock_*`) or returns `Err(TimedOut)` having *no* effect: the
/// implementation must undo any partial arrival — depart the C-SNZI or
/// un-arrive a direct-count ticket, excise its node from the wait queue
/// without breaking the hand-off chain — before reporting the timeout.
///
/// Best-effort timing: if the lock becomes available the acquisition may
/// succeed even after the deadline (a success is never converted to a
/// timeout once the thread has been granted ownership — lock hand-off is
/// irrevocable, so the grant must be kept or released, and keeping it is
/// both cheaper and what callers expect from, e.g., `pthread`'s timed
/// locks). A relative timeout counts from the first moment the
/// acquisition has to wait, so one that never waits reads no clock; an
/// `Err(TimedOut)` still means at least `timeout` has passed since the
/// call. A timeout too long for an [`Instant`] to hold (`Duration::MAX`)
/// never expires.
///
/// Unavailable under loom (wall-clock time has no meaning in a model
/// checker); the timed paths are exercised by the fault-injection suites.
///
/// [`Instant`]: std::time::Instant
#[cfg(not(loom))]
pub trait TimedHandle: RwHandle {
    /// Acquires for reading (shared), giving up once `deadline` expires —
    /// an [`Instant`](std::time::Instant), or any other [`Deadline`].
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut>;

    /// Acquires for writing (exclusive), giving up once `deadline` expires.
    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut>;

    /// Acquires for reading with a relative timeout.
    fn lock_read_timeout(&mut self, timeout: std::time::Duration) -> Result<(), TimedOut> {
        self.lock_read_deadline(&Timeout::new(timeout))
    }

    /// Acquires for writing with a relative timeout.
    fn lock_write_timeout(&mut self, timeout: std::time::Duration) -> Result<(), TimedOut> {
        self.lock_write_deadline(&Timeout::new(timeout))
    }

    /// Deadline-bounded read acquisition returning a guard.
    fn read_deadline(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<ReadGuard<'_, Self>, TimedOut>
    where
        Self: Sized,
    {
        self.lock_read_deadline(deadline)?;
        Ok(ReadGuard::new(self))
    }

    /// Deadline-bounded write acquisition returning a guard.
    fn write_deadline(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<WriteGuard<'_, Self>, TimedOut>
    where
        Self: Sized,
    {
        self.lock_write_deadline(deadline)?;
        Ok(WriteGuard::new(self))
    }

    /// Timeout-bounded read acquisition returning a guard.
    fn read_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<ReadGuard<'_, Self>, TimedOut>
    where
        Self: Sized,
    {
        self.lock_read_timeout(timeout)?;
        Ok(ReadGuard::new(self))
    }

    /// Timeout-bounded write acquisition returning a guard.
    fn write_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<WriteGuard<'_, Self>, TimedOut>
    where
        Self: Sized,
    {
        self.lock_write_timeout(timeout)?;
        Ok(WriteGuard::new(self))
    }
}

/// Write-upgrade support (§3.2.1 of the paper). Implemented by locks that
/// can atomically convert a *sole* read hold into a write hold.
pub trait UpgradableHandle: RwHandle {
    /// Attempts to upgrade the current read acquisition to a write
    /// acquisition. Returns `true` on success. On failure the thread
    /// *keeps holding the lock for reading* (the paper's semantics).
    ///
    /// Must only be called while this handle holds a read acquisition.
    fn try_upgrade(&mut self) -> bool;

    /// Converts the current write acquisition into a read acquisition
    /// without releasing the lock in between.
    ///
    /// Must only be called while this handle holds a write acquisition.
    fn downgrade(&mut self);
}

/// RAII guard for a read acquisition.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct ReadGuard<'h, H: RwHandle> {
    handle: &'h mut H,
}

impl<'h, H: RwHandle> ReadGuard<'h, H> {
    /// Wraps a read hold `handle` already has; the guard releases it on
    /// drop. For handle wrappers whose own acquisition methods return
    /// guards.
    #[doc(hidden)]
    pub fn new(handle: &'h mut H) -> Self {
        ReadGuard { handle }
    }
}

impl<H: RwHandle> Drop for ReadGuard<'_, H> {
    fn drop(&mut self) {
        self.handle.unlock_read();
    }
}

/// RAII guard for a write acquisition.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct WriteGuard<'h, H: RwHandle> {
    handle: &'h mut H,
}

impl<'h, H: RwHandle> WriteGuard<'h, H> {
    /// Wraps a write hold `handle` already has; see [`ReadGuard::new`].
    #[doc(hidden)]
    pub fn new(handle: &'h mut H) -> Self {
        WriteGuard { handle }
    }
}

impl<H: RwHandle> Drop for WriteGuard<'_, H> {
    fn drop(&mut self) {
        self.handle.unlock_write();
    }
}

impl<'h, H: UpgradableHandle> WriteGuard<'h, H> {
    /// Downgrades this write guard to a read guard without unlocking.
    pub fn downgrade(self) -> ReadGuard<'h, H> {
        // Move the handle out without running our drop (which would
        // unlock_write).
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never used again and its Drop is suppressed.
        let handle: &'h mut H = unsafe { core::ptr::read(&this.handle) };
        handle.downgrade();
        ReadGuard::new(handle)
    }
}

impl<'h, H: UpgradableHandle> ReadGuard<'h, H> {
    /// Attempts to upgrade this read guard to a write guard. On failure
    /// the read guard is returned unchanged (the lock stays read-held).
    pub fn try_upgrade(self) -> Result<WriteGuard<'h, H>, Self> {
        if !self.handle.try_upgrade() {
            return Err(self);
        }
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never used again and its Drop is suppressed.
        let handle: &'h mut H = unsafe { core::ptr::read(&this.handle) };
        Ok(WriteGuard::new(handle))
    }
}
