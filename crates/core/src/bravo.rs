//! BRAVO-style reader biasing: a zero-shared-write read fast path over
//! any [`RwLockFamily`] lock.
//!
//! The paper's C-SNZI distributes reader arrivals across a tree, but every
//! read acquisition still performs at least one shared-memory RMW (a root
//! or leaf CAS). BRAVO (Dice & Kogan, "BRAVO — Biased Locking for
//! Reader-Writer Locks") removes even that: while a lock is *biased*
//! toward readers, a reader publishes itself in a process-global
//! [visible-readers table](VisibleReaders) — a CAS on a hashed,
//! effectively thread-private cache line — rechecks the lock's `rbias`
//! flag, and is done, never touching the lock word at all. A writer
//! *revokes* the bias: it acquires the underlying lock (stalling new
//! slow-path readers and writers), clears `rbias` (stalling new fast-path
//! readers), then scans the table and waits out every published reader.
//! Fissile Locks (Dice & Kogan, arXiv:2003.05025) showed this bias/revoke
//! pattern composes as a wrapper over an arbitrary underlying lock, which
//! is exactly what [`Bravo<L>`] is.
//!
//! # Memory ordering
//!
//! The reader's *publish → recheck `rbias`* and the writer's *clear
//! `rbias` → scan table* form a store-buffering pattern: each side writes
//! one location then reads the other's. Both sides use `SeqCst` (the
//! publish CAS and `rbias` recheck on the reader; the `rbias` store and
//! the scan loads on the writer) so at least one of them observes the
//! other — either the writer sees the published slot and waits, or the
//! reader sees `rbias == false` and withdraws. Weaker orderings admit
//! executions where *both* proceed, i.e. a reader and writer inside the
//! critical section together. The stores that set `rbias` back to `true`
//! are `SeqCst` too, as the release half of the recheck: a reader that
//! reads `true` from them also sees every write made before them.
//!
//! # Re-arming
//!
//! Revocation is expensive (a full table scan) and its cost scales with
//! how long readers hold the lock, so the bias must not flap on mixed
//! workloads. Following BRAVO, every revocation — blocking, timed or
//! `try` — measures its own duration `t` and inhibits re-arming for
//! `t × N` (default N = [`DEFAULT_REARM_MULTIPLIER`], fixed when the
//! lock is built): the more revocation costs, the longer the lock stays
//! unbiased, bounding the worst-case slowdown from biasing at roughly
//! `1/N`. A slow-path reader that finds the inhibit window expired, and
//! no veto set in the lock's [`BiasSwitch`], re-arms the bias.
//!
//! # Who may forbid the bias
//!
//! Three parties may forbid a re-arm: the lock's user, the online
//! controller `SelfTuning` and the hazard watchdog. Each owns one
//! [`Veto`] bit of the lock's [`BiasSwitch`], and sets and clears only
//! that bit, so no party can lift another's veto: the bias may re-arm
//! only when no bit is set. Wrappers reach the switch through
//! [`RwLockFamily::bias_switch`], whatever order they are nested in.

use crate::raw::{RwHandle, RwLockFamily, TimedHandle, TimedOut, UpgradableHandle};
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::backoff::{spin_until_deadline, Deadline, Never};
use oll_util::fault;
use oll_util::slots::{SlotError, VisibleReaders};
use oll_util::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default revocation-inhibit multiplier: after a revocation taking `t`
/// ns, the bias may not re-arm for `9 × t` ns, bounding the throughput
/// lost to revocations at ~10% of a write-heavy run (BRAVO's `N`).
pub const DEFAULT_REARM_MULTIPLIER: u32 = 9;

/// The deadline of a `try` revocation: already passed, so the scan
/// probes each published slot and waits for none.
#[derive(Clone, Copy)]
struct Passed;

impl Deadline for Passed {
    #[inline(always)]
    fn expired(self) -> bool {
        true
    }

    fn park(self) {}
}

/// Nanoseconds since a process-global epoch; monotonic and cheap enough
/// for the inhibit-window bookkeeping (read on the slow path only).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Process-unique nonzero lock ids (0 means "empty" in the table).
fn next_lock_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

enum Table {
    Global,
    Private(VisibleReaders),
}

/// A party that may forbid a [`Bravo`] lock's bias: each owns one bit of
/// the lock's [`BiasSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Veto {
    /// The lock's user: [`BiasSwitch::set_bias_allowed`], or a lock built
    /// with [`Bravo::wrapping`]`(inner, false)`.
    User = 1,
    /// The online controller, `SelfTuning`, while its regime is
    /// write-heavy.
    Tuner = 2,
    /// The hazard watchdog, `oll_hazard::Watched`, from a writer's
    /// degrading stall until a write gets through.
    Watchdog = 4,
}

/// Whether a [`Bravo`] lock's bias may re-arm: one [`Veto`] bit per
/// party, and the bias may re-arm only when none is set.
///
/// A veto does not revoke an armed bias by itself (the next writer
/// does that); it stops the re-arm after the revocation, so the lock
/// settles into unbiased operation within one writer episode. Every
/// access is `Relaxed`: the word is a heuristic input, and a stale read
/// re-arms or holds off one episode late, never breaks exclusion.
#[derive(Debug)]
pub struct BiasSwitch {
    vetoes: AtomicU8,
}

impl BiasSwitch {
    /// Whether no party vetoes the bias.
    #[inline]
    pub fn bias_allowed(&self) -> bool {
        self.vetoes.load(Ordering::Relaxed) == 0
    }

    /// The user's veto: `false` sets it, `true` lifts it. Another
    /// party's veto stays in force either way.
    pub fn set_bias_allowed(&self, allowed: bool) {
        self.set_veto(Veto::User, !allowed);
    }

    /// Sets or clears `party`'s veto, leaving the other bits as they are.
    /// A party that restates its decision pays a load, not an RMW.
    pub fn set_veto(&self, party: Veto, vetoed: bool) {
        let bit = party as u8;
        if (self.vetoes.load(Ordering::Relaxed) & bit != 0) == vetoed {
            return;
        }
        if vetoed {
            self.vetoes.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.vetoes.fetch_and(!bit, Ordering::Relaxed);
        }
    }
}

/// A reader-biasing layer over any [`RwLockFamily`] lock.
///
/// While the bias is armed, read acquisitions complete through the
/// process-global visible-readers table with **zero shared-memory RMWs**;
/// writers revoke the bias before their first exclusive section and the
/// bias re-arms adaptively once the measured revocation cost has been
/// amortized. Construct with [`Bravo::new`] (biasing on) or
/// [`Bravo::wrapping`] (explicit on/off — off starts with the user's
/// veto set, so every operation passes through until it is lifted).
///
/// ```
/// use oll_core::{Bravo, RollLock, RwHandle, RwLockFamily};
///
/// let lock = Bravo::new(RollLock::new(4));
/// let mut me = lock.handle().unwrap();
/// {
///     let _shared = me.read(); // zero shared RMWs while biased
/// }
/// {
///     let _exclusive = me.write(); // revokes the bias first
/// }
/// ```
pub struct Bravo<L> {
    inner: L,
    /// Reader bias flag: `true` = readers may use the table fast path.
    rbias: CachePadded<AtomicBool>,
    /// `now_ns()` before which the bias must not re-arm.
    inhibit_until_ns: AtomicU64,
    lock_id: usize,
    /// BRAVO's `N`: a revocation that took `t` inhibits re-arming for
    /// `t × N`.
    rearm_multiplier: u32,
    /// Whether the bias may re-arm: the one value set while the lock runs.
    switch: BiasSwitch,
    table: Table,
}

impl<L> Bravo<L> {
    /// Wraps `inner` with reader biasing enabled.
    pub fn new(inner: L) -> Self {
        Self::wrapping(inner, true)
    }

    /// Wraps `inner`, biasing only if `biased`. With `biased == false`
    /// the bias starts disarmed and the user's [`Veto`] set, so every
    /// operation passes straight through to the underlying lock until
    /// `knobs().set_bias_allowed(true)`.
    pub fn wrapping(inner: L, biased: bool) -> Self {
        Self {
            inner,
            rbias: CachePadded::new(AtomicBool::new(biased)),
            inhibit_until_ns: AtomicU64::new(0),
            lock_id: next_lock_id(),
            rearm_multiplier: DEFAULT_REARM_MULTIPLIER,
            switch: BiasSwitch {
                vetoes: AtomicU8::new(if biased { 0 } else { Veto::User as u8 }),
            },
            table: Table::Global,
        }
    }

    /// Sets the revocation-inhibit multiplier (default
    /// [`DEFAULT_REARM_MULTIPLIER`]). `0` re-arms immediately after every
    /// revocation — maximum reader throughput, maximum writer cost.
    pub fn rearm_multiplier(mut self, multiplier: u32) -> Self {
        self.rearm_multiplier = multiplier;
        self
    }

    /// This lock's bias switch; every re-arm checks it. Its
    /// [`set_bias_allowed`](BiasSwitch::set_bias_allowed) is the user's
    /// veto.
    pub fn knobs(&self) -> &BiasSwitch {
        &self.switch
    }

    /// Gives this lock a private visible-readers table with at least
    /// `slots` entries instead of the process-global one. Meant for tests
    /// that need collision behavior (or its absence) to be deterministic
    /// regardless of what other locks in the process are doing.
    pub fn private_table(mut self, slots: usize) -> Self {
        self.table = Table::Private(VisibleReaders::with_slots(slots));
        self
    }

    /// Whether the bias is currently armed (racy; for tests/diagnostics).
    pub fn bias_armed(&self) -> bool {
        self.rbias.load(Ordering::Relaxed)
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps into the underlying lock.
    pub fn into_inner(self) -> L {
        self.inner
    }

    fn table(&self) -> &VisibleReaders {
        match &self.table {
            Table::Global => VisibleReaders::global(),
            Table::Private(t) => t,
        }
    }
}

impl<L: RwLockFamily> RwLockFamily for Bravo<L> {
    type Handle<'a>
        = BravoHandle<'a, L>
    where
        Self: 'a,
        L: 'a;

    fn handle(&self) -> Result<Self::Handle<'_>, SlotError> {
        Ok(BravoHandle {
            lock: self,
            inner: self.inner.handle()?,
            fast_slot: None,
            hold: Timer::inactive(),
            telemetry: self.inner.telemetry(),
        })
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn bias_switch(&self) -> Option<&BiasSwitch> {
        Some(&self.switch)
    }
}

/// Unlocks the underlying write lock if dropped during a panic unwind.
///
/// Armed between the underlying write grant and the end of the revocation
/// scan: a panic inside the scan (e.g. an injected fault) must not leave
/// the inner lock exclusively held forever, or every later acquirer —
/// including the poison-aware ones — would hang instead of observing the
/// poisoned state.
struct UnlockOnUnwind<'h, H: RwHandle + ?Sized> {
    inner: &'h mut H,
    armed: bool,
}

impl<H: RwHandle + ?Sized> Drop for UnlockOnUnwind<'_, H> {
    fn drop(&mut self) {
        if self.armed {
            self.inner.unlock_write();
        }
    }
}

/// Erases a published visible-readers slot if dropped during unwind.
///
/// Armed between the table publish and the fast path's success return: a
/// panic in that window (the `rbias` recheck or an injected fault) would
/// otherwise leave a ghost entry that every future revocation scan waits
/// on forever.
struct EraseOnUnwind<'t> {
    table: &'t VisibleReaders,
    slot: usize,
    armed: bool,
}

impl Drop for EraseOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.table.erase(self.slot);
        }
    }
}

/// A registered thread's view of a [`Bravo`] lock.
///
/// Wraps the underlying lock's handle; the only extra per-thread state is
/// which path the current read hold took (`fast_slot`), so a release can
/// undo exactly what the acquisition did.
pub struct BravoHandle<'a, L: RwLockFamily> {
    lock: &'a Bravo<L>,
    inner: L::Handle<'a>,
    /// `Some(slot)` while this handle holds a fast-path (table) read.
    fast_slot: Option<usize>,
    /// Hold timer for fast-path reads (the inner handle times its own).
    hold: Timer,
    telemetry: Telemetry,
}

impl<L: RwLockFamily> BravoHandle<'_, L> {
    /// Attempts the biased fast path. On success the slot is published
    /// and recorded in `fast_slot`. On failure (bias off, collision, or
    /// revocation racing the publish) any published slot has been erased
    /// — the "undo" the timed paths rely on.
    fn try_fast_read(&mut self) -> bool {
        let lock = self.lock;
        // Relaxed: only a filter. A stale `true` costs a publish the
        // SeqCst recheck below withdraws; a stale `false` a slow read.
        if !lock.rbias.load(Ordering::Relaxed) {
            return false;
        }
        let timer = self.telemetry.begin_read();
        let table = lock.table();
        let slot = table.slot_index(lock.lock_id);
        if !table.publish(slot, lock.lock_id) {
            self.telemetry.incr(LockEvent::BiasSlotCollision);
            return false;
        }
        // From here until the success return the slot is published but not
        // yet recorded in `fast_slot`, so guard `Drop` cannot undo it — a
        // panic (injected or otherwise) must erase it on the way out.
        let mut unwind = EraseOnUnwind {
            table,
            slot,
            armed: true,
        };
        fault::inject("bravo.read.published");
        // The recheck half of the store-buffering pattern (see module
        // docs): if a writer cleared `rbias` concurrently it may have
        // scanned past our slot already, so we must withdraw.
        // SeqCst: partner of `revoke`'s `rbias.store(false)`.
        if !lock.rbias.load(Ordering::SeqCst) {
            drop(unwind);
            fault::inject("bravo.read.withdrawn");
            return false;
        }
        self.telemetry.incr(LockEvent::BiasGrant);
        self.telemetry.incr(LockEvent::ReadFast);
        self.telemetry.record_read_acquire(&timer);
        self.hold = self.telemetry.timer();
        unwind.armed = false;
        self.fast_slot = Some(slot);
        true
    }

    /// Re-arms the bias if no party vetoes it and the inhibit window has
    /// expired. Called while holding an *underlying* read acquisition,
    /// which excludes every writer (revocations run under the underlying
    /// write lock), so the store cannot race a revocation scan.
    fn maybe_rearm(&mut self) {
        let lock = self.lock;
        if !lock.rbias.load(Ordering::Relaxed)
            && lock.switch.bias_allowed()
            && now_ns() >= lock.inhibit_until_ns.load(Ordering::Relaxed)
        {
            // SeqCst: a release for `try_fast_read`'s recheck.
            lock.rbias.store(true, Ordering::SeqCst);
            self.telemetry.incr(LockEvent::BiasRearm);
        }
    }

    /// Revokes the bias — the one place a writer clears `rbias`: clears
    /// it, waits for every published reader but the caller's own `own`
    /// slot to leave, and starts the inhibit window (BRAVO's
    /// `took × N`). Must be called while holding the underlying write
    /// lock, which serializes revocations against each other and against
    /// re-arms. An associated fn (not `&mut self`) so callers can keep a
    /// disjoint `&mut` borrow of the inner handle for the unwind guard
    /// around the scan.
    ///
    /// Returns `false` — with the bias restored — if a published reader
    /// outlasts `deadline`: a [`Never`] deadline always revokes, and a
    /// [`Passed`] one (the `try` paths) waits for nobody, so a probe never
    /// blocks on a fast reader — not even on one its own thread holds
    /// through another handle.
    fn revoke<D: Deadline>(
        lock: &Bravo<L>,
        telemetry: &Telemetry,
        own: Option<usize>,
        deadline: D,
    ) -> bool {
        // Relaxed: every store to `rbias` is made under the underlying
        // lock (re-arms under a read hold, revocations under the write
        // hold), and the caller holds it exclusively, so the lock's own
        // release/acquire orders them all before this load. `false` here
        // means the last revocation completed and nothing re-armed since;
        // no fast reader can be active (the fast path requires the flag),
        // so the scan can be skipped.
        if !lock.rbias.load(Ordering::Relaxed) {
            return true;
        }
        let start = now_ns();
        // SeqCst: partner of `try_fast_read`'s recheck.
        lock.rbias.store(false, Ordering::SeqCst);
        fault::inject("bravo.write.revoke-scan");
        let table = lock.table();
        for i in (0..table.len()).filter(|&i| Some(i) != own) {
            if table.load(i) == lock.lock_id {
                fault::inject("bravo.write.revoke-mid-scan");
                if !spin_until_deadline(deadline, || table.load(i) != lock.lock_id) {
                    // Safe to restore while we hold the underlying write
                    // lock: no other writer can be mid-revoke.
                    // SeqCst: a release for `try_fast_read`'s recheck.
                    lock.rbias.store(true, Ordering::SeqCst);
                    return false;
                }
            }
        }
        let now = now_ns();
        let inhibit = now
            .saturating_sub(start)
            .saturating_mul(u64::from(lock.rearm_multiplier));
        lock.inhibit_until_ns
            .store(now.saturating_add(inhibit), Ordering::Relaxed);
        telemetry.incr(LockEvent::BiasRevoke);
        true
    }
}

impl<L: RwLockFamily> RwHandle for BravoHandle<'_, L> {
    fn lock_read(&mut self) {
        if self.try_fast_read() {
            return;
        }
        self.inner.lock_read();
        self.maybe_rearm();
    }

    fn unlock_read(&mut self) {
        match self.fast_slot.take() {
            Some(slot) => {
                self.telemetry.record_read_hold(&self.hold);
                debug_assert_eq!(self.lock.table().load(slot), self.lock.lock_id);
                self.lock.table().erase(slot);
            }
            None => self.inner.unlock_read(),
        }
    }

    fn lock_write(&mut self) {
        self.inner.lock_write();
        let mut unwind = UnlockOnUnwind {
            inner: &mut self.inner,
            armed: true,
        };
        let revoked = Self::revoke(self.lock, &self.telemetry, None, Never);
        debug_assert!(revoked, "a revocation with no deadline cannot time out");
        unwind.armed = false;
    }

    fn unlock_write(&mut self) {
        self.inner.unlock_write();
    }

    fn try_lock_read(&mut self) -> bool {
        if self.try_fast_read() {
            return true;
        }
        if self.inner.try_lock_read() {
            self.maybe_rearm();
            return true;
        }
        false
    }

    fn try_lock_write(&mut self) -> bool {
        if !self.inner.try_lock_write() {
            return false;
        }
        let mut unwind = UnlockOnUnwind {
            inner: &mut self.inner,
            armed: true,
        };
        if !Self::revoke(self.lock, &self.telemetry, None, Passed) {
            // A fast reader is published; waiting it out would block, so
            // the probe fails like it would against an underlying reader.
            // The guard's drop performs the undo on this path too.
            return false;
        }
        unwind.armed = false;
        true
    }
}

#[cfg(not(loom))]
impl<'a, L: RwLockFamily> TimedHandle for BravoHandle<'a, L>
where
    L::Handle<'a>: TimedHandle,
{
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        // The fast path never blocks; on failure it has already undone
        // any published slot, leaving no trace (the timed contract).
        if self.try_fast_read() {
            return Ok(());
        }
        self.inner.lock_read_deadline(deadline)?;
        self.maybe_rearm();
        Ok(())
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.inner.lock_write_deadline(deadline)?;
        // The underlying grant alone does not establish exclusion — fast
        // readers are invisible to the inner lock — so the revocation
        // scan honors the deadline too: if a published reader outlasts
        // it, undo the grant (via the guard's drop) and report a timeout.
        let mut unwind = UnlockOnUnwind {
            inner: &mut self.inner,
            armed: true,
        };
        if !Self::revoke(self.lock, &self.telemetry, None, deadline) {
            return Err(TimedOut);
        }
        unwind.armed = false;
        Ok(())
    }
}

impl<'a, L: RwLockFamily> UpgradableHandle for BravoHandle<'a, L>
where
    L::Handle<'a>: UpgradableHandle,
{
    fn try_upgrade(&mut self) -> bool {
        match self.fast_slot {
            // Slow-path read hold: let the underlying lock check for
            // rival *underlying* readers, then make sure no *fast*
            // readers are hiding in the table. The table check must not
            // block (two readers upgrading must both be able to fail),
            // so on sighting one we downgrade back.
            None => {
                if !self.inner.try_upgrade() {
                    return false;
                }
                if !Self::revoke(self.lock, &self.telemetry, None, Passed) {
                    self.inner.downgrade();
                    self.telemetry.incr(LockEvent::UpgradeFail);
                    return false;
                }
                true
            }
            // Fast-path read hold: we are invisible to the underlying
            // lock, so "sole reader" means taking the underlying write
            // lock outright and finding no *other* published reader.
            Some(slot) => {
                if !self.inner.try_lock_write() {
                    self.telemetry.incr(LockEvent::UpgradeFail);
                    return false;
                }
                if !Self::revoke(self.lock, &self.telemetry, Some(slot), Passed) {
                    self.inner.unlock_write();
                    self.telemetry.incr(LockEvent::UpgradeFail);
                    return false;
                }
                self.telemetry.record_read_hold(&self.hold);
                self.lock.table().erase(slot);
                self.fast_slot = None;
                self.telemetry.incr(LockEvent::Upgrade);
                true
            }
        }
    }

    fn downgrade(&mut self) {
        self.inner.downgrade();
        self.maybe_rearm();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::goll::GollLock;
    use crate::roll::RollLock;
    use std::sync::atomic::{AtomicU32, AtomicUsize};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn fast_path_read_round_trip() {
        let lock = Bravo::new(RollLock::new(2)).private_table(64);
        assert!(lock.knobs().bias_allowed());
        assert!(lock.bias_armed());
        let mut h = lock.handle().unwrap();
        for _ in 0..100 {
            h.lock_read();
            assert!(h.fast_slot.is_some(), "biased read must take the table");
            h.unlock_read();
        }
        assert!(lock.bias_armed(), "pure reads never revoke");
    }

    #[test]
    fn disabled_wrapper_is_pass_through() {
        let lock = Bravo::wrapping(RollLock::new(2), false).private_table(64);
        assert!(!lock.knobs().bias_allowed(), "the user's veto is set");
        assert!(!lock.bias_armed());
        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
        // No inhibit window is open (nothing was revoked), so only the
        // veto keeps this slow read from re-arming.
        h.lock_read();
        assert!(h.fast_slot.is_none());
        h.unlock_read();
        assert!(!lock.bias_armed(), "disabled lock never arms");
        // Lifting the user's veto turns the bias on at the next slow read.
        lock.knobs().set_bias_allowed(true);
        h.lock_read();
        h.unlock_read();
        assert!(lock.bias_armed());
    }

    #[test]
    fn writer_revokes_and_reader_rearms() {
        let lock = Bravo::new(RollLock::new(2))
            .private_table(64)
            .rearm_multiplier(0);
        let mut h = lock.handle().unwrap();
        h.lock_write();
        assert!(!lock.bias_armed(), "write acquisition revokes the bias");
        h.unlock_write();
        // With multiplier 0 the inhibit window is already over, so the
        // next slow-path read re-arms.
        h.lock_read();
        h.unlock_read();
        assert!(lock.bias_armed(), "slow read past the window re-arms");
        // And the read after that is fast again.
        h.lock_read();
        assert!(h.fast_slot.is_some());
        h.unlock_read();
    }

    #[test]
    fn large_multiplier_inhibits_rearm() {
        let lock = Bravo::new(RollLock::new(2))
            .private_table(64)
            .rearm_multiplier(u32::MAX);
        let mut h = lock.handle().unwrap();
        // Force a revocation that waits on a published reader so the
        // measured revocation time (and thus the window) is nonzero.
        let lock2 = &lock;
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let b2 = &barrier;
            s.spawn(move || {
                let mut r = lock2.handle().unwrap();
                r.lock_read();
                b2.wait();
                std::thread::sleep(Duration::from_millis(2));
                r.unlock_read();
            });
            barrier.wait();
            h.lock_write();
            h.unlock_write();
        });
        assert!(!lock.bias_armed());
        h.lock_read();
        h.unlock_read();
        assert!(
            !lock.bias_armed(),
            "saturating window must still be inhibiting"
        );
    }

    #[test]
    fn rw_exclusion_stress() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 2_000;
        let lock = Bravo::new(GollLock::new(THREADS)).private_table(256);
        let value = AtomicU32::new(0);
        let readers_inside = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let lock = &lock;
                let value = &value;
                let readers_inside = &readers_inside;
                s.spawn(move || {
                    let mut h = lock.handle().unwrap();
                    let mut rng = oll_util::XorShift64::for_thread(11, tid);
                    for _ in 0..ROUNDS {
                        if rng.percent(80) {
                            h.lock_read();
                            readers_inside.fetch_add(1, Ordering::SeqCst);
                            let v = value.load(Ordering::SeqCst);
                            assert_eq!(v % 2, 0, "writer active during read");
                            readers_inside.fetch_sub(1, Ordering::SeqCst);
                            h.unlock_read();
                        } else {
                            h.lock_write();
                            assert_eq!(
                                readers_inside.load(Ordering::SeqCst),
                                0,
                                "reader visible inside write section"
                            );
                            value.fetch_add(1, Ordering::SeqCst);
                            value.fetch_add(1, Ordering::SeqCst);
                            h.unlock_write();
                        }
                    }
                });
            }
        });
        assert_eq!(value.load(Ordering::SeqCst) % 2, 0);
    }

    #[test]
    fn try_paths_work_and_undo() {
        let lock = Bravo::new(RollLock::new(2)).private_table(64);
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        assert!(a.try_lock_read());
        assert!(a.fast_slot.is_some());
        // A published fast reader makes the probe fail without blocking,
        // and the bias survives the failed attempt.
        assert!(!b.try_lock_write(), "fast reader must repel try-writer");
        assert!(lock.bias_armed());
        a.unlock_read();
        assert!(b.try_lock_write());
        assert!(!lock.bias_armed());
        b.unlock_write();
    }

    #[test]
    fn upgrade_from_fast_read_when_sole() {
        let lock = Bravo::new(GollLock::new(2)).private_table(64);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(h.fast_slot.is_some());
        assert!(h.try_upgrade(), "sole fast reader must upgrade");
        assert!(h.fast_slot.is_none());
        h.unlock_write();
    }

    #[test]
    fn upgrade_fails_with_rival_fast_reader_and_keeps_read() {
        let lock = Bravo::new(GollLock::new(2)).private_table(64);
        let mut a = lock.handle().unwrap();
        a.lock_read();
        std::thread::scope(|s| {
            let lock = &lock;
            s.spawn(move || {
                let mut b = lock.handle().unwrap();
                b.lock_read();
                // b usually lands in its own slot; a hash collision would
                // route it to the underlying lock instead, and either way
                // a's published slot must make the upgrade fail.
                assert!(!b.try_upgrade(), "rival fast reader visible");
                b.unlock_read();
            });
        });
        // After the rival left, the (re-armed or still-armed) upgrade works.
        assert!(a.try_upgrade());
        a.downgrade();
        a.unlock_read();
    }

    #[test]
    fn upgrade_from_slow_read_revokes_fast_rivals_check() {
        // Reader bias off at the moment of the slow read (post-write),
        // so the read lands on the underlying lock; upgrade must succeed
        // when the table is empty.
        let lock = Bravo::new(GollLock::new(2))
            .private_table(64)
            .rearm_multiplier(u32::MAX);
        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
        h.lock_read();
        assert!(h.fast_slot.is_none(), "inhibited bias forces slow path");
        assert!(h.try_upgrade());
        h.unlock_write();
    }

    /// Every revocation starts the inhibit window, the `try` ones too:
    /// with a saturating multiplier, the slow read after each of them
    /// must leave the bias disarmed. (ROLL has no upgrade; GOLL does.)
    #[test]
    fn every_revocation_inhibits_rearm() {
        let build = || {
            Bravo::new(GollLock::new(2))
                .private_table(64)
                .rearm_multiplier(u32::MAX)
        };

        let lock = Bravo::new(RollLock::new(2))
            .private_table(64)
            .rearm_multiplier(u32::MAX);
        let mut h = lock.handle().unwrap();
        assert!(h.try_lock_write(), "try_lock_write revokes");
        h.unlock_write();
        h.lock_read();
        h.unlock_read();
        assert!(!lock.bias_armed(), "re-armed after try_lock_write");

        // Two handles of one thread hash to one slot: `a`'s fast read
        // sends `b` down the slow path while the bias stays armed.
        let lock = build();
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        a.lock_read();
        b.lock_read();
        assert!(a.fast_slot.is_some() && b.fast_slot.is_none());
        a.unlock_read();
        assert!(b.try_upgrade(), "sole slow reader upgrades");
        b.unlock_write();
        b.lock_read();
        b.unlock_read();
        assert!(!lock.bias_armed(), "re-armed after a slow-read upgrade");

        let lock = build();
        let mut h = lock.handle().unwrap();
        h.lock_read();
        assert!(h.fast_slot.is_some());
        assert!(h.try_upgrade(), "sole fast reader upgrades");
        h.unlock_write();
        h.lock_read();
        h.unlock_read();
        assert!(!lock.bias_armed(), "re-armed after a fast-read upgrade");
    }

    #[cfg(not(loom))]
    #[test]
    fn timed_read_fast_path_and_timeout_undo() {
        let lock = Bravo::new(GollLock::new(2)).private_table(64);
        let mut a = lock.handle().unwrap();
        // Fast path satisfies the deadline read instantly.
        assert!(a
            .lock_read_deadline(Instant::now() + Duration::from_secs(1))
            .is_ok());
        assert!(a.fast_slot.is_some());
        a.unlock_read();

        // A held write forces the timed read onto the underlying slow
        // path, where it must time out cleanly (no slot left behind).
        a.lock_write();
        std::thread::scope(|s| {
            let lock = &lock;
            s.spawn(move || {
                let mut b = lock.handle().unwrap();
                let r = b.lock_read_deadline(Instant::now() + Duration::from_millis(10));
                assert_eq!(r, Err(TimedOut));
                assert!(b.fast_slot.is_none());
            });
        });
        a.unlock_write();
        // The failed reader left nothing: a fresh writer needs no wait.
        let table_empty = (0..lock.table().len()).all(|i| lock.table().load(i) != lock.lock_id);
        assert!(table_empty, "timed-out reader left a published slot");
    }

    #[cfg(not(loom))]
    #[test]
    fn timed_write_revokes() {
        let lock = Bravo::new(GollLock::new(2)).private_table(64);
        let mut h = lock.handle().unwrap();
        assert!(h
            .lock_write_deadline(Instant::now() + Duration::from_secs(1))
            .is_ok());
        assert!(!lock.bias_armed(), "timed write must still revoke");
        h.unlock_write();
    }

    #[test]
    fn facade_methods_delegate() {
        let lock = Bravo::new(RollLock::new(3)).private_table(64);
        assert_eq!(lock.capacity(), 3);
        assert_eq!(lock.name(), "ROLL");
        assert_eq!(lock.inner().capacity(), 3);
        let inner = lock.into_inner();
        assert_eq!(inner.capacity(), 3);
    }

    #[test]
    fn guards_compose_with_bravo() {
        let lock = Bravo::new(GollLock::new(2)).private_table(64);
        let mut h = lock.handle().unwrap();
        {
            let _r = h.read();
        }
        {
            let _w = h.write();
        }
        let r = h.read();
        match r.try_upgrade() {
            Ok(w) => drop(w.downgrade()),
            Err(r) => drop(r),
        };
    }
}
