//! Contention-aware self-tuning: [`SelfTuning`] arms or disarms a lock's
//! BRAVO reader bias from the read/write mix it observes.
//!
//! # One lever
//!
//! The controller steers one bit, its own [`Veto::Tuner`] in the wrapped
//! lock's [`BiasSwitch`]: per window, a mix with writes at 30 % or more
//! of the acquisitions is [`Regime::WriteHeavy`] and sets the veto; any
//! other mix is [`Regime::Mixed`] and clears it. Clearing it lifts only
//! the controller's own veto: a bias the user or the hazard watchdog
//! forbids stays forbidden. How long the bias stays off after a
//! revocation is BRAVO's own rule (`took × N`, in [`Bravo`](crate::Bravo)),
//! which the controller never overrides: a second controller steering
//! the same bias would break the first one's bound on what biasing costs
//! writers. The decision reads only the handles' own acquisition counts,
//! so it is the same with or without telemetry.
//!
//! [`Veto::Tuner`]: crate::bravo::Veto::Tuner
//! [`BiasSwitch`]: crate::bravo::BiasSwitch
//!
//! # Sampling without a timer thread
//!
//! The controller has no thread and no timer in the default build. Its
//! clock is the lock's own *slow path*: every acquisition that fails the
//! initial `try_lock_*` increments a shared window counter, and when
//! [`TuningConfig::window`] slow entries have accumulated, the thread
//! that crosses the threshold — and wins a CAS on a single decider gate —
//! closes the window: it snapshots the counter deltas, classifies the
//! window into a [`Regime`], and (subject to hysteresis and cooldown)
//! sets or clears its veto. Threads that lose the gate race
//! just continue into their acquisition; a decision is never worth
//! waiting for.
//!
//! This gives the zero-overhead property the BRAVO bias already has: an
//! uncontended lock never enters the slow path, so the controller never
//! runs — handles count their fast acquisitions in a plain handle-local
//! integer (no shared RMW, no fence) that is only flushed to the shared
//! counters when a slow entry or [`TunedHandle::flush`] happens anyway.
//! A lock that settles into the bypassed read path pays *nothing* per
//! acquisition for having a controller attached.
//!
//! For deployments that want wall-clock-paced decisions even under pure
//! fast-path traffic (e.g. driven from the `oll-obs` sampler daemon's
//! loop), [`SelfTuning::tick`] closes a window explicitly; the same
//! entry point makes every controller decision deterministic in tests.
//!
//! # Stability
//!
//! Two mechanisms bound oscillation:
//!
//! 1. **Hysteresis** — a regime change is applied only after the *same*
//!    proposed regime has won [`TuningConfig::hysteresis`] consecutive
//!    windows. A square-wave workload that alternates regimes every
//!    window therefore produces *zero* flips (each window resets the
//!    streak), while a genuine phase change flips exactly once.
//! 2. **Cooldown** — after a flip, proposals are held for
//!    [`TuningConfig::cooldown`] further windows, capping the decision
//!    rate at one flip per `max(hysteresis, cooldown + 1)` windows (3 at
//!    the defaults) even under adversarial workloads.
//!
//! Held proposals are still visible (`tuner_hold` telemetry/trace
//! events), so the trace analyzer can show *why* the controller did not
//! move.

use crate::bravo::{BiasSwitch, Veto};
use crate::raw::{RwHandle, RwLockFamily, TimedHandle, TimedOut, UpgradableHandle};
use oll_telemetry::{LockEvent, Telemetry};
use oll_util::backoff::Deadline;
use oll_util::fault;
use oll_util::slots::SlotError;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// A window is [`Regime::WriteHeavy`] when writes make up at least this
/// percentage of its acquisitions: reader bias stops paying for itself
/// well before writes reach a third of the mix (BRAVO's own break-even
/// analysis).
const WRITE_HEAVY_PCT: u64 = 30;

/// The regime a sampling window is classified into.
///
/// Discriminants are stable (they are packed into the `tuner_flip` trace
/// token as `old << 8 | new`) — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Regime {
    /// Reads dominate, or no clear winner: the bias may arm (the regime
    /// every lock starts in).
    Mixed = 1,
    /// Writers are frequent: the bias stays disarmed.
    WriteHeavy = 2,
}

impl Regime {
    /// All regimes, in discriminant order.
    pub const ALL: [Regime; 2] = [Regime::Mixed, Regime::WriteHeavy];

    /// Recovers a regime from its stable discriminant (unknown values
    /// decode as [`Mixed`](Regime::Mixed) — the do-nothing regime).
    pub fn from_u8(v: u8) -> Self {
        match v {
            2 => Regime::WriteHeavy,
            _ => Regime::Mixed,
        }
    }

    /// Stable snake_case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Mixed => "mixed",
            Regime::WriteHeavy => "write_heavy",
        }
    }

    /// Classifies one window's `reads` and `writes` (deltas since the
    /// previous window). An empty window (an explicit
    /// [`tick`](SelfTuning::tick) on an idle lock) is
    /// [`Mixed`](Regime::Mixed): no evidence, no steering.
    fn classify(reads: u64, writes: u64) -> Self {
        let total = reads + writes;
        if total > 0 && writes * 100 >= total * WRITE_HEAVY_PCT {
            Regime::WriteHeavy
        } else {
            Regime::Mixed
        }
    }
}

/// Controller pacing: how often windows close and how reluctantly the
/// policy moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningConfig {
    /// Slow-path entries per sampling window (default 64). Smaller
    /// windows react faster but classify noisier mixes.
    pub window: u32,
    /// Consecutive windows the same new regime must win before it is
    /// applied (default 2). `1` disables hysteresis.
    pub hysteresis: u32,
    /// Windows after a flip during which further proposals are held
    /// (default 2). `0` disables the cooldown.
    pub cooldown: u32,
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self {
            window: 64,
            hysteresis: 2,
            cooldown: 2,
        }
    }
}

/// Shared controller state. All fields are `Relaxed`: they are heuristic
/// inputs and bookkeeping, never synchronization — the single-decider
/// gate is the only acquire/release edge, and even that only protects
/// the `prev_*` delta baselines from concurrent deciders.
struct CtlShared {
    /// Total read acquisitions flushed by handles (fast + slow).
    reads: AtomicU64,
    /// Total write acquisitions flushed by handles (fast + slow).
    writes: AtomicU64,
    /// Slow entries since the last window close (the sampling clock).
    window_slow: AtomicU32,
    /// Single-decider gate: the thread that CASes this `false → true`
    /// owns the window close; everyone else skips.
    deciding: AtomicBool,
    /// Completed windows (`tuner_sample` count).
    windows: AtomicU64,
    /// Applied regime changes (`tuner_flip` count).
    flips: AtomicU64,
    /// Proposals suppressed by hysteresis or cooldown (`tuner_hold`).
    holds: AtomicU64,
    /// Currently applied [`Regime`] discriminant.
    regime: AtomicU32,
    /// Regime proposed by the most recent disagreeing window.
    pending_regime: AtomicU32,
    /// Consecutive windows that proposed `pending_regime`.
    pending_streak: AtomicU32,
    /// Windows remaining before a new flip may be applied.
    cooldown_left: AtomicU32,
    /// Delta baselines: totals as of the last window close.
    prev_reads: AtomicU64,
    prev_writes: AtomicU64,
}

impl CtlShared {
    fn new() -> Self {
        Self {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            window_slow: AtomicU32::new(0),
            deciding: AtomicBool::new(false),
            windows: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            regime: AtomicU32::new(Regime::Mixed as u32),
            pending_regime: AtomicU32::new(Regime::Mixed as u32),
            pending_streak: AtomicU32::new(0),
            cooldown_left: AtomicU32::new(0),
            prev_reads: AtomicU64::new(0),
            prev_writes: AtomicU64::new(0),
        }
    }
}

/// A lock wrapped with the online bias controller.
///
/// Wrap a [`Bravo`](crate::Bravo) lock (say, `build_biased()`'s): the
/// controller sets or clears its veto on the bias from the lock's own
/// observed read/write mix. Wrapping a lock without a bias is harmless:
/// the controller still classifies, and stores nothing.
///
/// ```
/// use oll_core::raw::{RwHandle, RwLockFamily};
/// use oll_core::{FollBuilder, SelfTuning};
///
/// let lock = SelfTuning::new(FollBuilder::new(4).build_biased());
/// let mut h = lock.handle().unwrap();
/// let guard = h.read();
/// drop(guard);
/// ```
pub struct SelfTuning<L: RwLockFamily> {
    inner: L,
    telemetry: Telemetry,
    ctl: CtlShared,
    config: TuningConfig,
}

impl<L: RwLockFamily> SelfTuning<L> {
    /// Wraps `inner` with the default pacing.
    pub fn new(inner: L) -> Self {
        Self::with_config(inner, TuningConfig::default())
    }

    /// Wraps `inner` with explicit pacing (tests use a `window` of 1 plus
    /// [`tick`](Self::tick) for determinism).
    pub fn with_config(inner: L, config: TuningConfig) -> Self {
        let telemetry = inner.telemetry();
        Self {
            inner,
            telemetry,
            ctl: CtlShared::new(),
            config: TuningConfig {
                window: config.window.max(1),
                hysteresis: config.hysteresis.max(1),
                cooldown: config.cooldown,
            },
        }
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps the controller, returning the inner lock (the
    /// controller's veto stays as it last set it).
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// The currently applied regime.
    pub fn regime(&self) -> Regime {
        Regime::from_u8(self.ctl.regime.load(Ordering::Relaxed) as u8)
    }

    /// Completed sampling windows.
    pub fn windows(&self) -> u64 {
        self.ctl.windows.load(Ordering::Relaxed)
    }

    /// Applied regime changes.
    pub fn flips(&self) -> u64 {
        self.ctl.flips.load(Ordering::Relaxed)
    }

    /// Proposals held back by hysteresis or cooldown.
    pub fn holds(&self) -> u64 {
        self.ctl.holds.load(Ordering::Relaxed)
    }

    /// Closes a sampling window *now*, regardless of how many slow
    /// entries have accumulated — the entry point for wall-clock-paced
    /// steering (the `oll-obs` sampler loop) and for deterministic
    /// tests. No-op if another thread is mid-decision.
    pub fn tick(&self) {
        self.try_close_window();
    }

    /// Window-close attempt: win the decider gate or walk away.
    fn try_close_window(&self) {
        if self
            .ctl
            .deciding
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.ctl.window_slow.store(0, Ordering::Relaxed);
        self.decide();
        self.ctl.deciding.store(false, Ordering::Release);
    }

    /// Snapshots this window's `(reads, writes)` deltas, moving the
    /// baselines forward. Gate-holder only (the `prev_*` swaps are not
    /// idempotent).
    fn window_delta(&self) -> (u64, u64) {
        let c = &self.ctl;
        let reads = c.reads.load(Ordering::Relaxed);
        let writes = c.writes.load(Ordering::Relaxed);
        (
            reads.saturating_sub(c.prev_reads.swap(reads, Ordering::Relaxed)),
            writes.saturating_sub(c.prev_writes.swap(writes, Ordering::Relaxed)),
        )
    }

    /// One controller decision. Gate-holder only.
    fn decide(&self) {
        let (reads, writes) = self.window_delta();
        self.ctl.windows.fetch_add(1, Ordering::Relaxed);
        self.telemetry.incr(LockEvent::TunerSample);
        let proposed = Regime::classify(reads, writes);
        // The arm/disarm race window: a fault plan targeting this site
        // yields the decider between classification and application,
        // letting readers/writers interleave with a half-made decision.
        fault::inject_yield_only("tuning.decide");
        let current = Regime::from_u8(self.ctl.regime.load(Ordering::Relaxed) as u8);
        let cooldown = self.ctl.cooldown_left.load(Ordering::Relaxed);
        if proposed == current {
            // Agreement: clear any pending streak and burn cooldown.
            self.ctl.pending_streak.store(0, Ordering::Relaxed);
            if cooldown > 0 {
                self.ctl
                    .cooldown_left
                    .store(cooldown - 1, Ordering::Relaxed);
            }
            return;
        }
        let pending = Regime::from_u8(self.ctl.pending_regime.load(Ordering::Relaxed) as u8);
        let streak = if proposed == pending {
            self.ctl.pending_streak.load(Ordering::Relaxed) + 1
        } else {
            1
        };
        self.ctl
            .pending_regime
            .store(proposed as u32, Ordering::Relaxed);
        self.ctl.pending_streak.store(streak, Ordering::Relaxed);
        if streak >= self.config.hysteresis && cooldown == 0 {
            if let Some(switch) = self.inner.bias_switch() {
                switch.set_veto(Veto::Tuner, proposed == Regime::WriteHeavy);
            }
            self.ctl.regime.store(proposed as u32, Ordering::Relaxed);
            self.ctl.pending_streak.store(0, Ordering::Relaxed);
            self.ctl
                .cooldown_left
                .store(self.config.cooldown, Ordering::Relaxed);
            self.ctl.flips.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .record_policy_flip((u64::from(current as u8) << 8) | u64::from(proposed as u8));
        } else {
            if cooldown > 0 {
                self.ctl
                    .cooldown_left
                    .store(cooldown - 1, Ordering::Relaxed);
            }
            self.ctl.holds.fetch_add(1, Ordering::Relaxed);
            self.telemetry.incr(LockEvent::TunerHold);
        }
    }
}

impl<L: RwLockFamily> RwLockFamily for SelfTuning<L> {
    type Handle<'a>
        = TunedHandle<'a, L>
    where
        Self: 'a;

    fn handle(&self) -> Result<Self::Handle<'_>, SlotError> {
        Ok(TunedHandle {
            inner: self.inner.handle()?,
            lock: self,
            fast_reads: 0,
            fast_writes: 0,
        })
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        // Deliberately transparent: a tuned FOLL reports as FOLL so
        // per-lock results stay comparable; "tuned or not" is a
        // run-level fact (the fig5 JSON member name, the lockstat flag).
        self.inner.name()
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn bias_switch(&self) -> Option<&BiasSwitch> {
        self.inner.bias_switch()
    }
}

/// Per-thread handle for [`SelfTuning`]: a try-then-block wrapper over
/// the inner lock's handle.
///
/// `lock_read`/`lock_write` first attempt the inner `try_lock_*` — a
/// success takes exactly the inner lock's fast path (for a biased lock,
/// the zero-RMW bypass) plus one handle-local counter increment. Only a
/// failed try is a *slow entry*: it flushes the local counters, ticks
/// the sampling window, and falls back to the inner blocking path.
pub struct TunedHandle<'a, L: RwLockFamily + 'a> {
    inner: L::Handle<'a>,
    lock: &'a SelfTuning<L>,
    /// Fast read acquisitions not yet flushed to the shared counters.
    fast_reads: u32,
    /// Fast write acquisitions not yet flushed to the shared counters.
    fast_writes: u32,
}

impl<'a, L: RwLockFamily> TunedHandle<'a, L> {
    /// The wrapped handle (e.g. to reach lock-specific extensions).
    pub fn inner(&mut self) -> &mut L::Handle<'a> {
        &mut self.inner
    }

    /// Publishes the handle-local fast-path counts to the shared
    /// controller counters. Runs automatically on every slow entry and
    /// on drop; obs-driven deployments call it before
    /// [`SelfTuning::tick`] so purely-fast-path handles are visible.
    pub fn flush(&mut self) {
        if self.fast_reads > 0 {
            self.lock
                .ctl
                .reads
                .fetch_add(u64::from(self.fast_reads), Ordering::Relaxed);
            self.fast_reads = 0;
        }
        if self.fast_writes > 0 {
            self.lock
                .ctl
                .writes
                .fetch_add(u64::from(self.fast_writes), Ordering::Relaxed);
            self.fast_writes = 0;
        }
    }

    /// Records a slow-path entry and closes the window if this entry
    /// filled it.
    fn note_slow(&mut self, write: bool) {
        self.flush();
        let ctl = &self.lock.ctl;
        if write {
            ctl.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            ctl.reads.fetch_add(1, Ordering::Relaxed);
        }
        let filled = ctl.window_slow.fetch_add(1, Ordering::Relaxed) + 1;
        if filled >= self.lock.config.window {
            self.lock.try_close_window();
        }
    }
}

impl<L: RwLockFamily> RwHandle for TunedHandle<'_, L> {
    fn lock_read(&mut self) {
        if self.inner.try_lock_read() {
            self.fast_reads = self.fast_reads.saturating_add(1);
            return;
        }
        self.note_slow(false);
        self.inner.lock_read();
    }

    fn unlock_read(&mut self) {
        self.inner.unlock_read();
    }

    fn lock_write(&mut self) {
        if self.inner.try_lock_write() {
            self.fast_writes = self.fast_writes.saturating_add(1);
            return;
        }
        self.note_slow(true);
        self.inner.lock_write();
    }

    fn unlock_write(&mut self) {
        self.inner.unlock_write();
    }

    fn try_lock_read(&mut self) -> bool {
        if self.inner.try_lock_read() {
            self.fast_reads = self.fast_reads.saturating_add(1);
            true
        } else {
            false
        }
    }

    fn try_lock_write(&mut self) -> bool {
        if self.inner.try_lock_write() {
            self.fast_writes = self.fast_writes.saturating_add(1);
            true
        } else {
            false
        }
    }
}

impl<L: RwLockFamily> Drop for TunedHandle<'_, L> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(not(loom))]
impl<'a, L: RwLockFamily> TimedHandle for TunedHandle<'a, L>
where
    L::Handle<'a>: TimedHandle,
{
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        if self.inner.try_lock_read() {
            self.fast_reads = self.fast_reads.saturating_add(1);
            return Ok(());
        }
        self.note_slow(false);
        self.inner.lock_read_deadline(deadline)
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        if self.inner.try_lock_write() {
            self.fast_writes = self.fast_writes.saturating_add(1);
            return Ok(());
        }
        self.note_slow(true);
        self.inner.lock_write_deadline(deadline)
    }
}

impl<'a, L: RwLockFamily> UpgradableHandle for TunedHandle<'a, L>
where
    L::Handle<'a>: UpgradableHandle,
{
    fn try_upgrade(&mut self) -> bool {
        self.inner.try_upgrade()
    }

    fn downgrade(&mut self) {
        self.inner.downgrade();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn classification_thresholds() {
        assert_eq!(Regime::classify(0, 0), Regime::Mixed);
        assert_eq!(Regime::classify(95, 5), Regime::Mixed);
        assert_eq!(Regime::classify(90, 10), Regime::Mixed);
        assert_eq!(Regime::classify(71, 29), Regime::Mixed);
        assert_eq!(Regime::classify(70, 30), Regime::WriteHeavy);
        assert_eq!(Regime::classify(0, 50), Regime::WriteHeavy);
    }

    #[test]
    fn regime_discriminants_round_trip() {
        for r in Regime::ALL {
            assert_eq!(Regime::from_u8(r as u8), r);
        }
        assert_eq!(Regime::Mixed as u8, 1);
        assert_eq!(Regime::WriteHeavy as u8, 2);
        assert_eq!(Regime::from_u8(0), Regime::Mixed);
        assert_eq!(Regime::from_u8(200), Regime::Mixed);
    }
}
