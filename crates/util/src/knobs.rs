//! The shared tuning-knob block: every runtime-steerable policy constant
//! in the workspace, behind one atomics-backed struct.
//!
//! Before this module each knob was a hard-coded constant or a
//! construction-time field scattered across crates: the BRAVO re-arm
//! multiplier and the cohort batch bound in `oll-core`, and the backoff
//! spin caps in [`BackoffPolicy`]. A static build and a self-tuned
//! build therefore read *different* sources of truth. Now both read a
//! [`TuningKnobs`] instance: lock builders write their configured (or
//! default) values into it at construction, the hot paths load from it
//! with `Relaxed` atomics, and an online controller
//! (`oll_core::SelfTuning`) may store new values at any time without
//! stopping the lock.
//!
//! Memory ordering: every field is an independent heuristic input — a
//! stale read steers a policy one episode late, never breaks mutual
//! exclusion — so `Relaxed` loads and stores suffice and the loads cost no
//! more than the constants they replaced (an L1-resident line shared with
//! the other knobs, no fences, no RMWs).

use crate::backoff::BackoffPolicy;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Default [`TuningKnobs::rearm_multiplier`]: BRAVO's `N` — after a bias
/// revocation that took `T` ns, re-arming is inhibited for `N × T` ns, so
/// revocation overhead is bounded at roughly `1/(N+1)` of runtime. The
/// BRAVO paper uses 9 (at most ~10% of time spent revoking).
pub const DEFAULT_REARM_MULTIPLIER: u32 = 9;

/// Default [`TuningKnobs::cohort_batch`]: consecutive same-socket writer
/// hand-offs a NUMA cohort gate may perform before it must release
/// globally (the remote-starvation bound).
pub const DEFAULT_COHORT_BATCH: u32 = 64;

/// Every runtime-steerable tuning knob, shared between a lock's
/// components (BRAVO wrapper, cohort gate, backoff loops) and
/// whoever steers them — a builder writing static configuration once, or
/// an online controller storing new values while the lock runs.
///
/// All fields default to the long-standing hard-coded values, so a lock
/// that never attaches a controller behaves exactly as before the knobs
/// existed. Setters clamp instead of panicking: the controller may be
/// driven by measured (hence arbitrary) values.
#[derive(Debug)]
pub struct TuningKnobs {
    /// See [`DEFAULT_REARM_MULTIPLIER`].
    rearm_multiplier: AtomicU32,
    /// [`BackoffPolicy::spin_limit`] for the owning lock's wait loops.
    /// The hard [`MAX_SPIN_EXPONENT`](crate::backoff::MAX_SPIN_EXPONENT)
    /// ceiling still applies downstream, whatever is stored here.
    spin_limit: AtomicU32,
    /// [`BackoffPolicy::yield_limit`] for the owning lock's wait loops.
    yield_limit: AtomicU32,
    /// See [`DEFAULT_COHORT_BATCH`]. Clamped to ≥ 1.
    cohort_batch: AtomicU32,
    /// Whether BRAVO reader bias may (re-)arm. Disarming does not revoke
    /// an armed bias by itself — the next writer does that — it prevents
    /// the post-revocation re-arm, so the lock settles into unbiased
    /// operation within one writer episode.
    bias_allowed: AtomicBool,
    /// Bumped once per knob store; cheap change detection for tests and
    /// observers (no ABA guarantees needed — observers only ask "did
    /// anything change since I last looked").
    revision: AtomicU32,
}

impl Default for TuningKnobs {
    fn default() -> Self {
        Self::new()
    }
}

impl TuningKnobs {
    /// Knobs at their documented defaults (the historical constants).
    pub fn new() -> Self {
        let backoff = BackoffPolicy::default();
        Self {
            rearm_multiplier: AtomicU32::new(DEFAULT_REARM_MULTIPLIER),
            spin_limit: AtomicU32::new(backoff.spin_limit),
            yield_limit: AtomicU32::new(backoff.yield_limit),
            cohort_batch: AtomicU32::new(DEFAULT_COHORT_BATCH),
            bias_allowed: AtomicBool::new(true),
            revision: AtomicU32::new(0),
        }
    }

    /// A freshly defaulted instance behind an `Arc`, ready to hand to a
    /// lock builder and a controller.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    #[inline]
    fn bump(&self) {
        self.revision.fetch_add(1, Ordering::Relaxed);
    }

    /// Store revision counter; bumped on every setter call.
    #[inline]
    pub fn revision(&self) -> u32 {
        self.revision.load(Ordering::Relaxed)
    }

    /// BRAVO re-arm inhibit multiplier.
    #[inline]
    pub fn rearm_multiplier(&self) -> u32 {
        self.rearm_multiplier.load(Ordering::Relaxed)
    }

    /// Sets [`rearm_multiplier`](Self::rearm_multiplier).
    pub fn set_rearm_multiplier(&self, v: u32) {
        self.rearm_multiplier.store(v, Ordering::Relaxed);
        self.bump();
    }

    /// Current backoff policy snapshot for a wait loop about to start.
    #[inline]
    pub fn backoff_policy(&self) -> BackoffPolicy {
        BackoffPolicy {
            spin_limit: self.spin_limit.load(Ordering::Relaxed),
            yield_limit: self.yield_limit.load(Ordering::Relaxed),
        }
    }

    /// Sets both backoff caps from a policy value.
    pub fn set_backoff_policy(&self, policy: BackoffPolicy) {
        self.spin_limit.store(policy.spin_limit, Ordering::Relaxed);
        self.yield_limit
            .store(policy.yield_limit, Ordering::Relaxed);
        self.bump();
    }

    /// Cohort same-socket hand-off batch bound (≥ 1).
    #[inline]
    pub fn cohort_batch(&self) -> u32 {
        self.cohort_batch.load(Ordering::Relaxed).max(1)
    }

    /// Sets [`cohort_batch`](Self::cohort_batch) (clamped to ≥ 1).
    pub fn set_cohort_batch(&self, v: u32) {
        self.cohort_batch.store(v.max(1), Ordering::Relaxed);
        self.bump();
    }

    /// Whether BRAVO reader bias may (re-)arm.
    #[inline]
    pub fn bias_allowed(&self) -> bool {
        self.bias_allowed.load(Ordering::Relaxed)
    }

    /// Allows or inhibits BRAVO bias re-arming.
    pub fn set_bias_allowed(&self, v: bool) {
        self.bias_allowed.store(v, Ordering::Relaxed);
        self.bump();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_constants() {
        let k = TuningKnobs::new();
        assert_eq!(k.rearm_multiplier(), DEFAULT_REARM_MULTIPLIER);
        assert_eq!(k.cohort_batch(), DEFAULT_COHORT_BATCH);
        assert_eq!(k.backoff_policy(), BackoffPolicy::default());
        assert!(k.bias_allowed());
        assert_eq!(k.revision(), 0);
    }

    #[test]
    fn setters_clamp_and_bump_revision() {
        let k = TuningKnobs::new();
        k.set_cohort_batch(0);
        assert_eq!(k.cohort_batch(), 1);
        k.set_rearm_multiplier(3);
        assert_eq!(k.rearm_multiplier(), 3);
        k.set_bias_allowed(false);
        assert!(!k.bias_allowed());
        let p = BackoffPolicy {
            spin_limit: 2,
            yield_limit: 5,
        };
        k.set_backoff_policy(p);
        assert_eq!(k.backoff_policy(), p);
        assert_eq!(k.revision(), 4);
    }
}
