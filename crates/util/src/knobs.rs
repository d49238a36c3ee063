//! The shared tuning-knob block: the policy values something may change
//! while a lock runs, behind one atomics-backed struct.
//!
//! Two values qualify: whether BRAVO reader bias may re-arm (the online
//! controller `oll_core::SelfTuning` and the hazard watchdog steer it)
//! and the NUMA cohort batch bound. Everything else a lock is tuned with
//! is fixed when it is built (the BRAVO re-arm multiplier) or a constant
//! (the backoff caps in [`backoff`](crate::backoff)).
//!
//! Memory ordering: every field is an independent heuristic input — a
//! stale read steers a policy one episode late, never breaks mutual
//! exclusion — so `Relaxed` loads and stores suffice and the loads cost no
//! more than the constants they replaced (an L1-resident line shared with
//! the other knobs, no fences, no RMWs).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Default [`TuningKnobs::cohort_batch`]: consecutive same-socket writer
/// hand-offs a NUMA cohort gate may perform before it must release
/// globally (the remote-starvation bound).
pub const DEFAULT_COHORT_BATCH: u32 = 64;

/// The run-time-steerable knobs, shared between a lock's components
/// (BRAVO wrapper, cohort gate) and whoever steers them while the lock
/// runs.
///
/// All fields default to the long-standing hard-coded values, so a lock
/// nobody steers behaves exactly as before the knobs existed. Setters
/// clamp instead of panicking: a controller may be driven by measured
/// (hence arbitrary) values.
#[derive(Debug)]
pub struct TuningKnobs {
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
        Self {
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
        assert_eq!(k.cohort_batch(), DEFAULT_COHORT_BATCH);
        assert!(k.bias_allowed());
        assert_eq!(k.revision(), 0);
    }

    #[test]
    fn setters_clamp_and_bump_revision() {
        let k = TuningKnobs::new();
        k.set_cohort_batch(0);
        assert_eq!(k.cohort_batch(), 1);
        k.set_bias_allowed(false);
        assert!(!k.bias_allowed());
        assert_eq!(k.revision(), 2);
    }
}
