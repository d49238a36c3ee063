//! The decision policy for [`SelfTuning`](super::SelfTuning): classify
//! one completed sampling window into a contention *regime*, and map each
//! regime to a coherent set of [`TuningKnobs`] values.
//!
//! The policy is deliberately a small decision table, not an optimizer:
//! every regime's knob set is a configuration a human would have picked
//! by hand for that workload (the fig. 5 sweeps are exactly these
//! hand-picked points), so the controller can never steer the lock
//! anywhere the static builds have not already been measured. What the
//! controller adds is *selection* — moving between those known-good
//! points as the observed read/write mix and revocation cost change.

use oll_util::backoff::BackoffPolicy;
use oll_util::knobs::{TuningKnobs, DEFAULT_COHORT_BATCH, DEFAULT_REARM_MULTIPLIER};

/// The contention regime a sampling window is classified into.
///
/// Discriminants are stable (they are packed into the `tuner_flip` trace
/// token as `old << 8 | new`) — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Regime {
    /// Reads dominate and writers are rare: bias aggressively toward the
    /// zero-RMW read path.
    ReadHeavy = 0,
    /// No clear winner: the documented default knob values (the regime
    /// every lock starts in).
    Mixed = 1,
    /// Writers are frequent (or bias revocations are thrashing): disarm
    /// reader bias, batch cohort hand-offs harder, and spin longer before
    /// yielding (writer critical sections hand over quickly).
    WriteHeavy = 2,
}

impl Regime {
    /// All regimes, in discriminant order.
    pub const ALL: [Regime; 3] = [Regime::ReadHeavy, Regime::Mixed, Regime::WriteHeavy];

    /// Recovers a regime from its stable discriminant (unknown values
    /// decode as [`Mixed`](Regime::Mixed) — the do-nothing regime).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => Regime::ReadHeavy,
            2 => Regime::WriteHeavy,
            _ => Regime::Mixed,
        }
    }

    /// Stable snake_case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Regime::ReadHeavy => "read_heavy",
            Regime::Mixed => "mixed",
            Regime::WriteHeavy => "write_heavy",
        }
    }
}

/// What one completed sampling window observed — deltas since the
/// previous window, never absolute totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Read acquisitions (fast + slow) attributed to the window.
    pub reads: u64,
    /// Write acquisitions (fast + slow) attributed to the window.
    pub writes: u64,
    /// Slow-path entries among those acquisitions (the sampling clock:
    /// a window closes after `TuningConfig::window` of these).
    pub slow: u64,
    /// BRAVO bias revocations (telemetry builds; 0 otherwise).
    pub revocations: u64,
    /// C-SNZI root CAS failures (telemetry builds; 0 otherwise). Read
    /// arrivals are unconditional `fetch_add`s and never fail, so this
    /// counts the *close side*: writers' `Close` / `CloseIfEmpty`, the
    /// last-departer claim and tree arrivals at the root losing a race —
    /// writers colliding with reader traffic, not readers with each other.
    pub root_cas_fails: u64,
}

impl WindowStats {
    /// Total acquisitions in the window.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Classification thresholds. Defaults follow the paper's workload
/// taxonomy: fig. 5's read-mostly panels are ≥ 90% reads, and reader
/// bias stops paying for itself well before writes reach a third of the
/// mix (BRAVO's own break-even analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// A window is [`ReadHeavy`](Regime::ReadHeavy) when reads make up
    /// at least this percentage of acquisitions (default 90).
    pub read_heavy_pct: u32,
    /// A window is [`WriteHeavy`](Regime::WriteHeavy) when writes make
    /// up at least this percentage of acquisitions (default 30).
    pub write_heavy_pct: u32,
    /// A window with more bias revocations than this is
    /// [`WriteHeavy`](Regime::WriteHeavy) regardless of the mix: each
    /// revocation is a full reader-table scan, so a thrashing bias costs
    /// more than it saves even at high read fractions (default 8).
    pub revocation_limit: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            read_heavy_pct: 90,
            write_heavy_pct: 30,
            revocation_limit: 8,
        }
    }
}

/// [`Regime::WriteHeavy`]'s cohort batch bound: double the default
/// same-socket hand-off budget, trading short-term remote fairness for
/// cache-resident writer throughput while writers dominate anyway.
pub const WRITE_HEAVY_COHORT_BATCH: u32 = 128;

/// [`Regime::WriteHeavy`]'s backoff: spin past the default cap before
/// yielding (writer hand-offs are quick, a yield quantum is not).
pub const WRITE_HEAVY_BACKOFF: BackoffPolicy = BackoffPolicy {
    spin_limit: 8,
    yield_limit: 12,
};

/// Classifies one window. Empty windows (an explicit
/// [`tick`](super::SelfTuning::tick) on an idle lock) are
/// [`Mixed`](Regime::Mixed): no evidence, no steering.
pub fn classify(stats: &WindowStats, cfg: &PolicyConfig) -> Regime {
    let total = stats.total();
    if total == 0 {
        return Regime::Mixed;
    }
    if stats.revocations > cfg.revocation_limit {
        return Regime::WriteHeavy;
    }
    if stats.writes * 100 >= total * u64::from(cfg.write_heavy_pct) {
        Regime::WriteHeavy
    } else if stats.reads * 100 >= total * u64::from(cfg.read_heavy_pct) {
        Regime::ReadHeavy
    } else {
        Regime::Mixed
    }
}

/// Writes `regime`'s knob set into `knobs` — the whole set, every time:
/// regimes are coherent configurations, and partial application after a
/// flip sequence could otherwise leave a hybrid no one measured.
pub fn apply(regime: Regime, knobs: &TuningKnobs) {
    match regime {
        Regime::ReadHeavy => {
            knobs.set_bias_allowed(true);
            // Re-arm almost immediately after a revocation: writers are
            // rare, so revocation overhead is already bounded and the
            // bias pays from the first bypassed read.
            knobs.set_rearm_multiplier(1);
            knobs.set_cohort_batch(DEFAULT_COHORT_BATCH);
            knobs.set_backoff_policy(BackoffPolicy::default());
        }
        Regime::Mixed => {
            knobs.set_bias_allowed(true);
            knobs.set_rearm_multiplier(DEFAULT_REARM_MULTIPLIER);
            knobs.set_cohort_batch(DEFAULT_COHORT_BATCH);
            knobs.set_backoff_policy(BackoffPolicy::default());
        }
        Regime::WriteHeavy => {
            knobs.set_bias_allowed(false);
            knobs.set_rearm_multiplier(DEFAULT_REARM_MULTIPLIER);
            knobs.set_cohort_batch(WRITE_HEAVY_COHORT_BATCH);
            knobs.set_backoff_policy(WRITE_HEAVY_BACKOFF);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64) -> WindowStats {
        WindowStats {
            reads,
            writes,
            slow: reads.min(writes),
            ..WindowStats::default()
        }
    }

    #[test]
    fn classification_thresholds() {
        let cfg = PolicyConfig::default();
        assert_eq!(classify(&stats(0, 0), &cfg), Regime::Mixed);
        assert_eq!(classify(&stats(95, 5), &cfg), Regime::ReadHeavy);
        assert_eq!(classify(&stats(90, 10), &cfg), Regime::ReadHeavy);
        assert_eq!(classify(&stats(80, 20), &cfg), Regime::Mixed);
        assert_eq!(classify(&stats(70, 30), &cfg), Regime::WriteHeavy);
        assert_eq!(classify(&stats(0, 50), &cfg), Regime::WriteHeavy);
    }

    #[test]
    fn revocation_thrash_overrides_a_read_heavy_mix() {
        let cfg = PolicyConfig::default();
        let mut s = stats(99, 1);
        s.revocations = cfg.revocation_limit + 1;
        assert_eq!(classify(&s, &cfg), Regime::WriteHeavy);
        s.revocations = cfg.revocation_limit;
        assert_eq!(classify(&s, &cfg), Regime::ReadHeavy);
    }

    #[test]
    fn apply_writes_the_full_regime_set() {
        let k = TuningKnobs::new();
        apply(Regime::WriteHeavy, &k);
        assert!(!k.bias_allowed());
        assert_eq!(k.rearm_multiplier(), DEFAULT_REARM_MULTIPLIER);
        assert_eq!(k.cohort_batch(), WRITE_HEAVY_COHORT_BATCH);
        assert_eq!(k.backoff_policy(), WRITE_HEAVY_BACKOFF);

        apply(Regime::Mixed, &k);
        assert!(k.bias_allowed());
        assert_eq!(k.rearm_multiplier(), DEFAULT_REARM_MULTIPLIER);
        assert_eq!(k.cohort_batch(), DEFAULT_COHORT_BATCH);
        assert_eq!(k.backoff_policy(), BackoffPolicy::default());

        apply(Regime::ReadHeavy, &k);
        assert!(k.bias_allowed());
        assert_eq!(k.rearm_multiplier(), 1);
        assert_eq!(k.cohort_batch(), DEFAULT_COHORT_BATCH);
        assert_eq!(k.backoff_policy(), BackoffPolicy::default());
    }

    #[test]
    fn regime_discriminants_round_trip() {
        for r in Regime::ALL {
            assert_eq!(Regime::from_u8(r as u8), r);
        }
        assert_eq!(Regime::from_u8(200), Regime::Mixed);
    }
}
