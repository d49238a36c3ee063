//! Per-lock health scoring: collapse a telemetry total (plus optional
//! trace-analyzer anomalies) into one [`LockHealth`] level a policy
//! layer can act on.
//!
//! The levels are ordered by severity so a future `SelfTuning<L>` can
//! compare them directly: anything at or above
//! [`LockHealth::Contended`] is a reason to adapt (batch cohort hand-offs,
//! drop reader bias), anything at [`LockHealth::Degraded`] is a reason
//! to alert. Scoring uses only ratios over the scored interval — never
//! absolute counts — so the same thresholds work for a 100 ms window
//! and a whole run.

use crate::series::ObsState;
use crate::TraceReport;
use oll_telemetry::trace::Timeline;
use oll_telemetry::{LockEvent, LockSnapshot};

/// Health of one lock over a scored interval, worst condition wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockHealth {
    /// No acquisitions in the interval.
    Idle,
    /// Traffic present, nothing notable.
    Healthy,
    /// High traffic, still mostly fast-path.
    Busy,
    /// A large slow-path share, a convoy, or heavy bias revocation.
    Contended,
    /// Waiters giving up (timeouts) or outwaiting the distribution
    /// (watchdog stalls, trace-analyzer starvation).
    Starving,
    /// The lock is impaired: poisoned, a deadlock was detected, or the
    /// watchdog forced the bias off.
    Degraded,
}

impl LockHealth {
    /// Every level, mildest first.
    pub const ALL: [LockHealth; 6] = [
        LockHealth::Idle,
        LockHealth::Healthy,
        LockHealth::Busy,
        LockHealth::Contended,
        LockHealth::Starving,
        LockHealth::Degraded,
    ];

    /// Stable snake_case name (JSON value / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            LockHealth::Idle => "idle",
            LockHealth::Healthy => "healthy",
            LockHealth::Busy => "busy",
            LockHealth::Contended => "contended",
            LockHealth::Starving => "starving",
            LockHealth::Degraded => "degraded",
        }
    }

    /// Numeric severity for gauges and comparisons: 0 (idle) … 5
    /// (degraded).
    pub fn severity(self) -> u8 {
        match self {
            LockHealth::Idle => 0,
            LockHealth::Healthy => 1,
            LockHealth::Busy => 2,
            LockHealth::Contended => 3,
            LockHealth::Starving => 4,
            LockHealth::Degraded => 5,
        }
    }
}

/// Scoring thresholds (all ratios are per scored interval).
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Slow-path share of acquisitions above which a lock is
    /// [`LockHealth::Contended`].
    pub contended_slow_ratio: f64,
    /// Bias revocations per write above which a biased lock is
    /// [`LockHealth::Contended`] (BRAVO's revocation-cost signal).
    pub contended_revoke_ratio: f64,
    /// Timeouts per acquisition *attempt* above which a lock is
    /// [`LockHealth::Starving`].
    pub starving_timeout_ratio: f64,
    /// Acquisitions per second above which a lock is at least
    /// [`LockHealth::Busy`].
    pub busy_rate: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            contended_slow_ratio: 0.25,
            contended_revoke_ratio: 0.5,
            starving_timeout_ratio: 0.05,
            busy_rate: 100_000.0,
        }
    }
}

/// One lock's health verdict with the evidence that produced it.
#[derive(Debug, Clone)]
pub struct LockHealthReport {
    /// Instance name.
    pub name: String,
    /// Lock algorithm.
    pub kind: String,
    /// The verdict (worst triggered condition).
    pub health: LockHealth,
    /// Total acquisitions scored.
    pub acquires: u64,
    /// Reads / acquisitions, if any (BRAVO's bias signal).
    pub read_ratio: Option<f64>,
    /// Slow-path acquisitions / acquisitions, if any.
    pub slow_ratio: Option<f64>,
    /// Acquisitions per second over the most recent active window
    /// (0 when the lock never appeared in a window).
    pub acquire_rate: f64,
    /// Which conditions fired, in evaluation order.
    pub reasons: Vec<&'static str>,
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// Scores one lock from its interval totals and its recent rate.
pub fn score(total: &LockSnapshot, acquire_rate: f64, cfg: &HealthConfig) -> LockHealthReport {
    let reads = total.reads();
    let writes = total.writes();
    let acquires = reads + writes;
    let slow = total.get(LockEvent::ReadSlow) + total.get(LockEvent::WriteSlow);
    let slow_ratio = ratio(slow, acquires);
    let mut health = if acquires == 0 {
        LockHealth::Idle
    } else {
        LockHealth::Healthy
    };
    let mut reasons = Vec::new();
    let mut raise = |level: LockHealth, why: &'static str, reasons: &mut Vec<&'static str>| {
        reasons.push(why);
        if level > health {
            health = level;
        }
    };

    if acquires > 0 && acquire_rate > cfg.busy_rate {
        raise(LockHealth::Busy, "hot", &mut reasons);
    }
    if slow_ratio.is_some_and(|r| r > cfg.contended_slow_ratio) {
        raise(LockHealth::Contended, "slow_path_heavy", &mut reasons);
    }
    if ratio(total.get(LockEvent::BiasRevoke), writes)
        .is_some_and(|r| r > cfg.contended_revoke_ratio)
    {
        raise(LockHealth::Contended, "bias_thrash", &mut reasons);
    }
    let attempts = acquires + total.get(LockEvent::Timeout);
    if ratio(total.get(LockEvent::Timeout), attempts)
        .is_some_and(|r| r > cfg.starving_timeout_ratio)
    {
        raise(LockHealth::Starving, "timeouts", &mut reasons);
    }
    if total.get(LockEvent::WatchdogStall) > 0 {
        raise(LockHealth::Starving, "watchdog_stall", &mut reasons);
    }
    if total.get(LockEvent::Poisoned) > total.get(LockEvent::PoisonCleared) {
        raise(LockHealth::Degraded, "poisoned", &mut reasons);
    }
    if total.get(LockEvent::DeadlockDetected) > 0 {
        raise(LockHealth::Degraded, "deadlock_detected", &mut reasons);
    }
    if total.get(LockEvent::BiasDegraded) > 0 {
        raise(LockHealth::Degraded, "bias_degraded", &mut reasons);
    }

    LockHealthReport {
        name: total.name.clone(),
        kind: total.kind.clone(),
        health,
        acquires,
        read_ratio: ratio(reads, acquires),
        slow_ratio,
        acquire_rate,
        reasons,
    }
}

/// Scores every lock in a sampler state: totals give the ratios, the
/// most recent active window gives the rate.
pub fn score_all(state: &ObsState, cfg: &HealthConfig) -> Vec<LockHealthReport> {
    state
        .totals
        .iter()
        .map(|total| {
            let rate = state
                .latest_for(&total.name)
                .map(|(w, d)| {
                    let acquires = d.reads() + d.writes();
                    acquires as f64 / (w.dt_ns.max(1) as f64 / 1e9)
                })
                .unwrap_or(0.0);
            score(total, rate, cfg)
        })
        .collect()
}

/// Escalates verdicts with the trace analyzer's anomaly passes: a
/// convoy marks its lock at least [`LockHealth::Contended`], a
/// starvation at least [`LockHealth::Starving`]. Locks are matched by
/// instance name (telemetry and trace registrations share it), so a
/// report scored from sampler totals can absorb flight-recorder
/// evidence without either layer knowing the other's ids.
pub fn apply_trace_anomalies(reports: &mut [LockHealthReport], tl: &Timeline, trace: &TraceReport) {
    let mut escalate = |lock_id: u32, level: LockHealth, why: &'static str| {
        let name = tl.lock_name(lock_id);
        if let Some(r) = reports.iter_mut().find(|r| r.name == name) {
            if !r.reasons.contains(&why) {
                r.reasons.push(why);
            }
            if level > r.health {
                r.health = level;
            }
        }
    };
    for c in &trace.convoys {
        escalate(c.lock, LockHealth::Contended, "convoy");
    }
    for s in &trace.starvations {
        escalate(s.lock, LockHealth::Starving, "starved_waiter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str) -> LockSnapshot {
        LockSnapshot::empty(name, "TEST")
    }

    fn set(s: &mut LockSnapshot, e: LockEvent, v: u64) {
        s.events[e.index()] = v;
    }

    #[test]
    fn severity_orders_the_levels() {
        let mut last: Option<LockHealth> = None;
        for h in LockHealth::ALL {
            if let Some(prev) = last {
                assert!(h > prev);
                assert!(h.severity() > prev.severity());
            }
            last = Some(h);
            assert!(!h.name().is_empty());
        }
    }

    #[test]
    fn idle_then_healthy_then_busy() {
        let cfg = HealthConfig::default();
        let mut s = snap("l");
        assert_eq!(score(&s, 0.0, &cfg).health, LockHealth::Idle);
        set(&mut s, LockEvent::ReadFast, 100);
        assert_eq!(score(&s, 10.0, &cfg).health, LockHealth::Healthy);
        let busy = score(&s, 1_000_000.0, &cfg);
        assert_eq!(busy.health, LockHealth::Busy);
        assert!(busy.reasons.contains(&"hot"));
        assert_eq!(busy.read_ratio, Some(1.0));
    }

    #[test]
    fn slow_path_share_means_contended() {
        let cfg = HealthConfig::default();
        let mut s = snap("l");
        set(&mut s, LockEvent::ReadFast, 50);
        set(&mut s, LockEvent::WriteSlow, 50);
        let r = score(&s, 0.0, &cfg);
        assert_eq!(r.health, LockHealth::Contended);
        assert_eq!(r.slow_ratio, Some(0.5));
    }

    #[test]
    fn hazard_counters_degrade() {
        let cfg = HealthConfig::default();
        let mut s = snap("l");
        set(&mut s, LockEvent::ReadFast, 10);
        set(&mut s, LockEvent::Poisoned, 1);
        assert_eq!(score(&s, 0.0, &cfg).health, LockHealth::Degraded);
        // A cleared poison no longer degrades…
        set(&mut s, LockEvent::PoisonCleared, 1);
        assert_eq!(score(&s, 0.0, &cfg).health, LockHealth::Healthy);
        // …but a forced bias degradation always does.
        set(&mut s, LockEvent::BiasDegraded, 1);
        assert_eq!(score(&s, 0.0, &cfg).health, LockHealth::Degraded);
    }

    #[test]
    fn timeouts_starve() {
        let cfg = HealthConfig::default();
        let mut s = snap("l");
        set(&mut s, LockEvent::WriteFast, 10);
        set(&mut s, LockEvent::Timeout, 10);
        let r = score(&s, 0.0, &cfg);
        assert_eq!(r.health, LockHealth::Starving);
        assert!(r.reasons.contains(&"timeouts"));
    }

    #[test]
    fn worst_condition_wins() {
        let cfg = HealthConfig::default();
        let mut s = snap("l");
        set(&mut s, LockEvent::WriteSlow, 100); // contended…
        set(&mut s, LockEvent::DeadlockDetected, 1); // …and degraded
        let r = score(&s, 1e9, &cfg);
        assert_eq!(r.health, LockHealth::Degraded);
        assert!(r.reasons.len() >= 3, "{:?}", r.reasons);
    }
}
