//! The global registry of live, telemetry-enabled lock instances.
//!
//! Every lock built with telemetry on registers itself here under an
//! auto-generated `"<KIND>#<seq>"` name (rename via
//! [`Telemetry::rename`](crate::Telemetry::rename)). The registry holds
//! only weak references: dropping a lock unregisters it implicitly, and
//! dead entries are pruned on the next walk. `snapshot_all` + `diff` is
//! the `lockstat` workflow — snapshot, run the workload, snapshot again,
//! report the difference.

use crate::counters::LockTelemetry;
use crate::snapshot::LockSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

fn entries() -> &'static Mutex<Vec<Weak<LockTelemetry>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<LockTelemetry>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Monotone instance sequence for auto-generated names.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
pub(crate) fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Adds a lock's telemetry to the registry (called on registration).
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
pub(crate) fn register(t: &Arc<LockTelemetry>) {
    let mut g = entries().lock().unwrap();
    g.retain(|w| w.strong_count() > 0);
    g.push(Arc::downgrade(t));
}

/// Snapshots every live registered lock, pruning dropped ones.
pub fn snapshot_all() -> Vec<LockSnapshot> {
    let mut out = Vec::new();
    let mut g = entries().lock().unwrap();
    g.retain(|w| match w.upgrade() {
        Some(t) => {
            out.push(t.snapshot());
            true
        }
        None => false,
    });
    out
}

/// Number of live registered locks.
pub fn live_count() -> usize {
    let mut g = entries().lock().unwrap();
    g.retain(|w| w.strong_count() > 0);
    g.len()
}

/// Pairs two registry sweeps by instance name and returns the per-lock
/// interval deltas (locks present only in `later` are passed through;
/// locks that vanished are dropped).
pub fn diff_sweeps(earlier: &[LockSnapshot], later: &[LockSnapshot]) -> Vec<LockSnapshot> {
    later
        .iter()
        .map(|l| match earlier.iter().find(|e| e.name == l.name) {
            Some(e) => l.diff(e),
            None => l.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LockEvent;

    #[test]
    fn register_snapshot_prune() {
        let t = Arc::new(LockTelemetry::new("reg-test-a".into(), "TEST"));
        register(&t);
        t.add(LockEvent::ReadFast, 7);
        let snaps = snapshot_all();
        let mine = snaps
            .iter()
            .find(|s| s.name == "reg-test-a")
            .expect("registered lock appears in sweep");
        assert_eq!(mine.get(LockEvent::ReadFast), 7);
        let live_before = live_count();
        drop(t);
        assert!(live_count() < live_before, "dropped lock is pruned");
        assert!(snapshot_all().iter().all(|s| s.name != "reg-test-a"));
    }

    #[test]
    fn diff_sweeps_pairs_by_name() {
        let t = Arc::new(LockTelemetry::new("reg-test-b".into(), "TEST"));
        register(&t);
        t.add(LockEvent::WriteSlow, 1);
        let before = snapshot_all();
        t.add(LockEvent::WriteSlow, 4);
        let after = snapshot_all();
        let delta = diff_sweeps(&before, &after);
        let mine = delta.iter().find(|s| s.name == "reg-test-b").unwrap();
        assert_eq!(mine.get(LockEvent::WriteSlow), 4);
    }
}
