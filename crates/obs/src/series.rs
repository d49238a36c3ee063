//! The time-series core: per-interval delta windows in a fixed-capacity
//! ring whose evictions fold into a running total, so `totals()` is
//! exact over the whole run no matter how small the ring is.
//!
//! # Why eviction folds instead of drops
//!
//! The sampler's windows are *diffs* of monotone counters (see
//! [`crate::Sampler`]): window `i` holds exactly the events that landed
//! between tick `i-1` and tick `i`. Summing consecutive windows
//! telescopes back to `final - baseline`, so as long as an evicted
//! window's deltas are merged into the ring's evicted totals before
//! it is forgotten, the ring-wide invariant
//!
//! ```text
//! evicted_totals + sum(retained windows) == final snapshot - baseline
//! ```
//!
//! holds with **no lost or double-counted events** — the property
//! `tests/obs.rs` pins by hammering locks through a deliberately tiny
//! ring and comparing against the end-of-run registry sweep.

use oll_telemetry::LockSnapshot;
use std::collections::VecDeque;

/// One sampling interval's worth of per-lock deltas.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// End-of-window time, nanoseconds since the sampler started.
    pub t_ns: u64,
    /// Window length, nanoseconds (`>= 1`; rates divide by this).
    pub dt_ns: u64,
    /// Per-lock deltas for the window; locks with no activity in the
    /// interval are elided, so idle fleets cost almost nothing.
    pub deltas: Vec<LockSnapshot>,
}

impl SampleWindow {
    /// The delta for one lock, if it was active this window.
    pub fn lock(&self, name: &str) -> Option<&LockSnapshot> {
        self.deltas.iter().find(|d| d.name == name)
    }
}

/// A bounded ring of [`SampleWindow`]s with exact fold-on-evict totals.
#[derive(Debug, Clone)]
pub struct SeriesRing {
    capacity: usize,
    windows: VecDeque<SampleWindow>,
    evicted_totals: Vec<LockSnapshot>,
    evicted: u64,
}

/// Merges `delta` into the snapshot with the same name in `acc`,
/// appending a copy if the lock is new.
pub(crate) fn merge_by_name(acc: &mut Vec<LockSnapshot>, delta: &LockSnapshot) {
    match acc.iter_mut().find(|s| s.name == delta.name) {
        Some(s) => s.merge(delta),
        None => acc.push(delta.clone()),
    }
}

impl SeriesRing {
    /// An empty ring retaining at most `capacity` windows (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            evicted_totals: Vec::new(),
            evicted: 0,
        }
    }

    /// Maximum retained windows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a window, folding the oldest into the evicted totals if
    /// the ring is full.
    pub fn push(&mut self, window: SampleWindow) {
        if self.windows.len() == self.capacity {
            if let Some(old) = self.windows.pop_front() {
                for d in &old.deltas {
                    merge_by_name(&mut self.evicted_totals, d);
                }
                self.evicted += 1;
            }
        }
        self.windows.push_back(window);
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &SampleWindow> {
        self.windows.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window was ever pushed (or all were evicted — never,
    /// since eviction only happens on push).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows folded away so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The newest retained window.
    pub fn latest(&self) -> Option<&SampleWindow> {
        self.windows.back()
    }

    /// Exact per-lock totals over the *whole* series — evicted windows
    /// included — equal to `final snapshot - baseline` by telescoping.
    pub fn totals(&self) -> Vec<LockSnapshot> {
        let mut out = self.evicted_totals.clone();
        for w in &self.windows {
            for d in &w.deltas {
                merge_by_name(&mut out, d);
            }
        }
        out
    }
}

/// A point-in-time copy of everything the sampler accumulated: the
/// retained windows, the exact run totals, and the tick bookkeeping.
/// This is what [`Sampler::state`](crate::Sampler::state) and
/// [`Sampler::stop`](crate::Sampler::stop) hand to the renderers.
#[derive(Debug, Clone, Default)]
pub struct ObsState {
    /// Configured sampling interval, nanoseconds (0 when the facade is
    /// compiled out).
    pub interval_ns: u64,
    /// Time since the sampler started, nanoseconds.
    pub elapsed_ns: u64,
    /// Sampling ticks taken.
    pub samples: u64,
    /// Windows folded out of the ring.
    pub windows_evicted: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<SampleWindow>,
    /// Exact per-lock totals since the sampler started.
    pub totals: Vec<LockSnapshot>,
}

impl ObsState {
    /// The newest retained window.
    pub fn latest(&self) -> Option<&SampleWindow> {
        self.windows.last()
    }

    /// The newest retained window in which `name` was active.
    pub fn latest_for(&self, name: &str) -> Option<(&SampleWindow, &LockSnapshot)> {
        self.windows
            .iter()
            .rev()
            .find_map(|w| w.lock(name).map(|d| (w, d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oll_telemetry::LockEvent;

    fn window(t: u64, name: &str, reads: u64) -> SampleWindow {
        let mut s = LockSnapshot::empty(name, "TEST");
        s.events[LockEvent::ReadFast.index()] = reads;
        SampleWindow {
            t_ns: t,
            dt_ns: 1,
            deltas: vec![s],
        }
    }

    #[test]
    fn eviction_folds_not_drops() {
        let mut ring = SeriesRing::new(2);
        for i in 0..5 {
            ring.push(window(i, "a", 10));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 3);
        let totals = ring.totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].get(LockEvent::ReadFast), 50);
    }

    #[test]
    fn totals_merge_across_locks() {
        let mut ring = SeriesRing::new(1);
        ring.push(window(0, "a", 1));
        ring.push(window(1, "b", 2));
        ring.push(window(2, "a", 4));
        let mut totals = ring.totals();
        totals.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(totals[0].get(LockEvent::ReadFast), 5);
        assert_eq!(totals[1].get(LockEvent::ReadFast), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut ring = SeriesRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(window(0, "a", 1));
        ring.push(window(1, "a", 1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.evicted(), 1);
    }
}
