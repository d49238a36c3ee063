//! The daemon behind the [`Sampler`](crate::Sampler) facade (started
//! only in a build with telemetry compiled in).
//!
//! # Tick protocol
//!
//! A tick sweeps the telemetry registry, diffs against the previous
//! sweep (pairing locks by name; newborn locks pass through whole), and
//! pushes the non-empty deltas into the [`SeriesRing`] as one window.
//! The sweep happens *under the state mutex*: the daemon's timer ticks
//! and any `sample_now` calls serialize, so consecutive windows always
//! diff monotone counter values in order and the telescoping-sum
//! invariant (`totals == final - baseline`) survives concurrent
//! callers. Lock order is state mutex → registry mutex, and the
//! registry never calls back into this crate, so the nesting cannot
//! invert.
//!
//! `stop` flips the flag under the wake mutex, wakes the daemon, joins
//! it, then takes one last tick so events recorded between the final
//! timer tick and the join are still counted.

use crate::series::{ObsState, SampleWindow, SeriesRing};
use oll_telemetry::{registry, LockSnapshot};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
pub(crate) struct Inner {
    start: Instant,
    last_t_ns: u64,
    prev: Vec<LockSnapshot>,
    ring: SeriesRing,
    samples: u64,
}

#[derive(Debug)]
pub(crate) struct Shared {
    interval: Duration,
    state: Mutex<Inner>,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    pub(crate) fn new(interval: Duration, ring_capacity: usize) -> Self {
        Self {
            interval: interval.max(Duration::from_millis(1)),
            state: Mutex::new(Inner {
                start: Instant::now(),
                last_t_ns: 0,
                prev: registry::snapshot_all(),
                ring: SeriesRing::new(ring_capacity),
                samples: 0,
            }),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// One sample: sweep, diff, push a window.
    pub(crate) fn tick(&self) {
        let mut inner = self.state.lock().unwrap();
        let cur = registry::snapshot_all();
        let t_ns = inner.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let dt_ns = t_ns.saturating_sub(inner.last_t_ns).max(1);
        let deltas: Vec<LockSnapshot> = registry::diff_sweeps(&inner.prev, &cur)
            .into_iter()
            .filter(|d| !d.is_empty())
            .collect();
        inner.ring.push(SampleWindow {
            t_ns,
            dt_ns,
            deltas,
        });
        inner.prev = cur;
        inner.last_t_ns = t_ns;
        inner.samples += 1;
    }

    /// Copies the accumulated state out for rendering.
    pub(crate) fn state_copy(&self) -> ObsState {
        let inner = self.state.lock().unwrap();
        ObsState {
            interval_ns: self.interval.as_nanos().min(u128::from(u64::MAX)) as u64,
            elapsed_ns: inner.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            samples: inner.samples,
            windows_evicted: inner.ring.evicted(),
            windows: inner.ring.windows().cloned().collect(),
            totals: inner.ring.totals(),
        }
    }

    /// The daemon loop: tick every interval until stopped.
    pub(crate) fn run(&self) {
        let mut stopped = self.stop.lock().unwrap();
        while !*stopped {
            let (guard, _timeout) = self
                .wake
                .wait_timeout(stopped, self.interval)
                .expect("sampler stop mutex never poisoned");
            stopped = guard;
            if *stopped {
                return;
            }
            self.tick();
        }
    }

    /// Signals the daemon to exit its loop.
    pub(crate) fn request_stop(&self) {
        *self.stop.lock().unwrap() = true;
        self.wake.notify_all();
    }
}
