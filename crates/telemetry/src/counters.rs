//! Per-lock telemetry state: sharded event counters plus latency and
//! hold-time histograms.
//!
//! The counters must not reintroduce the contention they measure — a
//! single shared counter CASed by every fast-path read would be exactly
//! the centralized lockword the paper eliminates. Counts are therefore
//! **sharded**: [`SHARDS`] cache-padded arrays of relaxed `AtomicU64`s,
//! indexed by the thread's `oll_util::topology::dense_thread_id()`
//! folded into the shard range, so up to [`SHARDS`] threads never share
//! a line.
//! A snapshot sums the shards; it is racy but exact once quiescent.

use crate::event::LockEvent;
use crate::hist::AtomicHistogram;
use crate::snapshot::LockSnapshot;
use oll_util::topology::dense_thread_id;
use oll_util::CachePadded;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of counter shards (power of two).
pub const SHARDS: usize = 16;

#[derive(Debug)]
struct Shard {
    counts: [AtomicU64; LockEvent::COUNT],
}

impl Shard {
    fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// All telemetry state for one lock instance.
///
/// Lock implementations hold this behind the [`Telemetry`](crate::Telemetry)
/// facade; the global [registry](crate::registry) holds a weak reference
/// for fleet-wide snapshots.
#[derive(Debug)]
pub struct LockTelemetry {
    /// Instance name (auto-generated, overridable via
    /// [`Telemetry::rename`](crate::Telemetry::rename)). Read only at
    /// snapshot/registration time, hence the plain mutex; it also
    /// orders a rename against the lock's entry into the trace table.
    name: Mutex<String>,
    /// The lock algorithm (e.g. `"GOLL"`).
    kind: &'static str,
    /// This instance's id in the `trace` lock table, stamped on
    /// every trace record the facade emits for it; 0 until its first
    /// record (or `trace_id` call) enters it there.
    trace_id: AtomicU32,
    shards: Box<[CachePadded<Shard>]>,
    /// `lock_read` wall time, entry to success.
    pub(crate) read_acquire: AtomicHistogram,
    /// `lock_write` wall time, entry to success.
    pub(crate) write_acquire: AtomicHistogram,
    /// Read-hold wall time, acquire success to release.
    pub(crate) read_hold: AtomicHistogram,
    /// Write-hold wall time, acquire success to release.
    pub(crate) write_hold: AtomicHistogram,
}

impl LockTelemetry {
    /// Creates empty state for a lock of algorithm `kind` named `name`.
    pub fn new(name: String, kind: &'static str) -> Self {
        Self {
            name: Mutex::new(name),
            kind,
            trace_id: AtomicU32::new(0),
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            read_acquire: AtomicHistogram::new(),
            write_acquire: AtomicHistogram::new(),
            read_hold: AtomicHistogram::new(),
            write_hold: AtomicHistogram::new(),
        }
    }

    /// The lock algorithm name.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The instance name.
    pub fn name(&self) -> String {
        self.name.lock().unwrap().clone()
    }

    /// Renames the instance (shows up in subsequent snapshots).
    pub fn set_name(&self, name: &str) {
        let mut current = self.name.lock().unwrap();
        *current = name.to_string();
        // Id 0 (not in the trace table yet) is a no-op: the entry, when
        // made, takes the name under this same mutex.
        crate::trace::rename_lock(self.trace_id.load(Ordering::Acquire), name);
    }

    /// Adds `n` to `event`'s counter on this thread's shard.
    #[inline]
    pub fn add(&self, event: LockEvent, n: u64) {
        let shard = dense_thread_id() & (SHARDS - 1);
        self.shards[shard].counts[event.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Sums `event`'s counter across shards.
    pub fn count(&self, event: LockEvent) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[event.index()].load(Ordering::Relaxed))
            .sum()
    }

    /// Reads everything (racy snapshot; exact once quiescent).
    pub fn snapshot(&self) -> LockSnapshot {
        let mut events = [0u64; LockEvent::COUNT];
        for shard in self.shards.iter() {
            for (acc, c) in events.iter_mut().zip(shard.counts.iter()) {
                *acc += c.load(Ordering::Relaxed);
            }
        }
        LockSnapshot {
            name: self.name(),
            kind: self.kind.to_string(),
            events,
            read_acquire: self.read_acquire.snapshot(),
            write_acquire: self.write_acquire.snapshot(),
            read_hold: self.read_hold.snapshot(),
            write_hold: self.write_hold.snapshot(),
        }
    }

    /// Zeroes all counters and histograms.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            for c in &shard.counts {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.read_acquire.reset();
        self.write_acquire.reset();
        self.read_hold.reset();
        self.write_hold.reset();
    }
}

/// The flight-recorder side, reached only through the
/// [`Telemetry`](crate::Telemetry) facade.
#[cfg(feature = "enabled")]
impl LockTelemetry {
    /// Puts one record of `kind` carrying `token` in the calling
    /// thread's trace ring, if a trace session is open.
    #[inline]
    pub(crate) fn trace(&self, kind: crate::trace::TraceKind, token: u64) {
        if crate::trace::enabled() {
            crate::trace::emit(self.trace_id(), kind, token);
        }
    }

    /// This instance's `trace` lock id, entering it in the lock
    /// table on first use.
    pub(crate) fn trace_id(&self) -> u32 {
        let id = self.trace_id.load(Ordering::Acquire);
        if id != 0 {
            return id;
        }
        let name = self.name.lock().unwrap();
        if self.trace_id.load(Ordering::Acquire) == 0 {
            let id = crate::trace::register_lock(self.kind, &name);
            self.trace_id.store(id, Ordering::Release);
        }
        self.trace_id.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_count_reset() {
        let t = LockTelemetry::new("t".into(), "TEST");
        t.add(LockEvent::ReadFast, 3);
        t.add(LockEvent::ReadFast, 2);
        t.add(LockEvent::Timeout, 1);
        assert_eq!(t.count(LockEvent::ReadFast), 5);
        assert_eq!(t.count(LockEvent::Timeout), 1);
        assert_eq!(t.count(LockEvent::WriteFast), 0);
        t.reset();
        assert_eq!(t.count(LockEvent::ReadFast), 0);
    }

    #[test]
    fn counts_sum_across_threads() {
        let t = std::sync::Arc::new(LockTelemetry::new("x".into(), "TEST"));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.add(LockEvent::ArriveTree, 1);
                    }
                });
            }
        });
        assert_eq!(t.count(LockEvent::ArriveTree), 8000);
        assert_eq!(t.snapshot().get(LockEvent::ArriveTree), 8000);
    }

    #[test]
    fn rename_shows_in_snapshot() {
        let t = LockTelemetry::new("before".into(), "TEST");
        t.set_name("after");
        assert_eq!(t.snapshot().name, "after");
    }
}
