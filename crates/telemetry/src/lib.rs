//! Lock telemetry and contention profiling for the OLL family.
//!
//! The paper's whole argument is about *where cache lines bounce*:
//! fast-path reads that stay on a distributed C-SNZI leaf are scalable,
//! slow-path entries and shared root writes are not. This crate counts
//! exactly those things — per lock, per thread shard — plus log2
//! histograms of acquisition latency and hold time, so a `fig5
//! --telemetry` run can show *why* a curve bends, not just that it does.
//!
//! # One switch at compile time, two at run time
//!
//! Everything locks embed goes through the [`Telemetry`] and [`Timer`]
//! facades. Without this crate's `enabled` feature (exposed downstream
//! as `telemetry`, the workspace's only observability feature) both are
//! zero-sized and every recording method is an empty `#[inline]`
//! function: no atomics, no branches, no `Instant` reads on any path.
//! The snapshot/report types stay compiled either way so tooling code
//! needs no `cfg` of its own — a disabled build just never produces a
//! snapshot.
//!
//! With the feature, an active handle counts, and two things are
//! decided at run time: the facade also puts each event in the calling
//! thread's [`trace`] ring while a [`TraceSession`](trace::TraceSession)
//! is open (one `Relaxed` load per marker otherwise), and `oll_obs`'s
//! sampler sweeps the [`registry`] once someone starts it.
//!
//! # Architecture
//!
//! - [`LockEvent`] — the event taxonomy (fast/slow paths, arrivals,
//!   hand-offs, cascades, timeouts, C-SNZI shared writes).
//! - [`counters::LockTelemetry`] — per-lock sharded counters +
//!   histograms, behind `Arc`.
//! - [`registry`] — weak global registry of live instruments;
//!   [`registry::snapshot_all`] sweeps the fleet.
//! - [`LockSnapshot`] / [`HistogramSnapshot`] — copy-out types with
//!   `diff`/`merge` interval algebra.
//! - [`report`] — text and schema-versioned JSON renderers.
//! - [`trace`] — the flight recorder: per-thread record rings drained
//!   by a [`TraceSession`](trace::TraceSession) into a `Timeline`.

#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod hist;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod trace;

pub use event::LockEvent;
pub use hist::{HistogramSnapshot, BUCKETS};
pub use snapshot::LockSnapshot;

#[cfg(feature = "enabled")]
use counters::LockTelemetry;
#[cfg(feature = "enabled")]
use std::sync::Arc;
use trace::TraceKind;

/// Handle to one lock's telemetry, embedded in the lock itself.
///
/// With the `enabled` feature off this is a zero-sized type and every
/// method is an empty inline function. With it on, the handle is either
/// *active* (created by [`Telemetry::register`], holding shared counter
/// state) or *inactive* ([`Telemetry::disabled`], still recording
/// nothing) — so a lock constructed outside an instrumented builder pays
/// only a null check.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    #[cfg(feature = "enabled")]
    inner: Option<Arc<LockTelemetry>>,
}

impl Telemetry {
    /// Whether telemetry support is compiled in at all.
    pub const fn enabled() -> bool {
        cfg!(feature = "enabled")
    }

    /// An inactive handle that records nothing (the [`Default`]).
    pub const fn disabled() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            inner: None,
        }
    }

    /// Creates an active handle for a lock of algorithm `kind`, named
    /// `"<kind>#<seq>"`, and registers it with the global [`registry`].
    /// Compiles to [`Telemetry::disabled`] when the feature is off.
    pub fn register(kind: &'static str) -> Self {
        #[cfg(feature = "enabled")]
        {
            let name = format!("{kind}#{}", registry::next_seq());
            let inner = Arc::new(LockTelemetry::new(name, kind));
            registry::register(&inner);
            Self { inner: Some(inner) }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = kind;
            Self::disabled()
        }
    }

    /// Whether this handle actually records (feature on *and* active).
    #[inline]
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "enabled")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "enabled"))]
        {
            false
        }
    }

    /// Renames the instance for reporting (e.g. `"fig5/GOLL"`).
    pub fn rename(&self, name: &str) {
        #[cfg(feature = "enabled")]
        if let Some(t) = &self.inner {
            t.set_name(name);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
        }
    }

    /// The instance name, if active.
    pub fn name(&self) -> Option<String> {
        #[cfg(feature = "enabled")]
        {
            self.inner.as_ref().map(|t| t.name())
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Counts one occurrence of `event`.
    #[inline]
    pub fn incr(&self, event: LockEvent) {
        self.add(event, 1);
    }

    /// Counts `n` occurrences of `event`. While a trace session is
    /// open, one record of the matching kind also lands in the calling
    /// thread's trace ring (a batched count is still a single occurrence
    /// in time, so it traces as one record).
    #[inline]
    pub fn add(&self, event: LockEvent, n: u64) {
        #[cfg(feature = "enabled")]
        if let Some(t) = &self.inner {
            t.add(event, n);
            // Both enums are generated from the one `lock_events!` list,
            // `TraceKind` appending its markers after it, so an event's
            // index is its kind's.
            t.trace(TraceKind::ALL[event.index()], 0);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (event, n);
        }
    }

    /// This instance's [`trace`] lock id, when the feature is on and
    /// the handle is active (tests use it to filter timelines). The
    /// first call enters the lock in the recorder's lock table, as its
    /// first trace record would.
    pub fn trace_id(&self) -> Option<u32> {
        #[cfg(feature = "enabled")]
        {
            self.inner.as_ref().map(|t| t.trace_id())
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Emits a bare trace marker of `kind` carrying `token` (no counter
    /// touched) while a trace session is open. Empty inline no-op
    /// without the feature.
    #[inline]
    fn trace_mark(&self, kind: TraceKind, token: u64) {
        #[cfg(feature = "enabled")]
        if let Some(t) = &self.inner {
            t.trace(kind, token);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (kind, token);
        }
    }

    /// Starts a read acquisition: a [`Telemetry::timer`] plus a
    /// `read_begin` trace marker opening the acquisition span.
    #[inline]
    pub fn begin_read(&self) -> Timer {
        self.trace_mark(TraceKind::ReadBegin, 0);
        self.timer()
    }

    /// Starts a write acquisition: a [`Telemetry::timer`] plus a
    /// `write_begin` trace marker opening the acquisition span.
    #[inline]
    pub fn begin_write(&self) -> Timer {
        self.trace_mark(TraceKind::WriteBegin, 0);
        self.timer()
    }

    /// Marks that the calling thread parked on `token` (a waiter-node
    /// reference or wait-event address). The matching
    /// [`Telemetry::trace_granted`] from the releasing thread stitches
    /// the hand-off edge.
    #[inline]
    pub fn trace_enqueued(&self, token: u64) {
        self.trace_mark(TraceKind::Enqueued, token);
    }

    /// Marks that the calling thread granted ownership to the waiter(s)
    /// parked on `token`.
    #[inline]
    pub fn trace_granted(&self, token: u64) {
        self.trace_mark(TraceKind::Granted, token);
    }

    /// Counts a controller policy flip ([`LockEvent::TunerFlip`]) and,
    /// while a trace session is open, emits the matching record carrying
    /// `token` — the
    /// packed `old_regime << 8 | new_regime` pair, so the analyzer can
    /// label the transition (plain [`Telemetry::incr`] always traces
    /// token 0).
    #[inline]
    pub fn record_policy_flip(&self, token: u64) {
        let _ = token;
        #[cfg(feature = "enabled")]
        if let Some(t) = &self.inner {
            t.add(LockEvent::TunerFlip, 1);
            t.trace(TraceKind::TunerFlip, token);
        }
    }

    /// Starts a timer if this handle is active (otherwise the timer is
    /// inert and never reads the clock).
    #[inline]
    pub fn timer(&self) -> Timer {
        #[cfg(feature = "enabled")]
        {
            Timer {
                start: self.inner.as_ref().map(|_| std::time::Instant::now()),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            Timer {}
        }
    }

    /// Records a completed `lock_read` latency sample from `timer`, and
    /// (in a trace session) a `read_acquired` marker closing the span
    /// opened by [`Telemetry::begin_read`].
    #[inline]
    pub fn record_read_acquire(&self, timer: &Timer) {
        #[cfg(feature = "enabled")]
        if let (Some(t), Some(ns)) = (&self.inner, timer.elapsed_ns()) {
            t.read_acquire.record(ns);
        }
        self.trace_mark(TraceKind::ReadAcquired, 0);
        #[cfg(not(feature = "enabled"))]
        {
            let _ = timer;
        }
    }

    /// Records a completed `lock_write` latency sample from `timer`,
    /// and (in a trace session) a `write_acquired` marker.
    #[inline]
    pub fn record_write_acquire(&self, timer: &Timer) {
        #[cfg(feature = "enabled")]
        if let (Some(t), Some(ns)) = (&self.inner, timer.elapsed_ns()) {
            t.write_acquire.record(ns);
        }
        self.trace_mark(TraceKind::WriteAcquired, 0);
        #[cfg(not(feature = "enabled"))]
        {
            let _ = timer;
        }
    }

    /// Records a read-hold duration sample from `timer`, and (in a trace
    /// session) a `read_release` marker closing the hold span.
    #[inline]
    pub fn record_read_hold(&self, timer: &Timer) {
        #[cfg(feature = "enabled")]
        if let (Some(t), Some(ns)) = (&self.inner, timer.elapsed_ns()) {
            t.read_hold.record(ns);
        }
        self.trace_mark(TraceKind::ReadRelease, 0);
        #[cfg(not(feature = "enabled"))]
        {
            let _ = timer;
        }
    }

    /// Records a write-hold duration sample from `timer`, and (in a
    /// trace session) a `write_release` marker.
    #[inline]
    pub fn record_write_hold(&self, timer: &Timer) {
        #[cfg(feature = "enabled")]
        if let (Some(t), Some(ns)) = (&self.inner, timer.elapsed_ns()) {
            t.write_hold.record(ns);
        }
        self.trace_mark(TraceKind::WriteRelease, 0);
        #[cfg(not(feature = "enabled"))]
        {
            let _ = timer;
        }
    }

    /// Copies out the current counts, if active.
    pub fn snapshot(&self) -> Option<LockSnapshot> {
        #[cfg(feature = "enabled")]
        {
            self.inner.as_ref().map(|t| t.snapshot())
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Zeroes this lock's counters and histograms.
    pub fn reset(&self) {
        #[cfg(feature = "enabled")]
        if let Some(t) = &self.inner {
            t.reset();
        }
    }
}

/// A start-of-interval marker handed back by [`Telemetry::timer`].
///
/// Zero-sized with the feature off; with it on, inert timers (from an
/// inactive handle) skip the clock read entirely, so unprofiled locks
/// never call `Instant::now`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    #[cfg(feature = "enabled")]
    start: Option<std::time::Instant>,
}

impl Timer {
    /// An inert timer (the [`Default`]): recording from it is a no-op.
    pub const fn inactive() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            start: None,
        }
    }

    /// Nanoseconds since the timer started, or `None` if inert.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        #[cfg(feature = "enabled")]
        {
            self.start.map(|s| {
                let e = s.elapsed();
                e.as_secs()
                    .saturating_mul(1_000_000_000)
                    .saturating_add(u64::from(e.subsec_nanos()))
            })
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_silent() {
        let t = Telemetry::disabled();
        assert!(!t.is_active());
        t.incr(LockEvent::ReadFast);
        t.rename("ignored");
        assert!(t.snapshot().is_none());
        assert!(t.name().is_none());
        let timer = t.timer();
        assert!(timer.elapsed_ns().is_none());
        t.record_read_acquire(&timer);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn registered_handle_records() {
        let t = Telemetry::register("TEST");
        assert!(t.is_active());
        assert!(t.name().unwrap().starts_with("TEST#"));
        t.rename("facade-test");
        t.incr(LockEvent::WriteSlow);
        t.add(LockEvent::HandoffToWriter, 2);
        let timer = t.timer();
        assert!(timer.elapsed_ns().is_some());
        t.record_write_acquire(&timer);
        let s = t.snapshot().unwrap();
        assert_eq!(s.name, "facade-test");
        assert_eq!(s.get(LockEvent::WriteSlow), 1);
        assert_eq!(s.get(LockEvent::HandoffToWriter), 2);
        assert_eq!(s.write_acquire.count, 1);
        t.reset();
        assert!(t.snapshot().unwrap().is_empty());
    }

    #[test]
    fn lock_event_taxonomy_is_trace_kind_prefix() {
        for e in LockEvent::ALL {
            assert_eq!(TraceKind::ALL[e.index()].name(), e.name());
            assert_eq!(TraceKind::ALL[e.index()].index(), e.index());
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn facade_emits_trace_records() {
        let t = Telemetry::register("TEST");
        let id = t.trace_id().expect("active traced handle has an id");
        let session = trace::TraceSession::begin();
        let timer = t.begin_write();
        t.incr(LockEvent::WriteSlow);
        t.trace_enqueued(0xabc);
        t.trace_granted(0xabc);
        t.record_write_acquire(&timer);
        let hold = t.timer();
        t.record_write_hold(&hold);
        let tl = session.collect().filter_lock(id);
        let kinds: Vec<_> = tl.records.iter().map(|r| r.kind).collect();
        use trace::TraceKind as K;
        assert_eq!(
            kinds,
            vec![
                K::WriteBegin,
                K::WriteSlow,
                K::Enqueued,
                K::Granted,
                K::WriteAcquired,
                K::WriteRelease,
            ]
        );
        assert_eq!(tl.records[2].token, 0xabc);
        // Rename propagates into the trace lock registry.
        t.rename("facade/trace");
        assert_eq!(trace::capture_all().lock_name(id), "facade/trace");
        // Inactive handles stay silent.
        let quiet = Telemetry::disabled();
        assert_eq!(quiet.trace_id(), None);
        let before = session.collect().filter_lock(id).records.len();
        quiet.trace_enqueued(1);
        quiet.incr(LockEvent::ReadFast);
        assert_eq!(session.collect().filter_lock(id).records.len(), before);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_types_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Telemetry>(), 0);
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        assert!(!Telemetry::enabled());
        assert!(!Telemetry::register("TEST").is_active());
    }
}
