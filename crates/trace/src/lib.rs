//! Flight-recorder event tracing for the OLL lock family.
//!
//! `oll-telemetry`'s counters say *how often* slow paths and hand-offs
//! happen; this crate records *when* and *to whom*. Every recording
//! thread owns a fixed-capacity lock-free ring of compact timestamped
//! records (monotonic ns, thread id, lock id, event kind, causality
//! token); a collector drains the rings into a merged [`Timeline`]; an
//! [`analyzer`](analyze) turns the timeline into per-acquisition wait
//! breakdowns, stitched hand-off edges, grant cascades, wait-for
//! chains, and convoy/starvation anomalies; an [exporter](export)
//! renders Chrome Trace Event JSON that loads directly in Perfetto.
//!
//! # Compiled in by telemetry, switched on by a session
//!
//! Locks never talk to this crate directly — they record through the
//! `oll_telemetry::Telemetry` facade, whose `enabled` feature (the
//! workspace's `telemetry`) turns on this crate's `enabled` feature.
//! Without it, [`emit`] and the registration hooks are empty `#[inline]`
//! functions, [`TraceSession`] is zero-sized, and no rings, atomics, or
//! clock reads exist anywhere. With it, nothing is recorded until a
//! [`TraceSession`] opens: the facade checks [`enabled`] (one `Relaxed`
//! load of the open-session count) before each record, so a telemetry
//! build that never traces creates no ring and no lock-table entry.
//! The timeline/analyzer/export types compile either way so tooling
//! needs no `cfg` of its own — a disabled build just collects an empty
//! timeline.
//!
//! # Causality tokens
//!
//! A hand-off involves two threads that never observe each other's
//! clocks: the releaser that picks a successor and the waiter that
//! wakes. Both sides know one shared value — the waiter-node reference
//! (FOLL/ROLL) or the wait-event address (GOLL/Solaris-like) — which
//! records carry as the `token`. The waiter stamps it on `enqueued`,
//! the releaser on `granted`; the analyzer joins the two into a
//! grantor→grantee edge.

#![warn(missing_docs)]

pub mod analyze;
pub mod collect;
pub mod export;
pub mod record;

#[cfg(feature = "enabled")]
mod ring;

pub use analyze::{analyze, render_report_text, AnalyzerConfig, TraceReport};
pub use collect::{
    capture_all, emit, enabled, now_ns, register_lock, rename_lock, set_thread_ring_capacity,
    LockDescriptor, ThreadDescriptor, Timeline, TraceSession,
};
pub use export::render_chrome_trace;
pub use record::{TraceKind, TraceRecord};

/// Default per-thread ring capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_is_zero_sized_and_silent() {
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<TraceSession>(), 0);
        assert_eq!(register_lock("TEST", "x"), 0);
        emit(1, TraceKind::ReadFast, 7);
        let tl = TraceSession::begin().collect();
        assert!(tl.records.is_empty());
        assert!(!tl.truncated());
        assert!(capture_all().records.is_empty());
        assert_eq!(now_ns(), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_end_to_end() {
        let lock = register_lock("TEST", "lib/e2e");
        assert!(lock > 0);
        let session = TraceSession::begin();
        assert!(enabled());
        emit(lock, TraceKind::WriteBegin, 0);
        emit(lock, TraceKind::WriteAcquired, 0);
        emit(lock, TraceKind::WriteRelease, 0);
        let tl = session.collect().filter_lock(lock);
        assert_eq!(tl.records.len(), 3);
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.acquisitions.len(), 1);
        assert_eq!(report.acquisitions[0].queued_ns, 0);
        let doc = render_chrome_trace(&tl);
        assert!(doc.contains("\"name\":\"hold:write\""));
    }
}
