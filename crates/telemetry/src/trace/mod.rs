//! The flight recorder: per-thread event rings and the session that
//! drains them.
//!
//! The counters say *how often* slow paths and hand-offs happen; this
//! module records *when* and *to whom*. Every recording thread owns a
//! fixed-capacity lock-free ring of compact timestamped records
//! (monotonic ns, thread id, lock id, event kind, causality token); a
//! collector drains the rings into a merged [`Timeline`]. Reading a
//! timeline — wait breakdowns, stitched hand-off edges, grant cascades,
//! wait-for chains, the Chrome Trace Event export for Perfetto — is
//! tooling, and lives in `oll-obs` (`oll_obs::analyze`,
//! `oll_obs::export`).
//!
//! # Compiled in by `enabled`, switched on by a session
//!
//! Locks never call this module directly — they record through the
//! [`Telemetry`](crate::Telemetry) facade. Without this crate's
//! `enabled` feature (the workspace's `telemetry`), [`emit`] and the
//! registration hooks are empty `#[inline]` functions, [`TraceSession`]
//! is zero-sized, and no rings, atomics, or clock reads exist anywhere.
//! With it, nothing is recorded until a [`TraceSession`] opens: the
//! facade checks [`enabled`] (one `Relaxed` load of the open-session
//! count) before each record, so a telemetry build that never traces
//! creates no ring and no lock-table entry. The timeline types compile
//! either way so tooling needs no `cfg` of its own — a disabled build
//! just collects an empty timeline.
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

pub mod collect;
pub mod record;

#[cfg(feature = "enabled")]
mod ring;

pub use collect::{
    capture_all, emit, enabled, now_ns, register_lock, rename_lock, set_thread_ring_capacity,
    LockDescriptor, ThreadDescriptor, Timeline, TraceSession,
};
pub use record::{TraceKind, TraceRecord};

/// Default per-thread ring capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

#[cfg(all(test, not(feature = "enabled")))]
mod tests {
    use super::*;

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
}
