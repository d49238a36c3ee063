//! The other half of the tracing contract: without the `telemetry`
//! feature the recorder is zero-sized, emission and registration compile
//! to nothing, the clock is never read, and a session collects an empty
//! timeline even while instrumented locks run — the flight recorder
//! costs nothing unless asked for.

#![cfg(not(feature = "telemetry"))]

use oll::trace::{self, TraceKind, TraceSession};
use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily, SolarisLikeRwLock};
use oll_obs::{analyze, render_chrome_trace, AnalyzerConfig};

#[test]
fn recorder_is_zero_sized_and_disabled() {
    assert!(!trace::enabled());
    assert_eq!(std::mem::size_of::<TraceSession>(), 0);
    // The trace clock is never armed: no epoch, no `Instant` reads.
    assert_eq!(trace::now_ns(), 0);
    // Registration hands back the unattributed id.
    assert_eq!(trace::register_lock("TEST", "off"), 0);
}

#[test]
fn emission_is_inert() {
    trace::emit(1, TraceKind::ReadFast, 7);
    trace::rename_lock(1, "renamed");
    trace::set_thread_ring_capacity(8);
    let session = TraceSession::begin();
    trace::emit(0, TraceKind::Granted, 0xabc);
    let tl = session.collect();
    assert!(tl.records.is_empty());
    assert!(tl.locks.is_empty());
    assert!(tl.threads.is_empty());
    assert!(!tl.truncated());
    assert_eq!(tl.dropped, 0);
}

#[test]
fn telemetry_facade_trace_hooks_are_inert() {
    // These methods exist on the facade in every build; without the
    // `telemetry` feature they must reach no ring.
    let t = oll::telemetry::Telemetry::register("TEST");
    let timer = t.begin_write();
    t.trace_enqueued(0xbeef);
    t.trace_granted(0xbeef);
    t.record_write_acquire(&timer);
    let hold = t.begin_read();
    t.record_read_hold(&hold);
    assert_eq!(t.trace_id(), None);
    assert!(trace::capture_all().records.is_empty());
}

#[test]
fn instrumented_locks_leave_no_trace() {
    let session = TraceSession::begin();
    let goll = GollLock::new(2);
    let foll = FollLock::new(2);
    let roll = RollLock::new(2);
    let solaris = SolarisLikeRwLock::new(2);
    fn hammer<L: RwLockFamily>(lock: &L) {
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }
    hammer(&goll);
    hammer(&foll);
    hammer(&roll);
    hammer(&solaris);
    assert!(session.collect().records.is_empty());
    assert!(trace::capture_all().records.is_empty());
    // The analysis and export layers still compile and run — they just
    // see an empty world, so tooling needs no cfg of its own.
    let tl = session.collect();
    let report = analyze(&tl, &AnalyzerConfig::default());
    assert!(report.acquisitions.is_empty());
    assert!(report.edges.is_empty());
    assert_eq!(report.unmatched_grants, 0);
    assert!(render_chrome_trace(&tl).contains("\"traceEvents\""));
}
