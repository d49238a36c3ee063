//! Flight-recorder correctness under forced contention: every stitched
//! hand-off edge must be backed by a release on the grantor's side
//! before the grant and a wake on the grantee's side after it, every
//! acquisition's spin/queued/hand-off breakdown must sum to its total
//! latency, and the trace-side latency must land in the same log2
//! bucket (±1) as the telemetry histogram's sample for the same
//! acquisition.
//!
//! The whole suite needs recording compiled in (the `telemetry`
//! feature); `trace_off.rs` checks the build without it.

#![cfg(feature = "telemetry")]

use oll::baselines::SolarisLikeRwLock;
use oll::telemetry::LockEvent;
use oll::trace::{Timeline, TraceKind, TraceSession};
use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};
use oll_obs::{analyze, AnalyzerConfig, TraceReport};
use std::time::{Duration, Instant};

/// Polls a lock's telemetry snapshot until `pred` holds. Slow-path
/// events are counted at enqueue time, before waiting, exactly so tests
/// can rendezvous on a blocked thread.
fn wait_for<L: RwLockFamily>(lock: &L, pred: impl Fn(&oll::telemetry::LockSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = lock.telemetry().snapshot().expect("instrumented lock");
        if pred(&snap) {
            return;
        }
        assert!(Instant::now() < deadline, "condition never observed");
        std::thread::yield_now();
    }
}

/// Telemetry's histogram bucketing (`floor(log2(ns))`, 64 buckets).
fn log2_bucket(ns: u64) -> usize {
    (64 - ns.max(1).leading_zeros() as usize - 1).min(63)
}

/// Holds the write lock, parks `readers` reader threads behind it, then
/// releases so the unlock hands off to the whole queue. Returns this
/// lock's slice of the recorded window with its analysis (filtering by
/// trace id keeps other tests' concurrent locks out).
fn contended_handoff<L: RwLockFamily + Sync>(lock: &L, readers: u64) -> (Timeline, TraceReport) {
    let id = lock.telemetry().trace_id().expect("traced lock has an id");
    let session = TraceSession::begin();
    let mut writer = lock.handle().unwrap();
    writer.lock_write();
    std::thread::scope(|scope| {
        for _ in 0..readers {
            scope.spawn(|| {
                let mut reader = lock.handle().unwrap();
                reader.lock_read(); // parks behind the held writer
                reader.unlock_read();
            });
        }
        wait_for(lock, |s| s.get(LockEvent::ReadSlow) >= readers);
        // The counter rendezvous proves the readers reached the slow
        // path; the sleep lets their `enqueued` markers land well before
        // the grant so the edge join is deterministic.
        std::thread::sleep(Duration::from_millis(5));
        writer.unlock_write();
    });
    drop(writer);
    let tl = session.collect().filter_lock(id);
    let report = analyze(&tl, &AnalyzerConfig::default());
    (tl, report)
}

/// The edge contract: a hand-off edge is only credible if the grantor
/// actually released (a `*_release` record from its thread at or before
/// the grant) and the grantee's wake, when captured, follows the grant.
fn edges_are_consistent(tl: &Timeline, report: &TraceReport, label: &str) {
    assert!(
        !report.edges.is_empty(),
        "{label}: contended release stitched no hand-off edges"
    );
    for e in &report.edges {
        let released = tl.records.iter().any(|r| {
            r.tid == e.grantor_tid
                && r.ts_ns <= e.grant_ns
                && matches!(r.kind, TraceKind::ReadRelease | TraceKind::WriteRelease)
        });
        assert!(
            released,
            "{label}: grantor t{} granted at {}ns without a prior release",
            e.grantor_tid, e.grant_ns
        );
        if let Some(w) = e.wake_ns {
            assert!(
                w >= e.grant_ns,
                "{label}: wake {}ns precedes grant {}ns",
                w,
                e.grant_ns
            );
        }
    }
    assert!(
        report.edges.iter().any(|e| e.wake_ns.is_some()),
        "{label}: no grantee wake captured in the window"
    );
    for a in &report.acquisitions {
        assert_eq!(
            a.spin_ns + a.queued_ns + a.handoff_ns,
            a.total_ns(),
            "{label}: wait breakdown must sum to the total latency"
        );
    }
}

#[test]
fn goll_handoff_edges_are_stitched() {
    let lock = GollLock::new(4);
    let (tl, report) = contended_handoff(&lock, 3);
    edges_are_consistent(&tl, &report, "GOLL");
}

#[test]
fn foll_handoff_edges_are_stitched() {
    let lock = FollLock::new(4);
    let (tl, report) = contended_handoff(&lock, 3);
    edges_are_consistent(&tl, &report, "FOLL");
}

#[test]
fn roll_handoff_edges_are_stitched() {
    let lock = RollLock::new(4);
    let (tl, report) = contended_handoff(&lock, 3);
    edges_are_consistent(&tl, &report, "ROLL");
}

#[test]
fn solaris_like_handoff_edges_are_stitched() {
    let lock = SolarisLikeRwLock::new(4);
    let (tl, report) = contended_handoff(&lock, 3);
    edges_are_consistent(&tl, &report, "Solaris-like");
}

/// FIFO writer queues chain: the holder grants the head, which grants
/// the next, … — the analyzer must reconstruct that as one multi-hop
/// grant cascade rather than disjoint edges.
#[test]
fn foll_writer_queue_release_is_a_grant_cascade() {
    const WRITERS: u64 = 3;
    let lock = FollLock::new(1 + WRITERS as usize);
    let id = lock.telemetry().trace_id().expect("traced lock has an id");
    let session = TraceSession::begin();
    let mut holder = lock.handle().unwrap();
    holder.lock_write();
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                let mut w = lock.handle().unwrap();
                w.lock_write(); // joins the FIFO queue behind the holder
                w.unlock_write(); // … and grants its own successor
            });
        }
        wait_for(&lock, |s| s.get(LockEvent::WriteSlow) >= WRITERS);
        std::thread::sleep(Duration::from_millis(5));
        holder.unlock_write();
    });
    drop(holder);
    let tl = session.collect().filter_lock(id);
    let report = analyze(&tl, &AnalyzerConfig::default());
    edges_are_consistent(&tl, &report, "FOLL cascade");
    assert!(
        report.edges.len() >= WRITERS as usize,
        "one edge per queued writer, got {}",
        report.edges.len()
    );
    let longest = report.cascades.iter().map(|c| c.hops()).max().unwrap_or(0);
    assert!(
        longest >= 2,
        "draining a {WRITERS}-writer FIFO queue must form a multi-hop cascade \
         (longest seen: {longest} hops)"
    );
}

/// The cohort writer gate's grants must stitch into the same edge
/// fabric, and the analyzer's locality summary must classify them: with
/// every tid mapped to one rank (the undetected-topology fallback
/// shape) the rendered report pins a deterministic
/// `cross-socket hand-offs: 0 / N` line.
#[test]
fn cohort_handoffs_report_cross_socket_ratio() {
    const WRITERS: u64 = 3;
    let lock = oll::core::FollLock::builder(1 + WRITERS as usize)
        .cohort(true)
        .cohort_ranks(1) // all writers share one cohort: pure local hand-off
        .build();
    let id = lock.telemetry().trace_id().expect("traced lock has an id");
    let session = TraceSession::begin();
    let mut holder = lock.handle().unwrap();
    holder.lock_write();
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                let mut w = lock.handle().unwrap();
                w.lock_write();
                w.unlock_write();
            });
        }
        // No counter to poll here: a cohort writer records its slow
        // acquisition only when the grant arrives, so a parked waiter is
        // telemetry-invisible. Give all three writers ample time to park
        // in the cohort queue (the same spacing idiom as tests/cohort.rs)
        // so the drain is one unbroken local hand-off chain.
        std::thread::sleep(Duration::from_millis(200));
        holder.unlock_write();
    });
    drop(holder);
    let tl = session.collect().filter_lock(id);

    let cfg = AnalyzerConfig {
        cohort_of_tid: |_| 0, // force the single-rank fallback mapping
        ..AnalyzerConfig::default()
    };
    let report = analyze(&tl, &cfg);
    edges_are_consistent(&tl, &report, "FOLL cohort");
    assert!(
        report.total_handoffs >= WRITERS,
        "one edge per queued cohort writer, got {}",
        report.total_handoffs
    );
    assert_eq!(
        report.cross_socket_handoffs, 0,
        "a single-rank mapping admits no cross-socket hand-offs"
    );
    let text = oll_obs::render_report_text(&tl, &report);
    let expected = format!(
        "cross-socket hand-offs: 0 / {} (0.0%)",
        report.total_handoffs
    );
    assert!(
        text.contains(&expected),
        "summary line missing or wrong: wanted {expected:?} in\n{text}"
    );
}

/// A blocked writer's trace-side latency (`write_begin` →
/// `write_acquired` on the trace clock) and its telemetry histogram
/// sample (the facade timer around the same interval) are measured by
/// different clocks a few instructions apart — they must land in the
/// same log2 bucket, give or take one at a boundary.
#[test]
fn queued_write_latency_matches_telemetry_bucket() {
    let lock = GollLock::new(2);
    let id = lock.telemetry().trace_id().expect("traced lock has an id");
    let session = TraceSession::begin();
    let mut reader = lock.handle().unwrap();
    reader.lock_read();
    std::thread::scope(|scope| {
        let lock = &lock;
        scope.spawn(move || {
            let mut writer = lock.handle().unwrap();
            writer.lock_write(); // blocks until the reader departs
            writer.unlock_write();
        });
        wait_for(lock, |s| s.get(LockEvent::WriteSlow) >= 1);
        // Pin the blocked writer's latency around ~30ms so the interval
        // dwarfs any skew between the two measurements.
        std::thread::sleep(Duration::from_millis(30));
        reader.unlock_read();
    });
    drop(reader);

    let tl = session.collect().filter_lock(id);
    let report = analyze(&tl, &AnalyzerConfig::default());
    let a = report
        .acquisitions
        .iter()
        .find(|a| a.write && a.enqueued_ns.is_some())
        .expect("the blocked writer's acquisition completed in-window");
    assert_eq!(a.spin_ns + a.queued_ns + a.handoff_ns, a.total_ns());
    // The forced ~30ms wait lands in the queued component, not spin.
    assert!(
        a.queued_ns >= 20_000_000,
        "queued component should dominate: {}ns",
        a.queued_ns
    );

    let snap = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(
        snap.write_acquire.count, 1,
        "exactly one write acquisition was sampled"
    );
    let hist_bucket = snap
        .write_acquire
        .buckets
        .iter()
        .position(|&c| c > 0)
        .expect("one occupied bucket");
    let trace_bucket = log2_bucket(a.total_ns());
    assert!(
        hist_bucket.abs_diff(trace_bucket) <= 1,
        "trace total {}ns (bucket {trace_bucket}) vs telemetry bucket {hist_bucket}",
        a.total_ns()
    );
}

/// Every queued waiter stamps an `enqueued` marker carrying the token
/// it parks on, and the matching grant consumes it: a clean forced
/// hand-off window has no unmatched grants.
#[test]
fn tokens_join_enqueue_to_grant() {
    let lock = FollLock::new(3);
    let (tl, report) = contended_handoff(&lock, 2);
    let enqueued: Vec<_> = tl
        .records
        .iter()
        .filter(|r| r.kind == TraceKind::Enqueued)
        .collect();
    assert!(!enqueued.is_empty(), "parked readers stamped no tokens");
    for r in &enqueued {
        assert_ne!(r.token, 0, "enqueued markers carry a real token");
    }
    for e in &report.edges {
        assert!(
            enqueued.iter().any(|r| r.token == e.token),
            "edge token {:#x} has no matching enqueued marker",
            e.token
        );
    }
    assert_eq!(
        report.unmatched_grants, 0,
        "every grant in the window found its parked waiter"
    );
}
