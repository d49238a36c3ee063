//! The flight recorder's run-time switch: a build with telemetry
//! compiled in records only while a `TraceSession` is open. A lock
//! taken and released outside every session leaves no ring and no
//! lock-table entry behind. A test binary of its own, so that no other
//! test's session can be open while it runs.

#![cfg(feature = "telemetry")]

use oll::trace::{capture_all, TraceSession};
use oll::{GollLock, RwHandle, RwLockFamily};

/// Takes and releases `lock` once each way on a thread named `name`.
fn cycle_on_thread(lock: &GollLock, name: &str) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(name.into())
            .spawn_scoped(s, || {
                let mut h = lock.handle().expect("capacity covers the thread");
                h.lock_read();
                h.unlock_read();
                h.lock_write();
                h.unlock_write();
            })
            .expect("spawn")
            .join()
            .expect("worker");
    });
}

#[test]
fn nothing_is_recorded_without_a_session() {
    let lock = GollLock::new(2);
    lock.telemetry().rename("idle/goll");
    cycle_on_thread(&lock, "idle-worker");
    let counted = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(
        (counted.reads(), counted.writes()),
        (1, 1),
        "counting is on"
    );
    let all = capture_all();
    assert!(
        !all.threads.iter().any(|t| t.name == "idle-worker"),
        "a thread that ran outside every session has a ring: {:?}",
        all.threads
    );
    assert!(
        !all.locks.iter().any(|l| l.name == "idle/goll"),
        "a lock never traced is in the lock table: {:?}",
        all.locks
    );

    // The same cycle inside a session is recorded, so the checks above
    // are not vacuous.
    let session = TraceSession::begin();
    cycle_on_thread(&lock, "traced-worker");
    let tl = session.collect();
    assert!(tl.threads.iter().any(|t| t.name == "traced-worker"));
    let id = tl
        .locks
        .iter()
        .find(|l| l.name == "idle/goll")
        .expect("a traced lock enters the lock table")
        .id;
    assert!(tl.filter_lock(id).records.len() >= 4);
}
