//! The other half of the telemetry contract: without the `telemetry`
//! feature the facades are zero-sized, nothing reaches the registry, and
//! no snapshot is ever produced — the hooks compile to nothing.

#![cfg(not(feature = "telemetry"))]

use oll::baselines::SolarisLikeRwLock;
use oll::telemetry::{registry, LockEvent, Telemetry, Timer};
use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};

#[test]
fn facades_are_zero_sized() {
    assert!(!Telemetry::enabled());
    assert_eq!(std::mem::size_of::<Telemetry>(), 0);
    assert_eq!(std::mem::size_of::<Timer>(), 0);
}

#[test]
fn recording_is_inert() {
    let t = Telemetry::register("TEST");
    assert!(!t.is_active());
    t.incr(LockEvent::ReadFast);
    t.add(LockEvent::CsnziRootWrite, 1_000);
    let timer = t.timer();
    assert!(timer.elapsed_ns().is_none());
    t.record_read_acquire(&timer);
    assert!(t.snapshot().is_none());
    assert!(t.name().is_none());
}

#[test]
fn instrumented_locks_produce_no_snapshots() {
    let goll = GollLock::new(2);
    let foll = FollLock::new(2);
    let roll = RollLock::new(2);
    let solaris = SolarisLikeRwLock::new(2);
    let mut h = goll.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    h.lock_write();
    h.unlock_write();
    drop(h);
    assert!(goll.telemetry().snapshot().is_none());
    assert!(foll.telemetry().snapshot().is_none());
    assert!(roll.telemetry().snapshot().is_none());
    assert!(solaris.telemetry().snapshot().is_none());
    assert_eq!(registry::live_count(), 0);
    assert!(registry::snapshot_all().is_empty());
}
