//! The other half of the async contract: the default build carries no
//! waker machinery at all. The guarantee is structural — the waker slot
//! is defined inside `oll-async` itself (not in a shared crate whose
//! feature a sibling could unify on), and `oll-async` is an optional
//! dependency enabled only by the root `async` feature — so a default
//! build never links the crate that contains the machinery. This pin
//! catches the regression that would break it: `async` (or `dep:oll-async`)
//! leaking into the default feature set.
//!
//! Mirrors `telemetry_off.rs` / `trace_off.rs`.

#![cfg(not(feature = "async"))]

use oll::telemetry::LockEvent;
use oll::trace::TraceKind;

#[test]
fn default_build_has_no_waker_storage() {
    // `oll-async` is not a dependency of this build: WakerSlot does not
    // exist here (referencing `oll::async_lock` would not compile) and
    // the feature const pins that. The assertion is deliberately on a
    // constant — the constant IS the claim under test.
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(!oll::HAS_ASYNC_LOCKS);
    }
}

#[test]
fn waker_taxonomy_exists_but_nothing_records_it() {
    // The telemetry/trace taxonomies carry the async events even in
    // sync-only builds (report schemas stay stable across features)...
    assert!(LockEvent::ALL.iter().any(|e| e.name() == "waker_stored"));
    assert!(LockEvent::ALL.iter().any(|e| e.name() == "waker_woken"));
    assert!(TraceKind::ALL.iter().any(|k| k.name() == "waker_stored"));
    // ...but no sync lock path ever records them: drive every slow path
    // shape and check the counters stay zero (when telemetry records at
    // all; without the feature the snapshot is None and equally clean).
    use oll::{FollLock, RwHandle, RwLockFamily};
    let lock = FollLock::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut h = lock.handle().unwrap();
                for _ in 0..500 {
                    h.lock_read();
                    h.unlock_read();
                    h.lock_write();
                    h.unlock_write();
                }
            });
        }
    });
    if let Some(snap) = lock.telemetry().snapshot() {
        for event in [LockEvent::WakerStored, LockEvent::WakerWoken] {
            assert_eq!(snap.get(event), 0, "sync path recorded {}", event.name());
        }
    }
}
