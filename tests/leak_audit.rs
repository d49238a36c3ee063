//! Leaked-guard audit: `mem::forget` on a guard is safe Rust, so every
//! family must cope with a hold that is never released. The contract
//! this suite pins down:
//!
//! * **Blocking** acquirers may wait forever on a leaked hold — that is
//!   what blocking means — but **`try_*` acquirers must fail fast**, not
//!   spin until the (never-arriving) release.
//! * Other readers must still get in beside a leaked *read* hold.
//!
//! Per-family notes on how a leaked read hold presents:
//!
//! * **GOLL** — the C-SNZI surplus never drains; `try_write`'s
//!   `close_if_empty` fails immediately.
//! * **FOLL / ROLL** — the leaked reader's queue session stays at the
//!   tail; `try_write`'s tail CAS fails immediately.
//! * **KSUH** — the leaked reader node stays queued (`tail != NIL`);
//!   the try paths refuse a non-empty queue.
//! * **Solaris-like / Centralized / std** — a reader-count/word check
//!   fails the CAS (std reports `WouldBlock`).
//! * **BRAVO-wrapped** — a leaked *fast* read hold stays published in
//!   the visible-readers table; `try_write`'s one-shot revocation scan
//!   sights it, restores the bias, and fails without waiting.

use oll::{Bravo, GollLock, RwHandle, RwLockFamily};
use oll_workloads::{LockKind, LockOptions, LockVisitor};
use std::time::{Duration, Instant};

/// `try_*` calls beside a leaked hold must return within this bound —
/// generous enough for any scheduler hiccup, far below "spins forever".
const FAIL_FAST: Duration = Duration::from_secs(2);

fn leaked_read_guard_fails_fast<L: RwLockFamily>(lock: L, name: &str) {
    let mut a = lock.handle().unwrap();
    let mut b = lock.handle().unwrap();
    std::mem::forget(a.read());

    let start = Instant::now();
    assert!(
        !b.try_lock_write(),
        "{name}: try_write succeeded beside a leaked read hold"
    );
    assert!(
        start.elapsed() < FAIL_FAST,
        "{name}: try_write spun {:?} instead of failing fast",
        start.elapsed()
    );
    // A leaked read hold must not shut other readers out. (Some try
    // paths are conservative about queue residue, so probe with the
    // blocking path under a generous watchdog: it either returns
    // quickly or the test harness times the hang out.)
    b.lock_read();
    b.unlock_read();
    // The handle behind the leak still believes it holds the lock (the
    // guard's drop never ran to clear it); its own drop-time leak check
    // would fire. Leak it too — exactly what happens when the leaking
    // thread disappears.
    std::mem::forget(a);
}

fn leaked_write_guard_fails_fast<L: RwLockFamily>(lock: L, name: &str) {
    let mut a = lock.handle().unwrap();
    let mut b = lock.handle().unwrap();
    std::mem::forget(a.write());

    let probe = |what: &str, outcome: &mut dyn FnMut() -> bool| {
        let start = Instant::now();
        let granted = outcome();
        assert!(
            !granted,
            "{name}: {what} succeeded beside a leaked write hold"
        );
        assert!(
            start.elapsed() < FAIL_FAST,
            "{name}: {what} spun instead of failing fast"
        );
    };
    probe("try_write", &mut || b.try_lock_write());
    probe("try_read", &mut || b.try_lock_read());
    // See leaked_read_guard_fails_fast: the leaking handle goes too.
    std::mem::forget(a);
}

/// One half of a kind's audit; each half leaks a hold, so each needs a
/// fresh lock from the harness's dispatcher.
struct Audit {
    kind: LockKind,
    leak_write: bool,
}

impl LockVisitor for Audit {
    type Out = ();

    fn visit<L: RwLockFamily + 'static>(self, lock: L) {
        let name = self.kind.name();
        if self.leak_write {
            leaked_write_guard_fails_fast(lock, name);
        } else {
            leaked_read_guard_fails_fast(lock, name);
        }
    }
}

#[test]
fn every_family_fails_fast_beside_leaked_guards() {
    for kind in LockKind::ALL {
        for leak_write in [false, true] {
            kind.with_lock(4, &LockOptions::default(), Audit { kind, leak_write });
        }
    }
}

/// The BRAVO wrapper's own leak hazard: a leaked fast read hold stays
/// published in the visible-readers table forever. `try_write`'s
/// one-shot revocation scan must fail fast on it, and blocking writers
/// must *not* be attempted (they would legitimately wait forever).
#[test]
fn bravo_leaked_fast_reader_fails_try_write_fast() {
    for bias in [false, true] {
        let lock = Bravo::wrapping(GollLock::new(4), bias).private_table(64);
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        std::mem::forget(a.read());

        let start = Instant::now();
        assert!(
            !b.try_lock_write(),
            "Bravo<GOLL> (bias={bias}): try_write succeeded beside a leaked reader"
        );
        assert!(
            start.elapsed() < FAIL_FAST,
            "Bravo<GOLL> (bias={bias}): try_write spun on the published slot"
        );
        // Other readers still get in (fast path while the bias holds).
        b.lock_read();
        b.unlock_read();
        // The leaking handle's drop-time leak check would fire; leak it.
        std::mem::forget(a);
    }
}
