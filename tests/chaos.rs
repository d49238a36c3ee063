//! Chaos campaigns for the hazard layer (`Watched`): panicking lock
//! holders must never strand other threads, poison marks must follow
//! panicking writers, and a real wait-for cycle must be reported as a
//! deadlock instead of hanging.

#![cfg(not(loom))]

use oll::{AcquireError, Bravo, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, Watched};
use oll_workloads::{LockKind, LockOptions, LockVisitor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const ITERS: usize = 1000;

/// Silences the default panic-hook report for the campaign's own
/// injected panics (10k of them across the suite would drown real
/// failures); everything else still reports through the previous hook.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.starts_with("chaos:")) {
                return;
            }
            prev(info);
        }));
    });
}

/// The campaign: one thread panics inside its critical section `ITERS`
/// times (mode chosen by a seeded PRNG) while a partner thread keeps
/// acquiring the same lock. Every panic must unwind through the guard
/// without stranding the partner, write panics must poison (and only
/// they), and the lock must stay fully functional throughout.
fn chaos_campaign<L>(lock: L, seed: u64, name: &str)
where
    L: RwLockFamily,
{
    quiet_chaos_panics();
    let lock = Watched::new(lock);
    let hz = &lock;
    assert!(!hz.is_poisoned(), "{name}: fresh lock poisoned");

    let stop = AtomicBool::new(false);
    let partner_laps = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut h = lock.handle().expect("partner handle");
            while !stop.load(Ordering::Relaxed) {
                // Unchecked acquisitions: the partner does not care about
                // poison, only that it is never stranded.
                let g = h.read();
                drop(g);
                let g = h.write();
                drop(g);
                partner_laps.fetch_add(1, Ordering::Relaxed);
            }
        });

        let mut h = lock.handle().expect("chaos handle");
        // The campaign proves nothing about stranding unless the partner
        // is demonstrably running beside it: wait for its first lap (a
        // hang detector, not a speed claim) before the first panic. On a
        // loaded two-core box the partner thread can otherwise first get
        // scheduled after the thousandth.
        let patience = Instant::now() + Duration::from_secs(20);
        while partner_laps.load(Ordering::Relaxed) == 0 {
            if Instant::now() >= patience {
                stop.store(true, Ordering::Relaxed);
                panic!("{name}: partner completed no lap in 20 s");
            }
            std::thread::yield_now();
        }
        let mut rng = oll::util::XorShift64::for_thread(seed, 0);
        for i in 0..ITERS {
            let write = rng.percent(50);
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                if write {
                    let _g = h.write();
                    panic!("chaos: write holder dies (iter {i})");
                } else {
                    let _g = h.read();
                    panic!("chaos: read holder dies (iter {i})");
                }
            }));
            assert!(unwound.is_err(), "{name}: panic did not propagate");
            // Only a panicking *write* holder poisons.
            assert_eq!(
                hz.is_poisoned(),
                write,
                "{name}: wrong poison state after {} panic (iter {i})",
                if write { "write" } else { "read" },
            );
            if write {
                let Err(err) = h.write_checked() else {
                    panic!("{name}: poison mark not surfaced to write_checked");
                };
                // The checked acquirer still got the lock; recover.
                hz.clear_poison();
                drop(err.into_inner());
                assert!(h.write_checked().is_ok(), "{name}: clear_poison failed");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    // The lock must come out of the campaign fully functional.
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    h.lock_read();
    h.unlock_read();
}

/// [`chaos_campaign`] over the lock the harness's dispatcher builds for
/// a kind.
struct Campaign {
    seed: u64,
    name: &'static str,
}

impl LockVisitor for Campaign {
    type Out = ();

    fn visit<L: RwLockFamily + 'static>(self, lock: L) {
        chaos_campaign(lock, self.seed, self.name);
    }
}

fn family(kind: LockKind, seed: u64) {
    let name = kind.name();
    kind.with_lock(4, &LockOptions::default(), Campaign { seed, name });
}

#[test]
fn goll_1000_panics() {
    family(LockKind::Goll, 0xC4A0_0001);
}

#[test]
fn foll_1000_panics() {
    family(LockKind::Foll, 0xC4A0_0002);
}

#[test]
fn roll_1000_panics() {
    family(LockKind::Roll, 0xC4A0_0003);
}

#[test]
fn ksuh_1000_panics() {
    family(LockKind::Ksuh, 0xC4A0_0004);
}

#[test]
fn solaris_like_1000_panics() {
    family(LockKind::SolarisLike, 0xC4A0_0005);
}

#[test]
fn centralized_1000_panics() {
    family(LockKind::Centralized, 0xC4A0_0006);
}

#[test]
fn std_rw_1000_panics() {
    family(LockKind::StdRw, 0xC4A0_000B);
}

/// The biased fast path adds its own unwind hazard: a panicking fast
/// reader has *published* into the visible-readers table, and the entry
/// must be erased during the unwind or every later revocation scan spins
/// forever.
#[test]
fn bravo_biased_families_1000_panics() {
    chaos_campaign(
        Bravo::wrapping(GollLock::new(4), true).private_table(64),
        0xC4A0_000D,
        "Bravo<GOLL>",
    );
    chaos_campaign(
        Bravo::wrapping(FollLock::new(4), true).private_table(64),
        0xC4A0_000E,
        "Bravo<FOLL>",
    );
    chaos_campaign(
        Bravo::wrapping(RollLock::new(4), true).private_table(64),
        0xC4A0_000F,
        "Bravo<ROLL>",
    );
}

/// The acceptance cycle: two locks, two threads, opposite acquisition
/// orders (ABBA). Both inner waits can never be granted; the watched
/// acquisition must report `DeadlockDetected` well before its deadline
/// instead of timing out (or hanging a plain blocking wait).
#[test]
fn abba_cycle_is_reported_as_deadlock() {
    // One watch interval is the detection latency floor; keep the
    // deadline comfortably above it and assert detection at a fraction
    // of the deadline.
    let a = Watched::new(GollLock::new(2)).watch_interval(Duration::from_millis(1));
    let b = Watched::new(GollLock::new(2)).watch_interval(Duration::from_millis(1));
    let deadline = Duration::from_secs(20);

    let barrier = std::sync::Barrier::new(2);
    let (r1, r2) = std::thread::scope(|scope| {
        let t1 = scope.spawn(|| {
            let mut ha = a.handle().unwrap();
            let mut hb = b.handle().unwrap();
            let _ga = ha.write();
            barrier.wait();
            let start = Instant::now();
            let r = hb.lock_write_watched(Instant::now() + deadline);
            if r.is_ok() {
                hb.unlock_write();
            }
            (r, start.elapsed())
        });
        let t2 = scope.spawn(|| {
            let mut hb = b.handle().unwrap();
            let mut ha = a.handle().unwrap();
            let _gb = hb.write();
            barrier.wait();
            let start = Instant::now();
            let r = ha.lock_write_watched(Instant::now() + deadline);
            if r.is_ok() {
                ha.unlock_write();
            }
            (r, start.elapsed())
        });
        (t1.join().unwrap(), t2.join().unwrap())
    });

    let mut detected = 0;
    for (r, took) in [r1, r2] {
        match r {
            Err(AcquireError::DeadlockDetected) => {
                detected += 1;
                assert!(
                    took < deadline / 2,
                    "cycle detected only after {took:?} (deadline {deadline:?})"
                );
            }
            // The loser's detection releases nothing by itself, but its
            // return drops the watched wait; the winner is granted once
            // the loser's outer guard drops at scope exit — so a
            // successful grant is also a legal outcome for one side.
            Ok(()) => {}
            Err(AcquireError::TimedOut) => panic!("watched wait timed out instead of detecting"),
        }
    }
    assert!(detected >= 1, "neither side reported the ABBA cycle");

    // Both locks are fully usable afterwards.
    for lock in [&a, &b] {
        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
    }
}

/// The ABBA cycle again, with both outer holds taken through the raw
/// watched API rather than a guard: those holds must be in the wait-for
/// graph too, or the cycle is invisible and both sides run into their
/// deadlines.
#[test]
fn abba_cycle_between_raw_holds_is_reported() {
    let a = Watched::new(GollLock::new(2)).watch_interval(Duration::from_millis(1));
    let b = Watched::new(GollLock::new(2)).watch_interval(Duration::from_millis(1));
    let deadline = Duration::from_secs(2);

    let barrier = std::sync::Barrier::new(2);
    let (r1, r2) = std::thread::scope(|scope| {
        let t1 = scope.spawn(|| {
            let mut ha = a.handle().unwrap();
            let mut hb = b.handle().unwrap();
            ha.lock_write_watched(Instant::now() + deadline).unwrap();
            barrier.wait();
            let r = hb.lock_write_watched(Instant::now() + deadline);
            if r.is_ok() {
                hb.unlock_write();
            }
            ha.unlock_write();
            r
        });
        let t2 = scope.spawn(|| {
            let mut hb = b.handle().unwrap();
            let mut ha = a.handle().unwrap();
            hb.lock_write_watched(Instant::now() + deadline).unwrap();
            barrier.wait();
            let r = ha.lock_write_watched(Instant::now() + deadline);
            if r.is_ok() {
                ha.unlock_write();
            }
            hb.unlock_write();
            r
        });
        (t1.join().unwrap(), t2.join().unwrap())
    });

    // The side that detects withdraws and releases its outer hold, so
    // the other side is granted.
    for r in [r1, r2] {
        assert_ne!(r, Err(AcquireError::TimedOut), "r1 = {r1:?}, r2 = {r2:?}");
    }
    assert!(
        [r1, r2].contains(&Err(AcquireError::DeadlockDetected)),
        "neither side reported the ABBA cycle: r1 = {r1:?}, r2 = {r2:?}"
    );
}

/// A watched writer stalled behind a long-held read must walk the
/// escalation ladder to degradation, disable the BRAVO bias while
/// degraded, and re-enable it once a write makes progress again.
#[test]
fn starvation_watchdog_degrades_and_recovers() {
    let lock = Watched::new(Bravo::wrapping(GollLock::new(3), true).private_table(64))
        .watch_interval(Duration::from_millis(1))
        .stall_threshold(Duration::from_millis(5));
    let hz = lock.inner().knobs();
    assert!(hz.bias_allowed());

    let hold = AtomicBool::new(true);
    let reading = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut r = lock.handle().unwrap();
            let g = r.read();
            reading.wait();
            while hold.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            drop(g);
        });
        reading.wait();

        let mut w = lock.handle().unwrap();
        // The reader never leaves within the deadline: the writer times
        // out, but while stalled it must have escalated to degradation.
        let err = w
            .lock_write_watched(Instant::now() + Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err, AcquireError::TimedOut);
        assert_eq!(lock.stall_level(), 3, "watchdog did not reach degradation");
        assert!(!hz.bias_allowed(), "degradation must disable the bias");

        // Let the reader go; a granted watched write notes progress and
        // lifts the degradation.
        hold.store(false, Ordering::Relaxed);
        w.lock_write_watched(Instant::now() + Duration::from_secs(20))
            .unwrap();
        w.unlock_write();
    });
    assert!(hz.bias_allowed(), "write progress must restore the bias");
    assert_eq!(lock.stall_level(), 0);
}

/// The degrade gives back only what it took: a bias the user had already
/// forbidden stays forbidden after a degrade-and-recover cycle.
#[test]
fn starvation_watchdog_keeps_a_user_cleared_bias_cleared() {
    let lock = Watched::new(Bravo::wrapping(GollLock::new(3), true).private_table(64))
        .watch_interval(Duration::from_millis(1))
        .stall_threshold(Duration::from_millis(5));
    let knobs = lock.inner().knobs();
    knobs.set_bias_allowed(false);

    let hold = AtomicBool::new(true);
    let reading = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut r = lock.handle().unwrap();
            let g = r.read();
            reading.wait();
            while hold.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            drop(g);
        });
        reading.wait();

        let mut w = lock.handle().unwrap();
        let err = w
            .lock_write_watched(Instant::now() + Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err, AcquireError::TimedOut);
        assert_eq!(lock.stall_level(), 3, "watchdog did not reach degradation");

        hold.store(false, Ordering::Relaxed);
        w.lock_write_watched(Instant::now() + Duration::from_secs(20))
            .unwrap();
        w.unlock_write();
    });
    assert_eq!(lock.stall_level(), 0);
    assert!(
        !knobs.bias_allowed(),
        "recovery re-allowed a bias the user forbade"
    );
}
