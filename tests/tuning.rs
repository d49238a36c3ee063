//! The self-tuning controller's behavioural contract:
//!
//! 1. **Oscillation bound** — a square-wave workload that alternates
//!    regimes every sampling window must produce a *pinned* flip count
//!    (one per genuine phase change, zero during the alternation), and a
//!    steady mix must not flip at all, or the controller would thrash
//!    the bias it is supposed to steady.
//! 2. **Convergence to bypass** — an uncontended biased lock must settle
//!    into the zero-RMW read path with the controller never running: no
//!    sampling windows, no slow-path entries, no C-SNZI root writes.
//! 3. **Decision-point races** — fault injection at `tuning.decide`
//!    stretches the window between classification and knob application;
//!    mutual exclusion must survive acquisitions racing a half-made
//!    decision (the arm/disarm hazard).
//!
//! Determinism: the controller's only clock is slow-path entries plus
//! the explicit [`SelfTuning::tick`]; the pacing tests drive `tick`
//! directly so every decision is exact, not statistical.

#![cfg(not(loom))]

use oll::core::{Regime, TuningConfig};
use oll::util::XorShift64;
use oll::{FollBuilder, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, SelfTuning};

/// Windows are closed only by explicit `tick`s (the slow-path clock is
/// effectively disabled), so every tick classifies exactly the
/// acquisitions pushed since the previous one — fast *or* slow: a FOLL
/// write after reads takes the queue slow path, and must still land in
/// the same window as the reads around it.
fn paced(hysteresis: u32, cooldown: u32) -> TuningConfig {
    TuningConfig {
        window: u32::MAX,
        hysteresis,
        cooldown,
    }
}

/// Pushes one synthetic sampling window: `reads`/`writes` acquisitions
/// (uncontended, so they all take the fast path), flushed and ticked.
fn window(lock: &SelfTuning<FollLock>, reads: usize, writes: usize) {
    let mut h = lock.handle().unwrap();
    for _ in 0..reads {
        h.lock_read();
        h.unlock_read();
    }
    for _ in 0..writes {
        h.lock_write();
        h.unlock_write();
    }
    h.flush();
    drop(h);
    lock.tick();
}

#[test]
fn square_wave_workload_has_a_pinned_flip_count() {
    let lock = SelfTuning::with_config(FollBuilder::new(2).build(), paced(2, 0));
    assert_eq!(lock.regime(), Regime::Mixed);

    // A read phase is the regime every lock starts in: nothing to flip.
    for _ in 0..4 {
        window(&lock, 100, 1);
    }
    assert_eq!(lock.flips(), 0);
    assert_eq!(lock.holds(), 0);
    assert!(lock.knobs().bias_allowed());

    // Square wave: alternate write-heavy and read-heavy every window.
    // Each write-heavy window is held and its streak reset by the next
    // read window, so hysteresis=2 is never satisfied: zero flips.
    for _ in 0..8 {
        window(&lock, 1, 100);
        window(&lock, 100, 1);
    }
    assert_eq!(lock.flips(), 0, "square wave must not flip the policy");
    assert_eq!(lock.holds(), 8);
    assert_eq!(lock.regime(), Regime::Mixed);

    // The wave ends in a sustained write phase: hysteresis holds the
    // first window, the second applies — exactly one flip however long
    // it persists.
    for _ in 0..4 {
        window(&lock, 1, 100);
    }
    assert_eq!(lock.regime(), Regime::WriteHeavy);
    assert_eq!(lock.flips(), 1, "one phase change, one flip");
    assert_eq!(lock.holds(), 9);
    assert!(!lock.knobs().bias_allowed());

    // And a sustained read phase turns the bias back on: one more.
    for _ in 0..4 {
        window(&lock, 100, 1);
    }
    assert_eq!(lock.regime(), Regime::Mixed);
    assert_eq!(lock.flips(), 2);
    assert!(lock.knobs().bias_allowed());
    assert_eq!(lock.windows(), 28);
}

#[test]
fn cooldown_caps_the_decision_rate() {
    let lock = SelfTuning::with_config(FollBuilder::new(2).build(), paced(1, 3));
    // hysteresis=1: the first write-heavy window flips immediately...
    window(&lock, 1, 100);
    assert_eq!(lock.flips(), 1);
    assert!(!lock.knobs().bias_allowed());
    // ...and arms a 3-window cooldown: an immediate sustained reversal
    // is held for 3 windows and applies on the 4th.
    for i in 0..3 {
        window(&lock, 100, 1);
        assert_eq!(lock.flips(), 1, "cooldown window {i} must hold");
    }
    window(&lock, 100, 1);
    assert_eq!(lock.flips(), 2);
    assert_eq!(lock.regime(), Regime::Mixed);
    assert!(lock.knobs().bias_allowed());
    assert_eq!(lock.holds(), 3);
}

/// A steady one-thread 90/10 mix is one regime, however its writes fall
/// into windows: with no `tick`, only the lock's own slow path paces the
/// controller, and it must not flip more than once.
#[test]
fn steady_read_mostly_mix_does_not_flip() {
    let lock = SelfTuning::new(RollLock::builder(2).biased(true).build_biased());
    let mut h = lock.handle().unwrap();
    let mut rng = XorShift64::new(0x5eed);
    for _ in 0..200_000 {
        if rng.percent(90) {
            h.lock_read();
            h.unlock_read();
        } else {
            h.lock_write();
            h.unlock_write();
        }
    }
    drop(h);
    assert!(lock.flips() <= 1, "{} flips", lock.flips());
}

#[test]
fn idle_windows_steer_nothing() {
    let lock = SelfTuning::with_config(FollBuilder::new(2).build(), paced(1, 0));
    let before = lock.knobs().revision();
    for _ in 0..10 {
        lock.tick();
    }
    assert_eq!(lock.windows(), 10);
    assert_eq!(lock.flips(), 0);
    assert_eq!(lock.regime(), Regime::Mixed);
    assert_eq!(lock.knobs().revision(), before, "no evidence, no stores");
}

/// A lock with no bias (here: a raw GOLL) — the wrapper must still work;
/// the permission it stores is read by nobody.
/// Mostly a compile-shape test: SelfTuning over any family.
#[test]
fn wrapping_any_family_works() {
    let lock = SelfTuning::new(GollLock::new(2));
    let mut h = lock.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    h.lock_write();
    h.unlock_write();
    drop(h);
    lock.tick();
    assert_eq!(lock.windows(), 1);
}

/// Acceptance pin: an uncontended biased lock under the controller
/// converges to the bypassed read path with *zero* controller activity —
/// every read is a bias grant, nothing enters the slow path, no sampling
/// window ever closes, and the C-SNZI root is never written by readers.
#[cfg(feature = "telemetry")]
#[test]
fn uncontended_biased_lock_converges_to_bypass_with_controller_idle() {
    use oll::telemetry::LockEvent;

    const READS: u64 = 10_000;
    let lock = SelfTuning::new(FollBuilder::new(2).biased(true).build_biased());
    let mut h = lock.handle().unwrap();
    // One write arms nothing (bias starts armed); do pure reads.
    for _ in 0..READS {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);

    let snap = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(
        snap.get(LockEvent::BiasGrant),
        READS,
        "every read must take the zero-RMW bypass"
    );
    assert_eq!(snap.get(LockEvent::ReadSlow), 0);
    assert_eq!(snap.get(LockEvent::CsnziRootWrite), 0);
    assert_eq!(snap.get(LockEvent::TunerSample), 0);
    assert_eq!(lock.windows(), 0, "the controller must never have run");
    assert_eq!(lock.flips(), 0);
}

/// The `tuning.decide` fault site: yield the decider between
/// classification and knob application while readers and writers hammer
/// the lock. Exclusion must hold through every half-made decision, and
/// the controller must still make progress (windows close).
#[cfg(feature = "fault-injection")]
#[test]
fn exclusion_survives_races_at_the_decision_point() {
    use oll::util::fault::FaultPlan;
    use std::sync::atomic::{AtomicI64, Ordering};

    let _guard = FaultPlan::every(0xDEC1DE, "tuning.decide", 40).install();

    const THREADS: usize = 4;
    const OPS: usize = 2_000;
    let lock = SelfTuning::with_config(
        FollBuilder::new(THREADS).biased(true).build_biased(),
        TuningConfig {
            window: 8, // close windows constantly: maximum decider traffic
            hysteresis: 1,
            cooldown: 0,
        },
    );
    let occupancy = AtomicI64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let lock = &lock;
            let occupancy = &occupancy;
            s.spawn(move || {
                let mut h = lock.handle().unwrap();
                for i in 0..OPS {
                    // Per-thread phase shift keeps read- and write-heavy
                    // bursts overlapping across threads, so decisions
                    // race real acquisitions in both directions.
                    if (i / 64 + t) % 2 == 0 {
                        h.lock_read();
                        let seen = occupancy.fetch_add(1, Ordering::SeqCst);
                        assert!(seen >= 0, "reader saw a writer inside");
                        occupancy.fetch_sub(1, Ordering::SeqCst);
                        h.unlock_read();
                    } else {
                        h.lock_write();
                        let seen = occupancy.fetch_sub(1_000, Ordering::SeqCst);
                        assert_eq!(seen, 0, "writer entered an occupied lock");
                        occupancy.fetch_add(1_000, Ordering::SeqCst);
                        h.unlock_write();
                    }
                }
            });
        }
    });

    assert_eq!(occupancy.load(Ordering::SeqCst), 0);
    assert!(
        lock.windows() > 0,
        "contended run must have closed sampling windows"
    );
}
