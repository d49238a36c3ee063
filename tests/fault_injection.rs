//! Seeded fault-injection suites: deterministically widen the
//! timeout-vs-hand-off windows in the lock slow paths and hammer them.
//!
//! Run with `cargo test --features fault-injection --test fault_injection`.
//! Without the feature this file compiles to nothing (the `inject` sites in
//! the locks are no-ops, so there would be nothing to test).
#![cfg(feature = "fault-injection")]

use oll::util::fault::FaultPlan;
use oll::util::WaitStrategy;
use oll::{Bravo, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, TimedHandle};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The fault plan is process-global; serialize the tests that install one.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The directed race the tentpole asks for: a reader's timeout expiring at
/// the same moment the writer's release hands the lock to that reader.
/// The plan stretches the cancellation-side windows (between the wait
/// giving up and the cancel re-arbitrating) so the hand-off lands inside
/// them; 1000 iterations with a fixed seed walk a deterministic schedule
/// of widened windows. Whichever side wins each race, the lock must end
/// every iteration fully functional — and so must the reader's handle: one
/// that timed out queues again at once, on whatever wait cell or node its
/// cancellation just gave back.
fn timeout_vs_handoff_race<L>(lock: L, site_filter: &str, seed: u64)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    const ITERS: usize = 1000;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(seed, site_filter, 60, 8).install();

    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));
    for i in 0..ITERS {
        let mut w = lock.handle().unwrap();
        w.lock_write();
        state.store(-1, Ordering::SeqCst);

        let reader = {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            // Vary the timeout so the expiry sweeps across the release.
            let timeout = Duration::from_micros((i % 40) as u64);
            std::thread::spawn(move || {
                let mut r = lock.handle().unwrap();
                if r.lock_read_timeout(timeout).is_ok() {
                    // Granted: the writer must already be out.
                    assert!(
                        state.load(Ordering::SeqCst) >= 0,
                        "read granted under writer"
                    );
                    r.unlock_read();
                    true
                } else {
                    r.lock_read();
                    assert!(
                        state.load(Ordering::SeqCst) >= 0,
                        "read granted under writer"
                    );
                    r.unlock_read();
                    false
                }
            })
        };

        // Release roughly when the reader's timeout expires; the injected
        // yields inside the reader's cancel path do the fine aiming.
        std::thread::yield_now();
        state.store(0, Ordering::SeqCst);
        w.unlock_write();
        let _timed_out = reader.join().unwrap();

        // The lock must be fully functional whichever side won.
        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
        h.lock_read();
        h.unlock_read();
    }
}

/// GOLL waits on lock-owned cells that are re-armed and reused, and the
/// two strategies leave a cell differently (a parked waiter also has a
/// handle to take back), so its suites run under both.
fn goll_with(strategy: WaitStrategy) -> GollLock {
    GollLock::builder(8).wait_strategy(strategy).build()
}

const STRATEGIES: [WaitStrategy; 2] = [WaitStrategy::SpinThenYield, WaitStrategy::SpinThenPark];

#[test]
fn goll_timeout_vs_handoff_1000_iters() {
    for strategy in STRATEGIES {
        timeout_vs_handoff_race(goll_with(strategy), "goll.read", 0x5EED_0001);
    }
}

#[test]
fn foll_timeout_vs_handoff_1000_iters() {
    timeout_vs_handoff_race(FollLock::new(8), "foll.read", 0x5EED_0002);
}

#[test]
fn roll_timeout_vs_handoff_1000_iters() {
    timeout_vs_handoff_race(RollLock::new(8), "roll.read", 0x5EED_0003);
}

/// FOLL's hardest cancellation window: a queued writer closes the reader
/// node, making the timing-out reader the *last departer* (`MustHandOff`).
/// The plan widens both the reader's cancel-vs-grant arbitration and the
/// hand-off path of normal departures.
#[test]
fn foll_cancel_vs_close_race() {
    const ITERS: usize = 400;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(0x5EED_0004, "foll", 50, 6).install();

    let lock = Arc::new(FollLock::new(8));
    for i in 0..ITERS {
        let mut w1 = lock.handle().unwrap();
        w1.lock_write();

        let reader = {
            let lock = Arc::clone(&lock);
            let timeout = Duration::from_micros((i % 60) as u64);
            std::thread::spawn(move || {
                let mut r = lock.handle().unwrap();
                if r.lock_read_timeout(timeout).is_ok() {
                    r.unlock_read();
                }
            })
        };
        let w2 = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut w = lock.handle().unwrap();
                w.lock_write();
                w.unlock_write();
            })
        };

        std::thread::yield_now();
        w1.unlock_write();
        reader.join().unwrap();
        w2.join().unwrap();

        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
    }
    assert!(lock.is_queue_empty());
}

/// Timed writers abandoning queue nodes while other writers churn: the
/// abandoned-node takeover (grant cascade → RELEASED → reclaim) must
/// never lose the queue. Exercises `foll.write.*` windows. Half the
/// acquisitions go through the blocking calls — they walk the same
/// windows with no deadline, and are the "other writers" a cancelled one
/// hands the lock past. A handle whose acquisition timed out goes straight
/// into its next one, so a writer that lost cancel-vs-handoff re-enqueues
/// the node or cell it has just been handed the lock on.
fn abandoned_writer_churn<L>(lock: L, site_filter: &str, seed: u64)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    const THREADS: usize = 5;
    const ITERS: usize = 300;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(seed, site_filter, 50, 6).install();

    let lock = Arc::new(lock);
    let state = Arc::new(AtomicI64::new(0));
    let mut threads = Vec::new();
    for tid in 0..THREADS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            let mut rng = oll_util::XorShift64::for_thread(seed, tid);
            for _ in 0..ITERS {
                let timeout = Duration::from_micros(rng.next_below(200));
                let blocking = rng.percent(50);
                if rng.percent(50) {
                    if blocking {
                        h.lock_write();
                    } else if h.lock_write_timeout(timeout).is_err() {
                        continue;
                    }
                    assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
                    state.store(0, Ordering::SeqCst);
                    h.unlock_write();
                } else {
                    if blocking {
                        h.lock_read();
                    } else if h.lock_read_timeout(timeout).is_err() {
                        continue;
                    }
                    assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
                    state.fetch_sub(1, Ordering::SeqCst);
                    h.unlock_read();
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
}

#[test]
fn foll_abandoned_writer_churn() {
    abandoned_writer_churn(FollLock::new(8), "foll.write", 0x5EED_0005);
}

#[test]
fn roll_abandoned_writer_churn() {
    abandoned_writer_churn(RollLock::new(8), "foll.write", 0x5EED_0006);
}

#[test]
fn goll_writer_cancel_churn() {
    for strategy in STRATEGIES {
        abandoned_writer_churn(goll_with(strategy), "goll.write", 0x5EED_0007);
    }
}

/// A GOLL waiter that unwinds while queued — a panic drawn at
/// `goll.read.queued` / `goll.write.queued`, after the enqueue and before
/// the wait — must take its cell out of the queue (or, if a releaser got
/// there first, take the hand-off and release it): the cells are the
/// lock's, so a cell left linked would be handed the lock with nobody
/// waiting on it, and the slot's next claimant would link it a second
/// time. Half the threads make a handle per acquisition, so the unwind
/// drops it and the slot is claimed again at once; the others keep one
/// handle and use it again after the panic. The survivors must keep
/// acquiring, and the lock must end free with no arrival left behind.
#[test]
fn goll_waiter_unwinding_while_queued_is_excised() {
    const THREADS: usize = 4;
    const ITERS: usize = 500;

    /// One checked acquisition and release; a timed one may give up.
    fn acquire(h: &mut impl TimedHandle, state: &AtomicI64, write: bool, timed: bool) {
        let timeout = Duration::from_micros(50);
        if write {
            if !timed {
                h.lock_write();
            } else if h.lock_write_timeout(timeout).is_err() {
                return;
            }
            assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
            // The holder yields so that the others queue behind it.
            std::thread::yield_now();
            state.store(0, Ordering::SeqCst);
            h.unlock_write();
        } else {
            if !timed {
                h.lock_read();
            } else if h.lock_read_timeout(timeout).is_err() {
                return;
            }
            assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
            state.fetch_sub(1, Ordering::SeqCst);
            h.unlock_read();
        }
    }

    let _guard = serial();
    quiet_injected_panics();
    for strategy in STRATEGIES {
        let plan = FaultPlan::panicking(0x5EED_000C, ".queued", 30).install();
        // Spare slots: a claim scans the registry once, and with every slot
        // spoken for it can miss the one a churning neighbour just released.
        let lock = GollLock::builder(2 * THREADS)
            .wait_strategy(strategy)
            .build();
        let state = AtomicI64::new(0);
        let unwound = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let (lock, state, unwound) = (&lock, &state, &unwound);
                scope.spawn(move || {
                    let mut rng = oll_util::XorShift64::for_thread(0x5EED_000C, tid);
                    let mut kept = (tid % 2 == 1).then(|| lock.handle().unwrap());
                    for _ in 0..ITERS {
                        let (write, timed) = (rng.percent(50), rng.percent(30));
                        let swallowed = run_swallowing_injected(|| match kept.as_mut() {
                            Some(h) => acquire(h, state, write, timed),
                            None => acquire(&mut lock.handle().unwrap(), state, write, timed),
                        });
                        unwound.fetch_add(swallowed as usize, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(
            unwound.load(Ordering::Relaxed) > 0,
            "{strategy:?}: no waiter met a `.queued` window"
        );
        drop(plan);
        let root = lock.csnzi_snapshot();
        assert_eq!(
            (root.surplus(), root.open),
            (0, true),
            "{strategy:?}: an unwound waiter left the lock held"
        );
        let mut h = lock.handle().unwrap();
        h.lock_write();
        h.unlock_write();
        h.lock_read();
        h.unlock_read();
    }
}

/// The blocking `lock_write` is the timed one with no deadline, so it
/// walks the `goll.write.*` windows too. Directed: a plan that panics at
/// the first window past the fast path (nothing is held or queued there,
/// so the unwind leaves the lock untouched) must catch a *blocking* writer
/// that finds the lock read-held.
#[test]
fn goll_blocking_write_walks_the_goll_write_windows() {
    let _guard = serial();
    quiet_injected_panics();
    let plan = FaultPlan::panicking(0x5EED_000B, "goll.write.before-queue-mutex", 100).install();

    let lock = GollLock::new(2);
    let mut r = lock.handle().unwrap();
    r.lock_read();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut w = lock.handle().unwrap();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.lock_write();
                w.unlock_write();
            }))
            .is_err()
        });
        // A writer that meets the window unwinds at once; one that does not
        // queues behind `r`. Give it a bounded chance, then let it through
        // either way so a missing window fails the test instead of hanging.
        let give_up = std::time::Instant::now() + Duration::from_secs(20);
        while !writer.is_finished() && std::time::Instant::now() < give_up {
            std::thread::yield_now();
        }
        let met_the_window = writer.is_finished();
        r.unlock_read();
        let unwound = writer.join().unwrap();
        assert!(
            met_the_window && unwound,
            "blocking lock_write never reached goll.write.before-queue-mutex"
        );
    });

    drop(plan);
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    h.lock_read();
    h.unlock_read();
}

/// The BRAVO revocation race, directed: fast-path readers publishing
/// into the visible-readers table while a writer clears `rbias` and
/// scans them out. The plan widens the reader's publish→recheck window
/// (`bravo.read.published`) and the writer's clear→scan window
/// (`bravo.write.revoke-scan`) — the exact store-buffering pattern whose
/// `SeqCst` fences keep a reader and writer from both proceeding. The
/// zero multiplier lets slow-path readers re-arm the bias immediately,
/// so the race re-runs every iteration instead of settling unbiased.
#[test]
fn bravo_readers_vs_revoking_writer_race() {
    const READERS: usize = 3;
    const WRITER_ITERS: usize = 400;
    let _guard = serial();
    let _plan = FaultPlan::sometimes(0x5EED_0008, "bravo", 60, 8).install();

    let lock = Arc::new(
        Bravo::wrapping(GollLock::new(8), true)
            .private_table(64)
            .rearm_multiplier(0),
    );
    let state = Arc::new(AtomicI64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for _ in 0..READERS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_read();
                assert!(
                    state.fetch_add(1, Ordering::SeqCst) >= 0,
                    "reader entered beside the revoking writer"
                );
                state.fetch_sub(1, Ordering::SeqCst);
                h.unlock_read();
            }
        }));
    }
    {
        let mut w = lock.handle().unwrap();
        for _ in 0..WRITER_ITERS {
            w.lock_write();
            assert_eq!(
                state.swap(-1, Ordering::SeqCst),
                0,
                "writer entered beside a published reader"
            );
            state.store(0, Ordering::SeqCst);
            w.unlock_write();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    // The lock must come out fully functional, bias machinery intact.
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    h.lock_read();
    h.unlock_read();
}

/// Runs `f`, swallowing only the fault layer's *injected* panics — `true`
/// if there was one; anything else (assertion failures inside the closure,
/// lock misuse panics) is resumed so it still fails the test.
fn run_swallowing_injected(f: impl FnOnce()) -> bool {
    let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) else {
        return false;
    };
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    if !msg.is_some_and(|m| m.starts_with("injected panic")) {
        std::panic::resume_unwind(payload);
    }
    true
}

/// Silences the default panic-hook report for injected panics (several
/// hundred per run below); everything else reports as before.
fn quiet_injected_panics() {
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
            if msg.is_some_and(|m| m.starts_with("injected panic")) {
                return;
            }
            prev(info);
        }));
    });
}

/// The robustness satellite's directed race: biased fast readers
/// *panicking* at their publish→recheck window while a writer runs the
/// revocation scan. The reader's unwind must erase its published slot —
/// if it ever leaks, the writer's scan (`spin_until` on the slot) hangs
/// this test. Panics at the writer's own revoke sites are also drawn,
/// proving the unwinding writer releases the inner write hold instead of
/// stranding the readers. The zero re-arm multiplier keeps the bias
/// re-arming so the race repeats every iteration.
#[test]
fn bravo_revocation_vs_panicking_biased_readers() {
    const READERS: usize = 3;
    const WRITER_ITERS: usize = 400;
    let _guard = serial();
    quiet_injected_panics();
    let plan = FaultPlan::sometimes(0x5EED_0009, "bravo", 40, 6)
        .with_panic_percent(20)
        .install();

    let lock = Arc::new(
        Bravo::wrapping(GollLock::new(8), true)
            .private_table(64)
            .rearm_multiplier(0),
    );
    let state = Arc::new(AtomicI64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for _ in 0..READERS {
        let lock = Arc::clone(&lock);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                run_swallowing_injected(|| {
                    h.lock_read();
                    assert!(
                        state.fetch_add(1, Ordering::SeqCst) >= 0,
                        "reader entered beside the revoking writer"
                    );
                    state.fetch_sub(1, Ordering::SeqCst);
                    h.unlock_read();
                });
            }
        }));
    }
    {
        let mut w = lock.handle().unwrap();
        for _ in 0..WRITER_ITERS {
            run_swallowing_injected(|| {
                w.lock_write();
                assert_eq!(
                    state.swap(-1, Ordering::SeqCst),
                    0,
                    "writer entered beside a published reader"
                );
                state.store(0, Ordering::SeqCst);
                w.unlock_write();
            });
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    // Injection off for the post-mortem: the lock must be fully
    // functional, with no panicking holder having stranded a slot.
    drop(plan);
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    h.lock_read();
    h.unlock_read();
}

/// The C-SNZI's unwind coverage: panics drawn at the tree-allocation
/// sync point (before the arriving reader has touched any word) plus
/// yields at every `csnzi` site must never wedge the tree — arrivals keep
/// landing and the lock keeps serving both modes.
#[test]
fn adaptive_csnzi_survives_inflate_deflate_panics() {
    const ITERS: usize = 400;
    let _guard = serial();
    quiet_injected_panics();
    let plan = FaultPlan::sometimes(0x5EED_000A, "csnzi", 30, 4)
        .with_panic_percent(20)
        .install();

    let lock = Arc::new(GollLock::new(4));
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                run_swallowing_injected(|| {
                    h.lock_read();
                    h.unlock_read();
                });
            }
        })
    };
    {
        let mut h = lock.handle().unwrap();
        for _ in 0..ITERS {
            run_swallowing_injected(|| {
                h.lock_read();
                h.unlock_read();
            });
            run_swallowing_injected(|| {
                h.lock_write();
                h.unlock_write();
            });
        }
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    drop(plan);
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    h.lock_read();
    h.unlock_read();
}

/// The directed first-allocation race: N threads simultaneously route
/// their first arrival through a C-SNZI that has never built its tree.
/// The injected yields at the `csnzi.inflate` sync point widen the window
/// in which several threads find no tree; only one may allocate it, every
/// arrival must still land, and no surplus may be lost across the race.
#[test]
fn first_inflation_race_builds_one_tree_and_loses_no_arrivals() {
    use oll::csnzi::{ArrivalPolicy, CSnzi, TreeShape};

    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let _guard = serial();
    let _plan = FaultPlan::every(0x1F1A7E, "csnzi.inflate", 6).install();
    for round in 0..ROUNDS {
        let telemetry = oll::telemetry::Telemetry::register("CSNZI");
        let c = {
            let mut c = CSnzi::new(TreeShape::for_threads(THREADS));
            c.attach_telemetry(telemetry.clone());
            Arc::new(c)
        };
        assert!(!c.is_tree_allocated(), "round {round}: starts root-only");
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            let barrier = Arc::clone(&barrier);
            joins.push(std::thread::spawn(move || {
                let mut p = ArrivalPolicy::always_tree();
                barrier.wait();
                let ticket = c.arrive(&mut p, t);
                assert!(ticket.arrived(), "arrival lost in inflation race");
                ticket
            }));
        }
        let tickets: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert!(c.is_tree_allocated(), "round {round}: tree not allocated");
        assert!(c.query().nonzero, "round {round}: surplus lost");
        for t in tickets {
            c.depart(t);
        }
        assert!(!c.query().nonzero, "round {round}: departures unbalanced");
        // In telemetry builds, pin "exactly one tree built": only the
        // arrival that allocated records it.
        if let Some(s) = telemetry.snapshot() {
            use oll::telemetry::LockEvent;
            assert_eq!(
                s.get(LockEvent::CsnziInflate),
                1,
                "round {round}: exactly one tree built"
            );
            assert!(
                s.get(LockEvent::CsnziNodeWrite) > 0,
                "round {round}: no tree RMWs"
            );
        }
    }
}

// ----------------------------------------------------------------------
// The unconditional arrival's own window: `csnzi.arrive.landed-closed`
// ----------------------------------------------------------------------
//
// A read arrival is one `fetch_add`; if it landed on a closed word it is
// taken back with a `fetch_sub`. In between, its increment sits on a word
// somebody else owns, drains or recycles. The site is yield-only (an
// unwind there would leak the increment), and the plan below stretches
// *every* occurrence, so each scenario's other party acts while a failed
// arrival is mid-air: a writer releasing (`open` / `open_with_arrivals`
// must keep the increment), the last reader departing (the arrival's undo,
// not the reader's depart, may be the decrement that drains the word, and
// then owes the hand-off), a timed reader cancelling, and a queue lock's
// reader node being closed, recycled and reopened under it.

/// What a scenario needs from a family: the lock, and the check that it
/// came to rest — free, its root word(s) open-empty or owned-empty.
struct Family<L> {
    name: &'static str,
    make: fn() -> L,
    at_rest: fn(&L),
}

fn goll_family() -> Family<GollLock> {
    Family {
        name: "GOLL",
        make: || GollLock::new(8),
        at_rest: |lock| {
            assert_eq!(
                lock.csnzi_snapshot(),
                oll::csnzi::RootWord::OPEN_EMPTY,
                "GOLL: leaked arrival or lost hand-off"
            );
        },
    }
}

/// For a queue lock: a final write recycles the reader node the reads
/// left queued (debug builds assert, at every recycle and every reuse,
/// that the node's word is owned), after which the queue must be empty.
fn final_write<L: RwLockFamily>(lock: &L) {
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
}

fn foll_family() -> Family<FollLock> {
    Family {
        name: "FOLL",
        make: || FollLock::new(8),
        at_rest: |lock| {
            final_write(lock);
            assert!(lock.is_queue_empty(), "FOLL: queue not drained");
        },
    }
}

fn roll_family() -> Family<RollLock> {
    Family {
        name: "ROLL",
        make: || RollLock::new(8),
        at_rest: |lock| {
            final_write(lock);
            assert!(lock.is_queue_empty(), "ROLL: queue not drained");
        },
    }
}

/// Runs `rounds` rounds of `round(lock, state, i)` while a prober thread
/// hammers `try_lock_read` — the supply of arrivals that land closed —
/// under the stretched window, then checks the lock came to rest and
/// every node of a queue lock's pool still cycles.
fn with_arrivals_landing_closed<L>(
    family: Family<L>,
    rounds: usize,
    round: impl Fn(&Arc<L>, &Arc<AtomicI64>, usize),
) where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let _guard = serial();
    // "arrive" matches both windows: a queue-lock reader about to arrive
    // at the node it read from the tail (`foll.read.arrive` — stretched,
    // the node is closed or recycled under it, which is how an arrival
    // comes to land closed there at all), and the landed arrival itself.
    let _plan = FaultPlan::every(0x5EED_0017, "arrive", 8).install();
    let lock = Arc::new((family.make)());
    // > 0: readers inside; -1: a writer inside.
    let state = Arc::new(AtomicI64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let (lock, state, stop) = (lock.clone(), state.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            let mut failed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if h.try_lock_read() {
                    read_inside(&state);
                    h.unlock_read();
                } else {
                    failed += 1;
                }
            }
            failed
        })
    };
    for i in 0..rounds {
        round(&lock, &state, i);
    }
    stop.store(true, Ordering::Relaxed);
    let failed = prober.join().unwrap();
    assert!(
        failed > 0,
        "{}: the prober never met a held lock",
        family.name
    );
    // In telemetry builds, pin that they went through the window.
    if let Some(s) = lock.telemetry().snapshot() {
        let undone = s.get(oll::telemetry::LockEvent::CsnziArriveUndone);
        assert!(undone > 0, "{}: no arrival was taken back", family.name);
    }

    // Every handle slot in turn: a queue lock allocates its reader node
    // starting from the handle's own slot, so this walks the whole pool.
    let mut handles: Vec<_> = (0..lock.capacity())
        .map(|_| lock.handle().unwrap())
        .collect();
    for h in &mut handles {
        h.lock_read();
        read_inside(&state);
        h.unlock_read();
        h.lock_write();
        write_inside(&state);
        h.unlock_write();
    }
    drop(handles);
    (family.at_rest)(&lock);
    let mut h = lock.handle().unwrap();
    assert!(h.try_lock_write(), "{}: lock not free", family.name);
    h.unlock_write();
}

fn read_inside(state: &AtomicI64) {
    assert!(
        state.fetch_add(1, Ordering::SeqCst) >= 0,
        "reader beside writer"
    );
    state.fetch_sub(1, Ordering::SeqCst);
}

fn write_inside(state: &AtomicI64) {
    assert_eq!(state.swap(-1, Ordering::SeqCst), 0, "writer not alone");
    state.store(0, Ordering::SeqCst);
}

fn spawn_with_handle<L>(
    lock: &Arc<L>,
    state: &Arc<AtomicI64>,
    f: impl FnOnce(&mut L::Handle<'_>, &AtomicI64) + Send + 'static,
) -> std::thread::JoinHandle<()>
where
    L: RwLockFamily + Send + Sync + 'static,
{
    let (lock, state) = (lock.clone(), state.clone());
    std::thread::spawn(move || {
        let mut h = lock.handle().unwrap();
        f(&mut h, &state);
    })
}

/// (i) A writer releases — `open`, or `open_with_arrivals` for the readers
/// that queued behind it — while failed arrivals have their increments on
/// the owned word.
fn landing_closed_vs_writer_release<L>(family: Family<L>)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    with_arrivals_landing_closed(family, 150, |lock, state, i| {
        let mut w = lock.handle().unwrap();
        w.lock_write();
        write_inside(state);
        // Odd rounds: readers queue behind the writer first.
        let readers: Vec<_> = (0..i % 2 * 2)
            .map(|_| {
                spawn_with_handle(lock, state, |h, state| {
                    h.lock_read();
                    read_inside(state);
                    h.unlock_read();
                })
            })
            .collect();
        std::thread::yield_now();
        w.unlock_write();
        for r in readers {
            r.join().unwrap();
        }
    });
}

/// (ii) The last reader departs a lock a writer waits for, while failed
/// arrivals land on the draining word: whichever decrement drains it
/// hands the lock to the writer, exactly once.
fn landing_closed_vs_last_reader<L>(family: Family<L>)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    with_arrivals_landing_closed(family, 150, |lock, state, _| {
        let mut r = lock.handle().unwrap();
        r.lock_read();
        let writer = spawn_with_handle(lock, state, |h, state| {
            h.lock_write();
            write_inside(state);
            h.unlock_write();
        });
        read_inside(state);
        std::thread::yield_now();
        r.unlock_read();
        writer.join().unwrap();
    });
}

/// (iii) A timed reader gives up its wait (its cancel is a decrement like
/// any other) between a releasing writer and a queued one, with failed
/// arrivals landing on whatever word it waited on.
fn landing_closed_vs_timed_reader<L>(family: Family<L>)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    with_arrivals_landing_closed(family, 150, |lock, state, i| {
        let mut w1 = lock.handle().unwrap();
        w1.lock_write();
        write_inside(state);
        let timeout = Duration::from_micros((i % 50) as u64);
        let reader = spawn_with_handle(lock, state, move |h, state| {
            if h.lock_read_timeout(timeout).is_ok() {
                read_inside(state);
                h.unlock_read();
            }
        });
        let w2 = spawn_with_handle(lock, state, |h, state| {
            h.lock_write();
            write_inside(state);
            h.unlock_write();
        });
        std::thread::yield_now();
        w1.unlock_write();
        reader.join().unwrap();
        w2.join().unwrap();
    });
}

/// (iv) Reads and writes alternate, so a queue lock's reader node is
/// closed, recycled and reopened round after round, under arrivals aimed
/// at it from a tail read of an earlier life. (GOLL has one word and no
/// pool; for it this is the plain read/write alternation.)
fn landing_closed_vs_node_recycling<L>(family: Family<L>)
where
    L: RwLockFamily + Send + Sync + 'static,
    for<'a> L::Handle<'a>: TimedHandle,
{
    with_arrivals_landing_closed(family, 60, |lock, state, _| {
        let churn = spawn_with_handle(lock, state, |h, state| {
            for _ in 0..10 {
                h.lock_read();
                read_inside(state);
                h.unlock_read();
            }
        });
        let mut h = lock.handle().unwrap();
        for _ in 0..10 {
            h.lock_write();
            write_inside(state);
            h.unlock_write();
            h.lock_read();
            read_inside(state);
            h.unlock_read();
        }
        churn.join().unwrap();
    });
}

#[test]
fn arrival_landing_closed_vs_writer_release() {
    landing_closed_vs_writer_release(goll_family());
    landing_closed_vs_writer_release(foll_family());
    landing_closed_vs_writer_release(roll_family());
}

#[test]
fn arrival_landing_closed_vs_last_reader_departing() {
    landing_closed_vs_last_reader(goll_family());
    landing_closed_vs_last_reader(foll_family());
    landing_closed_vs_last_reader(roll_family());
}

#[test]
fn arrival_landing_closed_vs_timed_reader_cancelling() {
    landing_closed_vs_timed_reader(goll_family());
    landing_closed_vs_timed_reader(foll_family());
    landing_closed_vs_timed_reader(roll_family());
}

#[test]
fn arrival_landing_closed_vs_reader_node_recycling() {
    landing_closed_vs_node_recycling(goll_family());
    landing_closed_vs_node_recycling(foll_family());
    landing_closed_vs_node_recycling(roll_family());
}
