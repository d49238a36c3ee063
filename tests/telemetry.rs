//! Counter-correctness for the telemetry subsystem: N acquisitions must
//! record exactly N events, forced contention must show up as slow-path
//! entries and hand-offs, and the C-SNZI write accounting must expose
//! the paper's tree-vs-centralized contrast.
//!
//! The whole suite needs recording compiled in; `telemetry_off.rs`
//! checks the disabled build.

#![cfg(feature = "telemetry")]

use oll::baselines::SolarisLikeRwLock;
use oll::csnzi::TreeShape;
use oll::telemetry::{registry, LockEvent, Telemetry};
use oll::{
    Bravo, CentralizedRwLock, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, TimedHandle,
    UpgradableHandle,
};
use std::time::{Duration, Instant};

const READS: u64 = 40;
const WRITES: u64 = 17;

/// Polls a lock's snapshot until `pred` holds — used to wait for a
/// blocked thread to have *recorded its enqueue* (slow-path events are
/// counted before waiting, exactly so tests can rendezvous on them).
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

fn exact_counts<L: RwLockFamily>(lock: L, label: &str) {
    let mut h = lock.handle().unwrap();
    for _ in 0..READS {
        h.lock_read();
        h.unlock_read();
    }
    for _ in 0..WRITES {
        h.lock_write();
        h.unlock_write();
    }
    drop(h);
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    // Exactly one of {fast, slow} per successful acquisition.
    assert_eq!(s.reads(), READS, "{label}: read acquisitions");
    assert_eq!(s.writes(), WRITES, "{label}: write acquisitions");
    assert_eq!(s.read_acquire.count, READS, "{label}: read latency samples");
    assert_eq!(
        s.write_acquire.count, WRITES,
        "{label}: write latency samples"
    );
    assert_eq!(s.read_hold.count, READS, "{label}: read hold samples");
    assert_eq!(s.write_hold.count, WRITES, "{label}: write hold samples");
    // Uncontended single-thread loops never time out or cancel.
    assert_eq!(s.get(LockEvent::Timeout), 0, "{label}");
    assert_eq!(s.get(LockEvent::Cancel), 0, "{label}");
}

#[test]
fn n_acquisitions_record_exactly_n_events() {
    exact_counts(GollLock::new(2), "GOLL");
    exact_counts(FollLock::new(2), "FOLL");
    exact_counts(RollLock::new(2), "ROLL");
    exact_counts(SolarisLikeRwLock::new(2), "Solaris-like");
}

#[test]
fn uninstrumented_baseline_yields_no_snapshot() {
    // Baselines outside the instrumented set carry an inactive handle
    // even in a telemetry build: profile-free by construction.
    let lock = CentralizedRwLock::new(2);
    let mut h = lock.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    drop(h);
    assert!(lock.telemetry().snapshot().is_none());
}

fn concurrent_totals<L: RwLockFamily + Sync>(lock: L, label: &str) {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 250;
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let lock = &lock;
            scope.spawn(move || {
                let mut h = lock.handle().unwrap();
                for i in 0..PER_THREAD {
                    if (i + tid) % 5 == 0 {
                        h.lock_write();
                        h.unlock_write();
                    } else {
                        h.lock_read();
                        h.unlock_read();
                    }
                }
            });
        }
    });
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(
        s.reads() + s.writes(),
        total,
        "{label}: every acquisition counted once"
    );
    assert_eq!(s.writes(), total / 5, "{label}: write share");
    assert_eq!(
        s.read_acquire.count + s.write_acquire.count,
        total,
        "{label}"
    );
    assert_eq!(s.read_hold.count + s.write_hold.count, total, "{label}");
}

#[test]
fn concurrent_mixed_workload_totals_add_up() {
    concurrent_totals(GollLock::new(4), "GOLL");
    concurrent_totals(FollLock::new(4), "FOLL");
    concurrent_totals(RollLock::new(4), "ROLL");
    concurrent_totals(SolarisLikeRwLock::new(4), "Solaris-like");
}

/// Forces readers to queue behind a held writer, then releases: the
/// unlock must be classified as a hand-off to readers.
fn forced_handoff_to_readers<L: RwLockFamily + Sync>(lock: L, label: &str) {
    let mut writer = lock.handle().unwrap();
    writer.lock_write();
    std::thread::scope(|scope| {
        let lock = &lock;
        scope.spawn(move || {
            let mut reader = lock.handle().unwrap();
            reader.lock_read(); // blocks until the writer releases
            reader.unlock_read();
        });
        // The reader records ReadSlow at enqueue time, before waiting.
        wait_for(lock, |s| s.get(LockEvent::ReadSlow) >= 1);
        writer.unlock_write();
    });
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert!(
        s.get(LockEvent::ReadSlow) >= 1,
        "{label}: reader took slow path"
    );
    assert!(
        s.get(LockEvent::HandoffToReaders) >= 1,
        "{label}: writer release handed off to queued readers"
    );
}

/// The mirror image: a writer queues behind an active reader.
fn forced_handoff_to_writer<L: RwLockFamily + Sync>(lock: L, label: &str) {
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
        reader.unlock_read();
    });
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert!(
        s.get(LockEvent::WriteSlow) >= 1,
        "{label}: writer took slow path"
    );
    assert!(
        s.get(LockEvent::HandoffToWriter) >= 1,
        "{label}: last reader handed off to the queued writer"
    );
}

#[test]
fn writer_release_counts_handoff_to_queued_readers() {
    forced_handoff_to_readers(GollLock::new(2), "GOLL");
    forced_handoff_to_readers(SolarisLikeRwLock::new(2), "Solaris-like");
}

#[test]
fn reader_release_counts_handoff_to_queued_writer() {
    forced_handoff_to_writer(GollLock::new(2), "GOLL");
    forced_handoff_to_writer(SolarisLikeRwLock::new(2), "Solaris-like");
}

fn timeouts_are_counted<L, H, F>(make_handle: F, lock: &L, label: &str)
where
    L: RwLockFamily,
    H: TimedHandle,
    F: Fn() -> H,
{
    let mut owner = make_handle();
    owner.lock_write();
    let mut waiter = make_handle();
    let soon = || Instant::now() + Duration::from_millis(5);
    assert!(waiter.lock_read_deadline(soon()).is_err(), "{label}");
    assert!(waiter.lock_write_deadline(soon()).is_err(), "{label}");
    owner.unlock_write();
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert!(
        s.get(LockEvent::Timeout) >= 2,
        "{label}: both expired waits counted ({} recorded)",
        s.get(LockEvent::Timeout)
    );
    // The lock still works after the timeouts.
    waiter.lock_write();
    waiter.unlock_write();
}

#[test]
fn expired_deadline_waits_count_timeouts() {
    let goll = GollLock::new(2);
    timeouts_are_counted(|| goll.handle().unwrap(), &goll, "GOLL");
    let foll = FollLock::new(2);
    timeouts_are_counted(|| foll.handle().unwrap(), &foll, "FOLL");
    let roll = RollLock::new(2);
    timeouts_are_counted(|| roll.handle().unwrap(), &roll, "ROLL");
    let solaris = SolarisLikeRwLock::new(2);
    timeouts_are_counted(|| solaris.handle().unwrap(), &solaris, "Solaris-like");
}

#[test]
fn upgrade_and_downgrade_are_counted() {
    let lock = GollLock::new(2);
    let mut h = lock.handle().unwrap();
    h.lock_read();
    assert!(h.try_upgrade(), "sole reader must upgrade");
    h.downgrade();
    h.unlock_read();
    let s = lock.telemetry().snapshot().unwrap();
    assert_eq!(s.get(LockEvent::Upgrade), 1);
    assert_eq!(s.get(LockEvent::Downgrade), 1);
    assert_eq!(s.get(LockEvent::UpgradeFail), 0);
}

/// §5's scalability argument, as a counter assertion: with arrivals
/// pinned to the C-SNZI tree, a surplus on the shared leaf absorbs
/// reader traffic, so far fewer shared root words are written per read
/// acquisition than with centralized (root-only) arrivals.
#[test]
fn tree_arrivals_write_the_root_less_than_centralized() {
    fn root_writes_per_acquire(threshold: u32) -> f64 {
        let lock = GollLock::builder(2)
            .tree_shape(TreeShape::flat(1)) // both handles share one leaf
            .arrival_threshold(threshold)
            .build();
        let mut pin = lock.handle().unwrap();
        let mut worker = lock.handle().unwrap();
        // Under the tree policy the pinned reader keeps the shared leaf
        // nonzero, so the worker's arrivals never propagate to the root.
        pin.lock_read();
        for _ in 0..200 {
            worker.lock_read();
            worker.unlock_read();
        }
        pin.unlock_read();
        let s = lock.telemetry().snapshot().unwrap();
        assert_eq!(s.reads(), 201);
        s.root_writes_per_acquire().expect("reads were recorded")
    }

    let tree = root_writes_per_acquire(0);
    let centralized = root_writes_per_acquire(u32::MAX);
    assert!(
        tree < centralized,
        "tree policy must write the shared root less: {tree} vs {centralized}"
    );
    // Centralized arrivals touch the root on every acquire/release pair.
    assert!(centralized >= 1.0, "centralized = {centralized}");
    // The pinned-leaf run needs only a bounded handful of root writes.
    assert!(tree < 0.1, "tree = {tree}");
}

/// The deferred tree's zero-overhead pin: an uncontended single reader
/// must cost exactly one root RMW per acquire (the `fetch_add`) and one
/// per release (the `fetch_sub`), neither of them conditional, with zero
/// tree-node RMWs and no tree allocated — byte-for-byte the centralized
/// fast path.
#[test]
fn adaptive_uncontended_reader_touches_only_the_root() {
    let lock = GollLock::new(2);
    let mut h = lock.handle().unwrap();
    for _ in 0..READS {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);
    assert!(!lock.is_inflated(), "uncontended run must stay root-only");
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(s.get(LockEvent::ArriveDirect), READS);
    assert_eq!(s.get(LockEvent::ArriveTree), 0);
    // Exactly one root write per acquire and one per release, and
    // nothing that could fail or had to be taken back.
    assert_eq!(s.get(LockEvent::CsnziRootWrite), 2 * READS);
    assert_eq!(s.get(LockEvent::CsnziRootCasFail), 0);
    assert_eq!(s.get(LockEvent::CsnziArriveUndone), 0);
    assert_eq!(s.get(LockEvent::CsnziNodeWrite), 0);
    assert_eq!(s.get(LockEvent::CsnziInflate), 0);
    assert_eq!(s.get(LockEvent::CsnziLeafMigrate), 0);
}

/// The unconditional arrival, counted: a direct read on any OLL family is
/// exactly two root writes — the arrival's `fetch_add`, the departure's
/// `fetch_sub` — and nothing conditional: no CAS that could fail, nothing
/// taken back.
#[test]
fn a_direct_read_is_two_root_writes_and_no_cas() {
    fn check<L: RwLockFamily>(lock: L, label: &str) {
        let mut h = lock.handle().unwrap();
        // The first read of a queue lock enqueues (and opens) its reader
        // node; measure the steady state behind it.
        h.lock_read();
        h.unlock_read();
        lock.telemetry().reset();
        for _ in 0..READS {
            h.lock_read();
            h.unlock_read();
        }
        let s = lock.telemetry().snapshot().expect("instrumented lock");
        assert_eq!(s.get(LockEvent::ArriveDirect), READS, "{label}");
        assert_eq!(s.get(LockEvent::CsnziRootWrite), 2 * READS, "{label}");
        assert_eq!(s.get(LockEvent::CsnziRootCasFail), 0, "{label}");
        assert_eq!(s.get(LockEvent::CsnziArriveUndone), 0, "{label}");
        assert_eq!(s.get(LockEvent::CsnziNodeWrite), 0, "{label}");
    }
    check(GollLock::new(2), "GOLL");
    check(FollLock::new(2), "FOLL");
    check(RollLock::new(2), "ROLL");
}

/// A FOLL/ROLL reader that enqueues its own node opens it with its
/// arrival already on it: the first read after a write is one root write
/// for the open, one for the departure, and one direct arrival.
#[test]
fn a_read_that_enqueues_its_node_is_one_open_and_one_depart() {
    fn check<L: RwLockFamily>(lock: L, label: &str) {
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        // The write recycles the reader node: the queue is empty again.
        h.lock_write();
        h.unlock_write();
        lock.telemetry().reset();
        h.lock_read();
        h.unlock_read();
        let s = lock.telemetry().snapshot().expect("instrumented lock");
        assert_eq!(s.get(LockEvent::CsnziRootWrite), 2, "{label}");
        assert_eq!(s.get(LockEvent::ArriveDirect), 1, "{label}");
        assert_eq!(s.get(LockEvent::ReadFast), 1, "{label}");
        assert_eq!(s.reads(), 1, "{label}");
    }
    check(FollLock::new(2), "FOLL");
    check(RollLock::new(2), "ROLL");
}

/// A read arrival that lands on a write-held lock is counted as undone,
/// costs its two root writes, and leaves the word as it found it.
#[test]
fn an_arrival_that_lands_closed_is_counted_and_taken_back() {
    let lock = GollLock::new(2);
    let mut w = lock.handle().unwrap();
    let mut r = lock.handle().unwrap();
    w.lock_write();
    lock.telemetry().reset();
    for _ in 0..READS {
        assert!(!r.try_lock_read());
    }
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(s.get(LockEvent::CsnziArriveUndone), READS);
    assert_eq!(s.get(LockEvent::CsnziRootWrite), 2 * READS);
    assert_eq!(s.get(LockEvent::CsnziRootCasFail), 0);
    assert_eq!(s.reads(), 0, "no read was acquired");
    assert_eq!(lock.csnzi_snapshot(), oll::csnzi::RootWord::CLOSED_EMPTY);
    w.unlock_write();
    assert_eq!(lock.csnzi_snapshot(), oll::csnzi::RootWord::OPEN_EMPTY);
}

/// Forced tree routing records the one tree allocation and the tree
/// arrivals it serves.
#[test]
fn adaptive_inflation_is_counted() {
    let lock = GollLock::builder(2).arrival_threshold(0).build();
    let mut h = lock.handle().unwrap();
    for _ in 0..READS {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);
    assert!(lock.is_inflated());
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(s.get(LockEvent::CsnziInflate), 1, "one tree built");
    assert_eq!(s.get(LockEvent::ArriveTree), READS);
    assert_eq!(s.get(LockEvent::ArriveDirect), 0);
    assert!(s.get(LockEvent::CsnziNodeWrite) > 0);
}

/// The BRAVO tentpole's headline pin: with the bias armed, a read-only
/// run performs *zero* shared-memory RMWs per read acquisition — no
/// C-SNZI root or node writes, no arrivals at all. Every read is a bias
/// grant through the visible-readers table (a CAS on an effectively
/// thread-private line). A private table keeps concurrently running
/// tests out of this lock's hash space.
#[test]
fn biased_read_only_run_performs_zero_shared_rmws() {
    let lock = Bravo::wrapping(GollLock::new(2), true).private_table(64);
    let mut h = lock.handle().unwrap();
    for _ in 0..READS {
        h.lock_read();
        h.unlock_read();
    }
    drop(h);
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(s.get(LockEvent::BiasGrant), READS, "every read was biased");
    assert_eq!(s.reads(), READS);
    // The underlying lock was never touched: zero shared RMWs per read.
    assert_eq!(s.get(LockEvent::ArriveDirect), 0);
    assert_eq!(s.get(LockEvent::ArriveTree), 0);
    assert_eq!(s.get(LockEvent::CsnziRootWrite), 0);
    assert_eq!(s.get(LockEvent::CsnziNodeWrite), 0);
    assert_eq!(s.get(LockEvent::CsnziRootCasFail), 0);
    assert_eq!(s.get(LockEvent::BiasRevoke), 0);
    assert_eq!(s.get(LockEvent::BiasSlotCollision), 0);
    // Latency accounting still covers every acquisition.
    assert_eq!(s.read_acquire.count, READS);
    assert_eq!(s.read_hold.count, READS);
}

/// A writer through the wrapper must revoke exactly once, and the biased
/// counters must stay consistent through a mixed sequence.
#[test]
fn bias_revocation_and_rearm_are_counted() {
    let lock = Bravo::wrapping(GollLock::new(2), true)
        .private_table(64)
        .rearm_multiplier(0); // re-arm immediately on the next slow read
    let mut h = lock.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    h.lock_write();
    h.unlock_write();
    // The bias is now revoked; this read takes the slow path and re-arms.
    h.lock_read();
    h.unlock_read();
    // Re-armed: this read is biased again.
    h.lock_read();
    h.unlock_read();
    drop(h);
    let s = lock.telemetry().snapshot().expect("instrumented lock");
    assert_eq!(s.get(LockEvent::BiasRevoke), 1);
    assert_eq!(s.get(LockEvent::BiasRearm), 1);
    assert_eq!(s.get(LockEvent::BiasGrant), 2, "first and last reads");
    assert_eq!(s.reads(), 3);
    assert_eq!(s.writes(), 1);
}

/// How a scenario's threads acquire: through the blocking calls, or
/// through the timed ones with a deadline or a timeout that never fires.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Blocking,
    FarDeadline,
    LongTimeout,
}

impl Mode {
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(20)
    }

    fn read<H: TimedHandle>(self, h: &mut H) {
        match self {
            Mode::Blocking => h.lock_read(),
            Mode::FarDeadline => h.lock_read_deadline(Self::far()).expect("far deadline"),
            Mode::LongTimeout => h
                .lock_read_timeout(Duration::from_secs(20))
                .expect("long timeout"),
        }
    }

    fn write<H: TimedHandle>(self, h: &mut H) {
        match self {
            Mode::Blocking => h.lock_write(),
            Mode::FarDeadline => h.lock_write_deadline(Self::far()).expect("far deadline"),
            Mode::LongTimeout => h
                .lock_write_timeout(Duration::from_secs(20))
                .expect("long timeout"),
        }
    }
}

/// One fully sequenced pass over the three shapes an acquisition can take
/// — uncontended, a reader handed the lock by the writer it queued behind,
/// a writer handed the lock by the reader it queued behind — with every
/// step gated on the previous one having *recorded* its progress, so the
/// event counts are a function of the script alone. `pin` places the main
/// handle on rank 0 and each helper thread's on rank 1.
fn scripted_scenario<L>(
    lock: &L,
    mode: Mode,
    pin: impl for<'a> Fn(&mut L::Handle<'a>, usize) + Sync,
) -> oll::telemetry::LockSnapshot
where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let snap = || lock.telemetry().snapshot().expect("instrumented lock");
    let mut main = lock.handle().unwrap();
    pin(&mut main, 0);

    mode.read(&mut main);
    main.unlock_read();
    mode.write(&mut main);
    main.unlock_write();

    mode.write(&mut main);
    let before = snap().get(LockEvent::ReadSlow);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut reader = lock.handle().unwrap();
            pin(&mut reader, 1);
            mode.read(&mut reader); // blocks until the writer releases
            reader.unlock_read();
        });
        wait_for(lock, |s| s.get(LockEvent::ReadSlow) > before);
        main.unlock_write();
    });

    mode.read(&mut main);
    let (slow, root_writes) = {
        let s = snap();
        (
            s.get(LockEvent::WriteSlow),
            s.get(LockEvent::CsnziRootWrite),
        )
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut writer = lock.handle().unwrap();
            pin(&mut writer, 1);
            mode.write(&mut writer); // blocks until the reader departs
            writer.unlock_write();
        });
        // The writer has queued *and* closed the C-SNZI we hold (its one
        // root write): only then is our departure the last one of a closed
        // node, whichever way the two would otherwise have raced.
        wait_for(lock, |s| {
            s.get(LockEvent::WriteSlow) > slow && s.get(LockEvent::CsnziRootWrite) > root_writes
        });
        main.unlock_read();
    });
    drop(main);
    snap()
}

/// The blocking calls and the timed calls are one code path: the same
/// script must leave the same counts behind whichever it is driven
/// through — every event, and every latency/hold sample.
fn blocking_and_timed_agree<L>(
    make: impl Fn() -> L,
    pin: impl for<'a> Fn(&mut L::Handle<'a>, usize) + Sync,
    label: &str,
) where
    L: RwLockFamily,
    for<'a> L::Handle<'a>: TimedHandle,
{
    let blocking = scripted_scenario(&make(), Mode::Blocking, &pin);
    let timed = scripted_scenario(&make(), Mode::FarDeadline, &pin);
    for event in LockEvent::ALL {
        assert_eq!(
            blocking.get(event),
            timed.get(event),
            "{label}: {event:?} differs between lock_* and lock_*_deadline"
        );
    }
    for (name, b, t) in [
        ("read_acquire", &blocking.read_acquire, &timed.read_acquire),
        (
            "write_acquire",
            &blocking.write_acquire,
            &timed.write_acquire,
        ),
        ("read_hold", &blocking.read_hold, &timed.read_hold),
        ("write_hold", &blocking.write_hold, &timed.write_hold),
    ] {
        assert_eq!(b.count, t.count, "{label}: {name} samples differ");
    }
    // The script did take the contended shapes (and nothing timed out).
    assert_eq!(blocking.reads(), 3, "{label}");
    assert_eq!(blocking.writes(), 3, "{label}");
    assert!(blocking.get(LockEvent::HandoffToReaders) >= 1, "{label}");
    assert!(blocking.get(LockEvent::HandoffToWriter) >= 1, "{label}");
    assert_eq!(blocking.get(LockEvent::Timeout), 0, "{label}");
}

#[test]
fn blocking_and_far_deadline_acquisitions_record_the_same_events() {
    fn anywhere<L: RwLockFamily>(_: &mut L::Handle<'_>, _: usize) {}
    fn on_rank(h: &mut oll::core::foll::FollHandle<'_>, rank: usize) {
        h.set_cohort(rank);
    }
    blocking_and_timed_agree(|| GollLock::new(2), anywhere::<GollLock>, "GOLL");
    blocking_and_timed_agree(|| FollLock::new(2), anywhere::<FollLock>, "FOLL");
    blocking_and_timed_agree(|| RollLock::new(2), anywhere::<RollLock>, "ROLL");
    blocking_and_timed_agree(
        || FollLock::builder(2).cohort(true).cohort_ranks(2).build(),
        on_rank,
        "FOLL+cohort",
    );
}

/// Every arm of the read and write paths counts each acquisition once: a
/// 9:1 read/write loop on two threads (the no-wait arm, a fresh node
/// enqueued, a waiting node joined, a wait behind a writer), through the
/// blocking calls and through the timeout ones, leaves exactly as many
/// reads, writes, and acquire and hold samples as it issued.
#[test]
fn interleaved_reads_and_writes_count_every_acquisition_once() {
    fn check<L>(make: fn() -> L, label: &str)
    where
        L: RwLockFamily + Sync,
        for<'a> L::Handle<'a>: TimedHandle,
    {
        const THREADS: u64 = 2;
        const OPS: u64 = 2_000;
        for mode in [Mode::Blocking, Mode::LongTimeout] {
            let lock = make();
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        let mut h = lock.handle().unwrap();
                        for i in 0..OPS {
                            if i % 10 == 9 {
                                mode.write(&mut h);
                                h.unlock_write();
                            } else {
                                mode.read(&mut h);
                                h.unlock_read();
                            }
                        }
                    });
                }
            });
            let s = lock.telemetry().snapshot().expect("instrumented lock");
            let writes = THREADS * OPS / 10;
            let reads = THREADS * OPS - writes;
            assert_eq!(s.reads(), reads, "{label} {mode:?}: reads");
            assert_eq!(s.writes(), writes, "{label} {mode:?}: writes");
            assert_eq!(s.read_acquire.count, reads, "{label} {mode:?}");
            assert_eq!(s.write_acquire.count, writes, "{label} {mode:?}");
            assert_eq!(s.read_hold.count, reads, "{label} {mode:?}");
            assert_eq!(s.write_hold.count, writes, "{label} {mode:?}");
            assert_eq!(s.get(LockEvent::Timeout), 0, "{label} {mode:?}");
        }
    }
    check(|| GollLock::new(2), "GOLL");
    check(|| FollLock::new(2), "FOLL");
    check(|| RollLock::new(2), "ROLL");
}

#[test]
fn registry_sweeps_and_renames() {
    let lock = GollLock::builder(2)
        .telemetry_name("telemetry-test/registry")
        .build();
    let mut h = lock.handle().unwrap();
    h.lock_read();
    h.unlock_read();
    drop(h);
    assert_eq!(
        lock.telemetry().name().as_deref(),
        Some("telemetry-test/registry")
    );
    let snaps = registry::snapshot_all();
    let mine = snaps
        .iter()
        .find(|s| s.name == "telemetry-test/registry")
        .expect("registered lock appears in the global sweep");
    assert_eq!(mine.kind, "GOLL");
    assert_eq!(mine.reads(), 1);
    assert!(Telemetry::enabled());
}

#[test]
fn reset_zeroes_counters() {
    let lock = FollLock::new(2);
    let mut h = lock.handle().unwrap();
    h.lock_write();
    h.unlock_write();
    drop(h);
    assert!(!lock.telemetry().snapshot().unwrap().is_empty());
    lock.telemetry().reset();
    assert!(lock.telemetry().snapshot().unwrap().is_empty());
}
