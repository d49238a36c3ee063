//! Per-layer costs, timed from outside: batches of calls into one
//! layer's public function on one pinned thread (the median batch is the
//! metric), and a few all-threads loops for the shared-line ceilings and
//! the hand-off costs.
//!
//! The layers nest inside one call, so a layer's self time is the cost at
//! its public entry point minus the cost at the entry point one layer
//! down; that is what every `*_self_ns` here is. The batches of all
//! metrics are interleaved (batch 1 of each, then batch 2 of each, ...)
//! so that the two sides of a subtraction see the same machine state.

use crate::alloc::bytes_allocated_by;
use crate::pin;
use crate::stats::median;
use crate::trace::Tracer;
use oll::csnzi::{ArrivalPolicy, CSnzi, LeafCursor, TreeShape};
use oll::{
    Bravo, FollLock, GollLock, RollLock, RwHandle, RwLock, RwLockFamily, SelfTuning, TimedHandle,
};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Batches per metric; the metric is their median.
pub const BATCHES: usize = 30;
/// Calls per batch of a hot-path metric.
pub const BATCH_OPS: usize = 100_000;
/// Calls per batch of a construction metric (microseconds each).
const NEW_OPS: usize = 1_000;
/// Writes per batch of `bravo.revoke_write_ns` (each scans the
/// visible-readers table).
const REVOKE_OPS: usize = 2_000;

/// One metric's batch: runs `ops` calls, returns the ns they took.
struct Bench<'a> {
    name: String,
    ops: usize,
    run: Box<dyn FnMut(usize) -> u64 + 'a>,
    spans: Vec<(u64, u64)>,
    ns_per_op: Vec<f64>,
}

fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// A bench that times `ops` back-to-back calls of `f` as a whole.
fn bench<'a>(name: &str, ops: usize, mut f: impl FnMut() + 'a) -> Bench<'a> {
    Bench {
        name: name.to_string(),
        ops,
        run: Box::new(move |n| {
            timed(|| {
                for _ in 0..n {
                    f();
                }
            })
        }),
        spans: Vec::new(),
        ns_per_op: Vec::new(),
    }
}

/// Lock + unlock pairs of `lock`'s raw handles, blocking and
/// deadline-bounded, one handle per metric.
fn handle_benches<'a, H: TimedHandle + 'a>(
    lock: &str,
    handles: &'a mut [H],
    far: Instant,
) -> [Bench<'a>; 4] {
    let [read, write, timed_read, timed_write] = handles else {
        panic!("{lock}: four handles, one per metric");
    };
    [
        bench(&format!("{lock}.read_ns"), BATCH_OPS, move || {
            read.lock_read();
            read.unlock_read();
        }),
        bench(&format!("{lock}.write_ns"), BATCH_OPS, move || {
            write.lock_write();
            write.unlock_write();
        }),
        bench(&format!("{lock}.timed_read_ns"), BATCH_OPS, move || {
            if timed_read.lock_read_deadline(far).is_ok() {
                timed_read.unlock_read();
            }
        }),
        bench(&format!("{lock}.timed_write_ns"), BATCH_OPS, move || {
            if timed_write.lock_write_deadline(far).is_ok() {
                timed_write.unlock_write();
            }
        }),
    ]
}

/// Total ops per second of `threads` pinned workers each looping `op`
/// (built per worker by `make`) for `duration`.
fn shared_rate<F: FnMut()>(
    cpus: &[usize],
    duration: Duration,
    make: impl Fn(usize) -> F + Sync,
) -> f64 {
    let barrier = Barrier::new(cpus.len());
    let ops: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = cpus
            .iter()
            .enumerate()
            .map(|(tid, cpu)| {
                let (barrier, make) = (&barrier, &make);
                s.spawn(move || {
                    // Unpinned workers would only blur a ceiling; the
                    // workloads, not these loops, fail on a pin error.
                    let _ = pin::pin_to(*cpu);
                    let mut op = make(tid);
                    barrier.wait();
                    let start = Instant::now();
                    let mut n = 0u64;
                    loop {
                        for _ in 0..256 {
                            op();
                        }
                        n += 256;
                        if start.elapsed() >= duration {
                            return n;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a loop panicked"))
            .sum()
    });
    ops as f64 / duration.as_secs_f64()
}

/// `1e9 / rate`: ns per op at a rate.
fn ns_at(rate: f64) -> f64 {
    if rate > 0.0 {
        1e9 / rate
    } else {
        0.0
    }
}

/// All-threads write-only loop on raw handles of `lock`: ns per hand-off.
fn handoff_ns<L: RwLockFamily>(cpus: &[usize], duration: Duration, lock: L) -> f64 {
    ns_at(shared_rate(cpus, duration, |_| {
        let mut h = lock.handle().expect("capacity covers every worker");
        move || {
            h.lock_write();
            h.unlock_write();
        }
    }))
}

/// Measures every workload-independent per-layer metric. `cpus` are the
/// `T` worker CPUs; the calling thread pins itself to the first for the
/// one-thread batches. `shared_for` is how long each all-threads loop
/// runs. Returns `(metric, value, note)` and records each batch as a span.
pub fn measure(
    cpus: &[usize],
    shared_for: Duration,
    tracer: &mut Tracer,
) -> Vec<(String, f64, String)> {
    let t = cpus.len();
    let _ = pin::pin_to(cpus[0]);
    let far = Instant::now() + Duration::from_secs(3600);
    let mut out: Vec<(String, f64, String)> = Vec::new();

    // Construction: bytes are exact, so measured once, outside the batches.
    let (goll_bytes, _) = bytes_allocated_by(|| GollLock::new(t));
    let (foll_bytes, _) = bytes_allocated_by(|| FollLock::new(t));
    let (roll_bytes, _) = bytes_allocated_by(|| RollLock::new(t));
    for (name, bytes) in [
        ("goll", goll_bytes),
        ("foll", foll_bytes),
        ("roll", roll_bytes),
    ] {
        out.push((
            format!("{name}.new_bytes"),
            bytes as f64,
            format!("allocated by new({t})"),
        ));
    }

    let csnzi = CSnzi::new(TreeShape::for_threads(t));
    let (goll, foll, roll) = (
        GollLock::new(t.max(4)),
        FollLock::new(t.max(4)),
        RollLock::new(t.max(4)),
    );
    let mut goll_h: Vec<_> = (0..4).map(|_| goll.handle().expect("capacity 4")).collect();
    let mut foll_h: Vec<_> = (0..4).map(|_| foll.handle().expect("capacity 4")).collect();
    let mut roll_h: Vec<_> = (0..4).map(|_| roll.handle().expect("capacity 4")).collect();
    let guarded = RwLock::new(RollLock::new(3), 0u64);
    let mut owners: Vec<_> = (0..3)
        .map(|_| guarded.owner().expect("capacity 3"))
        .collect();
    let registered = RollLock::new(t);

    let biased = Bravo::new(RollLock::new(t));
    let mut biased_h = biased.handle().expect("capacity");
    // Bias disarmed and kept so: one write revokes it, and the knob
    // forbids the re-arm a slow-path read would otherwise perform.
    let unbiased = Bravo::new(RollLock::new(2));
    unbiased.knobs().set_bias_allowed(false);
    let mut unbiased_r = unbiased.handle().expect("capacity 2");
    let mut unbiased_w = unbiased.handle().expect("capacity 2");
    unbiased_w.lock_write();
    unbiased_w.unlock_write();
    // Re-arms at once after each revocation, so every write of the batch
    // pays a full revocation: the other handles read (the first re-arms
    // the bias, the second takes it) before each timed write.
    let revoked = Bravo::new(RollLock::new(t + 1)).rearm_multiplier(0);
    let mut revoked_w = revoked.handle().expect("capacity");
    let mut revoked_r: Vec<_> = (0..t.max(2) - 1)
        .map(|_| revoked.handle().expect("capacity"))
        .collect();

    let tuned_reads = SelfTuning::new(RollLock::builder(t).biased(true).build_biased());
    let mut tuned_r = tuned_reads.handle().expect("capacity");
    let tuned_writes = SelfTuning::new(RollLock::builder(t).biased(true).build_biased());
    let mut tuned_w = tuned_writes.handle().expect("capacity");
    let cohort = FollLock::builder(t).cohort(true).build();
    let mut cohort_h = cohort.handle().expect("capacity");

    let mut benches: Vec<Bench<'_>> = Vec::new();
    benches.push(bench("csnzi.arrive_depart_direct_ns", BATCH_OPS, || {
        let ticket = csnzi.arrive_direct();
        csnzi.depart(black_box(ticket));
    }));
    benches.push(bench("csnzi.arrive_depart_tree_ns", BATCH_OPS, || {
        let ticket = csnzi.arrive_tree(0);
        csnzi.depart(black_box(ticket));
    }));
    let (mut policy, mut cursor) = (ArrivalPolicy::default(), LeafCursor::new());
    benches.push(bench("csnzi.arrive_depart_policy_ns", BATCH_OPS, || {
        let ticket = csnzi.arrive_cached(&mut policy, &mut cursor);
        csnzi.depart(black_box(ticket));
    }));
    benches.push(bench("csnzi.close_open_ns", BATCH_OPS, || {
        black_box(csnzi.close());
        csnzi.open();
    }));

    benches.extend(handle_benches("goll", &mut goll_h, far));
    benches.extend(handle_benches("foll", &mut foll_h, far));
    benches.extend(handle_benches("roll", &mut roll_h, far));

    benches.push(bench("goll.new_ns", NEW_OPS, || {
        drop(black_box(GollLock::new(t)))
    }));
    benches.push(bench("foll.new_ns", NEW_OPS, || {
        drop(black_box(FollLock::new(t)))
    }));
    benches.push(bench("roll.new_ns", NEW_OPS, || {
        drop(black_box(RollLock::new(t)))
    }));
    benches.push(bench("slots.register_ns", BATCH_OPS, || {
        drop(black_box(registered.handle()));
    }));

    let [o0, o1, o2] = &mut owners[..] else {
        unreachable!()
    };
    benches.push(bench("rwlock.read_ns", BATCH_OPS, || {
        black_box(*o0.read());
    }));
    benches.push(bench("rwlock.write_ns", BATCH_OPS, || {
        *o1.write() += 1;
    }));
    benches.push(bench("rwlock.timed_read_ns", BATCH_OPS, || {
        if let Ok(g) = o2.read_deadline(far) {
            black_box(*g);
        }
    }));

    benches.push(bench("bravo.biased_read_ns", BATCH_OPS, || {
        biased_h.lock_read();
        biased_h.unlock_read();
    }));
    benches.push(bench("bravo.unbiased_read_ns", BATCH_OPS, || {
        unbiased_r.lock_read();
        unbiased_r.unlock_read();
    }));
    benches.push(bench("bravo.write_ns", BATCH_OPS, || {
        unbiased_w.lock_write();
        unbiased_w.unlock_write();
    }));
    benches.push(Bench {
        name: "bravo.revoke_write_ns".into(),
        ops: REVOKE_OPS,
        run: Box::new(|n| {
            let mut ns = 0;
            for _ in 0..n {
                for h in revoked_r.iter_mut() {
                    for _ in 0..2 {
                        h.lock_read();
                        h.unlock_read();
                    }
                }
                ns += timed(|| {
                    revoked_w.lock_write();
                    revoked_w.unlock_write();
                });
            }
            ns
        }),
        spans: Vec::new(),
        ns_per_op: Vec::new(),
    });
    benches.push(bench("tuning.read_ns", BATCH_OPS, || {
        tuned_r.lock_read();
        tuned_r.unlock_read();
    }));
    benches.push(bench("tuning.write_ns", BATCH_OPS, || {
        tuned_w.lock_write();
        tuned_w.unlock_write();
    }));
    benches.push(bench("cohort.write_ns", BATCH_OPS, || {
        cohort_h.lock_write();
        cohort_h.unlock_write();
    }));

    for _ in 0..BATCHES {
        for b in benches.iter_mut() {
            let start = crate::epoch_ns(Instant::now());
            let ns = (b.run)(b.ops);
            b.spans.push((start, crate::epoch_ns(Instant::now())));
            b.ns_per_op.push(ns as f64 / b.ops as f64);
        }
    }
    let mut cost = std::collections::BTreeMap::new();
    for b in &benches {
        tracer.batches(&b.name, &b.spans);
        cost.insert(b.name.clone(), median(&b.ns_per_op));
    }
    drop(benches);

    let note = format!("median of {BATCHES} batches, 1 thread");
    let direct = |name: &str| (name.to_string(), cost[name], note.clone());
    let minus = |name: &str, upper: &str, lower: &str| {
        (
            name.to_string(),
            cost[upper] - cost[lower],
            format!("{upper} {:.2} - {lower} {:.2}", cost[upper], cost[lower]),
        )
    };
    for name in [
        "csnzi.arrive_depart_direct_ns",
        "csnzi.arrive_depart_tree_ns",
        "csnzi.arrive_depart_policy_ns",
        "csnzi.close_open_ns",
        "slots.register_ns",
        "bravo.biased_read_ns",
        "bravo.revoke_write_ns",
    ] {
        out.push(direct(name));
    }
    for l in crate::metrics::BARE {
        for m in [
            "read_ns",
            "write_ns",
            "timed_read_ns",
            "timed_write_ns",
            "new_ns",
        ] {
            out.push(direct(&format!("{l}.{m}")));
        }
        out.push(minus(
            &format!("{l}.read_self_ns"),
            &format!("{l}.read_ns"),
            "csnzi.arrive_depart_policy_ns",
        ));
    }
    out.push(minus(
        "rwlock.read_self_ns",
        "rwlock.read_ns",
        "roll.read_ns",
    ));
    out.push(minus(
        "rwlock.write_self_ns",
        "rwlock.write_ns",
        "roll.write_ns",
    ));
    out.push(minus(
        "rwlock.timed_read_self_ns",
        "rwlock.timed_read_ns",
        "roll.timed_read_ns",
    ));
    out.push(minus(
        "bravo.unbiased_read_self_ns",
        "bravo.unbiased_read_ns",
        "roll.read_ns",
    ));
    out.push(minus(
        "bravo.write_self_ns",
        "bravo.write_ns",
        "roll.write_ns",
    ));
    out.push(minus(
        "tuning.read_self_ns",
        "tuning.read_ns",
        "bravo.biased_read_ns",
    ));
    out.push(minus(
        "tuning.write_self_ns",
        "tuning.write_ns",
        "bravo.write_ns",
    ));
    out.push(minus(
        "cohort.write_self_ns",
        "cohort.write_ns",
        "foll.write_ns",
    ));

    let note = format!("{t} threads, {} ms", shared_for.as_millis());
    let shared = CSnzi::new(TreeShape::for_threads(t));
    out.push((
        "csnzi.shared_direct_ops_s".into(),
        shared_rate(cpus, shared_for, |_| {
            || {
                let ticket = shared.arrive_direct();
                shared.depart(black_box(ticket));
            }
        }),
        note.clone(),
    ));
    out.push((
        "csnzi.shared_tree_ops_s".into(),
        shared_rate(cpus, shared_for, |tid| {
            let shared = &shared;
            move || {
                let ticket = shared.arrive_tree(tid);
                shared.depart(black_box(ticket));
            }
        }),
        note.clone(),
    ));
    let note = format!("{note}, 100% writes");
    out.push((
        "goll.handoff_ns".into(),
        handoff_ns(cpus, shared_for, GollLock::new(t)),
        note.clone(),
    ));
    out.push((
        "foll.handoff_ns".into(),
        handoff_ns(cpus, shared_for, FollLock::new(t)),
        note.clone(),
    ));
    out.push((
        "roll.handoff_ns".into(),
        handoff_ns(cpus, shared_for, RollLock::new(t)),
        note.clone(),
    ));
    out.push((
        "cohort.handoff_ns".into(),
        handoff_ns(cpus, shared_for, FollLock::builder(t).cohort(true).build()),
        note,
    ));
    out
}
