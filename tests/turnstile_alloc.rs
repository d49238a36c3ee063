//! The turnstile allocates nothing once its lock — GOLL, or the
//! Solaris-like baseline — is built and the handles are registered: wait
//! cells and queue links are the lock's own, so enqueue, hand-off, wake-up
//! and timeout excision only relink them.
//!
//! One test in this file on purpose: the count is process-wide, and a
//! second test running beside it would be counted too.

use oll::baselines::SolarisLikeRwLock;
use oll::util::WaitStrategy;
use oll::{GollLock, RwLockFamily, TimedHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// The system allocator, counting the calls that hand out memory while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A contended mix of blocking and timed reads and writes; the timeouts
/// are short enough that many expire behind a holder (which yields inside
/// its critical section), so enqueue, hand-off to writers and to reader
/// groups, excision and cancel-vs-handoff all run.
fn churn(h: &mut impl TimedHandle, state: &AtomicI64, seed: u64, tid: usize) {
    let mut rng = oll_util::XorShift64::for_thread(seed, tid);
    for _ in 0..4_000 {
        let timeout = Duration::from_micros(rng.next_below(30));
        let timed = rng.percent(40);
        if rng.percent(50) {
            if !timed {
                h.lock_write();
            } else if h.lock_write_timeout(timeout).is_err() {
                continue;
            }
            assert_eq!(state.swap(-1, Ordering::SeqCst), 0);
            if rng.percent(10) {
                std::thread::yield_now();
            }
            state.store(0, Ordering::SeqCst);
            h.unlock_write();
        } else {
            if !timed {
                h.lock_read();
            } else if h.lock_read_timeout(timeout).is_err() {
                continue;
            }
            assert!(state.fetch_add(1, Ordering::SeqCst) >= 0);
            state.fetch_sub(1, Ordering::SeqCst);
            h.unlock_read();
        }
    }
}

const THREADS: usize = 4;

/// Allocations made while `THREADS` handles of `lock` churn, after each
/// has registered and warmed up.
fn allocations_under_churn<L: RwLockFamily + Sync>(lock: &L) -> usize
where
    for<'a> L::Handle<'a>: TimedHandle,
{
    let state = AtomicI64::new(0);
    // Everyone registered and warmed up | counting on | everyone done |
    // counting off.
    let phase = Barrier::new(THREADS + 1);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let (state, phase) = (&state, &phase);
            scope.spawn(move || {
                let mut h = lock.handle().unwrap();
                churn(&mut h, state, 0xA110C, tid);
                phase.wait();
                phase.wait();
                churn(&mut h, state, 0xA110C + 1, tid);
                phase.wait();
                phase.wait();
            });
        }
        phase.wait();
        ALLOCATIONS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        phase.wait();
        phase.wait();
        COUNTING.store(false, Ordering::SeqCst);
        phase.wait();
    });
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn turnstile_users_allocate_nothing_after_setup() {
    // Process-wide set-up that is not the lock's: the first arrival any
    // handle routes to a C-SNZI tree reads the CPU topology from sysfs,
    // once, and whether the warm-up below gets that far is up to the
    // scheduler.
    oll::util::topology::Topology::get();
    let lock = GollLock::builder(THREADS)
        .wait_strategy(WaitStrategy::SpinThenYield)
        .build();
    assert_eq!(
        allocations_under_churn(&lock),
        0,
        "GOLL allocated on an acquire, release or cancel path"
    );
    let root = lock.csnzi_snapshot();
    assert_eq!((root.surplus(), root.open), (0, true));
    // (Under `SpinThenPark` every cell's list of parked threads is sized
    // when the lock is built, so it holds however many of them park at
    // once, including on a group cell the warm-up never used.)
    for strategy in [WaitStrategy::SpinThenYield, WaitStrategy::SpinThenPark] {
        let lock = SolarisLikeRwLock::with_strategy(THREADS, strategy);
        assert_eq!(
            allocations_under_churn(&lock),
            0,
            "{strategy:?}: Solaris-like allocated on an acquire, release or cancel path"
        );
    }
}
