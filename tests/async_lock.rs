//! Integration tests for the futures-native lock family: exclusion
//! under a real multi-threaded executor, deadline timeouts, drop
//! cancellation, and the poll-never-blocks contract.
//!
//! Run with `cargo test --features async --test async_lock`. Without the
//! feature this file compiles to nothing.

#![cfg(all(feature = "async", not(loom)))]

use oll::{block_on, AsyncRwLock};
use oll_workloads::async_exec::Executor;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::time::{Duration, Instant};

fn noop_waker() -> Waker {
    struct Noop;
    impl Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }
    Waker::from(Arc::new(Noop))
}

/// Readers overlap, writers exclude everyone: `occupancy` is -1 while a
/// write guard is live and the live-reader count otherwise, checked at
/// every guard boundary across 20k tasks on 4 worker threads.
#[test]
fn executor_scale_exclusion() {
    const TASKS: usize = 20_000;
    const WRITE_EVERY: usize = 16;

    let lock = Arc::new(AsyncRwLock::new(0u64));
    let occupancy = Arc::new(AtomicI64::new(0));
    let exec = Executor::new(4);
    for i in 0..TASKS {
        let lock = Arc::clone(&lock);
        let occupancy = Arc::clone(&occupancy);
        exec.spawn(async move {
            if i % WRITE_EVERY == 0 {
                let mut g = lock.write().await;
                assert_eq!(occupancy.swap(-1, Ordering::SeqCst), 0, "writer overlap");
                *g += 1;
                occupancy.store(0, Ordering::SeqCst);
            } else {
                let g = lock.read().await;
                assert!(
                    occupancy.fetch_add(1, Ordering::SeqCst) >= 0,
                    "reader saw writer"
                );
                std::hint::black_box(*g);
                occupancy.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
    exec.wait_idle();
    drop(exec);
    assert_eq!(*block_on(lock.read()), (TASKS / WRITE_EVERY) as u64);
    assert_eq!(lock.csnzi_snapshot().surplus(), 0);
    assert_eq!(lock.queued_waiters(), 0);
}

/// The satellite pin: polling an async acquisition must NEVER block the
/// polling thread — a contended poll spins a bounded budget and returns
/// `Pending`. The write guard is held by *this same thread*, so if any
/// poll parked or spun unboundedly the test would deadlock rather than
/// fail an assertion.
#[test]
fn poll_never_blocks_while_contended() {
    let lock = AsyncRwLock::new(0u32);
    let gate = lock.try_write().expect("uncontended");

    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut read = lock.read();
    let mut write = lock.write();
    let start = Instant::now();
    for _ in 0..10_000 {
        assert!(Pin::new(&mut read).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut write).poll(&mut cx).is_pending());
    }
    // A hang detector, not a speed claim: the bound is generous enough
    // for 20k contended polls on any machine, and a poll that parked
    // would show up as a hang (the gate is held by this very thread).
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "contended polls took {:?}",
        start.elapsed()
    );
    drop(read);
    drop(write);
    drop(gate);
    assert_eq!(lock.queued_waiters(), 0, "dropped futures must not linger");
    assert!(block_on(lock.read()).eq(&0));
}

/// Deadline futures return `Err(TimedOut)` under contention and a guard
/// when free — through the public `oll` re-exports.
#[test]
fn deadlines_time_out_and_grant() {
    let lock = AsyncRwLock::new(7u32);

    // Free lock: granted well before the deadline.
    let g = block_on(lock.read_deadline(Instant::now() + Duration::from_secs(5)));
    assert_eq!(*g.expect("free lock grants"), 7);

    // Contended: both variants time out, and the queue drains.
    let gate = lock.try_write().expect("uncontended");
    let deadline = Instant::now() + Duration::from_millis(20);
    assert!(block_on(lock.read_deadline(deadline)).is_err());
    let deadline = Instant::now() + Duration::from_millis(20);
    assert!(block_on(lock.write_deadline(deadline)).is_err());
    drop(gate);
    assert_eq!(lock.queued_waiters(), 0);
    assert_eq!(*block_on(lock.write()), 7);
}

/// Dropping a pending future mid-wait cancels the acquisition: the
/// grant cascade skips the tombstone and hands the lock onward.
#[test]
fn dropped_future_is_skipped_by_the_next_grant() {
    let lock = Arc::new(AsyncRwLock::new(0u64));
    let gate = lock.try_write().expect("uncontended");

    // Queue a writer, then abandon it.
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut doomed = lock.write();
    assert!(Pin::new(&mut doomed).poll(&mut cx).is_pending());
    assert_eq!(lock.queued_waiters(), 1);
    drop(doomed);

    // Queue a live reader behind the tombstone on a real executor.
    let exec = Executor::new(2);
    let hits = Arc::new(AtomicU64::new(0));
    {
        let lock = Arc::clone(&lock);
        let hits = Arc::clone(&hits);
        exec.spawn(async move {
            std::hint::black_box(*lock.read().await);
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    while lock.queued_waiters() < 2 {
        std::thread::yield_now();
    }
    drop(gate);
    exec.wait_idle();
    assert_eq!(hits.load(Ordering::Relaxed), 1);
    assert_eq!(lock.queued_waiters(), 0);
    assert_eq!(lock.csnzi_snapshot().surplus(), 0);
}

/// Deadline acquisitions racing real hand-offs at executor scale: every
/// task either gets the lock or times out, and nothing leaks.
#[test]
fn deadline_storm_accounts_for_every_task() {
    const TASKS: usize = 2_000;
    let lock = Arc::new(AsyncRwLock::new(0u64));
    let exec = Executor::new(4);
    let granted = Arc::new(AtomicU64::new(0));
    let timed_out = Arc::new(AtomicU64::new(0));
    let gate = lock.try_write().expect("uncontended");
    for i in 0..TASKS {
        let lock = Arc::clone(&lock);
        let granted = Arc::clone(&granted);
        let timed_out = Arc::clone(&timed_out);
        // Deadlines sweep from "already expired" to "far future".
        let deadline = Instant::now() + Duration::from_micros((i * 37 % 50_000) as u64);
        exec.spawn(async move {
            let won = if i % 10 == 0 {
                lock.write_deadline(deadline)
                    .await
                    .map(|mut g| *g += 1)
                    .is_ok()
            } else {
                lock.read_deadline(deadline)
                    .await
                    .map(|g| std::hint::black_box(*g))
                    .is_ok()
            };
            if won {
                granted.fetch_add(1, Ordering::Relaxed);
            } else {
                timed_out.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    std::thread::sleep(Duration::from_millis(5));
    drop(gate);
    exec.wait_idle();
    drop(exec);
    assert_eq!(
        granted.load(Ordering::Relaxed) + timed_out.load(Ordering::Relaxed),
        TASKS as u64
    );
    assert_eq!(lock.queued_waiters(), 0);
    assert_eq!(lock.csnzi_snapshot().surplus(), 0);
    // The lock stays fully functional after the storm.
    *block_on(lock.write()) += 1;
    std::hint::black_box(*block_on(lock.read()));
}
