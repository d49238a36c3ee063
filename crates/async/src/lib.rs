//! **`oll-async`** — the futures-native OLL reader-writer lock family.
//!
//! The blocking locks in `oll-core` scale reader *arrivals* across cores,
//! but every waiter is an OS thread parked in its wait strategy, capping
//! concurrency at thread count. This crate keeps the same lockword — a
//! C-SNZI, with open/closed/surplus encoding the free / write-acquired /
//! read-acquired states — and replaces the parked thread behind each
//! queue node with a stored [`core::task::Waker`], so a handful of
//! executor threads can serve millions of in-flight acquisitions.
//!
//! Design points (full protocol argument in DESIGN.md §13):
//!
//! * **Executor-agnostic.** The lock speaks raw `Waker`; nothing here
//!   depends on (or spawns onto) any particular runtime. [`block_on`] is
//!   provided for tests and bridging synchronous code.
//! * **Spin → store-waker → pending.** A poll retries the RMW-free fast
//!   path under a *bounded* spin budget ([`oll_util::Backoff::poll_relax`]),
//!   then queues a waiter whose node word is the four-state
//!   `GRANTED`/`WAITING`/`ABANDONED`/`RELEASED` protocol shared with the
//!   blocking FOLL, and whose [`waker::WakerSlot`] carries the task
//!   waker. A poll never parks, yields, or waits on another task.
//! * **Cancel-on-drop.** Dropping a pending future tombstones its node
//!   (`WAITING → ABANDONED`, lock-free); the next grant cascades over the
//!   tombstone and undoes its C-SNZI share. A drop that loses the race to
//!   a concurrent grant consumes the grant instead, so ownership is never
//!   stranded.
//! * **Hand-off semantics.** Releases *grant* ownership: a woken reader's
//!   root arrival is already committed (`OpenWithArrivals` runs before
//!   any node word flips to `GRANTED`), and a woken writer wakes in the
//!   closed-empty (write-acquired) state. The rule is GOLL's (§5.1): a
//!   releasing writer grants every waiting reader, or else the first
//!   writer; a releasing reader grants the first writer, or else every
//!   waiting reader.
//!
//! ```
//! use oll_async::{block_on, AsyncRwLock};
//!
//! let lock = AsyncRwLock::new(41);
//! block_on(async {
//!     *lock.write().await += 1;
//!     assert_eq!(*lock.read().await, 42);
//! });
//! ```

#![warn(missing_docs)]
#![cfg(not(loom))]

mod future;
mod queue;
mod timer;
pub mod waker;

pub use future::{ReadFuture, TimedReadFuture, TimedWriteFuture, WriteFuture};
pub use oll_core::TimedOut;

use oll_core::node_state::{GRANTED, RELEASED, WAITING};
use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, LeafCursor, Ticket, TreeShape};
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::{CachePadded, SpinMutex};
use queue::{Handoff, WaitQueue};
use std::cell::UnsafeCell;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// The lock machinery, shared by every future and guard (kept free of
/// the value's type parameter so the acquisition engine is monomorphic).
pub(crate) struct RawLock {
    pub(crate) csnzi: CSnzi,
    pub(crate) queue: CachePadded<SpinMutex<WaitQueue>>,
    pub(crate) telemetry: Telemetry,
}

impl RawLock {
    /// The read fast path: one C-SNZI arrival, counted. `None`: the C-SNZI
    /// is closed — and if taking the failed arrival back made the caller
    /// the last departer, the lock has been handed on before returning, so
    /// the caller carries on as after any failed arrival.
    pub(crate) fn arrive(
        &self,
        policy: &mut ArrivalPolicy,
        cursor: &mut LeafCursor,
    ) -> Option<Ticket> {
        let ticket = self.csnzi.arrive_cached(policy, cursor);
        match ticket.failure() {
            None => {
                self.telemetry.incr(if ticket.is_root() {
                    LockEvent::ArriveDirect
                } else {
                    LockEvent::ArriveTree
                });
                self.telemetry.incr(LockEvent::ReadFast);
                Some(ticket)
            }
            Some(CancelOutcome::Undone) => None,
            Some(CancelOutcome::MustHandOff) => {
                self.release_owned(true);
                None
            }
        }
    }

    /// Releases the lock from the write-acquired (owned) state the
    /// caller owns: hand it to waiter(s), or actually open it.
    ///
    /// `from_reader` selects the release class (the caller is the last
    /// departing reader of a closed C-SNZI, or a write holder).
    ///
    /// This is the granter side of the waker protocol. The order is
    /// load-bearing: for readers, `open_with_arrivals` commits every
    /// member's root arrival *under the queue mutex*, before any node
    /// word flips to `GRANTED` — so a task that observes `GRANTED` may
    /// take its read hold and depart with no further synchronization.
    /// Abandoned members (cancel-on-drop tombstones) are cascaded over:
    /// the granter departs their pre-arrivals itself, and if that drains
    /// the closed C-SNZI, ownership returns here and the loop grants the
    /// next waiter.
    pub(crate) fn release_owned(&self, mut from_reader: bool) {
        loop {
            let mut q = self.queue.lock();
            let handoff = if from_reader {
                q.dequeue_for_reader_release()
            } else {
                q.dequeue_for_writer_release()
            };
            match handoff {
                Handoff::None => {
                    self.csnzi.open();
                    drop(q);
                    return;
                }
                Handoff::Writer(w) => {
                    drop(q);
                    // Owned is exactly the write-acquired state; the
                    // CAS transfers it. Wake strictly after
                    // the grant store so the woken poll reads GRANTED.
                    if w.word
                        .compare_exchange(WAITING, GRANTED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.telemetry.incr(LockEvent::HandoffToWriter);
                        self.telemetry.trace_granted(w.token());
                        if w.slot.wake() {
                            self.telemetry.incr(LockEvent::WakerWoken);
                        }
                        return;
                    }
                    // The writer cancelled; release on its behalf and
                    // grant the next waiter.
                    w.word.store(RELEASED, Ordering::Release);
                    self.telemetry.incr(LockEvent::GrantCascade);
                }
                Handoff::Readers {
                    members,
                    writers_remain,
                } => {
                    self.telemetry.incr(LockEvent::HandoffToReaders);
                    // Pre-arrive for every member (tombstones included —
                    // membership was fixed when the group was dequeued)
                    // while still holding the queue mutex, staying closed
                    // iff writers remain queued.
                    self.csnzi
                        .open_with_arrivals(members.len() as u64, writers_remain);
                    drop(q);
                    let mut undone = 0u64;
                    for w in &members {
                        if w.word
                            .compare_exchange(WAITING, GRANTED, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            self.telemetry.trace_granted(w.token());
                            if w.slot.wake() {
                                self.telemetry.incr(LockEvent::WakerWoken);
                            }
                        } else {
                            w.word.store(RELEASED, Ordering::Release);
                            self.telemetry.incr(LockEvent::GrantCascade);
                            undone += 1;
                        }
                    }
                    // Depart the cascaded members' pre-arrivals. If one
                    // of these is the last departure of a *closed* C-SNZI
                    // (every live member already departed too, writers
                    // queued behind) and wins the claim, ownership comes
                    // back to us.
                    let mut regained = false;
                    for _ in 0..undone {
                        if !self.csnzi.depart(Ticket::ROOT) {
                            regained = true;
                        }
                    }
                    if !regained {
                        return;
                    }
                    from_reader = true;
                }
            }
        }
    }
}

/// A futures-native reader-writer lock protecting a `T` (C-SNZI core,
/// task-waker hand-off, cancellation on drop). See the crate docs.
pub struct AsyncRwLock<T: ?Sized> {
    pub(crate) raw: RawLock,
    pub(crate) value: UnsafeCell<T>,
}

// SAFETY: the lock provides the synchronization: shared access behind
// read grants, exclusive access behind the single write grant.
unsafe impl<T: ?Sized + Send> Send for AsyncRwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for AsyncRwLock<T> {}

impl<T> AsyncRwLock<T> {
    /// Creates a lock with the default configuration (C-SNZI tree sized
    /// to the machine's CPU count — waiter concurrency is unbounded
    /// either way; the tree only spreads *arrival* traffic).
    pub fn new(value: T) -> Self {
        AsyncRwLockBuilder::new().build(value)
    }

    /// Starts a builder.
    pub fn builder() -> AsyncRwLockBuilder {
        AsyncRwLockBuilder::new()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> AsyncRwLock<T> {
    /// Acquires a read (shared) hold. Await the returned future; drop it
    /// before completion to cancel the acquisition.
    pub fn read(&self) -> ReadFuture<'_, T> {
        future::read(self)
    }

    /// Acquires a write (exclusive) hold. Await the returned future;
    /// drop it before completion to cancel the acquisition.
    pub fn write(&self) -> WriteFuture<'_, T> {
        future::write(self)
    }

    /// Acquires a read hold, giving up at `deadline`. The deadline is
    /// best-effort: a grant that wins the expiry race is honoured.
    pub fn read_deadline(&self, deadline: Instant) -> TimedReadFuture<'_, T> {
        future::read_deadline(self, deadline)
    }

    /// Acquires a write hold, giving up at `deadline`. The deadline is
    /// best-effort: a grant that wins the expiry race is honoured.
    pub fn write_deadline(&self, deadline: Instant) -> TimedWriteFuture<'_, T> {
        future::write_deadline(self, deadline)
    }

    /// Attempts a read hold without waiting (fast path only).
    pub fn try_read(&self) -> Option<AsyncReadGuard<'_, T>> {
        let mut policy = ArrivalPolicy::default();
        let mut cursor = LeafCursor::new();
        let ticket = self.raw.arrive(&mut policy, &mut cursor)?;
        Some(AsyncReadGuard {
            lock: self,
            ticket,
            hold: self.raw.telemetry.timer(),
        })
    }

    /// Attempts a write hold without waiting (fast path only).
    pub fn try_write(&self) -> Option<AsyncWriteGuard<'_, T>> {
        if !self.raw.csnzi.close_if_empty() {
            return None;
        }
        self.raw.telemetry.incr(LockEvent::WriteFast);
        Some(AsyncWriteGuard {
            lock: self,
            hold: self.raw.telemetry.timer(),
        })
    }

    /// Mutable access without locking (the `&mut` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Diagnostic snapshot of the C-SNZI root (racy).
    pub fn csnzi_snapshot(&self) -> oll_csnzi::RootWord {
        self.raw.csnzi.root_snapshot()
    }

    /// Queued acquisitions right now, cancellation tombstones included
    /// (racy; tombstones leave when a release dequeues their group).
    pub fn queued_waiters(&self) -> usize {
        self.raw.queue.lock().waiter_count()
    }

    /// This lock's telemetry handle.
    pub fn telemetry(&self) -> Telemetry {
        self.raw.telemetry.clone()
    }
}

impl<T: Default> Default for AsyncRwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for AsyncRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("AsyncRwLock");
        match self.try_read() {
            Some(g) => d.field("value", &&*g),
            None => d.field("value", &format_args!("<write-locked>")),
        }
        .finish()
    }
}

/// Builder for [`AsyncRwLock`].
#[derive(Debug, Clone)]
pub struct AsyncRwLockBuilder {
    concurrency: usize,
    telemetry_name: Option<String>,
}

impl AsyncRwLockBuilder {
    /// Starts a builder. `concurrency` defaults to the CPU count: it
    /// sizes the C-SNZI arrival tree (one leaf per *executor thread*
    /// that may poll concurrently — not per task; tasks are unbounded).
    pub fn new() -> Self {
        Self {
            concurrency: oll_util::topology::Topology::get().cpus(),
            telemetry_name: None,
        }
    }

    /// Sets the expected polling concurrency (executor worker threads).
    pub fn concurrency(mut self, workers: usize) -> Self {
        self.concurrency = workers.max(1);
        self
    }

    /// Names this lock's telemetry instance (default `"ASYNC#<seq>"`).
    /// No effect unless built with the `telemetry` feature.
    pub fn telemetry_name(mut self, name: &str) -> Self {
        self.telemetry_name = Some(name.to_string());
        self
    }

    /// Builds the lock around `value`.
    pub fn build<T>(self, value: T) -> AsyncRwLock<T> {
        let telemetry = Telemetry::register("ASYNC");
        if let Some(name) = &self.telemetry_name {
            telemetry.rename(name);
        }
        let mut csnzi = CSnzi::new(TreeShape::for_threads(self.concurrency));
        csnzi.attach_telemetry(telemetry.clone());
        AsyncRwLock {
            raw: RawLock {
                csnzi,
                queue: CachePadded::new(SpinMutex::new(WaitQueue::new())),
                telemetry,
            },
            value: UnsafeCell::new(value),
        }
    }
}

impl Default for AsyncRwLockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared (read) hold on an [`AsyncRwLock`]; releases on drop. Dropping
/// is synchronous — safe from any context, async or not.
#[must_use = "the lock is held until the guard is dropped"]
pub struct AsyncReadGuard<'a, T: ?Sized> {
    pub(crate) lock: &'a AsyncRwLock<T>,
    /// The C-SNZI arrival to depart with (`Ticket::ROOT` after a queued
    /// grant: the granter pre-arrived at the root on our behalf).
    pub(crate) ticket: Ticket,
    pub(crate) hold: Timer,
}

impl<T: ?Sized> Deref for AsyncReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: a live read grant excludes all writers.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for AsyncReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.telemetry.record_read_hold(&self.hold);
        if !self.lock.raw.csnzi.depart(self.ticket) {
            // Last departer of a closed C-SNZI: the lock is now in the
            // write-acquired state and we must hand it to a waiter.
            self.lock.raw.release_owned(true);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for AsyncReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Exclusive (write) hold on an [`AsyncRwLock`]; releases on drop.
/// Dropping is synchronous — safe from any context, async or not.
#[must_use = "the lock is held until the guard is dropped"]
pub struct AsyncWriteGuard<'a, T: ?Sized> {
    pub(crate) lock: &'a AsyncRwLock<T>,
    pub(crate) hold: Timer,
}

impl<T: ?Sized> Deref for AsyncWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the write grant is exclusive.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for AsyncWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the write grant is exclusive.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for AsyncWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.telemetry.record_write_hold(&self.hold);
        self.lock.raw.release_owned(false);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for AsyncWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the calling thread (parks between
/// polls). For tests and for bridging synchronous code; any executor
/// works — the lock itself never spawns or blocks.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicUsize};
    use std::time::Duration;

    fn noop_waker() -> Waker {
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        Waker::from(Arc::new(Noop))
    }

    #[test]
    fn uncontended_read_and_write() {
        let lock = AsyncRwLock::new(1u32);
        block_on(async {
            assert_eq!(*lock.read().await, 1);
            *lock.write().await = 2;
            assert_eq!(*lock.read().await, 2);
        });
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true));
        assert_eq!(lock.queued_waiters(), 0);
    }

    #[test]
    fn try_paths_respect_exclusion() {
        let lock = AsyncRwLock::new(());
        let r = lock.try_read().unwrap();
        assert!(lock.try_read().is_some());
        assert!(lock.try_write().is_none());
        drop(r);
        drop(lock.try_read());
        let w = lock.try_write().unwrap();
        assert!(lock.try_read().is_none());
        assert!(lock.try_write().is_none());
        drop(w);
        assert!(lock.csnzi_snapshot().open);
    }

    #[test]
    fn queued_writer_is_granted_on_release() {
        let lock = Arc::new(AsyncRwLock::new(0i32));
        let r = lock.try_read().unwrap();
        let l2 = Arc::clone(&lock);
        let t = std::thread::spawn(move || {
            block_on(async {
                *l2.write().await = 7;
            })
        });
        // Let the writer queue behind our read hold, then release.
        while lock.queued_waiters() == 0 {
            std::thread::yield_now();
        }
        drop(r);
        t.join().unwrap();
        assert_eq!(*block_on(lock.read()), 7);
    }

    #[test]
    fn queued_readers_are_granted_together() {
        const READERS: usize = 4;
        let lock = Arc::new(AsyncRwLock::new(()));
        let w = lock.try_write().unwrap();
        let inside = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for _ in 0..READERS {
            let lock = Arc::clone(&lock);
            let inside = Arc::clone(&inside);
            threads.push(std::thread::spawn(move || {
                block_on(async {
                    let _g = lock.read().await;
                    inside.fetch_add(1, Ordering::SeqCst);
                })
            }));
        }
        while lock.queued_waiters() < READERS {
            std::thread::yield_now();
        }
        assert_eq!(inside.load(Ordering::SeqCst), 0);
        drop(w);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(inside.load(Ordering::SeqCst), READERS);
        let snap = lock.csnzi_snapshot();
        assert_eq!((snap.surplus(), snap.open), (0, true));
    }

    #[test]
    fn readers_and_writers_exclude() {
        const THREADS: usize = 6;
        const ITERS: usize = 1_500;
        let lock = Arc::new(AsyncRwLock::new(()));
        // state > 0: readers inside; state == -1: a writer inside.
        let state = Arc::new(AtomicI64::new(0));
        let mut threads = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                let mut rng = oll_util::XorShift64::for_thread(42, tid);
                for _ in 0..ITERS {
                    if rng.percent(70) {
                        block_on(async {
                            let _g = lock.read().await;
                            let s = state.fetch_add(1, Ordering::SeqCst);
                            assert!(s >= 0, "reader entered while writer inside");
                            state.fetch_sub(1, Ordering::SeqCst);
                        });
                    } else {
                        block_on(async {
                            let _g = lock.write().await;
                            let s = state.swap(-1, Ordering::SeqCst);
                            assert_eq!(s, 0, "writer entered while lock held");
                            state.store(0, Ordering::SeqCst);
                        });
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let w = lock.csnzi_snapshot();
        assert_eq!((w.surplus(), w.open), (0, true));
        assert_eq!(lock.queued_waiters(), 0);
    }

    #[test]
    fn read_deadline_times_out_under_write_hold() {
        let lock = AsyncRwLock::new(());
        let w = lock.try_write().unwrap();
        let out = block_on(lock.read_deadline(Instant::now() + Duration::from_millis(30)));
        assert!(out.is_err());
        drop(w);
        // Lock recovers: the tombstone cascades away on next release.
        assert!(block_on(lock.read_deadline(Instant::now() + Duration::from_secs(5))).is_ok());
        let snap = lock.csnzi_snapshot();
        assert_eq!((snap.surplus(), snap.open), (0, true));
        assert_eq!(lock.queued_waiters(), 0);
    }

    #[test]
    fn write_deadline_times_out_under_read_hold() {
        let lock = AsyncRwLock::new(());
        let r = lock.try_read().unwrap();
        let out = block_on(lock.write_deadline(Instant::now() + Duration::from_millis(30)));
        assert!(out.is_err());
        drop(r);
        assert!(block_on(lock.write_deadline(Instant::now() + Duration::from_secs(5))).is_ok());
        let snap = lock.csnzi_snapshot();
        assert_eq!((snap.surplus(), snap.open), (0, true));
    }

    #[test]
    fn dropping_a_pending_future_cancels_cleanly() {
        let lock = AsyncRwLock::new(());
        let w = lock.try_write().unwrap();
        {
            let mut fut = pin!(lock.read());
            let waker = noop_waker();
            let mut cx = Context::from_waker(&waker);
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            assert_eq!(lock.queued_waiters(), 1);
        } // dropped mid-wait: tombstoned
        drop(w); // release cascades over the tombstone
        assert_eq!(lock.queued_waiters(), 0);
        let snap = lock.csnzi_snapshot();
        assert_eq!((snap.surplus(), snap.open), (0, true));
    }

    #[test]
    fn debug_formats_both_states() {
        let lock = AsyncRwLock::new(5u8);
        assert!(format!("{lock:?}").contains('5'));
        let _w = lock.try_write().unwrap();
        assert!(format!("{lock:?}").contains("write-locked"));
    }
}
