//! The acquisition futures and their shared spin→store-waker→pending
//! state machine.
//!
//! One [`Acquire`] engine drives all four public futures (read / write ×
//! untimed / deadline). A poll walks the same path the blocking GOLL
//! walks, with `Pending` substituted for parking:
//!
//! 1. **Spin phase** (`Init`): retry the C-SNZI fast path under
//!    [`Backoff::poll_relax`] — bounded spin hints only, never a yield or
//!    park, so a poll can never block its executor thread.
//! 2. **Queue phase**: take the queue mutex, re-check the lockword,
//!    enqueue a [`Waiter`] (four-state node word + waker slot).
//! 3. **Pending phase** (`Queued`): register the task waker in the slot,
//!    then — mandatorily — re-check the node word before returning
//!    `Pending`. The grant CAS (`WAITING → GRANTED`) happens-before the
//!    slot wake, so the re-check closes the lost-wakeup window the
//!    registration race leaves open (DESIGN.md §13).
//!
//! Dropping a future in the `Queued` phase cancels lock-free: a
//! `WAITING → ABANDONED` tombstone CAS. If the CAS loses, the grant
//! already landed and the drop handler consumes it (departs the read
//! arrival, or releases the granted write) so ownership is never
//! stranded.

use crate::queue::Waiter;
use crate::{AsyncReadGuard, AsyncRwLock, AsyncWriteGuard, RawLock};
use oll_core::node_state::{ABANDONED, GRANTED, WAITING};
use oll_core::TimedOut;
use oll_csnzi::{ArrivalPolicy, LeafCursor, Ticket};
use oll_telemetry::{LockEvent, Timer};
use oll_util::fault;
use oll_util::Backoff;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

enum State {
    /// Not yet queued; the spin phase retries the fast path.
    Init,
    /// Enqueued; the waiter's node word arbitrates grant vs. cancel.
    Queued(Arc<Waiter>),
    /// Completed (granted, timed out, or consumed by the guard).
    Done,
}

/// What a completed acquisition carries into its guard.
enum Grant {
    /// A read hold: the C-SNZI ticket to depart with (a real leaf/root
    /// ticket from the fast path, `Ticket::ROOT` after a queued grant —
    /// the granter pre-arrived at the root on our behalf).
    Read(Ticket),
    Write,
}

/// The shared acquisition engine (not itself a `Future`; the public
/// wrappers below map its output into guards).
struct Acquire<'a> {
    raw: &'a RawLock,
    write: bool,
    deadline: Option<Instant>,
    state: State,
    policy: ArrivalPolicy,
    cursor: LeafCursor,
    backoff: Backoff,
    acquire: Timer,
}

impl<'a> Acquire<'a> {
    fn new(raw: &'a RawLock, write: bool, deadline: Option<Instant>) -> Self {
        let acquire = if write {
            raw.telemetry.begin_write()
        } else {
            raw.telemetry.begin_read()
        };
        Acquire {
            raw,
            write,
            deadline,
            state: State::Init,
            policy: ArrivalPolicy::new(raw.arrival_threshold),
            cursor: LeafCursor::new(),
            backoff: Backoff::new(),
            acquire,
        }
    }

    /// The grant is ours (node word reached `GRANTED`): the arrival (or
    /// the closed-empty write state) is already committed on the C-SNZI.
    fn finish_granted(&mut self) -> Poll<Result<Grant, TimedOut>> {
        self.state = State::Done;
        if self.write {
            self.raw.telemetry.record_write_acquire(&self.acquire);
            Poll::Ready(Ok(Grant::Write))
        } else {
            self.raw.telemetry.record_read_acquire(&self.acquire);
            Poll::Ready(Ok(Grant::Read(Ticket::ROOT)))
        }
    }

    fn poll_acquire(&mut self, cx: &mut Context<'_>) -> Poll<Result<Grant, TimedOut>> {
        loop {
            match &self.state {
                State::Done => panic!("acquisition future polled after completion"),
                State::Init => {
                    if self.write {
                        if let Some(out) = self.init_write() {
                            return out;
                        }
                    } else if let Some(out) = self.init_read() {
                        return out;
                    }
                    // Queued (or retrying Init): loop into the next arm.
                }
                State::Queued(w) => {
                    let w = Arc::clone(w);
                    return self.poll_queued(&w, cx);
                }
            }
        }
    }

    /// Read spin + queue phases. `None` means "state changed, loop".
    fn init_read(&mut self) -> Option<Poll<Result<Grant, TimedOut>>> {
        'spin: loop {
            if let Some(ticket) = self.raw.arrive(&mut self.policy, &mut self.cursor) {
                self.raw.telemetry.record_read_acquire(&self.acquire);
                self.state = State::Done;
                return Some(Poll::Ready(Ok(Grant::Read(ticket))));
            }
            // C-SNZI closed: a writer owns or has claimed the lock. Burn
            // the bounded poll budget before paying for a queue node —
            // on loads: an arrival that lands closed is two RMWs on the
            // line the owner needs to reopen.
            loop {
                if !self.backoff.poll_relax() {
                    break 'spin;
                }
                if self.raw.csnzi.query().open {
                    break;
                }
            }
        }
        // Closed; nothing is held yet, so a pre-queue timeout is free.
        if self.expired() {
            self.raw.telemetry.incr(LockEvent::Timeout);
            self.state = State::Done;
            return Some(Poll::Ready(Err(TimedOut)));
        }
        fault::inject("async.read.before-queue-mutex");
        let mut q = self.raw.queue.lock();
        if self.raw.csnzi.query().open {
            // The writer released before we got the mutex; retry.
            drop(q);
            return None;
        }
        let w = q.join_readers();
        self.raw.telemetry.incr(LockEvent::ReadSlow);
        self.raw.telemetry.trace_enqueued(w.token());
        drop(q);
        self.state = State::Queued(w);
        None
    }

    /// Write spin + queue phases. `None` means "state changed, loop".
    fn init_write(&mut self) -> Option<Poll<Result<Grant, TimedOut>>> {
        loop {
            // Fast path: free lock.
            if self.raw.csnzi.close_if_empty() {
                self.raw.telemetry.incr(LockEvent::WriteFast);
                self.raw.telemetry.record_write_acquire(&self.acquire);
                self.state = State::Done;
                return Some(Poll::Ready(Ok(Grant::Write)));
            }
            if !self.backoff.poll_relax() {
                break;
            }
        }
        fault::inject("async.write.before-queue-mutex");
        let mut q = self.raw.queue.lock();
        // Close (sets the "write wanted" state): if it returns true the
        // lock was free after all and we own it.
        if self.raw.csnzi.close() {
            self.raw.telemetry.incr(LockEvent::WriteSlow);
            drop(q);
            self.raw.telemetry.record_write_acquire(&self.acquire);
            self.state = State::Done;
            return Some(Poll::Ready(Ok(Grant::Write)));
        }
        // Expired before enqueueing: leave without a queue entry. Our
        // `close` may have moved the C-SNZI to closed-with-readers with
        // no writer queued; the last departing reader handles that (its
        // dequeue finds nothing and reopens).
        if self.expired() {
            drop(q);
            self.raw.telemetry.incr(LockEvent::Timeout);
            self.state = State::Done;
            return Some(Poll::Ready(Err(TimedOut)));
        }
        let w = q.enqueue_writer();
        self.raw.telemetry.incr(LockEvent::WriteSlow);
        self.raw.telemetry.trace_enqueued(w.token());
        drop(q);
        self.state = State::Queued(w);
        None
    }

    fn poll_queued(
        &mut self,
        w: &Arc<Waiter>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Grant, TimedOut>> {
        if w.word.load(Ordering::Acquire) == GRANTED {
            return self.finish_granted();
        }
        if self.deadline.is_some() && self.expired() {
            // The node word arbitrates expiry vs. grant: exactly one of
            // the tombstone CAS and the grant CAS wins.
            match w
                .word
                .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // Tombstoned; the next grant cascades over us and
                    // departs our pre-arrival (if any was made).
                    self.raw.telemetry.incr(LockEvent::Timeout);
                    self.raw.telemetry.incr(LockEvent::Cancel);
                    self.state = State::Done;
                    return Poll::Ready(Err(TimedOut));
                }
                // The grant won the race: the lock is ours. Deadlines
                // are best-effort — take the hold rather than pay a
                // release/re-acquire round trip to report lateness.
                Err(_) => return self.finish_granted(),
            }
        }
        if !w.slot.register(cx.waker()) {
            // The slot's one-shot wake has fired, and the grant CAS
            // happens-before the wake: we are granted, not pending.
            debug_assert_eq!(w.word.load(Ordering::Acquire), GRANTED);
            return self.finish_granted();
        }
        self.raw.telemetry.incr(LockEvent::WakerStored);
        fault::inject(if self.write {
            "async.write.pending-window"
        } else {
            "async.read.pending-window"
        });
        // The mandatory post-registration re-check (DESIGN.md §13): a
        // grant that landed before the slot was populated fired `wake`
        // on an empty slot, and nothing else will ever poll us.
        if w.word.load(Ordering::Acquire) == GRANTED {
            return self.finish_granted();
        }
        if let Some(deadline) = self.deadline {
            crate::timer::schedule(deadline, cx.waker().clone());
        }
        Poll::Pending
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        let State::Queued(w) = &self.state else {
            return;
        };
        match w
            .word
            .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // Tombstoned: the next grant cascades over the node and
                // undoes its share through the C-SNZI.
                self.raw.telemetry.incr(LockEvent::Cancel);
            }
            Err(_) => {
                // The grant already landed; consume it so ownership is
                // not stranded on a dropped future.
                if self.write {
                    self.raw.release_owned(false);
                } else if !self.raw.csnzi.depart(Ticket::ROOT) {
                    self.raw.release_owned(true);
                }
            }
        }
    }
}

/// Future of [`AsyncRwLock::read`]. Dropping it before completion
/// cancels the acquisition.
#[must_use = "futures do nothing unless polled"]
pub struct ReadFuture<'a, T: ?Sized> {
    lock: &'a AsyncRwLock<T>,
    inner: Acquire<'a>,
}

/// Future of [`AsyncRwLock::write`]. Dropping it before completion
/// cancels the acquisition.
#[must_use = "futures do nothing unless polled"]
pub struct WriteFuture<'a, T: ?Sized> {
    lock: &'a AsyncRwLock<T>,
    inner: Acquire<'a>,
}

/// Future of [`AsyncRwLock::read_deadline`].
#[must_use = "futures do nothing unless polled"]
pub struct TimedReadFuture<'a, T: ?Sized> {
    lock: &'a AsyncRwLock<T>,
    inner: Acquire<'a>,
}

/// Future of [`AsyncRwLock::write_deadline`].
#[must_use = "futures do nothing unless polled"]
pub struct TimedWriteFuture<'a, T: ?Sized> {
    lock: &'a AsyncRwLock<T>,
    inner: Acquire<'a>,
}

pub(crate) fn read<T: ?Sized>(lock: &AsyncRwLock<T>) -> ReadFuture<'_, T> {
    ReadFuture {
        lock,
        inner: Acquire::new(&lock.raw, false, None),
    }
}

pub(crate) fn write<T: ?Sized>(lock: &AsyncRwLock<T>) -> WriteFuture<'_, T> {
    WriteFuture {
        lock,
        inner: Acquire::new(&lock.raw, true, None),
    }
}

pub(crate) fn read_deadline<T: ?Sized>(
    lock: &AsyncRwLock<T>,
    deadline: Instant,
) -> TimedReadFuture<'_, T> {
    TimedReadFuture {
        lock,
        inner: Acquire::new(&lock.raw, false, Some(deadline)),
    }
}

pub(crate) fn write_deadline<T: ?Sized>(
    lock: &AsyncRwLock<T>,
    deadline: Instant,
) -> TimedWriteFuture<'_, T> {
    TimedWriteFuture {
        lock,
        inner: Acquire::new(&lock.raw, true, Some(deadline)),
    }
}

fn read_guard<'a, T: ?Sized>(lock: &'a AsyncRwLock<T>, ticket: Ticket) -> AsyncReadGuard<'a, T> {
    AsyncReadGuard {
        lock,
        ticket,
        hold: lock.raw.telemetry.timer(),
    }
}

fn write_guard<T: ?Sized>(lock: &AsyncRwLock<T>) -> AsyncWriteGuard<'_, T> {
    AsyncWriteGuard {
        lock,
        hold: lock.raw.telemetry.timer(),
    }
}

// All four futures are Unpin: the engine holds no self-references (the
// waiter is Arc'd), so polling through plain &mut is sound.
impl<T: ?Sized> Unpin for ReadFuture<'_, T> {}
impl<T: ?Sized> Unpin for WriteFuture<'_, T> {}
impl<T: ?Sized> Unpin for TimedReadFuture<'_, T> {}
impl<T: ?Sized> Unpin for TimedWriteFuture<'_, T> {}

impl<'a, T: ?Sized> Future for ReadFuture<'a, T> {
    type Output = AsyncReadGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match this.inner.poll_acquire(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(Grant::Read(ticket))) => Poll::Ready(read_guard(this.lock, ticket)),
            Poll::Ready(Ok(Grant::Write)) | Poll::Ready(Err(_)) => {
                unreachable!("untimed read acquisition yields a read grant")
            }
        }
    }
}

impl<'a, T: ?Sized> Future for WriteFuture<'a, T> {
    type Output = AsyncWriteGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match this.inner.poll_acquire(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(Grant::Write)) => Poll::Ready(write_guard(this.lock)),
            Poll::Ready(Ok(Grant::Read(_))) | Poll::Ready(Err(_)) => {
                unreachable!("untimed write acquisition yields a write grant")
            }
        }
    }
}

impl<'a, T: ?Sized> Future for TimedReadFuture<'a, T> {
    type Output = Result<AsyncReadGuard<'a, T>, TimedOut>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match this.inner.poll_acquire(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(Grant::Read(ticket))) => Poll::Ready(Ok(read_guard(this.lock, ticket))),
            Poll::Ready(Err(TimedOut)) => Poll::Ready(Err(TimedOut)),
            Poll::Ready(Ok(Grant::Write)) => unreachable!("read acquisition yields a read grant"),
        }
    }
}

impl<'a, T: ?Sized> Future for TimedWriteFuture<'a, T> {
    type Output = Result<AsyncWriteGuard<'a, T>, TimedOut>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match this.inner.poll_acquire(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(Grant::Write)) => Poll::Ready(Ok(write_guard(this.lock))),
            Poll::Ready(Err(TimedOut)) => Poll::Ready(Err(TimedOut)),
            Poll::Ready(Ok(Grant::Read(_))) => {
                unreachable!("write acquisition yields a write grant")
            }
        }
    }
}
