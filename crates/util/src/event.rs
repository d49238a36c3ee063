//! Waiter objects: one-shot events.
//!
//! The GOLL and Solaris-like locks put conflicting threads to sleep on a
//! mutex-protected wait queue and *hand over* lock ownership on release
//! (§3.1–3.2 of the paper): a thread always owns the lock by the time it is
//! woken. What a queue entry's waiters — one writer, or a group of readers —
//! poll is an [`Event`]. The [`turnstile`](crate::turnstile) owns its events
//! — one per thread slot and one per pooled readers group, each on a cache
//! line of its own — and re-arms one with [`Event::reset`] every time its
//! cell is linked into the queue.
//!
//! The paper's evaluation uses "spin-based condition variables to eliminate
//! the cost of context switching" (§5.1) — that is [`WaitStrategy::SpinThenYield`].
//! Production deployments (like the real Solaris turnstile) deschedule
//! waiters; [`WaitStrategy::SpinThenPark`] models that.

use crate::backoff::{Deadline, Never};
use crate::sync::{spin_loop_hint, thread, AtomicBool, Ordering};

/// How a waiter burns time until it is signaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Spin on the flag, then `yield_now` between probes. Matches the
    /// paper's spin-based condition variables.
    #[default]
    SpinThenYield,
    /// Spin on the flag, then park the OS thread until `signal`.
    /// Matches production locks that deschedule waiters.
    SpinThenPark,
}

/// Probes of the spin phase every wait opens with, one relax hint apart:
/// the hints [`Backoff::relax`](crate::backoff::Backoff::relax)'s doubling
/// schedule spends before its first yield (1 + 2 + … + 64). The flag sits
/// on a line only the signaler writes, so probing it after every hint costs
/// no coherence traffic, and a signal is noticed one hint after it lands
/// instead of up to 64.
const SPIN_PROBES: u32 = 127;

/// A one-shot event: one (or more) waiters block until one `signal` call.
///
/// `signal` may race with `wait`; the waiter never misses the signal. The
/// event is *not* automatically reusable — call [`Event::reset`] between
/// uses, as the turnstile does when it links a recycled wait cell into its
/// queue.
#[derive(Debug)]
pub struct Event {
    set: AtomicBool,
    strategy: WaitStrategy,
    #[cfg(not(loom))]
    parked: std::sync::Mutex<Vec<std::thread::Thread>>,
}

impl Event {
    /// Creates an unsignaled event.
    pub fn new(strategy: WaitStrategy) -> Self {
        Self {
            set: AtomicBool::new(false),
            strategy,
            #[cfg(not(loom))]
            parked: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Returns whether the event has been signaled.
    pub fn is_set(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Signals the event, waking all current and future waiters.
    pub fn signal(&self) {
        self.set.store(true, Ordering::Release);
        #[cfg(not(loom))]
        if matches!(self.strategy, WaitStrategy::SpinThenPark) {
            let mut parked = self.parked.lock().unwrap();
            for t in parked.drain(..) {
                t.unpark();
            }
        }
    }

    /// Blocks until the event is signaled.
    pub fn wait(&self) {
        self.wait_until(Never);
    }

    /// Blocks until the event is signaled (`true`) or `deadline` passes
    /// (`false`); [`wait`](Self::wait) is this with a [`Never`] deadline. A
    /// `false` return only means the *wait* gave up: the signal may still
    /// arrive later (or already be in flight), so the caller must run its
    /// own cancellation protocol before abandoning the waiter object.
    ///
    /// The one wait loop: a spin phase of [`SPIN_PROBES`] probes under
    /// either strategy, which then decides only what separates the later
    /// probes — a `yield_now`, or a park. A signal that races the clock
    /// read is never reported as a timeout.
    #[doc(hidden)]
    pub fn wait_until<D: Deadline>(&self, deadline: D) -> bool {
        let mut probes = 0;
        loop {
            if self.is_set() {
                return true;
            }
            if deadline.expired() {
                return self.is_set();
            }
            if probes < SPIN_PROBES {
                probes += 1;
                spin_loop_hint();
            } else {
                match self.strategy {
                    WaitStrategy::SpinThenYield => thread::yield_now(),
                    WaitStrategy::SpinThenPark => self.park(deadline),
                }
            }
        }
    }

    /// One round of the park strategy; the caller re-checks the flag and
    /// the deadline whatever ended the park (an unpark, a spurious wake-up,
    /// the timeout).
    #[cfg(not(loom))]
    fn park<D: Deadline>(&self, deadline: D) {
        // Publish our handle, then re-check: a signaler that saw the list
        // before our push is balanced by this re-check; a signaler that
        // runs after our push will unpark us.
        {
            let mut parked = self.parked.lock().unwrap();
            if self.is_set() {
                return;
            }
            parked.push(std::thread::current());
        }
        deadline.park();
        // Our handle may still be on the list; remove it, so a later
        // `signal` never unparks a thread that has moved on.
        let me = std::thread::current().id();
        self.parked.lock().unwrap().retain(|t| t.id() != me);
    }

    /// loom has no real parking; yield-spinning lets its models still
    /// explore all interleavings.
    #[cfg(loom)]
    fn park<D: Deadline>(&self, _deadline: D) {
        thread::yield_now();
    }

    /// Rearms the event. Caller must guarantee no thread is still waiting.
    pub fn reset(&self) {
        self.set.store(false, Ordering::Release);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn strategies() -> [WaitStrategy; 2] {
        [WaitStrategy::SpinThenYield, WaitStrategy::SpinThenPark]
    }

    #[test]
    fn signal_before_wait_returns_immediately() {
        for s in strategies() {
            let e = Event::new(s);
            e.signal();
            e.wait(); // must not block
            assert!(e.is_set());
        }
    }

    #[test]
    fn wait_blocks_until_signal() {
        for s in strategies() {
            let e = Arc::new(Event::new(s));
            let e2 = Arc::clone(&e);
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                e2.signal();
            });
            e.wait();
            assert!(e.is_set());
            h.join().unwrap();
        }
    }

    #[test]
    fn many_waiters_one_signal() {
        for s in strategies() {
            let e = Arc::new(Event::new(s));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let e2 = Arc::clone(&e);
                handles.push(std::thread::spawn(move || e2.wait()));
            }
            std::thread::sleep(Duration::from_millis(10));
            e.signal();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn park_never_misses_a_racing_signal() {
        // Regression guard for the classic lost-wakeup: a signal landing
        // between the waiter's last spin check and its park. Correctness
        // hinges on two details of `park`: the `is_set` re-check
        // under the `parked` mutex before pushing (covers a signal that
        // drained the list before the push), and the unpark permit
        // (covers a signal between the mutex unlock and the park). The
        // even iterations race the signal against the spin phase; the
        // odd ones sleep long enough that the waiter is parked (or about
        // to be) when the signal fires. A lost wakeup hangs the join and
        // fails via the harness timeout.
        for i in 0..500usize {
            let e = Arc::new(Event::new(WaitStrategy::SpinThenPark));
            let e2 = Arc::clone(&e);
            let waiter = std::thread::spawn(move || e2.wait());
            if i % 2 == 0 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
            e.signal();
            waiter.join().unwrap();
            assert!(e.is_set());
        }
    }

    #[test]
    fn park_deadline_never_misses_a_racing_signal() {
        // Same window as above, with the deadline variant: a signal that
        // arrives before the deadline must always be observed as `true`,
        // even when it races the park/park_timeout transition.
        for i in 0..200usize {
            let e = Arc::new(Event::new(WaitStrategy::SpinThenPark));
            let e2 = Arc::clone(&e);
            let waiter = std::thread::spawn(move || {
                e2.wait_until(std::time::Instant::now() + Duration::from_secs(30))
            });
            if i % 2 == 1 {
                std::thread::sleep(Duration::from_micros(50));
            }
            e.signal();
            assert!(
                waiter.join().unwrap(),
                "signal before deadline reported as timeout"
            );
        }
    }

    #[test]
    fn reset_rearms() {
        let e = Event::new(WaitStrategy::SpinThenYield);
        e.signal();
        assert!(e.is_set());
        e.reset();
        assert!(!e.is_set());
    }
}
