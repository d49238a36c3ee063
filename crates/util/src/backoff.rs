//! Exponential backoff with fixed caps.

use crate::sync::{spin_loop_hint, thread};

/// Exponential backoff for contended retry loops and busy-wait spins.
///
/// The paper tunes exponential backoff per lock (§5.1); here one tuning
/// serves every lock, as two private constants (`SPIN_LIMIT` = 6,
/// `YIELD_LIMIT` = 10): nothing changes them at run time.
///
/// Two phases:
/// 1. *Spin*: issue `2^step` CPU relax hints, doubling each call, capped at
///    `2^SPIN_LIMIT`.
/// 2. *Yield*: once past `SPIN_LIMIT`, also yield the OS thread. This keeps
///    the queue-based locks live when there are more runnable threads than
///    hardware threads (the original MCS/FOLL algorithms assume a thread per
///    processor; yielding is the standard user-space adaptation).
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
}

/// Phase-1 cap: a call spins at most `2^SPIN_LIMIT` relax hints — 64, long
/// enough to win short races without burning a scheduling quantum.
const SPIN_LIMIT: u32 = 6;

/// Phase-2 cap: the step counter stops growing at `YIELD_LIMIT`. Past
/// [`SPIN_LIMIT`] every call spins `2^SPIN_LIMIT` hints and yields the OS
/// thread once; the counter keeps growing only for
/// [`Backoff::is_contended`]'s sake.
const YIELD_LIMIT: u32 = 10;

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// New backoff at the initial (shortest) delay.
    pub fn new() -> Self {
        Self { step: 0 }
    }

    /// Resets to the initial (shortest) delay.
    ///
    /// Call after a successful acquisition so the next contention episode
    /// starts from a short spin again.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Returns `true` once the spin phase is exhausted and the backoff has
    /// started yielding the thread. Lock-acquire loops use this to switch
    /// from "optimistic" to "contended" strategies (e.g. the C-SNZI
    /// `ShouldArriveAtTree` policy).
    pub fn is_contended(&self) -> bool {
        self.step > SPIN_LIMIT
    }

    /// Backs off once: spins (and, past the spin limit, yields), then
    /// increases the next delay exponentially.
    pub fn backoff(&mut self) {
        // Under loom every relax hint is a scheduling point; issuing 2^k
        // of them per call explodes the model's branch count without
        // exploring anything new. One per call is equivalent for checking.
        #[cfg(loom)]
        {
            spin_loop_hint();
            if self.step < YIELD_LIMIT {
                self.step += 1;
            }
            return;
        }
        #[cfg(not(loom))]
        {
            let spins = 1u32 << self.spin_exponent();
            for _ in 0..spins {
                spin_loop_hint();
            }
            if self.step > SPIN_LIMIT {
                thread::yield_now();
            }
            if self.step < YIELD_LIMIT {
                self.step += 1;
            }
        }
    }

    /// Current spin exponent, capped at [`SPIN_LIMIT`].
    #[inline]
    fn spin_exponent(&self) -> u32 {
        self.step.min(SPIN_LIMIT)
    }

    /// Async-aware backoff step: spins like [`Backoff::backoff`] but
    /// **never yields, parks, or otherwise blocks the calling thread** —
    /// a future's `poll` must stay non-blocking whatever the contention.
    ///
    /// Returns `true` while the bounded spin phase has budget left (the
    /// caller may retry its fast path); `false` once the phase is
    /// exhausted — an async caller must then store its waker and return
    /// `Poll::Pending` instead of escalating to `yield_now`/parking the
    /// way the thread-based strategies do.
    pub fn poll_relax(&mut self) -> bool {
        if self.step > SPIN_LIMIT {
            return false;
        }
        #[cfg(loom)]
        {
            spin_loop_hint();
        }
        #[cfg(not(loom))]
        {
            let spins = 1u32 << self.spin_exponent();
            for _ in 0..spins {
                spin_loop_hint();
            }
        }
        self.step += 1;
        true
    }

    /// One relax step, for tight "wait until flag flips" loops where the
    /// waiter is next in line and the wait is expected to be short (queue
    /// hand-offs). The spin doubles each call up to `2^SPIN_LIMIT` hints,
    /// as [`backoff`](Self::backoff)'s does (1 + 2 + … + 64 = 127 hints
    /// over the first seven calls); past that, every call spins
    /// `2^SPIN_LIMIT` hints and yields, and the delay stays flat.
    pub fn relax(&mut self) {
        #[cfg(loom)]
        {
            spin_loop_hint();
            return;
        }
        #[cfg(not(loom))]
        {
            let spins = 1u32 << self.spin_exponent();
            for _ in 0..spins {
                spin_loop_hint();
            }
            // Escalate to yielding, but keep the delay flat once there:
            // the hand-off we are waiting for is O(1) work away, growing
            // further only adds latency.
            if self.step <= SPIN_LIMIT {
                self.step += 1;
            } else {
                thread::yield_now();
            }
        }
    }
}

/// When a wait gives up — the one seam between a blocking acquisition and a
/// timed one. Every wait loop in the workspace is generic over this, so the
/// blocking call is the timed call instantiated with [`Never`]: `expired` is
/// a constant `false` there and the compiler deletes the clock reads and
/// every cancellation branch that hangs off them.
///
/// Implementors: [`Never`], [`std::time::Instant`] (an absolute deadline)
/// and `&`[`Timeout`] (a relative one whose clock starts at its first
/// query). A wait loop asks only once it has to wait, so an acquisition
/// that never waits never queries its deadline.
#[doc(hidden)]
pub trait Deadline: Copy {
    /// Whether the deadline has passed.
    fn expired(self) -> bool;

    /// Parks the calling thread until it is unparked or the deadline passes
    /// (spurious wake-ups allowed, as with [`std::thread::park`]).
    #[cfg(not(loom))]
    fn park(self);
}

/// The deadline of a blocking acquisition: it never expires.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Never;

impl Deadline for Never {
    #[inline(always)]
    fn expired(self) -> bool {
        false
    }

    #[cfg(not(loom))]
    fn park(self) {
        std::thread::park();
    }
}

/// A wall-clock deadline. (Time-based, hence unavailable under loom — the
/// loom models walk the same generic code with [`Never`].)
#[cfg(not(loom))]
impl Deadline for std::time::Instant {
    #[inline]
    fn expired(self) -> bool {
        std::time::Instant::now() >= self
    }

    fn park(self) {
        let left = self.saturating_duration_since(std::time::Instant::now());
        if !left.is_zero() {
            std::thread::park_timeout(left);
        }
    }
}

/// A relative timeout whose clock starts when the wait does: the instant
/// it expires at is fixed by its first [`Deadline`] query, `after` past
/// that moment. An acquisition that never waits never queries it, and so
/// reads no clock; one that does wait still gives up no earlier than
/// `after` past the call. Passed as `&Timeout`, so the waits of one
/// acquisition (the inner lock's, then BRAVO's revocation scan) share one
/// clock.
///
/// An expiry instant past what [`std::time::Instant`] can hold (say,
/// `Duration::MAX`) never expires.
#[cfg(not(loom))]
#[doc(hidden)]
#[derive(Debug)]
pub struct Timeout {
    after: std::time::Duration,
    /// `None` until the first query; then the expiry instant, or `None`
    /// inside if it cannot be represented.
    at: std::cell::Cell<Option<Option<std::time::Instant>>>,
}

#[cfg(not(loom))]
impl Timeout {
    /// A timeout of `after`, not yet started.
    pub fn new(after: std::time::Duration) -> Self {
        Self {
            after,
            at: std::cell::Cell::new(None),
        }
    }

    /// The expiry instant, fixed by the first call.
    fn at(&self) -> Option<std::time::Instant> {
        if let Some(at) = self.at.get() {
            return at;
        }
        let at = std::time::Instant::now().checked_add(self.after);
        self.at.set(Some(at));
        at
    }
}

#[cfg(not(loom))]
impl Deadline for &Timeout {
    #[inline]
    fn expired(self) -> bool {
        self.at().is_some_and(Deadline::expired)
    }

    fn park(self) {
        match self.at() {
            Some(at) => at.park(),
            None => std::thread::park(),
        }
    }
}

/// Spins until `cond()` is true or `deadline` expires, backing off between
/// probes; returns whether the condition was observed. The workhorse behind
/// every `repeat until !spin` in the paper's pseudocode.
///
/// The first probe comes before anything else, so a wait that passes at
/// once costs one probe: no backoff state, no deadline query. `cond` is
/// re-checked once after the deadline expires, so a condition that flips
/// concurrently with the clock read is never misreported as a timeout.
#[inline]
pub fn spin_until_deadline<D: Deadline>(deadline: D, mut cond: impl FnMut() -> bool) -> bool {
    if cond() {
        return true;
    }
    let mut b = Backoff::new();
    loop {
        if deadline.expired() {
            return cond();
        }
        b.relax();
        if cond() {
            return true;
        }
    }
}

/// Spins until `cond()` is true: [`spin_until_deadline`] with no deadline.
#[inline]
pub fn spin_until(cond: impl FnMut() -> bool) {
    spin_until_deadline(Never, cond);
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn steps_saturate_at_yield_limit() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.backoff();
        }
        assert_eq!(b.step, YIELD_LIMIT);
        assert_eq!(b.spin_exponent(), SPIN_LIMIT);
        b.reset();
        assert_eq!(b.step, 0);
        assert!(!b.is_contended());
    }

    #[test]
    fn contended_after_spin_phase() {
        let mut b = Backoff::new();
        for _ in 0..=SPIN_LIMIT {
            assert!(!b.is_contended());
            b.backoff();
        }
        assert!(b.is_contended());
    }

    #[test]
    fn relax_never_exceeds_spin_phase_step() {
        let mut b = Backoff::new();
        for _ in 0..50 {
            b.relax();
        }
        assert_eq!(b.step, SPIN_LIMIT + 1);
    }

    /// The async contract: `poll_relax` spins a *bounded* number of times
    /// and then refuses — it must never reach the yield (or any blocking)
    /// escalation, so a `poll` built on it cannot block its executor
    /// thread. The budget is exactly `SPIN_LIMIT + 1` calls.
    #[test]
    fn poll_relax_is_bounded_and_never_yields() {
        let mut b = Backoff::new();
        let mut granted = 0;
        while b.poll_relax() {
            granted += 1;
            assert!(granted <= SPIN_LIMIT + 1, "spin budget must be finite");
        }
        assert_eq!(granted, SPIN_LIMIT + 1);
        // Exhausted: every further call refuses immediately without
        // touching the step counter (no hidden escalation state).
        let step_after = b.step;
        for _ in 0..100 {
            assert!(!b.poll_relax());
        }
        assert_eq!(b.step, step_after);
        // And the refusal point is exactly where the thread-based backoff
        // would have started yielding the OS thread.
        assert!(b.is_contended());
    }

    #[test]
    fn spin_until_observes_flag_from_other_thread() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            f2.store(true, Ordering::Release);
        });
        spin_until(|| flag.load(Ordering::Acquire));
        h.join().unwrap();
    }

    #[test]
    fn spin_until_deadline_times_out_and_observes_late_flag() {
        use std::time::{Duration, Instant};
        // Condition never flips: must report timeout, promptly.
        let start = Instant::now();
        let ok = spin_until_deadline(start + Duration::from_millis(5), || false);
        assert!(!ok);
        assert!(start.elapsed() >= Duration::from_millis(5));

        // Condition flips from another thread before the deadline.
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        let ok = spin_until_deadline(Instant::now() + Duration::from_secs(20), || {
            flag.load(Ordering::Acquire)
        });
        assert!(ok);
        h.join().unwrap();
    }

    /// A deadline that never expires and counts its queries.
    #[derive(Clone, Copy)]
    struct Counted<'a>(&'a std::cell::Cell<u32>);

    impl Deadline for Counted<'_> {
        fn expired(self) -> bool {
            self.0.set(self.0.get() + 1);
            false
        }

        fn park(self) {}
    }

    #[test]
    fn a_wait_that_passes_at_once_reads_no_clock() {
        let queries = std::cell::Cell::new(0);
        assert!(spin_until_deadline(Counted(&queries), || true));
        assert_eq!(queries.get(), 0);
        // A wait that has to back off asks its deadline before each probe
        // after the first.
        let mut probes = 0;
        assert!(spin_until_deadline(Counted(&queries), || {
            probes += 1;
            probes == 3
        }));
        assert_eq!(queries.get(), 2);
    }

    #[test]
    fn timeout_is_unstarted_until_its_first_query() {
        use std::time::Duration;
        let t = Timeout::new(Duration::from_secs(60));
        assert!(
            t.at.get().is_none(),
            "constructing a timeout reads no clock"
        );
        std::thread::sleep(Duration::from_millis(5));
        let before = std::time::Instant::now();
        assert!(!(&t).expired());
        let at = t.at.get().flatten().expect("started at its first query");
        // Fixed at the query, not at construction 5 ms earlier.
        assert!(at >= before + Duration::from_secs(60));
        assert!(!(&t).expired());
        assert_eq!(t.at.get().flatten(), Some(at), "later queries keep it");
    }

    #[test]
    fn zero_timeout_is_expired_at_its_first_query() {
        let t = Timeout::new(std::time::Duration::ZERO);
        assert!((&t).expired());
        assert!((&t).expired());
    }

    #[test]
    fn timeout_never_expires_before_after_past_its_first_query() {
        use std::time::{Duration, Instant};
        let after = Duration::from_millis(20);
        let t = Timeout::new(after);
        let first = Instant::now();
        assert!(!(&t).expired());
        while !(&t).expired() {
            std::hint::spin_loop();
        }
        assert!(first.elapsed() >= after);
    }

    #[test]
    fn timeout_park_returns_within_what_is_left() {
        use std::time::{Duration, Instant};
        // Nobody unparks this thread: a park that ignored the time left
        // would hang the test, not fail it.
        let after = Duration::from_millis(30);
        let t = Timeout::new(after);
        let start = Instant::now();
        (&t).park(); // the first query: starts the clock, then parks
        while !(&t).expired() {
            (&t).park();
        }
        let took = start.elapsed();
        assert!(took >= after, "gave up early: {took:?}");
        assert!(took < Duration::from_secs(10), "overslept: {took:?}");
        // Once expired, nothing is left to wait for.
        let expired_at = Instant::now();
        (&t).park();
        assert!(expired_at.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn max_timeout_never_expires() {
        let t = Timeout::new(std::time::Duration::MAX);
        for _ in 0..3 {
            assert!(!(&t).expired());
        }
        assert_eq!(t.at.get(), Some(None), "started, with no instant");
        // An unbounded park waits for an unpark; the token is already here.
        std::thread::current().unpark();
        (&t).park();
        assert!(!(&t).expired());
    }
}
