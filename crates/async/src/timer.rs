//! A lazy process-global deadline timer for the `*_deadline` futures.
//!
//! The blocking locks sleep *in* the waiter (`Event::wait_until` parks with a
//! timeout); a future cannot sleep, so expiry needs an external agent.
//! One daemon thread (spawned on first use, never for deadline-free
//! workloads) owns a min-heap of `(Instant, Waker)` entries and wakes
//! each task at its tick. Entries are one-shot and fire-and-forget: a
//! completed or cancelled future simply leaves a stale entry behind,
//! whose wake is spurious (permitted by the `Waker` contract) — the
//! timer never needs to hear about cancellation.
//!
//! The waker here is the *task* waker, cloned at `poll` time, and is
//! deliberately **not** routed through the waiter's one-shot
//! [`WakerSlot`](crate::waker::WakerSlot): the slot's `WOKEN` state is
//! terminal and reserved for the grant, so a deadline tick that consumed
//! it would break every later registration. See DESIGN.md §13.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, OnceLock};
use std::task::Waker;
use std::time::Instant;

struct Entry {
    at: Instant,
    /// Tie-break so `Ord` is total without comparing wakers.
    seq: u64,
    waker: Waker,
}

// BinaryHeap is a max-heap; reverse the comparison so the earliest
// deadline surfaces first.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

struct State {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

static TIMER: OnceLock<&'static Shared> = OnceLock::new();

/// Schedules `waker` to be woken at (or shortly after) `at`.
pub(crate) fn schedule(at: Instant, waker: Waker) {
    let shared = TIMER.get_or_init(|| {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            cv: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("oll-async-timer".into())
            .spawn(move || run(shared))
            .expect("spawn the oll-async timer thread");
        shared
    });
    let mut st = shared.state.lock().unwrap();
    st.seq += 1;
    let seq = st.seq;
    st.heap.push(Entry { at, seq, waker });
    drop(st);
    shared.cv.notify_one();
}

fn run(shared: &'static Shared) {
    let mut st = shared.state.lock().unwrap();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        while st.heap.peek().is_some_and(|e| e.at <= now) {
            due.push(st.heap.pop().expect("peeked entry"));
        }
        if !due.is_empty() {
            // Wake outside the heap mutex: a wake may immediately poll
            // the task on another thread, and that poll may re-schedule.
            drop(st);
            for e in due {
                e.waker.wake();
            }
            st = shared.state.lock().unwrap();
            continue;
        }
        st = match st.heap.peek() {
            Some(e) => {
                let dur = e.at.duration_since(now);
                shared.cv.wait_timeout(st, dur).unwrap().0
            }
            None => shared.cv.wait(st).unwrap(),
        };
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;
    use std::time::Duration;

    struct Flag(AtomicUsize);
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn fires_in_deadline_order() {
        let early = Arc::new(Flag(AtomicUsize::new(0)));
        let late = Arc::new(Flag(AtomicUsize::new(0)));
        let now = Instant::now();
        schedule(
            now + Duration::from_millis(200),
            Waker::from(Arc::clone(&late)),
        );
        schedule(
            now + Duration::from_millis(20),
            Waker::from(Arc::clone(&early)),
        );
        let deadline = now + Duration::from_secs(5);
        while early.0.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(early.0.load(Ordering::SeqCst), 1);
        assert_eq!(late.0.load(Ordering::SeqCst), 0, "late entry fired early");
        while late.0.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(late.0.load(Ordering::SeqCst), 1);
    }
}
