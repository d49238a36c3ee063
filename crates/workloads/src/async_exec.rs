//! A minimal bounded-pool executor for the async harness.
//!
//! The point of the async lock family is that *waiters are tasks, not
//! threads*: a handful of OS threads can carry millions of concurrently
//! queued acquisitions. This executor exists to demonstrate exactly
//! that — `fig5_async` drives ≥1M lock-user tasks over
//! `oll::AsyncRwLock` on ≤8 workers — so it is deliberately
//! tiny: one shared injector queue, one `std::task::Wake` waker per
//! task, no work stealing, no timers (the lock's deadline futures bring
//! their own).
//!
//! Each task owns a five-state word (`IDLE` / `SCHEDULED` / `RUNNING` /
//! `NOTIFIED` / `DONE`) that arbitrates the wake-during-poll race: a
//! grant arriving while a worker is mid-poll CASes `RUNNING → NOTIFIED`,
//! and the worker re-enqueues after the poll returns `Pending`. A task
//! is never in the injector while `RUNNING`, so exactly one worker polls
//! it at a time and the future needs no synchronization of its own.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

/// Not queued, not running; a wake schedules it.
const IDLE: u8 = 0;
/// In the injector, waiting for a worker.
const SCHEDULED: u8 = 1;
/// A worker is polling it right now.
const RUNNING: u8 = 2;
/// Woken mid-poll; the polling worker re-enqueues on `Pending`.
const NOTIFIED: u8 = 3;
/// The future returned `Ready`; all further wakes are no-ops.
const DONE: u8 = 4;

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct Task {
    /// The future, parked here between polls. `None` only transiently
    /// (while a worker holds it on its stack) or after `DONE`.
    future: Mutex<Option<TaskFuture>>,
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl Task {
    /// Schedules the task in response to a wake, honoring the state
    /// machine above. Safe to call from any thread at any time.
    fn schedule(self: Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let shared = Arc::clone(&self.shared);
                        shared.push(self);
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already flagged, or finished.
                _ => return,
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Arc::clone(self).schedule();
    }
}

struct Injector {
    tasks: VecDeque<Arc<Task>>,
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    /// Workers sleep here when the injector is empty.
    work: Condvar,
    /// `wait_idle` sleeps here; signalled when `pending` hits zero.
    idle: Condvar,
    /// Spawned-but-not-finished task count. Guarded by `injector`'s
    /// mutex for the idle handshake (decrement-and-signal vs.
    /// check-and-wait), loaded relaxed elsewhere.
    pending: AtomicUsize,
}

impl Shared {
    fn push(&self, task: Arc<Task>) {
        let mut inj = self.injector.lock().unwrap();
        inj.tasks.push_back(task);
        drop(inj);
        self.work.notify_one();
    }

    /// One task returned `Ready`.
    fn complete_one(&self) {
        // Take the mutex so the decrement cannot slip between
        // `wait_idle`'s check and its wait.
        let inj = self.injector.lock().unwrap();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(inj);
            self.idle.notify_all();
        }
    }
}

/// A fixed pool of worker threads polling spawned futures to
/// completion. Dropping the executor shuts the pool down (after the
/// injector drains of *scheduled* tasks; call [`Executor::wait_idle`]
/// first if every spawned task must finish).
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts a pool of `workers` OS threads (at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            pending: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("oll-async-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the pool.
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            state: AtomicU8::new(SCHEDULED),
            shared: Arc::clone(&self.shared),
        });
        self.shared.push(task);
    }

    /// Blocks until every spawned task has completed.
    pub fn wait_idle(&self) {
        let mut inj = self.shared.injector.lock().unwrap();
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            inj = self.shared.idle.wait(inj).unwrap();
        }
    }

    /// Spawned-but-unfinished task count (racy; exact only at idle).
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut inj = self.shared.injector.lock().unwrap();
            inj.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut inj = shared.injector.lock().unwrap();
            loop {
                if let Some(t) = inj.tasks.pop_front() {
                    break t;
                }
                if inj.shutdown {
                    return;
                }
                inj = shared.work.wait(inj).unwrap();
            }
        };

        task.state.store(RUNNING, Ordering::Release);
        let Some(mut future) = task.future.lock().unwrap().take() else {
            // Defensive: a task is only queued with its future parked.
            continue;
        };
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                task.state.store(DONE, Ordering::Release);
                drop(future);
                shared.complete_one();
            }
            Poll::Pending => {
                // Park the future *before* leaving RUNNING: the task is
                // not in the injector, so no other worker can race for
                // the slot.
                *task.future.lock().unwrap() = Some(future);
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // Woken mid-poll (NOTIFIED): run it again.
                    task.state.store(SCHEDULED, Ordering::Release);
                    shared.push(Arc::clone(&task));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Returns `Pending` once (waking itself), then `Ready`.
    struct YieldOnce(bool);

    impl Future for YieldOnce {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                Poll::Ready(())
            } else {
                self.0 = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn runs_many_tasks_to_completion() {
        let exec = Executor::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..10_000 {
            let hits = Arc::clone(&hits);
            exec.spawn(async move {
                YieldOnce(false).await;
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        exec.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
        assert_eq!(exec.pending(), 0);
    }

    #[test]
    fn cross_thread_wake_reschedules() {
        // A future that parks until an external thread flips its flag
        // and wakes it — exercises IDLE → SCHEDULED from outside the
        // pool.
        struct WaitForFlag {
            flag: Arc<AtomicU8>,
            waker: Arc<Mutex<Option<Waker>>>,
        }
        impl Future for WaitForFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.flag.load(Ordering::Acquire) == 1 {
                    return Poll::Ready(());
                }
                *self.waker.lock().unwrap() = Some(cx.waker().clone());
                // Re-check after registering (the standard lost-wakeup
                // closure).
                if self.flag.load(Ordering::Acquire) == 1 {
                    return Poll::Ready(());
                }
                Poll::Pending
            }
        }

        let exec = Executor::new(2);
        let flag = Arc::new(AtomicU8::new(0));
        let waker: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let done = Arc::new(AtomicU64::new(0));
        {
            let (flag, waker, done) = (Arc::clone(&flag), Arc::clone(&waker), Arc::clone(&done));
            exec.spawn(async move {
                WaitForFlag { flag, waker }.await;
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait for the task to park, then wake it from this thread.
        loop {
            if waker.lock().unwrap().is_some() {
                break;
            }
            std::thread::yield_now();
        }
        flag.store(1, Ordering::Release);
        waker.lock().unwrap().take().unwrap().wake();
        exec.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let exec = Executor::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            exec.spawn(async move {
                YieldOnce(false).await;
                YieldOnce(false).await;
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        exec.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}
