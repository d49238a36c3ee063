//! A test-and-test-and-set spin mutex with exponential backoff.
//!
//! Used as the mutex of the [`turnstile`](crate::turnstile) — the GOLL
//! "metalock" protecting the wait queue (§3.2), the turnstile mutex of the
//! Solaris-like baseline (§3.1). It is held only for O(1) queue
//! manipulation, so a TTAS lock with backoff is the appropriate weight; the
//! distributed-queue locks (FOLL/ROLL) exist precisely to avoid this kind of
//! central lock on their fast paths.

use crate::backoff::{Backoff, BackoffPolicy};
use crate::sync::{AtomicBool, Ordering, UnsafeCell};
use core::fmt;
use core::ops::{Deref, DerefMut};

/// A TTAS spin mutex guarding a value of type `T`.
pub struct SpinMutex<T> {
    locked: AtomicBool,
    policy: BackoffPolicy,
    data: UnsafeCell<T>,
}

// SAFETY: the mutex provides exclusive access to `data`; `T: Send` is enough
// because only one thread touches the data at a time.
unsafe impl<T: Send> Send for SpinMutex<T> {}
unsafe impl<T: Send> Sync for SpinMutex<T> {}

/// RAII guard for [`SpinMutex`]; releases the lock on drop.
pub struct SpinMutexGuard<'a, T> {
    mutex: &'a SpinMutex<T>,
}

impl<T> SpinMutex<T> {
    /// Creates an unlocked mutex.
    pub fn new(data: T) -> Self {
        Self::with_policy(data, BackoffPolicy::default())
    }

    /// Creates an unlocked mutex with a custom backoff policy.
    pub fn with_policy(data: T, policy: BackoffPolicy) -> Self {
        Self {
            locked: AtomicBool::new(false),
            policy,
            data: UnsafeCell::new(data),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T> SpinMutex<T> {
    /// Acquires the lock, spinning with backoff until available.
    pub fn lock(&self) -> SpinMutexGuard<'_, T> {
        let mut backoff = Backoff::with_policy(self.policy);
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            // Test (read-only) before the next test-and-set so waiters spin
            // in their own caches instead of bouncing the line with CASes.
            while self.locked.load(Ordering::Relaxed) {
                backoff.relax();
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<SpinMutexGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinMutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Returns whether the mutex is currently held (racy; for diagnostics).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

impl<T> Deref for SpinMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves we hold the lock, so no other thread has
        // any access to `data` until drop.
        self.mutex.data.with(|p| unsafe { &*p })
    }
}

impl<T> DerefMut for SpinMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, plus the guard is borrowed mutably.
        self.mutex.data.with_mut(|p| unsafe { &mut *p })
    }
}

impl<T> Drop for SpinMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.locked.store(false, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for SpinMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinMutex").field("data", &&*g).finish(),
            None => f.write_str("SpinMutex { <locked> }"),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let m = SpinMutex::new(1);
        {
            let mut g = m.lock();
            *g = 2;
        }
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = SpinMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        assert!(m.is_locked());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn counter_is_not_lost_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let m = Arc::new(SpinMutex::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), THREADS * ITERS);
    }

    #[test]
    fn debug_formats_both_states() {
        let m = SpinMutex::new(7);
        assert!(format!("{m:?}").contains('7'));
        let _g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::sync::Arc;

    #[test]
    fn loom_mutual_exclusion() {
        loom::model(|| {
            let m = Arc::new(SpinMutex::new(0usize));
            let m2 = Arc::clone(&m);
            let t = loom::thread::spawn(move || {
                *m2.lock() += 1;
            });
            *m.lock() += 1;
            t.join().unwrap();
            assert_eq!(*m.lock(), 2);
        });
    }
}
