//! A data-carrying wrapper: `RwLock<T, L>` pairs any lock in this
//! workspace with a protected value, giving the familiar guard-deref API
//! on top of the paper's register-then-acquire model.

use crate::raw::{ReadGuard, RwHandle, RwLockFamily, WriteGuard};
use core::cell::UnsafeCell;
use core::fmt;
use core::ops::{Deref, DerefMut};
use oll_util::slots::SlotError;

/// A reader-writer lock protecting a value of type `T`, generic over the
/// lock algorithm `L` (GOLL, FOLL, ROLL, or any baseline).
///
/// ```
/// use oll_core::{FollLock, RwLock};
///
/// let lock = RwLock::new(FollLock::new(8), vec![1, 2, 3]);
/// let mut me = lock.owner().unwrap(); // registers this thread
/// assert_eq!(me.read().len(), 3);
/// me.write().push(4);
/// assert_eq!(me.read().len(), 4);
/// ```
pub struct RwLock<T, L: RwLockFamily> {
    lock: L,
    data: UnsafeCell<T>,
}

// SAFETY: the lock algorithm serializes writers against everything and
// readers against writers, so sharing `RwLock` requires the same bounds as
// `std::sync::RwLock`.
unsafe impl<T: Send, L: RwLockFamily> Send for RwLock<T, L> {}
unsafe impl<T: Send + Sync, L: RwLockFamily> Sync for RwLock<T, L> {}

impl<T, L: RwLockFamily> RwLock<T, L> {
    /// Wraps `value` behind `lock`.
    pub fn new(lock: L, value: T) -> Self {
        Self {
            lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Registers the calling thread, returning its owner view. Holds one
    /// of the lock's `capacity` thread slots until dropped.
    pub fn owner(&self) -> Result<RwLockOwner<'_, T, L>, SlotError> {
        Ok(RwLockOwner {
            handle: self.lock.handle()?,
            data: &self.data,
        })
    }

    /// The underlying lock (for diagnostics).
    pub fn raw(&self) -> &L {
        &self.lock
    }

    /// Consumes the wrapper, returning the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (the `&mut` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: fmt::Debug, L: RwLockFamily> fmt::Debug for RwLock<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("algorithm", &self.lock.name())
            .finish_non_exhaustive()
    }
}

/// A registered thread's view of an [`RwLock`]: wraps the per-thread lock
/// handle and hands out data guards.
pub struct RwLockOwner<'l, T, L: RwLockFamily + 'l> {
    handle: L::Handle<'l>,
    data: &'l UnsafeCell<T>,
}

impl<'l, T, L: RwLockFamily> RwLockOwner<'l, T, L> {
    /// Acquires for reading and returns a guard dereferencing to `&T`.
    pub fn read(&mut self) -> RwLockReadGuard<'_, T, L::Handle<'l>> {
        let data = self.data.get();
        let inner = self.handle.read();
        // SAFETY: the lock is read-held for the guard's lifetime, so no
        // writer can alias; concurrent readers only take `&T`.
        RwLockReadGuard {
            data: unsafe { &*data },
            _inner: inner,
        }
    }

    /// Acquires for writing and returns a guard dereferencing to `&mut T`.
    pub fn write(&mut self) -> RwLockWriteGuard<'_, T, L::Handle<'l>> {
        let data = self.data.get();
        let inner = self.handle.write();
        // SAFETY: the lock is write-held (exclusive) for the guard's
        // lifetime.
        RwLockWriteGuard {
            data: unsafe { &mut *data },
            _inner: inner,
        }
    }

    /// Attempts a read acquisition without waiting.
    pub fn try_read(&mut self) -> Option<RwLockReadGuard<'_, T, L::Handle<'l>>> {
        let data = self.data.get();
        let inner = self.handle.try_read()?;
        // SAFETY: as in `read`.
        Some(RwLockReadGuard {
            data: unsafe { &*data },
            _inner: inner,
        })
    }

    /// Attempts a write acquisition without waiting.
    pub fn try_write(&mut self) -> Option<RwLockWriteGuard<'_, T, L::Handle<'l>>> {
        let data = self.data.get();
        let inner = self.handle.try_write()?;
        // SAFETY: as in `write`.
        Some(RwLockWriteGuard {
            data: unsafe { &mut *data },
            _inner: inner,
        })
    }

    /// Direct access to the underlying lock handle (e.g. for
    /// upgrade/downgrade on GOLL).
    pub fn handle(&mut self) -> &mut L::Handle<'l> {
        &mut self.handle
    }
}

#[cfg(not(loom))]
impl<'l, T, L: RwLockFamily> RwLockOwner<'l, T, L>
where
    L::Handle<'l>: crate::raw::TimedHandle,
{
    /// Acquires for reading, giving up after `timeout` — counted from the
    /// first moment it has to wait, so a read that never waits reads no
    /// clock. On `Err(TimedOut)` the acquisition left no trace and the
    /// owner may retry immediately.
    pub fn read_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<RwLockReadGuard<'_, T, L::Handle<'l>>, crate::raw::TimedOut> {
        use crate::raw::TimedHandle as _;
        let data = self.data.get();
        let inner = self.handle.read_timeout(timeout)?;
        // SAFETY: as in `read`.
        Ok(RwLockReadGuard {
            data: unsafe { &*data },
            _inner: inner,
        })
    }

    /// Acquires for writing, giving up after `timeout` (counted as in
    /// [`read_timeout`](Self::read_timeout)).
    pub fn write_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<RwLockWriteGuard<'_, T, L::Handle<'l>>, crate::raw::TimedOut> {
        use crate::raw::TimedHandle as _;
        let data = self.data.get();
        let inner = self.handle.write_timeout(timeout)?;
        // SAFETY: as in `write`.
        Ok(RwLockWriteGuard {
            data: unsafe { &mut *data },
            _inner: inner,
        })
    }

    /// Acquires for reading, giving up at `deadline`.
    pub fn read_deadline(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<RwLockReadGuard<'_, T, L::Handle<'l>>, crate::raw::TimedOut> {
        use crate::raw::TimedHandle as _;
        let data = self.data.get();
        let inner = self.handle.read_deadline(deadline)?;
        // SAFETY: as in `read`.
        Ok(RwLockReadGuard {
            data: unsafe { &*data },
            _inner: inner,
        })
    }

    /// Acquires for writing, giving up at `deadline`.
    pub fn write_deadline(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<RwLockWriteGuard<'_, T, L::Handle<'l>>, crate::raw::TimedOut> {
        use crate::raw::TimedHandle as _;
        let data = self.data.get();
        let inner = self.handle.write_deadline(deadline)?;
        // SAFETY: as in `write`.
        Ok(RwLockWriteGuard {
            data: unsafe { &mut *data },
            _inner: inner,
        })
    }
}

/// Guard dereferencing to the protected data for reading.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct RwLockReadGuard<'g, T, H: RwHandle> {
    data: &'g T,
    _inner: ReadGuard<'g, H>,
}

impl<T, H: RwHandle> Deref for RwLockReadGuard<'_, T, H> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

/// Guard dereferencing to the protected data for writing.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct RwLockWriteGuard<'g, T, H: RwHandle> {
    data: &'g mut T,
    _inner: WriteGuard<'g, H>,
}

impl<T, H: RwHandle> Deref for RwLockWriteGuard<'_, T, H> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T, H: RwHandle> DerefMut for RwLockWriteGuard<'_, T, H> {
    fn deref_mut(&mut self) -> &mut T {
        self.data
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::foll::FollLock;
    use crate::goll::GollLock;
    use crate::roll::RollLock;
    use std::sync::Arc;

    #[test]
    fn read_write_round_trip_all_algorithms() {
        fn check<L: RwLockFamily>(lock: L) {
            let rw = RwLock::new(lock, 0u64);
            {
                let mut me = rw.owner().unwrap();
                *me.write() += 5;
                assert_eq!(*me.read(), 5);
            }
            assert_eq!(rw.into_inner(), 5);
        }
        check(GollLock::new(2));
        check(FollLock::new(2));
        check(RollLock::new(2));
    }

    #[test]
    fn try_guards() {
        let rw = RwLock::new(FollLock::new(2), 1u32);
        let mut a = rw.owner().unwrap();
        let mut b = rw.owner().unwrap();
        let g = a.try_write().unwrap();
        assert!(b.try_read().is_none());
        drop(g);
        assert!(b.try_read().is_some());
    }

    #[test]
    fn get_mut_and_debug() {
        let mut rw = RwLock::new(GollLock::new(1), 7u8);
        *rw.get_mut() = 9;
        let mut me = rw.owner().unwrap();
        assert_eq!(*me.read(), 9);
        drop(me);
        assert!(format!("{rw:?}").contains("GOLL"));
    }

    #[test]
    fn concurrent_sum_is_exact() {
        const THREADS: usize = 4;
        const PER: usize = 1_000;
        let rw = Arc::new(RwLock::new(RollLock::new(THREADS), 0usize));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let rw = Arc::clone(&rw);
            handles.push(std::thread::spawn(move || {
                let mut me = rw.owner().unwrap();
                for _ in 0..PER {
                    *me.write() += 1;
                    let _v = *me.read();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut me = rw.owner().unwrap();
        assert_eq!(*me.read(), THREADS * PER);
    }
}
