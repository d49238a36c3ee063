//! `std::sync::RwLock` behind the workspace lock interface — a sanity
//! baseline: whatever the platform's general-purpose lock does, the
//! harness can compare it on the same workloads.

use oll_core::raw::{RwHandle, RwLockFamily};
#[cfg(not(loom))]
use oll_util::backoff::Deadline;
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Adapter exposing `std::sync::RwLock<()>` as an [`RwLockFamily`].
pub struct StdRwLock {
    inner: RwLock<()>,
    slots: SlotRegistry,
}

impl StdRwLock {
    /// Creates an adapter with `capacity` thread slots (for parity with
    /// the other locks; std itself has no capacity limit).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(()),
            slots: SlotRegistry::new(capacity.max(1)),
        }
    }
}

impl RwLockFamily for StdRwLock {
    type Handle<'a> = StdRwHandle<'a>;

    fn handle(&self) -> Result<StdRwHandle<'_>, SlotError> {
        let slot = SlotGuard::claim(&self.slots)?;
        Ok(StdRwHandle {
            lock: self,
            _slot: slot,
            read_guard: None,
            write_guard: None,
        })
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn name(&self) -> &'static str {
        "std::sync::RwLock"
    }
}

/// Per-thread handle for [`StdRwLock`]; stores the live std guard between
/// lock and unlock.
pub struct StdRwHandle<'a> {
    lock: &'a StdRwLock,
    _slot: SlotGuard<'a>,
    read_guard: Option<RwLockReadGuard<'a, ()>>,
    write_guard: Option<RwLockWriteGuard<'a, ()>>,
}

impl RwHandle for StdRwHandle<'_> {
    /// std's native poison mark is absorbed (`into_inner`) rather than
    /// propagated: poisoning is the `Watched` wrapper's job, and the other
    /// families all stay acquirable after a panicking holder. Without
    /// this, one panicked writer would turn every later acquisition into
    /// a panic — and the try paths into permanent failures.
    fn lock_read(&mut self) {
        debug_assert!(self.read_guard.is_none() && self.write_guard.is_none());
        self.read_guard = Some(self.lock.inner.read().unwrap_or_else(|e| e.into_inner()));
    }

    fn unlock_read(&mut self) {
        drop(
            self.read_guard
                .take()
                .expect("unlock_read without read hold"),
        );
    }

    fn lock_write(&mut self) {
        debug_assert!(self.read_guard.is_none() && self.write_guard.is_none());
        self.write_guard = Some(self.lock.inner.write().unwrap_or_else(|e| e.into_inner()));
    }

    fn unlock_write(&mut self) {
        drop(
            self.write_guard
                .take()
                .expect("unlock_write without write hold"),
        );
    }

    fn try_lock_read(&mut self) -> bool {
        use std::sync::TryLockError;
        match self.lock.inner.try_read() {
            Ok(g) => {
                self.read_guard = Some(g);
                true
            }
            Err(TryLockError::Poisoned(e)) => {
                self.read_guard = Some(e.into_inner());
                true
            }
            Err(TryLockError::WouldBlock) => false,
        }
    }

    fn try_lock_write(&mut self) -> bool {
        use std::sync::TryLockError;
        match self.lock.inner.try_write() {
            Ok(g) => {
                self.write_guard = Some(g);
                true
            }
            Err(TryLockError::Poisoned(e)) => {
                self.write_guard = Some(e.into_inner());
                true
            }
            Err(TryLockError::WouldBlock) => false,
        }
    }
}

#[cfg(not(loom))]
impl oll_core::raw::TimedHandle for StdRwHandle<'_> {
    /// std has no native timed acquisition, so poll `try_read` under a
    /// deadline-bounded backoff. Unlike the queue locks this can starve
    /// under heavy contention, which is itself a useful baseline contrast.
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), oll_core::TimedOut> {
        use oll_util::backoff::spin_until_deadline;
        debug_assert!(self.read_guard.is_none() && self.write_guard.is_none());
        if spin_until_deadline(deadline, || self.try_lock_read()) {
            Ok(())
        } else {
            Err(oll_core::TimedOut)
        }
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), oll_core::TimedOut> {
        use oll_util::backoff::spin_until_deadline;
        debug_assert!(self.read_guard.is_none() && self.write_guard.is_none());
        if spin_until_deadline(deadline, || self.try_lock_write()) {
            Ok(())
        } else {
            Err(oll_core::TimedOut)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let lock = StdRwLock::new(2);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        h.lock_write();
        h.unlock_write();
    }

    #[test]
    fn try_paths() {
        let lock = StdRwLock::new(2);
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        assert!(a.try_lock_write());
        assert!(!b.try_lock_read());
        a.unlock_write();
        assert!(b.try_lock_read());
        assert!(!a.try_lock_write());
        b.unlock_read();
    }

    #[test]
    #[should_panic(expected = "unlock_read without read hold")]
    fn unbalanced_unlock_panics() {
        let lock = StdRwLock::new(1);
        let mut h = lock.handle().unwrap();
        h.unlock_read();
    }
}
