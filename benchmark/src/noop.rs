//! A lock that does nothing, for `harness.loop_ns`: what the benchmark's
//! own loop (op draw, guard construction, invariant check, counters,
//! timestamps) costs per op. It excludes nobody, so it is only ever
//! driven by one thread.

use oll::util::slots::SlotError;
use oll::{RwHandle, RwLockFamily};

pub struct NoopLock;
pub struct NoopHandle;

impl RwLockFamily for NoopLock {
    type Handle<'a> = NoopHandle;

    fn handle(&self) -> Result<NoopHandle, SlotError> {
        Ok(NoopHandle)
    }

    fn capacity(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "noop"
    }
}

impl RwHandle for NoopHandle {
    #[inline(always)]
    fn lock_read(&mut self) {}
    #[inline(always)]
    fn unlock_read(&mut self) {}
    #[inline(always)]
    fn lock_write(&mut self) {}
    #[inline(always)]
    fn unlock_write(&mut self) {}

    fn try_lock_read(&mut self) -> bool {
        true
    }

    fn try_lock_write(&mut self) -> bool {
        true
    }
}
