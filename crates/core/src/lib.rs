//! The OLL scalable reader-writer locks (*Scalable Reader-Writer Locks*,
//! Lev, Luchangco & Olszewski, SPAA 2009).
//!
//! Three lock algorithms that eliminate updates to central shared data on
//! the reader path by tracking readers with a [closable scalable nonzero
//! indicator](oll_csnzi::CSnzi) instead of a counter:
//!
//! * [`GollLock`] — the **G**eneral OLL lock (§3): Solaris-kernel-style,
//!   with a mutex-protected wait queue on which readers and writers hand
//!   the lock to each other in turn (§5.1), and write
//!   [upgrade/downgrade](UpgradableHandle) support.
//! * [`FollLock`] — the **F**IFO OLL lock (§4.2): an MCS-queue lock where
//!   successive readers share one queue node through its C-SNZI.
//! * [`RollLock`] — the **R**eader-preference OLL lock (§4.3): FOLL with a
//!   doubly-linked queue that lets readers overtake waiting writers to
//!   join a waiting reader group.
//!
//! FOLL and ROLL are one type, [`foll::QueueLock`], under two ordering
//! policies ([`foll::Fifo`], [`roll::ReaderPreference`]); the names above
//! are its aliases.
//!
//! All locks (including the baselines in `oll-baselines`) implement
//! [`RwLockFamily`]: register a per-thread handle, then acquire through it.
//! [`RwLock`] wraps a value for guard-deref ergonomics. [`Bravo`] layers
//! BRAVO-style reader biasing over any of them, giving read-mostly
//! workloads a fast path with zero shared-memory RMWs per acquisition.
//!
//! ```
//! use oll_core::{RollLock, RwHandle, RwLockFamily};
//!
//! let lock = RollLock::new(4); // up to 4 concurrent threads
//! let mut me = lock.handle().unwrap();
//! {
//!     let _shared = me.read();
//!     // ... read the protected state ...
//! }
//! {
//!     let _exclusive = me.write();
//!     // ... mutate the protected state ...
//! }
//! ```

#![warn(missing_docs)]

#[cfg(not(loom))]
pub mod bravo;
pub mod cohort;
pub mod foll;
pub mod goll;
pub mod raw;
pub mod roll;
pub mod rwlock;
#[cfg(not(loom))]
pub mod tuning;
pub mod turnstile_lock;

#[cfg(not(loom))]
pub use bravo::{Bravo, BravoHandle, DEFAULT_REARM_MULTIPLIER};
pub use cohort::DEFAULT_COHORT_BATCH;
pub use foll::{node_state, FollBuilder, FollLock};
pub use goll::{GollBuilder, GollLock};
#[cfg(not(loom))]
pub use raw::TimedHandle;
pub use raw::{ReadGuard, RwHandle, RwLockFamily, TimedOut, UpgradableHandle, WriteGuard};
pub use roll::{RollBuilder, RollLock};
pub use rwlock::{RwLock, RwLockOwner, RwLockReadGuard, RwLockWriteGuard};
#[cfg(not(loom))]
pub use tuning::{Regime, SelfTuning, TunedHandle, TuningConfig};
