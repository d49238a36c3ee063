//! Low-level synchronization substrate for the OLL reader-writer locks.
//!
//! This crate provides the building blocks shared by the lock
//! implementations in `oll-core` and `oll-baselines`:
//!
//! * [`CachePadded`] — false-sharing avoidance for per-thread and per-node
//!   state (every contended atomic in this workspace lives on its own cache
//!   line).
//! * [`Backoff`] — tunable exponential backoff that escalates from
//!   `spin_loop` hints to `yield_now`, keeping busy-wait algorithms live on
//!   oversubscribed machines.
//! * [`Event`] — the one-shot waiter object, with configurable
//!   [`WaitStrategy`] (spin-then-yield like the paper's spin-based condition
//!   variables, or spin-then-park for production use).
//! * [`SpinMutex`] — a TTAS spin mutex with backoff: the turnstile's mutex
//!   (the GOLL "metalock").
//! * [`SlotRegistry`] — per-lock thread slot assignment (the paper's
//!   per-thread `Local` records, default queue nodes and the turnstile's
//!   writer cells are indexed by slot).
//! * [`turnstile`] — the one mutex-protected wait queue of the blocking
//!   locks (GOLL and the Solaris-like baseline): lock-owned wait cells, a
//!   FIFO of writers plus one waiting readers group, the §5.1 alternating
//!   hand-off, timeout excision and the grant, built from the three items
//!   above.
//! * [`VisibleReaders`] — the process-global visible-readers table behind
//!   BRAVO-style reader biasing (`oll_core::Bravo`).
//! * [`XorShift64`] — the per-thread PRNG the evaluation harness uses to
//!   choose read vs. write acquisitions (§5.1 of the paper).
//! * [`json`] — the one JSON writer ([`json::Value::render`]) and reader
//!   ([`json::parse`]) behind every document the workspace emits.
//!
//! The [`sync`] module re-exports either `std` or `loom` primitives so the
//! algorithm crates can be model-checked with `RUSTFLAGS="--cfg loom"`.

#![warn(missing_docs)]

pub mod backoff;
pub mod cache_padded;
pub mod event;
pub mod fault;
pub mod json;
pub mod rng;
pub mod slots;
pub mod spin_mutex;
pub mod sync;
pub mod topology;
pub mod turnstile;

pub use backoff::Backoff;
pub use cache_padded::CachePadded;
pub use event::{Event, WaitStrategy};
pub use rng::XorShift64;
pub use slots::{SlotError, SlotGuard, SlotRegistry, VisibleReaders};
pub use spin_mutex::{SpinMutex, SpinMutexGuard};
