//! **oll** — scalable reader-writer locks.
//!
//! A from-scratch Rust implementation of *Scalable Reader-Writer Locks*
//! (Lev, Luchangco & Olszewski, SPAA 2009): the C-SNZI data structure,
//! the three OLL lock algorithms it powers, and the baseline locks the
//! paper compares against. The evaluation harness that regenerates the
//! paper's Figure 5 (`oll-workloads`) and the observability tooling
//! (`oll-obs`) are crates of their own that depend on this one; a lock
//! user links neither.
//!
//! # Which lock should I use?
//!
//! * Read-mostly data, busy-wait acceptable, FIFO fairness wanted →
//!   [`FollLock`].
//! * Read-mostly data, maximize reader throughput, writers may wait
//!   longer → [`RollLock`].
//! * Need blocking waiters, readers and writers taking turns, or write
//!   upgrade/downgrade → [`GollLock`].
//!
//! # Quickstart
//!
//! ```
//! use oll::{RollLock, RwLock};
//!
//! // A lock sized for up to 8 concurrently registered threads.
//! let table = RwLock::new(RollLock::new(8), std::collections::HashMap::new());
//!
//! std::thread::scope(|s| {
//!     for worker in 0..4 {
//!         let table = &table;
//!         s.spawn(move || {
//!             let mut me = table.owner().unwrap(); // register this thread
//!             me.write().insert(worker, worker * 10);
//!             let _sum: i32 = me.read().values().sum(); // shared with other readers
//!         });
//!     }
//! });
//!
//! let mut me = table.owner().unwrap();
//! assert_eq!(me.read().len(), 4);
//! ```
//!
//! # Crate map
//!
//! The root names what a lock user touches: the three OLL locks and
//! their builders, the [`RwLock`] guard API and the handle traits, the
//! wrappers ([`Bravo`], [`SelfTuning`], [`Watched`]) with their error
//! types, and with the `async` feature the futures-native family.
//! Everything else is reachable under its crate's path:
//!
//! * [`csnzi`] — SNZI / closable-SNZI (the paper's §2): `CSnzi`, the
//!   arrival policy and tree shape a builder takes.
//! * [`core`] — GOLL, FOLL, ROLL (§3–4), the guard API, the `Bravo` and
//!   `SelfTuning` wrappers and their per-thread handles and configs.
//! * [`baselines`] — KSUH, Solaris-like, centralized, std (§1, §5).
//!   [`CentralizedRwLock`] and [`StdRwLock`] are also at the root; the
//!   crate stays a dependency of this one (and so does its `telemetry`
//!   hook in the root's list of instrumented crates) as long as the
//!   benchmark imports the comparators through `oll`.
//! * `async_lock` — the futures-native `AsyncRwLock` family: task-waker
//!   hand-off over the same C-SNZI cores, cancel-on-drop, deadlines
//!   (build with the `async` feature; absent otherwise).
//! * [`telemetry`] — per-lock contention profiling (build with the
//!   `telemetry` feature to record; zero-cost no-ops otherwise). That
//!   feature is the one observability switch: [`trace`] needs it too.
//!   Rendering a profile as text or JSON is `oll-obs`'s job.
//! * [`hazard`] — the [`Watched`] wrapper: panic-safe poisoning, online
//!   deadlock detection, and a starvation watchdog over any lock (an
//!   unwrapped lock carries none of it).
//! * [`trace`] — the flight recorder, `oll_telemetry::trace`: records
//!   while a `TraceSession` is open. The analyzer and Perfetto export
//!   that read a recording, and the live sampler, are in `oll-obs`.
//! * [`util`] — backoff, cache padding, events, spin mutex, thread
//!   slots, and the `TuningKnobs` block every runtime knob lives in.
//!
//! `public-api.txt` at the repository root lists every public item of
//! this crate and the crates it links; `scripts/public_api.sh`
//! regenerates it.

#[cfg(feature = "async")]
pub use oll_async as async_lock;
pub use oll_baselines as baselines;
pub use oll_core as core;
pub use oll_csnzi as csnzi;
pub use oll_hazard as hazard;
pub use oll_telemetry as telemetry;
pub use oll_telemetry::trace;
pub use oll_util as util;

/// The path `benchmark/` reads its JSON through; [`util::json`] is the
/// module itself.
#[doc(hidden)]
pub mod workloads {
    /// See [`crate::util::json`].
    pub mod json {
        pub use oll_util::json as parse;
    }
}

pub use oll_baselines::{CentralizedRwLock, StdRwLock};
#[cfg(not(loom))]
pub use oll_core::{Bravo, SelfTuning, TimedHandle};
pub use oll_core::{
    FollBuilder, FollLock, GollBuilder, GollLock, RollBuilder, RollLock, RwHandle, RwLock,
    RwLockFamily, TimedOut, UpgradableHandle,
};
#[cfg(not(loom))]
pub use oll_hazard::{AcquireError, PoisonError, Watched};

#[cfg(feature = "async")]
pub use oll_async::{
    block_on, AsyncReadGuard, AsyncRwLock, AsyncRwLockBuilder, AsyncWriteGuard, ReadFuture,
    TimedReadFuture, TimedWriteFuture, WriteFuture,
};

/// Whether this build carries the futures-native lock family (and with
/// it the task-waker machinery — `oll-async` is the only crate that
/// contains any). `tests/async_off.rs` pins this to `false` for the
/// default feature set: the waker slot lives inside `oll-async` itself,
/// so a build without the `async` feature does not merely disable the
/// machinery, it never links the crate that defines it.
pub const HAS_ASYNC_LOCKS: bool = cfg!(feature = "async");
