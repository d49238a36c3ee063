//! The repo's pinned benchmark: five workloads through
//! `oll::RwLock<T, L>` guards, per-layer costs timed from outside. See
//! `README.md` beside this package and `/BENCHMARK.json`.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod fingerprint;
pub mod layers;
pub mod metrics;
pub mod noop;
pub mod pin;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds from the process's first call of this function to `t`:
/// the one time base of every span.
pub fn epoch_ns(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}
