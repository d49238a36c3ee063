//! The evaluation harness reproducing §5 of *Scalable Reader-Writer
//! Locks* (SPAA 2009).
//!
//! The paper's methodology (§5.1): every thread repeatedly acquires and
//! releases the lock in a tight loop with an empty critical section,
//! choosing read vs. write with a per-thread PRNG at a target read
//! percentage; throughput is total acquisitions over the time for all
//! threads to finish, averaged over three runs. [`runner`] implements
//! exactly that loop, [`sweep`] runs it over thread-count grids to
//! regenerate each panel of Figure 5, and [`report`] prints the series.
//! Each further thing is said once as well: [`LockKind::with_lock`] is
//! the only place a kind and its [`LockOptions`] become a concrete lock
//! type (the runners, the conformance suites and `lockstat` are
//! [`LockVisitor`]s), and [`check`] validates every document the
//! binaries write.
//!
//! The `fig5` binary drives it all:
//!
//! ```sh
//! cargo run -p oll-workloads --release --bin fig5 -- --panel a
//! cargo run -p oll-workloads --release --bin fig5 -- --panel all --csv fig5.csv
//! cargo run -p oll-workloads --release --bin fig5 -- --panel f --cohort --json f.json
//! ```
//!
//! What one option costs, at fixed duration and with a noise bound, is
//! the benchmark's to say (`benchmark/run.sh`: `bravo.*`, `cohort.*`,
//! `tuning.*`, `telemetry.idle_overhead_pct`, per-lock p50/p99).

#![warn(missing_docs)]

#[cfg(feature = "async")]
pub mod async_bench;
pub mod async_exec;
pub mod check;
pub mod config;
mod dispatch;
pub mod json;
pub mod obsio;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod traceio;

#[cfg(feature = "async")]
pub use async_bench::{run_async_bench, AsyncBenchConfig, AsyncBenchResult};
pub use config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
pub use dispatch::LockVisitor;
pub use runner::{
    run_throughput, run_throughput_profiled, run_throughput_profiled_with, ThroughputResult,
};
pub use sweep::{run_panel, PanelResult, Series, SweepOptions};

/// The one check behind `--trace` and `--obs`: the flight recorder and
/// the sampler have nothing to record without the telemetry hooks, so
/// in a build without them `flag` is a usage error.
/// The `Err` is the message for the caller's `error:` line.
pub fn require_telemetry(flag: &str) -> Result<(), String> {
    if oll::telemetry::Telemetry::enabled() {
        Ok(())
    } else {
        Err(format!(
            "{flag} needs the telemetry hooks: rebuild with `--features telemetry`"
        ))
    }
}
