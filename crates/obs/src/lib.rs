//! Observability tooling for the OLL lock family: a background sampler
//! daemon over the telemetry registry, a fixed-capacity time-series
//! ring, Prometheus text exposition, per-lock health scoring, the
//! flight-recorder analyzer and its Perfetto exporter, and a
//! folded-stack flamegraph exporter over trace records.
//!
//! `oll-telemetry` records: its counters answer *what happened by the
//! end of the run*, its flight recorder (`oll_telemetry::trace`)
//! *exactly when, once drained*. This crate reads what it records, and
//! no lock links it. [`analyze()`] turns a drained `Timeline` into
//! per-acquisition wait breakdowns, stitched hand-off edges, grant
//! cascades, wait-for chains and convoy/starvation anomalies;
//! [`render_chrome_trace`] writes Chrome Trace Event JSON that loads in
//! Perfetto. For the live view, a [`Sampler`] periodically sweeps
//! `oll_telemetry::registry`, diffs consecutive sweeps into per-lock
//! delta windows (acquisitions, hand-offs, timeouts, bias revocations,
//! C-SNZI tree allocations, plus p50/p99/p999 acquire and hold estimates
//! from the log2 histograms), and retains them in a [`SeriesRing`]
//! whose evictions fold into exact run totals. [`Sampler::serve`]
//! exposes it all over a dependency-free HTTP listener (`/metrics` for
//! Prometheus, `/json` for the `oll.obs` v1 document, `/health` for
//! probes); [`health::score_all`] collapses each lock's behaviour into
//! a [`LockHealth`] level; [`flame::render_folded`] renders trace
//! analyzer breakdowns for standard flamegraph tooling.
//!
//! # Started, or inert
//!
//! Everything here compiles in every build. The switch is
//! [`Sampler::start`]: nothing samples, spawns or listens until it is
//! called. Without the workspace's `telemetry` feature
//! (`oll_telemetry::Telemetry::enabled()` is `false`) there is nothing
//! to sample, so `start` returns an inert sampler — because that test is
//! a constant, the daemon and the listener are dead code in that build
//! — and [`Sampler::serve`] on it returns `ErrorKind::Unsupported`
//! (pinned by `tests/obs_off.rs`).
//!
//! # Quickstart
//!
//! ```no_run
//! use oll_obs::{Sampler, SamplerConfig};
//!
//! let sampler = Sampler::start(SamplerConfig::default()); // 100 ms ticks
//! let server = sampler.serve("127.0.0.1:9184");           // GET /metrics
//! // ... run the workload ...
//! drop(server);
//! let state = sampler.stop(); // final tick folded in; exact totals
//! let health = oll_obs::health::score_all(&state, &Default::default());
//! println!("{}", oll_obs::report::render_obs_text(&state, &health));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod flame;
pub mod health;
pub mod prom;
pub mod report;
pub mod series;

mod http;
mod sampler;

pub use analyze::{analyze, render_report_text, AnalyzerConfig, TraceReport};
pub use export::render_chrome_trace;
pub use health::{HealthConfig, LockHealth, LockHealthReport};
pub use series::{ObsState, SampleWindow, SeriesRing};

use oll_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

/// Sampler tuning.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Time between sampling ticks (floor 1 ms).
    pub interval: Duration,
    /// Maximum retained [`SampleWindow`]s; older windows fold into the
    /// exact run totals (floor 1).
    pub ring_capacity: usize,
}

impl Default for SamplerConfig {
    /// 100 ms ticks, 600 retained windows (one minute at the default
    /// interval).
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            ring_capacity: 600,
        }
    }
}

/// The sampling daemon's handle; inert when the build has no telemetry
/// to sample.
#[derive(Debug, Default)]
pub struct Sampler {
    shared: Option<Arc<sampler::Shared>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts the daemon: a baseline registry sweep now, then one tick
    /// per `config.interval` until [`Sampler::stop`] (or drop). Inert
    /// unless `Telemetry::enabled()`.
    pub fn start(config: SamplerConfig) -> Self {
        if !Telemetry::enabled() {
            return Self::default();
        }
        let shared = Arc::new(sampler::Shared::new(config.interval, config.ring_capacity));
        let daemon = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("oll-obs-sampler".into())
            .spawn(move || daemon.run())
            .ok();
        Self {
            shared: Some(shared),
            thread,
        }
    }

    /// The daemon's state, `None` when inert. Always `None` without
    /// telemetry, and the compiler sees that, so that build drops the
    /// sampling and serving code.
    fn shared(&self) -> Option<&Arc<sampler::Shared>> {
        self.shared.as_ref().filter(|_| Telemetry::enabled())
    }

    /// Whether a daemon is running behind this handle.
    pub fn is_active(&self) -> bool {
        self.shared().is_some()
    }

    /// Takes one sample immediately (serialized with the daemon's
    /// ticks). No-op when inert.
    pub fn sample_now(&self) {
        if let Some(s) = self.shared() {
            s.tick();
        }
    }

    /// Copies the accumulated state out without stopping the daemon.
    /// Empty when inert.
    pub fn state(&self) -> ObsState {
        self.shared()
            .map_or_else(ObsState::default, |s| s.state_copy())
    }

    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// serves `/metrics`, `/json`, and `/health` from this sampler's
    /// state until the returned [`ObsServer`] is shut down or dropped.
    /// Fails with [`std::io::ErrorKind::Unsupported`] on an inert
    /// sampler.
    pub fn serve(&self, addr: &str) -> std::io::Result<ObsServer> {
        let shared = self.shared().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the sampler is inert: built without the `telemetry` feature",
            )
        })?;
        let server = http::serve(addr, Arc::clone(shared))?;
        Ok(ObsServer {
            inner: Some(server),
        })
    }

    /// Stops the daemon, folds in one final sample (so nothing recorded
    /// after the last timer tick is lost), and returns the state.
    pub fn stop(mut self) -> ObsState {
        match self.halt() {
            Some(shared) => {
                shared.tick();
                shared.state_copy()
            }
            None => ObsState::default(),
        }
    }

    /// Asks the daemon to exit and joins it.
    fn halt(&mut self) -> Option<Arc<sampler::Shared>> {
        let shared = self.shared.take().filter(|_| Telemetry::enabled())?;
        shared.request_stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        Some(shared)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// A running exposition listener; shuts down on drop.
#[derive(Debug, Default)]
pub struct ObsServer {
    inner: Option<http::Server>,
}

impl ObsServer {
    /// The bound address (resolves port 0 to the ephemeral port).
    /// `None` when inert.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.as_ref().map(|s| s.addr())
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(mut self) {
        if let Some(s) = self.inner.take() {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_tick_stop_round_trip() {
        let s = Sampler::start(SamplerConfig {
            interval: Duration::from_millis(500),
            ring_capacity: 8,
        });
        assert_eq!(s.is_active(), Telemetry::enabled());
        s.sample_now();
        let st = s.state();
        if !Telemetry::enabled() {
            // Inert: nothing sampled, nothing to stop.
            assert_eq!(st.samples, 0);
            let state = s.stop();
            assert!(state.windows.is_empty());
            assert!(state.totals.is_empty());
            return;
        }
        assert!(st.samples >= 1);
        assert_eq!(st.interval_ns, 500_000_000);
        let stopped = s.stop();
        // The final fold-in tick adds one more sample.
        assert!(stopped.samples > st.samples);
    }

    #[test]
    fn serve_binds_an_ephemeral_port() {
        let s = Sampler::start(SamplerConfig::default());
        let served = s.serve("127.0.0.1:0");
        if !Telemetry::enabled() {
            assert_eq!(served.unwrap_err().kind(), std::io::ErrorKind::Unsupported);
            return;
        }
        let server = served.expect("bind");
        let addr = server.local_addr().expect("bound address");
        assert_ne!(addr.port(), 0);
        server.shutdown();
        s.stop();
    }

    #[test]
    fn enabled_end_to_end() {
        use oll_telemetry::trace::{emit, enabled, register_lock, TraceKind, TraceSession};
        if !Telemetry::enabled() {
            return;
        }
        let lock = register_lock("TEST", "lib/e2e");
        assert!(lock > 0);
        let session = TraceSession::begin();
        assert!(enabled());
        emit(lock, TraceKind::WriteBegin, 0);
        emit(lock, TraceKind::WriteAcquired, 0);
        emit(lock, TraceKind::WriteRelease, 0);
        let tl = session.collect().filter_lock(lock);
        assert_eq!(tl.records.len(), 3);
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.acquisitions.len(), 1);
        assert_eq!(report.acquisitions[0].queued_ns, 0);
        let doc = render_chrome_trace(&tl);
        assert!(doc.contains("\"name\":\"hold:write\""));
    }
}
