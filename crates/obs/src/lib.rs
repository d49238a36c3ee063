//! Continuous monitoring for the OLL lock family: a background sampler
//! daemon over the telemetry registry, a fixed-capacity time-series
//! ring, Prometheus text exposition, per-lock health scoring, and a
//! folded-stack flamegraph exporter over `oll-trace` records.
//!
//! `oll-telemetry` (PR 2) answers *what happened by the end of the run*
//! and `oll-trace` (PR 3) *exactly when, once drained* — both offline.
//! This crate closes the loop the ROADMAP's contention-aware
//! self-tuning item needs: a [`Sampler`] periodically sweeps
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
//! # Zero cost when disabled
//!
//! Without the `enabled` feature, [`Sampler`] and [`ObsServer`] are
//! zero-sized, [`Sampler::start`] spawns nothing, [`Sampler::serve`]
//! returns `ErrorKind::Unsupported`, and no thread, socket, or clock
//! code is linked (pinned by `tests/obs_off.rs`). The analysis and
//! rendering types ([`SeriesRing`], [`ObsState`], [`LockHealth`], the
//! renderers) compile either way so tooling needs no `cfg` of its own.
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

pub mod flame;
pub mod health;
pub mod prom;
pub mod report;
pub mod series;

#[cfg(feature = "enabled")]
mod http;
#[cfg(feature = "enabled")]
mod sampler;

pub use health::{HealthConfig, LockHealth, LockHealthReport};
pub use series::{ObsState, SampleWindow, SeriesRing};

use std::time::Duration;

/// Whether the sampler daemon and HTTP listener are compiled in at all.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

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

/// The sampling daemon's handle. Zero-sized and inert without the
/// `enabled` feature.
#[derive(Debug, Default)]
pub struct Sampler {
    #[cfg(feature = "enabled")]
    shared: Option<std::sync::Arc<sampler::Shared>>,
    #[cfg(feature = "enabled")]
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Whether this build's sampler can record anything.
    pub const fn enabled() -> bool {
        crate::enabled()
    }

    /// Starts the daemon: a baseline registry sweep now, then one tick
    /// per `config.interval` until [`Sampler::stop`] (or drop). Inert
    /// without the `enabled` feature.
    pub fn start(config: SamplerConfig) -> Self {
        #[cfg(feature = "enabled")]
        {
            let shared =
                std::sync::Arc::new(sampler::Shared::new(config.interval, config.ring_capacity));
            let daemon = std::sync::Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("oll-obs-sampler".into())
                .spawn(move || daemon.run())
                .ok();
            Self {
                shared: Some(shared),
                thread,
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = config;
            Self {}
        }
    }

    /// Whether a daemon is running behind this handle.
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "enabled")]
        {
            self.shared.is_some()
        }
        #[cfg(not(feature = "enabled"))]
        {
            false
        }
    }

    /// Takes one sample immediately (serialized with the daemon's
    /// ticks). No-op when inert.
    pub fn sample_now(&self) {
        #[cfg(feature = "enabled")]
        if let Some(s) = &self.shared {
            s.tick();
        }
    }

    /// Copies the accumulated state out without stopping the daemon.
    /// Empty when inert.
    pub fn state(&self) -> ObsState {
        #[cfg(feature = "enabled")]
        if let Some(s) = &self.shared {
            return s.state_copy();
        }
        ObsState::default()
    }

    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// serves `/metrics`, `/json`, and `/health` from this sampler's
    /// state until the returned [`ObsServer`] is shut down or dropped.
    /// Fails with [`std::io::ErrorKind::Unsupported`] when the facade
    /// is compiled out.
    pub fn serve(&self, addr: &str) -> std::io::Result<ObsServer> {
        #[cfg(feature = "enabled")]
        {
            let shared = self.shared.as_ref().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotConnected, "sampler is inert")
            })?;
            let server = http::serve(addr, std::sync::Arc::clone(shared))?;
            Ok(ObsServer {
                inner: Some(server),
            })
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = addr;
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "oll-obs was built without the `enabled` feature",
            ))
        }
    }

    /// Stops the daemon, folds in one final sample (so nothing recorded
    /// after the last timer tick is lost), and returns the state.
    #[cfg_attr(not(feature = "enabled"), allow(unused_mut))]
    pub fn stop(mut self) -> ObsState {
        #[cfg(feature = "enabled")]
        {
            if let Some(shared) = self.shared.take() {
                shared.request_stop();
                if let Some(t) = self.thread.take() {
                    let _ = t.join();
                }
                shared.tick();
                return shared.state_copy();
            }
        }
        ObsState::default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(shared) = self.shared.take() {
            shared.request_stop();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// A running exposition listener. Zero-sized and inert without the
/// `enabled` feature; shuts down on drop.
#[derive(Debug, Default)]
pub struct ObsServer {
    #[cfg(feature = "enabled")]
    inner: Option<http::Server>,
}

impl ObsServer {
    /// The bound address (resolves port 0 to the ephemeral port).
    /// `None` when inert.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        #[cfg(feature = "enabled")]
        {
            self.inner.as_ref().map(|s| s.addr())
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(self) {
        #[cfg(feature = "enabled")]
        {
            let mut this = self;
            if let Some(s) = this.inner.take() {
                s.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_is_zero_sized_and_inert() {
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<Sampler>(), 0);
        assert_eq!(std::mem::size_of::<ObsServer>(), 0);
        let s = Sampler::start(SamplerConfig::default());
        assert!(!s.is_active());
        s.sample_now();
        assert_eq!(s.state().samples, 0);
        let err = s.serve("127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
        let state = s.stop();
        assert!(state.windows.is_empty());
        assert!(state.totals.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn start_tick_stop_round_trip() {
        let s = Sampler::start(SamplerConfig {
            interval: Duration::from_millis(500),
            ring_capacity: 8,
        });
        assert!(s.is_active());
        s.sample_now();
        let st = s.state();
        assert!(st.samples >= 1);
        assert_eq!(st.interval_ns, 500_000_000);
        let stopped = s.stop();
        // The final fold-in tick adds one more sample.
        assert!(stopped.samples > st.samples);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn serve_binds_an_ephemeral_port() {
        let s = Sampler::start(SamplerConfig::default());
        let server = s.serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("bound address");
        assert_ne!(addr.port(), 0);
        server.shutdown();
        s.stop();
    }
}
