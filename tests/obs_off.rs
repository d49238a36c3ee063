//! The inert half of the monitoring contract: without the `telemetry`
//! feature there is nothing to sample, so no daemon thread ever starts,
//! the exposition listener refuses to serve, and a full
//! start/sample/stop round trip produces an empty state.

#![cfg(not(feature = "telemetry"))]

use oll_obs::{Sampler, SamplerConfig};

#[test]
#[allow(clippy::assertions_on_constants)]
fn facade_is_zero_sized() {
    // The one switch is off, so every sampler below is inert.
    assert!(!oll::telemetry::Telemetry::enabled());
}

#[test]
fn sampler_is_inert() {
    let sampler = Sampler::start(SamplerConfig::default());
    assert!(!sampler.is_active(), "no daemon thread without the feature");
    sampler.sample_now();
    let state = sampler.state();
    assert_eq!(state.samples, 0);
    assert_eq!(state.elapsed_ns, 0);
    assert!(state.windows.is_empty());
    assert!(state.totals.is_empty());
    assert!(state.latest().is_none());
}

#[test]
fn serve_reports_unsupported() {
    let sampler = Sampler::start(SamplerConfig::default());
    let err = sampler
        .serve("127.0.0.1:0")
        .expect_err("no exposition endpoint without the feature");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
}

#[test]
fn stop_returns_empty_state() {
    let sampler = Sampler::start(SamplerConfig::default());
    let state = sampler.stop();
    assert_eq!(state.samples, 0);
    assert_eq!(state.windows_evicted, 0);
    assert!(state.windows.is_empty());
    let health = oll_obs::health::score_all(&state, &oll_obs::HealthConfig::default());
    assert!(health.is_empty());
}
