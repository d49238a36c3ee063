//! Text and JSON (`oll.obs` v1) renderers for a sampler state.
//!
//! # The `oll.obs` document, version 1
//!
//! ```text
//! {
//!   "schema": "oll.obs", "version": 1,
//!   "interval_ms": 100,          // configured sampling interval
//!   "elapsed_secs": 3.2,         // sampler uptime at render time
//!   "samples": 32,               // ticks taken
//!   "windows_retained": 30,      // windows still in the ring
//!   "windows_evicted": 2,        // windows folded into the totals
//!   "health": [ { "lock", "kind", "health", "severity", "acquires",
//!                 "read_ratio", "slow_ratio", "acquire_rate",
//!                 "reasons": [...] } ],
//!   "totals": [ <oll.telemetry lock object> ],   // exact run totals
//!   "series": [ { "t_ns", "dt_ns",
//!                 "locks": [ { "lock", "kind", "reads", "writes",
//!                              "read_rate", "write_rate",
//!                              "acquire_p50_ns", "acquire_p99_ns",
//!                              "acquire_p999_ns", "hold_p50_ns",
//!                              "hold_p99_ns", "hold_p999_ns" } ] } ]
//! }
//! ```
//!
//! `totals` reuses the `oll.telemetry` per-lock object
//! ([`oll_telemetry::report::lock_json`]: name, kind, sparse event map,
//! sparse histograms); `series` rows are the compact per-window digests —
//! counts, rates, and quantile estimates — so a long retention window
//! stays small. Rates and `elapsed_secs` carry three decimals, the ratios
//! six; `read_ratio` / `slow_ratio` are `null` when the lock recorded no
//! acquisitions, and any non-finite number is `null` too.

use crate::health::LockHealthReport;
use crate::series::{ObsState, SampleWindow};
use oll_telemetry::report::{fmt_ns, lock_json, SCHEMA_VERSION};
use oll_telemetry::{HistogramSnapshot, LockSnapshot};
use oll_util::json::{obj, rounded, text, Value};
use std::fmt::Write as _;

/// Merged read+write view of an acquire or hold histogram pair.
pub(crate) fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = *a;
    out.merge(b);
    out
}

fn window_lock_json(w: &SampleWindow, d: &LockSnapshot) -> Value {
    let secs = w.dt_ns.max(1) as f64 / 1e9;
    let acquire = merged(&d.read_acquire, &d.write_acquire);
    let hold = merged(&d.read_hold, &d.write_hold);
    obj([
        ("lock", text(&d.name)),
        ("kind", text(&d.kind)),
        ("reads", d.reads().into()),
        ("writes", d.writes().into()),
        ("read_rate", rounded(d.reads() as f64 / secs, 3)),
        ("write_rate", rounded(d.writes() as f64 / secs, 3)),
        ("acquire_p50_ns", acquire.percentile_ns(0.50).into()),
        ("acquire_p99_ns", acquire.percentile_ns(0.99).into()),
        ("acquire_p999_ns", acquire.percentile_ns(0.999).into()),
        ("hold_p50_ns", hold.percentile_ns(0.50).into()),
        ("hold_p99_ns", hold.percentile_ns(0.99).into()),
        ("hold_p999_ns", hold.percentile_ns(0.999).into()),
    ])
}

fn health_json(h: &LockHealthReport) -> Value {
    let ratio = |r: Option<f64>| r.map_or(Value::Null, |r| rounded(r, 6));
    obj([
        ("lock", text(&h.name)),
        ("kind", text(&h.kind)),
        ("health", text(h.health.name())),
        ("severity", h.health.severity().into()),
        ("acquires", h.acquires.into()),
        ("read_ratio", ratio(h.read_ratio)),
        ("slow_ratio", ratio(h.slow_ratio)),
        ("acquire_rate", rounded(h.acquire_rate, 3)),
        ("reasons", h.reasons.iter().copied().collect()),
    ])
}

/// Renders the schema-versioned `oll.obs` document (no trailing
/// newline).
pub fn render_obs_json(state: &ObsState, health: &[LockHealthReport]) -> String {
    let series = state.windows.iter().map(|w| {
        let locks = w.deltas.iter().map(|d| window_lock_json(w, d));
        obj([
            ("t_ns", w.t_ns.into()),
            ("dt_ns", w.dt_ns.into()),
            ("locks", locks.collect()),
        ])
    });
    obj([
        ("schema", text("oll.obs")),
        ("version", SCHEMA_VERSION.into()),
        ("interval_ms", (state.interval_ns / 1_000_000).into()),
        ("elapsed_secs", rounded(state.elapsed_ns as f64 / 1e9, 3)),
        ("samples", state.samples.into()),
        ("windows_retained", state.windows.len().into()),
        ("windows_evicted", state.windows_evicted.into()),
        ("health", health.iter().map(health_json).collect()),
        ("totals", state.totals.iter().map(lock_json).collect()),
        ("series", series.collect()),
    ])
    .render()
}

/// Renders the one-shot text summary (the `--obs` end-of-run block).
pub fn render_obs_text(state: &ObsState, health: &[LockHealthReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs: {} sample(s) over {:.1}s at {}ms; {} window(s) retained, {} evicted",
        state.samples,
        state.elapsed_ns as f64 / 1e9,
        state.interval_ns / 1_000_000,
        state.windows.len(),
        state.windows_evicted,
    );
    if health.is_empty() {
        let _ = writeln!(out, "  (no instrumented locks observed)");
        return out;
    }
    for h in health {
        let total = state.totals.iter().find(|t| t.name == h.name);
        let acquire_p99 = total
            .map(|t| merged(&t.read_acquire, &t.write_acquire).percentile_ns(0.99))
            .unwrap_or(0);
        let hold_p99 = total
            .map(|t| merged(&t.read_hold, &t.write_hold).percentile_ns(0.99))
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:<24} [{:<13}] {:<9} rate={:>12.0}/s acquires={:<10} \
             p99(acquire)={:<8} p99(hold)={}{}",
            h.name,
            h.kind,
            h.health.name(),
            h.acquire_rate,
            h.acquires,
            fmt_ns(acquire_p99),
            fmt_ns(hold_p99),
            if h.reasons.is_empty() {
                String::new()
            } else {
                format!("  [{}]", h.reasons.join(", "))
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{score_all, HealthConfig};
    use oll_telemetry::LockEvent;

    fn state() -> ObsState {
        let mut s = LockSnapshot::empty("obs/ROLL", "ROLL");
        s.events[LockEvent::ReadFast.index()] = 90;
        s.events[LockEvent::WriteSlow.index()] = 10;
        s.write_acquire.buckets[10] = 10;
        s.write_acquire.count = 10;
        s.write_acquire.max_ns = 2000;
        ObsState {
            interval_ns: 100_000_000,
            elapsed_ns: 500_000_000,
            samples: 5,
            windows_evicted: 1,
            windows: vec![SampleWindow {
                t_ns: 500_000_000,
                dt_ns: 100_000_000,
                deltas: vec![s.clone()],
            }],
            totals: vec![s],
        }
    }

    #[test]
    fn json_doc_is_schema_versioned_and_complete() {
        let st = state();
        let health = score_all(&st, &HealthConfig::default());
        let doc = render_obs_json(&st, &health);
        assert!(doc.starts_with("{\"schema\":\"oll.obs\",\"version\":1,"));
        assert!(doc.contains("\"interval_ms\":100"));
        assert!(doc.contains("\"windows_evicted\":1"));
        assert!(doc.contains("\"health\":[{\"lock\":\"obs/ROLL\""));
        assert!(doc.contains("\"write_slow\":10"));
        assert!(doc.contains("\"acquire_p99_ns\":"));
        let doc = oll_util::json::parse(&doc).expect("document parses");
        let window = doc
            .get("series")
            .and_then(|s| s.idx(0))
            .expect("one window");
        let lock = window
            .get("locks")
            .and_then(|l| l.idx(0))
            .expect("one lock");
        assert_eq!(lock.get("read_rate").and_then(Value::as_f64), Some(900.0));
    }

    #[test]
    fn json_doc_round_trips() {
        let st = state();
        let health = score_all(&st, &HealthConfig::default());
        let doc = oll_util::json::parse(&render_obs_json(&st, &health)).expect("document parses");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("oll.obs"));
        assert_eq!(doc.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("samples").and_then(Value::as_u64), Some(5));
        assert_eq!(doc.get("elapsed_secs").and_then(Value::as_f64), Some(0.5));
        assert_eq!(doc.get("windows_retained").and_then(Value::as_u64), Some(1));
        let h = doc
            .get("health")
            .and_then(|h| h.idx(0))
            .expect("one health row");
        assert_eq!(h.get("lock").and_then(Value::as_str), Some("obs/ROLL"));
        assert_eq!(
            h.get("health").and_then(Value::as_str),
            Some(health[0].health.name())
        );
        assert_eq!(h.get("acquires").and_then(Value::as_u64), Some(100));
        assert_eq!(h.get("read_ratio").and_then(Value::as_f64), Some(0.9));
        let total = doc.get("totals").and_then(|t| t.idx(0)).expect("one total");
        assert_eq!(total, &lock_json(&st.totals[0]));
        let window = doc
            .get("series")
            .and_then(|s| s.idx(0))
            .expect("one window");
        assert_eq!(
            window.get("dt_ns").and_then(Value::as_u64),
            Some(100_000_000)
        );
        let lock = window
            .get("locks")
            .and_then(|l| l.idx(0))
            .expect("one lock");
        assert_eq!(lock.get("writes").and_then(Value::as_u64), Some(10));
        assert_eq!(lock.get("write_rate").and_then(Value::as_f64), Some(100.0));
    }

    #[test]
    fn null_ratios_for_idle_locks() {
        let st = ObsState {
            totals: vec![LockSnapshot::empty("idle", "TEST")],
            ..ObsState::default()
        };
        let health = score_all(&st, &HealthConfig::default());
        let doc = render_obs_json(&st, &health);
        assert!(doc.contains("\"read_ratio\":null"));
        assert!(doc.contains("\"health\":\"idle\""));
    }

    #[test]
    fn text_summary_names_every_lock() {
        let st = state();
        let health = score_all(&st, &HealthConfig::default());
        let txt = render_obs_text(&st, &health);
        assert!(txt.starts_with("obs: 5 sample(s)"));
        assert!(txt.contains("obs/ROLL"));
        assert!(txt.contains("p99(hold)"));
    }
}
