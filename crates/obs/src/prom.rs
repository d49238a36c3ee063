//! Prometheus text exposition (format 0.0.4) over a sampler state.
//!
//! Hand-rolled, as the workspace carries no serialization dependency
//! (JSON goes through `oll_util::json`): `# HELP` / `# TYPE` headers,
//! `name{label="value"} value` samples, label values escaped per the
//! exposition spec (backslash, double-quote, newline).
//! Counters come from the exact run totals; gauges (rates, quantiles)
//! come from the most recent window a lock was active in, so a scrape
//! sees current behaviour, not run-averaged history.

use crate::health::LockHealthReport;
use crate::report::merged;
use crate::series::ObsState;
use oll_telemetry::{HistogramSnapshot, LockEvent, LockSnapshot};
use std::fmt::Write as _;

/// Escapes a label value per the Prometheus exposition format.
pub fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn labels(s: &LockSnapshot) -> String {
    format!(
        "lock=\"{}\",kind=\"{}\"",
        label_escape(&s.name),
        label_escape(&s.kind)
    )
}

const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.99, "0.99"), (0.999, "0.999")];

fn quantile_rows(out: &mut String, metric: &str, base: &str, h: &HistogramSnapshot) {
    if h.is_empty() {
        return;
    }
    for (p, label) in QUANTILES {
        let _ = writeln!(
            out,
            "{metric}{{{base},quantile=\"{label}\"}} {}",
            h.percentile_ns(p)
        );
    }
}

/// Renders the whole exposition page.
pub fn render_prometheus(state: &ObsState, health: &[LockHealthReport]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "oll_obs_samples_total",
        "counter",
        "Sampling ticks since the daemon started.",
    );
    let _ = writeln!(out, "oll_obs_samples_total {}", state.samples);
    header(
        &mut out,
        "oll_obs_windows_retained",
        "gauge",
        "Sample windows currently held in the time-series ring.",
    );
    let _ = writeln!(out, "oll_obs_windows_retained {}", state.windows.len());
    header(
        &mut out,
        "oll_obs_windows_evicted_total",
        "counter",
        "Sample windows folded into the run totals after ring wrap.",
    );
    let _ = writeln!(
        out,
        "oll_obs_windows_evicted_total {}",
        state.windows_evicted
    );
    header(
        &mut out,
        "oll_obs_uptime_seconds",
        "gauge",
        "Time since the sampler started.",
    );
    let _ = writeln!(
        out,
        "oll_obs_uptime_seconds {}",
        fmt_f64(state.elapsed_ns as f64 / 1e9)
    );

    header(
        &mut out,
        "oll_lock_acquisitions_total",
        "counter",
        "Lock acquisitions since the sampler started, by operation.",
    );
    for s in &state.totals {
        let base = labels(s);
        let _ = writeln!(
            out,
            "oll_lock_acquisitions_total{{{base},op=\"read\"}} {}",
            s.reads()
        );
        let _ = writeln!(
            out,
            "oll_lock_acquisitions_total{{{base},op=\"write\"}} {}",
            s.writes()
        );
    }

    header(
        &mut out,
        "oll_lock_events_total",
        "counter",
        "Slow-path events since the sampler started, by event kind.",
    );
    for s in &state.totals {
        let base = labels(s);
        for e in LockEvent::ALL {
            let c = s.get(e);
            if c != 0 {
                let _ = writeln!(
                    out,
                    "oll_lock_events_total{{{base},event=\"{}\"}} {c}",
                    e.name()
                );
            }
        }
    }

    header(
        &mut out,
        "oll_lock_acquire_rate",
        "gauge",
        "Acquisitions per second over the most recent active window.",
    );
    for s in &state.totals {
        let base = labels(s);
        let (read_rate, write_rate) = state
            .latest_for(&s.name)
            .map(|(w, d)| {
                let secs = w.dt_ns.max(1) as f64 / 1e9;
                (d.reads() as f64 / secs, d.writes() as f64 / secs)
            })
            .unwrap_or((0.0, 0.0));
        let _ = writeln!(
            out,
            "oll_lock_acquire_rate{{{base},op=\"read\"}} {}",
            fmt_f64(read_rate)
        );
        let _ = writeln!(
            out,
            "oll_lock_acquire_rate{{{base},op=\"write\"}} {}",
            fmt_f64(write_rate)
        );
    }

    header(
        &mut out,
        "oll_lock_acquire_time_ns",
        "gauge",
        "Acquire-latency quantiles (log2-bucket upper bounds) over the most recent active window.",
    );
    for s in &state.totals {
        let base = labels(s);
        if let Some((_, d)) = state.latest_for(&s.name) {
            quantile_rows(
                &mut out,
                "oll_lock_acquire_time_ns",
                &format!("{base},op=\"read\""),
                &d.read_acquire,
            );
            quantile_rows(
                &mut out,
                "oll_lock_acquire_time_ns",
                &format!("{base},op=\"write\""),
                &d.write_acquire,
            );
        }
    }

    header(
        &mut out,
        "oll_lock_hold_time_ns",
        "gauge",
        "Hold-time quantiles (log2-bucket upper bounds) over the most recent active window.",
    );
    for s in &state.totals {
        let base = labels(s);
        if let Some((_, d)) = state.latest_for(&s.name) {
            quantile_rows(
                &mut out,
                "oll_lock_hold_time_ns",
                &format!("{base},op=\"read\""),
                &d.read_hold,
            );
            quantile_rows(
                &mut out,
                "oll_lock_hold_time_ns",
                &format!("{base},op=\"write\""),
                &d.write_hold,
            );
            quantile_rows(
                &mut out,
                "oll_lock_hold_time_ns",
                &format!("{base},op=\"any\""),
                &merged(&d.read_hold, &d.write_hold),
            );
        }
    }

    header(
        &mut out,
        "oll_lock_read_ratio",
        "gauge",
        "Reads over total acquisitions since the sampler started.",
    );
    for h in health {
        if let Some(r) = h.read_ratio {
            let _ = writeln!(
                out,
                "oll_lock_read_ratio{{lock=\"{}\",kind=\"{}\"}} {}",
                label_escape(&h.name),
                label_escape(&h.kind),
                fmt_f64(r)
            );
        }
    }

    header(
        &mut out,
        "oll_lock_health",
        "gauge",
        "Health severity: 0 idle, 1 healthy, 2 busy, 3 contended, 4 starving, 5 degraded.",
    );
    for h in health {
        let _ = writeln!(
            out,
            "oll_lock_health{{lock=\"{}\",kind=\"{}\",state=\"{}\"}} {}",
            label_escape(&h.name),
            label_escape(&h.kind),
            h.health.name(),
            h.health.severity()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{score_all, HealthConfig};
    use crate::series::SampleWindow;

    fn state() -> ObsState {
        let mut s = LockSnapshot::empty("fig5/GOLL \"x\"", "GOLL");
        s.events[LockEvent::ReadFast.index()] = 100;
        s.events[LockEvent::HandoffToWriter.index()] = 4;
        s.read_acquire.buckets[7] = 100;
        s.read_acquire.count = 100;
        s.read_acquire.max_ns = 200;
        s.read_hold.buckets[5] = 100;
        s.read_hold.count = 100;
        s.read_hold.max_ns = 60;
        ObsState {
            interval_ns: 100_000_000,
            elapsed_ns: 1_000_000_000,
            samples: 10,
            windows_evicted: 0,
            windows: vec![SampleWindow {
                t_ns: 100_000_000,
                dt_ns: 100_000_000,
                deltas: vec![s.clone()],
            }],
            totals: vec![s],
        }
    }

    #[test]
    fn page_has_the_advertised_series() {
        let st = state();
        let health = score_all(&st, &HealthConfig::default());
        let page = render_prometheus(&st, &health);
        assert!(page.contains("# TYPE oll_lock_acquisitions_total counter"));
        assert!(page.contains("op=\"read\"} 100"));
        assert!(page.contains("event=\"handoff_to_writer\"} 4"));
        assert!(page.contains(
            "oll_lock_acquire_rate{lock=\"fig5/GOLL \\\"x\\\"\",kind=\"GOLL\",op=\"read\"} 1000"
        ));
        assert!(page.contains("oll_lock_hold_time_ns"));
        assert!(page.contains("quantile=\"0.99\"} "));
        assert!(page.contains("oll_lock_health{"));
        // Every non-comment line is `name{...} value` or `name value`.
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }

    #[test]
    fn escaping_is_spec_shaped() {
        assert_eq!(label_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }
}
