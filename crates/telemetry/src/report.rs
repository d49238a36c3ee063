//! Text and JSON renderers for telemetry snapshots.
//!
//! JSON documents are schema-versioned — consumers check `"schema"` /
//! `"version"` before parsing — and built as [`oll_util::json::Value`]s.
//! [`lock_json`] is the per-lock object that the `oll.obs` totals and
//! the workload bins' `oll.fig5` / `oll.fig5_async` documents embed.

use crate::event::LockEvent;
use crate::hist::HistogramSnapshot;
use crate::snapshot::LockSnapshot;
use oll_util::json::{obj, text, Value};
use std::fmt::Write as _;

/// Version of every JSON document this crate emits. Bump on any
/// backwards-incompatible field change.
pub const SCHEMA_VERSION: u32 = 1;

/// A duration for a human: whole nanoseconds below 1 µs, else two
/// decimals of the largest unit that keeps the value ≥ 1.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_hist_line(out: &mut String, label: &str, h: &HistogramSnapshot) {
    if h.is_empty() {
        let _ = writeln!(out, "  {label:<14} (no samples)");
        return;
    }
    let _ = writeln!(
        out,
        "  {label:<14} n={:<10} p50={:<10} p99={:<10} max={}",
        h.count,
        fmt_ns(h.percentile_ns(0.50)),
        fmt_ns(h.percentile_ns(0.99)),
        fmt_ns(h.max_ns),
    );
}

/// Renders one lock's profile as indented text (the `lockstat` /
/// `fig5 --telemetry` block format).
pub fn render_lock_text(s: &LockSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} [{}]", s.name, s.kind);
    let reads = s.reads();
    let writes = s.writes();
    let _ = writeln!(
        out,
        "  reads          {reads:<10} (fast {}, slow {})",
        s.get(LockEvent::ReadFast),
        s.get(LockEvent::ReadSlow),
    );
    let _ = writeln!(
        out,
        "  writes         {writes:<10} (fast {}, slow {})",
        s.get(LockEvent::WriteFast),
        s.get(LockEvent::WriteSlow),
    );
    // Every event in the taxonomy gets a row when nonzero. The four
    // read/write fast/slow events are already folded into the header
    // lines above; everything else reports under its own name, so a new
    // LockEvent variant shows up here without touching this renderer
    // (the exhaustiveness test below pins that).
    for e in LockEvent::ALL {
        if matches!(
            e,
            LockEvent::ReadFast | LockEvent::ReadSlow | LockEvent::WriteFast | LockEvent::WriteSlow
        ) {
            continue;
        }
        let c = s.get(e);
        if c != 0 {
            let _ = writeln!(out, "  {:<14} {c}", e.name());
        }
    }
    if let Some(rw) = s.root_writes_per_acquire() {
        let _ = writeln!(out, "  root_writes/acquire {rw:.4}");
    }
    render_hist_line(&mut out, "read_acquire", &s.read_acquire);
    render_hist_line(&mut out, "write_acquire", &s.write_acquire);
    render_hist_line(&mut out, "read_hold", &s.read_hold);
    render_hist_line(&mut out, "write_hold", &s.write_hold);
    out
}

/// Renders a sweep of lock profiles as text, one block per lock.
pub fn render_text(snaps: &[LockSnapshot]) -> String {
    if snaps.is_empty() {
        return "(no telemetry recorded)\n".to_string();
    }
    let mut out = String::new();
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_lock_text(s));
    }
    out
}

fn hist_json(h: &HistogramSnapshot) -> Value {
    // Sparse bucket encoding: only non-zero buckets, as [index, count]
    // pairs, so empty histograms stay tiny.
    let buckets = h.buckets.iter().enumerate().filter(|&(_, &c)| c != 0);
    let buckets = buckets.map(|(i, &c)| Value::Arr(vec![i.into(), c.into()]));
    obj([
        ("count", h.count.into()),
        ("max_ns", h.max_ns.into()),
        ("p50_ns", h.percentile_ns(0.50).into()),
        ("p99_ns", h.percentile_ns(0.99).into()),
        ("buckets", buckets.collect()),
    ])
}

/// One lock's profile as a JSON object: its name, kind, the nonzero
/// events by name, and the four histograms.
pub fn lock_json(s: &LockSnapshot) -> Value {
    let events = LockEvent::ALL.into_iter().filter(|&e| s.get(e) != 0);
    obj([
        ("name", text(&s.name)),
        ("kind", text(&s.kind)),
        ("events", obj(events.map(|e| (e.name(), s.get(e).into())))),
        ("read_acquire", hist_json(&s.read_acquire)),
        ("write_acquire", hist_json(&s.write_acquire)),
        ("read_hold", hist_json(&s.read_hold)),
        ("write_hold", hist_json(&s.write_hold)),
    ])
}

/// Renders a sweep of lock profiles as a schema-versioned JSON document.
pub fn render_json(snaps: &[LockSnapshot]) -> String {
    obj([
        ("schema", text("oll.telemetry")),
        ("version", SCHEMA_VERSION.into()),
        ("locks", snaps.iter().map(lock_json).collect()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LockSnapshot {
        let mut s = LockSnapshot::empty("fig5/GOLL \"x\"", "GOLL");
        s.events[LockEvent::ReadFast.index()] = 100;
        s.events[LockEvent::ReadSlow.index()] = 10;
        s.events[LockEvent::HandoffToReaders.index()] = 3;
        s.read_acquire.buckets[7] = 110;
        s.read_acquire.count = 110;
        s.read_acquire.max_ns = 200;
        s
    }

    #[test]
    fn text_report_mentions_counts() {
        let txt = render_lock_text(&sample());
        assert!(txt.contains("reads          110"));
        assert!(txt.contains("handoff_to_readers 3"));
        assert!(txt.contains("read_acquire"));
    }

    #[test]
    fn json_is_escaped_and_versioned() {
        let doc = render_json(&[sample()]);
        assert!(doc.starts_with("{\"schema\":\"oll.telemetry\",\"version\":1,"));
        assert!(doc.contains("fig5/GOLL \\\"x\\\""));
        assert!(doc.contains("\"read_fast\":100"));
        assert!(doc.contains("[[7,110]]"));
        assert!(!doc.contains("write_fast\":0"), "zero events elided");
    }

    /// Every event in the taxonomy must surface in both
    /// renderers when its counter is nonzero: the four read/write
    /// fast/slow events inside the header lines, everything else as an
    /// own-named row (text) and key (JSON). A variant added to
    /// `LockEvent::ALL` without report coverage fails here.
    #[test]
    fn every_event_reaches_both_reports() {
        let mut s = LockSnapshot::empty("audit", "GOLL");
        for (i, e) in LockEvent::ALL.iter().enumerate() {
            s.events[e.index()] = 1_000 + i as u64;
        }
        let txt = render_lock_text(&s);
        let json = lock_json(&s);
        for (i, e) in LockEvent::ALL.iter().enumerate() {
            let count = 1_000 + i as u64;
            match e {
                LockEvent::ReadFast => assert!(txt.contains(&format!("fast {count}"))),
                LockEvent::ReadSlow | LockEvent::WriteSlow => {
                    assert!(txt.contains(&format!("slow {count}")), "{} row", e.name())
                }
                LockEvent::WriteFast => assert!(txt.contains(&format!("(fast {count}"))),
                e => assert!(
                    txt.contains(&format!("  {:<14} {count}", e.name())),
                    "text report is missing a row for `{}`",
                    e.name()
                ),
            }
            assert_eq!(
                json.get("events").and_then(|ev| ev.get(e.name())),
                Some(&Value::from(count)),
                "JSON report is missing a key for `{}`",
                e.name()
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let doc = oll_util::json::parse(&render_json(&[sample()])).expect("document parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("oll.telemetry")
        );
        assert_eq!(doc.get("version").and_then(Value::as_u64), Some(1));
        let lock = doc.get("locks").and_then(|l| l.idx(0)).expect("one lock");
        assert_eq!(
            lock.get("name").and_then(Value::as_str),
            Some("fig5/GOLL \"x\"")
        );
        assert_eq!(lock.get("kind").and_then(Value::as_str), Some("GOLL"));
        let events = lock.get("events").expect("events");
        assert_eq!(events.get("read_fast").and_then(Value::as_u64), Some(100));
        assert_eq!(
            events.get("handoff_to_readers").and_then(Value::as_u64),
            Some(3)
        );
        let read = lock.get("read_acquire").expect("read_acquire");
        assert_eq!(read.get("count").and_then(Value::as_u64), Some(110));
        assert_eq!(read.get("max_ns").and_then(Value::as_u64), Some(200));
        assert_eq!(
            read.get("buckets").map(Value::render).as_deref(),
            Some("[[7,110]]")
        );
    }

    #[test]
    fn empty_sweep_renders() {
        assert_eq!(render_text(&[]), "(no telemetry recorded)\n");
        assert_eq!(
            render_json(&[]),
            "{\"schema\":\"oll.telemetry\",\"version\":1,\"locks\":[]}"
        );
    }
}
