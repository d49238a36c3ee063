//! Schema-versioned JSON reports for the workload binaries.
//!
//! Each document is built as an [`oll::util::json::Value`] and written by
//! its `render`, like every other document the workspace emits. Two
//! document schemas are built here (`oll.fig5_async` is built in
//! `crate::async_bench`):
//!
//! - `oll.fig5` — the panels of a `fig5` run: every (lock × threads)
//!   point with throughput and, when collected, the lock's telemetry
//!   profile.
//! - `oll.trace` — a flight-recorder capture (`fig5 --trace`): the
//!   merged record timeline plus the analyzer's findings.
//!   Causality tokens are 64-bit and travel as `"0x…"` hex strings —
//!   JSON numbers are f64 and would corrupt them.
//!
//! Consumers should check `"schema"` and `"version"` before parsing;
//! [`oll::telemetry::report::SCHEMA_VERSION`] is bumped on any
//! backwards-incompatible change across all OLL JSON documents.

use crate::sweep::PanelResult;
use oll::telemetry::report::{lock_json, SCHEMA_VERSION};
use oll::trace::Timeline;
use oll::util::json::{obj, rounded, text, Value};
use oll_obs::TraceReport;

/// Renders a set of regenerated Figure 5 panels as one `oll.fig5`
/// document.
pub fn render_fig5_json(panels: &[PanelResult]) -> String {
    let panel_json = |panel: &PanelResult| {
        let series = panel.series.iter().map(|s| {
            let points = s.points.iter().enumerate().map(|(i, p)| {
                obj([
                    ("threads", p.threads.into()),
                    ("acquires_per_sec", rounded(p.acquires_per_sec, 1)),
                    ("elapsed_secs", rounded(p.elapsed.as_secs_f64(), 6)),
                    ("total_acquisitions", p.total_acquisitions.into()),
                    (
                        "telemetry",
                        s.profiles
                            .get(i)
                            .and_then(Option::as_ref)
                            .map_or(Value::Null, lock_json),
                    ),
                ])
            });
            obj([("lock", text(s.kind.name())), ("points", points.collect())])
        });
        let options = &panel.options;
        obj([
            ("panel", text(panel.panel.tag())),
            ("read_pct", panel.panel.read_pct().into()),
            ("biased", options.biased.into()),
            ("hazard", options.hazard.into()),
            ("cohort", options.cohort.into()),
            ("self_tuning", options.self_tuning.into()),
            (
                "shape_threads",
                options.shape_threads.map_or(Value::Null, Value::from),
            ),
            (
                "thread_counts",
                panel.thread_counts.iter().copied().collect(),
            ),
            ("series", series.collect()),
        ])
    };
    obj([
        ("schema", text("oll.fig5")),
        ("version", SCHEMA_VERSION.into()),
        ("panels", panels.iter().map(panel_json).collect()),
    ])
    .render()
}

/// Renders a flight-recorder capture and its analysis as one `oll.trace`
/// document. Timestamps are nanoseconds since the recorder's epoch (safe
/// as JSON numbers: f64 holds them exactly for ~104 days of uptime);
/// causality tokens are raw 64-bit values and travel as hex strings.
pub fn render_trace_json(tl: &Timeline, report: &TraceReport) -> String {
    let locks = tl.locks.iter().map(|l| {
        obj([
            ("id", l.id.into()),
            ("kind", text(&l.kind)),
            ("name", text(&l.name)),
        ])
    });
    let threads = tl
        .threads
        .iter()
        .map(|t| obj([("tid", t.tid.into()), ("name", text(&t.name))]));
    // Each event is a compact [ts_ns, tid, lock, "kind", "0x<token>"] row.
    let events = tl.records.iter().map(|r| {
        Value::Arr(vec![
            r.ts_ns.into(),
            r.tid.into(),
            r.lock.into(),
            text(r.kind.name()),
            format!("0x{:x}", r.token).into(),
        ])
    });
    let breakdown = report.breakdowns.iter().map(|b| {
        obj([
            ("lock", b.lock.into()),
            ("acquisitions", b.acquisitions.into()),
            ("queued", b.queued.into()),
            ("via_handoff", b.via_handoff.into()),
            ("spin_ns", b.spin_ns.into()),
            ("queued_ns", b.queued_ns.into()),
            ("handoff_ns", b.handoff_ns.into()),
            ("max_total_ns", b.max_total_ns.into()),
        ])
    });
    let cascades = report.cascades.iter().map(|c| {
        obj([
            ("lock", c.lock.into()),
            ("tids", c.tids.iter().copied().collect()),
            ("start_ns", c.start_ns.into()),
            ("end_ns", c.end_ns.into()),
        ])
    });
    let convoys = report.convoys.iter().map(|c| {
        obj([
            ("lock", c.lock.into()),
            ("length", c.length.into()),
            ("start_ns", c.start_ns.into()),
            ("end_ns", c.end_ns.into()),
        ])
    });
    let starvations = report.starvations.iter().map(|s| {
        obj([
            ("lock", s.lock.into()),
            ("tid", s.tid.into()),
            ("queued_ns", s.queued_ns.into()),
            ("threshold_ns", s.threshold_ns.into()),
        ])
    });
    let wait_chains = report.wait_chains.iter().map(|w| {
        obj([
            ("tids", w.tids.iter().copied().collect()),
            ("locks", w.locks.iter().copied().collect()),
            ("ts_ns", w.ts_ns.into()),
        ])
    });
    let analysis = obj([
        ("acquisitions", report.acquisitions.len().into()),
        ("handoff_edges", report.edges.len().into()),
        ("unmatched_grants", report.unmatched_grants.into()),
        ("breakdown", breakdown.collect()),
        ("cascades", cascades.collect()),
        ("convoys", convoys.collect()),
        ("starvations", starvations.collect()),
        ("wait_chains", wait_chains.collect()),
    ]);
    obj([
        ("schema", text("oll.trace")),
        ("version", SCHEMA_VERSION.into()),
        ("records", tl.records.len().into()),
        ("dropped", tl.dropped.into()),
        ("truncated", tl.truncated().into()),
        ("locks", locks.collect()),
        ("threads", threads.collect()),
        ("events", events.collect()),
        ("analysis", analysis),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
    use crate::sweep::{run_panel, SweepOptions};
    use oll::util::json;

    fn tiny_opts() -> SweepOptions {
        SweepOptions {
            thread_counts: vec![1, 2],
            locks: vec![LockKind::Foll],
            base: WorkloadConfig {
                threads: 1,
                read_pct: 99,
                acquisitions_per_thread: 100,
                critical_work: 0,
                outside_work: 0,
                seed: 3,
                runs: 1,
                verify: false,
            },
            progress: false,
            collect_telemetry: true,
            lock_options: LockOptions::default(),
        }
    }

    #[test]
    fn fig5_document_shape() {
        let panel = run_panel(Fig5Panel::B, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        assert!(doc.starts_with("{\"schema\":\"oll.fig5\",\"version\":1,"));
        assert!(doc.contains("\"panel\":\"b\""));
        assert!(doc.contains("\"read_pct\":99"));
        assert!(doc.contains("\"lock\":\"FOLL\""));
        assert!(doc.contains("\"threads\":1"));
        assert!(doc.contains("\"telemetry\":"));
        // Two points -> exactly two telemetry fields.
        assert_eq!(doc.matches("\"telemetry\":").count(), 2);
        // With the feature off, profiles must be null; with it on, FOLL
        // records and its profile must carry the acquisition counts.
        if oll::telemetry::Telemetry::enabled() {
            assert!(doc.contains("\"read_fast\""), "doc: {doc}");
        } else {
            assert!(doc.contains("\"telemetry\":null"));
        }
    }

    #[test]
    fn fig5_shape_option_round_trips() {
        let mut opts = tiny_opts();
        opts.lock_options = LockOptions {
            shape_threads: Some(4),
            ..LockOptions::default()
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("shaped fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));
        assert_eq!(p.get("shape_threads").and_then(Value::as_u64), Some(4));

        // Default options serialize with every flag off and a null shape.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).unwrap();
        let p = v.get("panels").and_then(|p| p.idx(0)).unwrap();
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));
        assert_eq!(p.get("hazard").and_then(Value::as_bool), Some(false));
        assert_eq!(p.get("shape_threads"), Some(&Value::Null));
    }

    #[test]
    fn fig5_biased_options_round_trip() {
        let mut opts = tiny_opts();
        opts.lock_options = LockOptions {
            biased: true,
            ..LockOptions::default()
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("biased fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("hazard").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn fig5_hazard_options_round_trip() {
        let mut opts = tiny_opts();
        opts.lock_options = LockOptions {
            hazard: true,
            ..LockOptions::default()
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("hazard fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("hazard").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn fig5_cohort_options_round_trip() {
        let mut opts = tiny_opts();
        opts.lock_options = LockOptions {
            cohort: true,
            ..LockOptions::default()
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("cohort fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("cohort").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));

        // Default options serialize with the gate off.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).unwrap();
        let p = v.get("panels").and_then(|p| p.idx(0)).unwrap();
        assert_eq!(p.get("cohort").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn fig5_self_tuning_options_round_trip() {
        let mut opts = tiny_opts();
        opts.lock_options = LockOptions {
            self_tuning: true,
            biased: true,
            ..LockOptions::default()
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("self-tuning fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("self_tuning").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(true));

        // Default options serialize with the controller off.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).unwrap();
        let p = v.get("panels").and_then(|p| p.idx(0)).unwrap();
        assert_eq!(p.get("self_tuning").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn fig5_round_trip() {
        let panel = run_panel(Fig5Panel::B, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = json::parse(&doc).expect("fig5 doc must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("oll.fig5"));
        assert_eq!(
            v.get("version").and_then(Value::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        let series = v
            .get("panels")
            .and_then(|p| p.idx(0))
            .and_then(|p| p.get("series"))
            .and_then(|s| s.idx(0))
            .expect("one series");
        assert_eq!(series.get("lock").and_then(Value::as_str), Some("FOLL"));
        let points = series.get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(points.len(), 2); // thread_counts [1, 2]
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.get("threads").and_then(Value::as_u64), Some(i as u64 + 1));
            assert!(p.get("acquires_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn trace_round_trip() {
        use oll::trace::{LockDescriptor, ThreadDescriptor, Timeline, TraceKind, TraceRecord};
        use oll_obs::{analyze, AnalyzerConfig};

        // Tokens above 2^53 prove the hex-string path survives where a
        // JSON number would round.
        let token = 0xdead_beef_dead_beefu64;
        let rec = |ts_ns, tid, kind, token| TraceRecord {
            ts_ns,
            tid,
            lock: 1,
            kind,
            token,
        };
        let tl = Timeline {
            records: vec![
                rec(100, 2, TraceKind::WriteBegin, 0),
                rec(110, 2, TraceKind::WriteSlow, 0),
                rec(120, 2, TraceKind::Enqueued, token),
                rec(900, 1, TraceKind::WriteRelease, 0),
                rec(910, 1, TraceKind::Granted, token),
                rec(950, 2, TraceKind::WriteAcquired, 0),
            ],
            dropped: 2,
            locks: vec![LockDescriptor {
                id: 1,
                kind: "FOLL".to_string(),
                name: "rt \"quoted\"".to_string(),
            }],
            threads: vec![ThreadDescriptor {
                tid: 2,
                name: "worker-2".to_string(),
            }],
        };
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.edges.len(), 1);
        let doc = render_trace_json(&tl, &report);
        let v = json::parse(&doc).expect("trace doc must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("oll.trace"));
        assert_eq!(
            v.get("version").and_then(Value::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        assert_eq!(v.get("records").and_then(Value::as_u64), Some(6));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("truncated").and_then(Value::as_bool), Some(true));
        let lock = v.get("locks").and_then(|l| l.idx(0)).unwrap();
        assert_eq!(
            lock.get("name").and_then(Value::as_str),
            Some("rt \"quoted\"")
        );

        // Rebuild every record from the parsed events and compare.
        let events = v.get("events").and_then(Value::as_arr).unwrap();
        let rebuilt: Vec<TraceRecord> = events
            .iter()
            .map(|e| {
                let kind_name = e.idx(3).and_then(Value::as_str).unwrap();
                let tok = e.idx(4).and_then(Value::as_str).unwrap();
                TraceRecord {
                    ts_ns: e.idx(0).and_then(Value::as_u64).unwrap(),
                    tid: e.idx(1).and_then(Value::as_u64).unwrap() as u32,
                    lock: e.idx(2).and_then(Value::as_u64).unwrap() as u32,
                    kind: *TraceKind::ALL
                        .iter()
                        .find(|k| k.name() == kind_name)
                        .expect("kind name survives"),
                    token: u64::from_str_radix(tok.strip_prefix("0x").unwrap(), 16).unwrap(),
                }
            })
            .collect();
        assert_eq!(rebuilt, tl.records);

        let analysis = v.get("analysis").expect("analysis section");
        assert_eq!(
            analysis.get("acquisitions").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            analysis.get("handoff_edges").and_then(Value::as_u64),
            Some(1)
        );
        let breakdown = analysis.get("breakdown").and_then(|b| b.idx(0)).unwrap();
        assert_eq!(
            breakdown.get("via_handoff").and_then(Value::as_u64),
            Some(1)
        );
    }
}
