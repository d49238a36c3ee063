//! Chrome Trace Event / Perfetto export.
//!
//! Emits the JSON object format (`{"traceEvents": [...]}`) that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Every record becomes a thread-scoped instant event;
//! on top of those, a pairing pass derives duration (`"ph":"X"`) events
//! so acquisition waits (`read_begin → read_acquired`) and hold times
//! (`read_acquired → read_release`) render as proper slices on each
//! thread track. Timestamps are microseconds (`ts_ns / 1e3`, so the
//! nanosecond survives as the fractional part). Ring overflow is
//! surfaced, never hidden: `otherData` carries `dropped` and `truncated`.

use oll_telemetry::trace::{Timeline, TraceKind, TraceRecord};
use oll_util::json::{obj, text, Value};

/// Nanoseconds → microsecond timestamp with ns precision.
fn us(ts_ns: u64) -> Value {
    Value::Num(ts_ns as f64 / 1e3)
}

fn instant_event(tl: &Timeline, r: &TraceRecord) -> Value {
    let mut args = vec![("lock", text(tl.lock_name(r.lock)))];
    if r.token != 0 {
        args.push(("token", format!("{:#x}", r.token).into()));
    }
    obj([
        ("name", text(r.kind.name())),
        ("ph", text("i")),
        ("s", text("t")),
        ("pid", 1u32.into()),
        ("tid", r.tid.into()),
        ("ts", us(r.ts_ns)),
        ("args", obj(args)),
    ])
}

fn span_event(tl: &Timeline, name: &str, tid: u32, lock: u32, start_ns: u64, end_ns: u64) -> Value {
    obj([
        ("name", text(name)),
        ("ph", text("X")),
        ("pid", 1u32.into()),
        ("tid", tid.into()),
        ("ts", us(start_ns)),
        ("dur", us(end_ns.saturating_sub(start_ns))),
        ("args", obj([("lock", text(tl.lock_name(lock)))])),
    ])
}

/// Derives acquire/hold duration events by pairing the begin/acquired/
/// release markers per `(tid, lock)`.
fn derive_spans(tl: &Timeline, out: &mut Vec<Value>) {
    use std::collections::HashMap;
    // (tid, lock) -> (wait_start, hold_start) per side.
    let mut read: HashMap<(u32, u32), (Option<u64>, Option<u64>)> = HashMap::new();
    let mut write: HashMap<(u32, u32), (Option<u64>, Option<u64>)> = HashMap::new();
    for r in &tl.records {
        let key = (r.tid, r.lock);
        match r.kind {
            TraceKind::ReadBegin => read.entry(key).or_default().0 = Some(r.ts_ns),
            TraceKind::WriteBegin => write.entry(key).or_default().0 = Some(r.ts_ns),
            TraceKind::ReadAcquired => {
                let e = read.entry(key).or_default();
                if let Some(b) = e.0.take() {
                    out.push(span_event(tl, "acquire:read", r.tid, r.lock, b, r.ts_ns));
                }
                e.1 = Some(r.ts_ns);
            }
            TraceKind::WriteAcquired => {
                let e = write.entry(key).or_default();
                if let Some(b) = e.0.take() {
                    out.push(span_event(tl, "acquire:write", r.tid, r.lock, b, r.ts_ns));
                }
                e.1 = Some(r.ts_ns);
            }
            TraceKind::ReadRelease => {
                if let Some(a) = read.entry(key).or_default().1.take() {
                    out.push(span_event(tl, "hold:read", r.tid, r.lock, a, r.ts_ns));
                }
            }
            TraceKind::WriteRelease => {
                if let Some(a) = write.entry(key).or_default().1.take() {
                    out.push(span_event(tl, "hold:write", r.tid, r.lock, a, r.ts_ns));
                }
            }
            _ => {}
        }
    }
}

/// Renders the whole timeline as a Chrome Trace Event / Perfetto JSON
/// document.
pub fn render_chrome_trace(tl: &Timeline) -> String {
    let mut events = Vec::with_capacity(tl.records.len() + tl.threads.len() + 8);
    let name_args = |name: &str| obj([("name", text(name))]);
    events.push(obj([
        ("name", text("process_name")),
        ("ph", text("M")),
        ("pid", 1u32.into()),
        ("args", name_args("oll")),
    ]));
    for t in &tl.threads {
        events.push(obj([
            ("name", text("thread_name")),
            ("ph", text("M")),
            ("pid", 1u32.into()),
            ("tid", t.tid.into()),
            ("args", name_args(&tl.thread_name(t.tid))),
        ]));
    }
    events.extend(tl.records.iter().map(|r| instant_event(tl, r)));
    derive_spans(tl, &mut events);
    obj([
        ("displayTimeUnit", text("ns")),
        (
            "otherData",
            obj([
                ("schema", text("oll.trace.chrome")),
                ("records", tl.records.len().into()),
                ("dropped", tl.dropped.into()),
                ("truncated", tl.truncated().into()),
            ]),
        ),
        ("traceEvents", Value::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oll_telemetry::trace::{LockDescriptor, ThreadDescriptor};

    fn rec(ts: u64, tid: u32, kind: TraceKind, token: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            tid,
            lock: 1,
            kind,
            token,
        }
    }

    fn tiny_timeline() -> Timeline {
        Timeline {
            records: vec![
                rec(100, 1, TraceKind::ReadBegin, 0),
                rec(150, 1, TraceKind::ReadSlow, 0),
                rec(151, 1, TraceKind::Enqueued, 0xbeef),
                rec(400, 2, TraceKind::Granted, 0xbeef),
                rec(450, 1, TraceKind::ReadAcquired, 0),
                rec(900, 1, TraceKind::ReadRelease, 0),
            ],
            dropped: 3,
            locks: vec![LockDescriptor {
                id: 1,
                kind: "GOLL".into(),
                name: "export \"test\"".into(),
            }],
            threads: vec![
                ThreadDescriptor {
                    tid: 1,
                    name: "reader".into(),
                },
                ThreadDescriptor {
                    tid: 2,
                    name: String::new(),
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let doc = render_chrome_trace(&tiny_timeline());
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"dropped\":3"));
        assert!(doc.contains("\"truncated\":true"));
        // Escaped lock name, derived spans, fractional-µs timestamps.
        assert!(doc.contains("export \\\"test\\\""));
        assert!(doc.contains("\"name\":\"acquire:read\""));
        assert!(doc.contains("\"name\":\"hold:read\""));
        assert!(doc.contains("\"token\":\"0xbeef\""));
        // Unnamed threads get a synthesized track name.
        assert!(doc.contains("thread-2"));
    }

    #[test]
    fn chrome_trace_round_trips() {
        let tl = tiny_timeline();
        let doc = oll_util::json::parse(&render_chrome_trace(&tl)).expect("trace parses");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ns")
        );
        let other = doc.get("otherData").expect("otherData");
        assert_eq!(other.get("records").and_then(Value::as_u64), Some(6));
        assert_eq!(other.get("dropped").and_then(Value::as_u64), Some(3));
        assert_eq!(other.get("truncated").and_then(Value::as_bool), Some(true));
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        let named = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {name} event"))
        };
        // Fractional-µs timestamps: 100 ns is 0.1 µs.
        let begin = named("read_begin");
        assert_eq!(begin.get("ts").and_then(Value::as_f64), Some(0.1));
        assert_eq!(begin.get("tid").and_then(Value::as_u64), Some(1));
        let lock = begin.get("args").and_then(|a| a.get("lock"));
        assert_eq!(lock.and_then(Value::as_str), Some("export \"test\""));
        let enqueued = named("enqueued").get("args").and_then(|a| a.get("token"));
        assert_eq!(enqueued.and_then(Value::as_str), Some("0xbeef"));
        // read_begin at 100 ns → read_acquired at 450 ns: a 0.35 µs wait.
        let wait = named("acquire:read");
        assert_eq!(wait.get("ts").and_then(Value::as_f64), Some(0.1));
        assert_eq!(wait.get("dur").and_then(Value::as_f64), Some(0.35));
        assert_eq!(
            named("hold:read").get("dur").and_then(Value::as_f64),
            Some(0.45)
        );
    }
}
