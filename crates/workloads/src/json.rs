//! Schema-versioned JSON reports for the workload binaries.
//!
//! Hand-rolled like `oll_telemetry::report` (the workspace carries no
//! serialization dependency). Three document schemas are rendered here
//! (`oll.fig5_pair` is built in [`crate::paired`], `oll.fig5_async` in
//! `crate::async_bench`):
//!
//! - `oll.fig5` — the panels of a `fig5` run: every (lock × threads)
//!   point with throughput and, when collected, the lock's telemetry
//!   profile.
//! - `oll.latency` — a `latency` run: per-lock acquisition-latency
//!   percentiles, plus telemetry profiles when collected.
//! - `oll.trace` — a flight-recorder capture (`--trace` on either
//!   binary): the merged record timeline plus the analyzer's findings.
//!   Causality tokens are 64-bit and travel as `"0x…"` hex strings —
//!   JSON numbers are f64 and would corrupt them.
//!
//! Consumers should check `"schema"` and `"version"` before parsing;
//! [`oll_telemetry::report::SCHEMA_VERSION`] is bumped on any
//! backwards-incompatible change across all OLL JSON documents. The
//! [`parse`] submodule carries a small JSON reader used to round-trip
//! test every document this module emits.

use crate::latency::{LatencyResult, LatencySummary};
use crate::sweep::PanelResult;
use oll_telemetry::report::{json_escape, render_lock_json, SCHEMA_VERSION};
use oll_telemetry::LockSnapshot;
use oll_trace::{Timeline, TraceReport};
use std::fmt::Write as _;

fn json_telemetry(profile: &Option<LockSnapshot>) -> String {
    match profile {
        Some(s) => render_lock_json(s),
        None => "null".to_string(),
    }
}

/// Renders a set of regenerated Figure 5 panels as one `oll.fig5`
/// document.
pub fn render_fig5_json(panels: &[PanelResult]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"oll.fig5\",\"version\":{SCHEMA_VERSION},\"panels\":["
    );
    for (pi, panel) in panels.iter().enumerate() {
        if pi > 0 {
            out.push(',');
        }
        let shape = match panel.options.shape_threads {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"panel\":\"{}\",\"read_pct\":{},\"biased\":{},\"hazard\":{},\"cohort\":{},\"self_tuning\":{},\"shape_threads\":{},\"thread_counts\":{:?},\"series\":[",
            panel.panel.tag(),
            panel.panel.read_pct(),
            panel.options.biased,
            panel.options.hazard,
            panel.options.cohort,
            panel.options.self_tuning,
            shape,
            panel.thread_counts,
        );
        for (si, s) in panel.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lock\":\"{}\",\"points\":[",
                json_escape(s.kind.name())
            );
            for (i, p) in s.points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let profile = s.profiles.get(i).cloned().flatten();
                let _ = write!(
                    out,
                    "{{\"threads\":{},\"acquires_per_sec\":{:.1},\"elapsed_secs\":{:.6},\"total_acquisitions\":{},\"telemetry\":{}}}",
                    p.threads,
                    p.acquires_per_sec,
                    p.elapsed.as_secs_f64(),
                    p.total_acquisitions,
                    json_telemetry(&profile),
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn json_summary(s: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
        s.count, s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns
    )
}

/// Renders a latency run as one `oll.latency` document. `profiles` must
/// be parallel to `results` (pass an all-`None` slice when telemetry was
/// not collected).
pub fn render_latency_json(
    threads: usize,
    read_pct: u32,
    acquisitions_per_thread: usize,
    results: &[LatencyResult],
    profiles: &[Option<LockSnapshot>],
) -> String {
    debug_assert_eq!(results.len(), profiles.len());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"oll.latency\",\"version\":{SCHEMA_VERSION},\"threads\":{threads},\"read_pct\":{read_pct},\"acquisitions_per_thread\":{acquisitions_per_thread},\"locks\":["
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let profile = profiles.get(i).cloned().flatten();
        let _ = write!(
            out,
            "{{\"lock\":\"{}\",\"read\":{},\"write\":{},\"telemetry\":{}}}",
            json_escape(r.kind.name()),
            json_summary(&r.read),
            json_summary(&r.write),
            json_telemetry(&profile),
        );
    }
    out.push_str("]}");
    out
}

fn json_u32s(v: &[u32]) -> String {
    let mut out = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
    out
}

/// Renders a flight-recorder capture and its analysis as one `oll.trace`
/// document. Timestamps are nanoseconds since the recorder's epoch (safe
/// as JSON numbers: f64 holds them exactly for ~104 days of uptime);
/// causality tokens are raw 64-bit values and travel as hex strings.
pub fn render_trace_json(tl: &Timeline, report: &TraceReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"oll.trace\",\"version\":{SCHEMA_VERSION},\"records\":{},\"dropped\":{},\"truncated\":{},\"locks\":[",
        tl.records.len(),
        tl.dropped,
        tl.truncated(),
    );
    for (i, l) in tl.locks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"kind\":\"{}\",\"name\":\"{}\"}}",
            l.id,
            json_escape(&l.kind),
            json_escape(&l.name),
        );
    }
    out.push_str("],\"threads\":[");
    for (i, t) in tl.threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tid\":{},\"name\":\"{}\"}}",
            t.tid,
            json_escape(&t.name)
        );
    }
    // Each event is a compact [ts_ns, tid, lock, "kind", "0x<token>"] row.
    out.push_str("],\"events\":[");
    for (i, r) in tl.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},\"{}\",\"0x{:x}\"]",
            r.ts_ns,
            r.tid,
            r.lock,
            r.kind.name(),
            r.token,
        );
    }
    let _ = write!(
        out,
        "],\"analysis\":{{\"acquisitions\":{},\"handoff_edges\":{},\"unmatched_grants\":{},\"breakdown\":[",
        report.acquisitions.len(),
        report.edges.len(),
        report.unmatched_grants,
    );
    for (i, b) in report.breakdowns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"lock\":{},\"acquisitions\":{},\"queued\":{},\"via_handoff\":{},\"spin_ns\":{},\"queued_ns\":{},\"handoff_ns\":{},\"max_total_ns\":{}}}",
            b.lock, b.acquisitions, b.queued, b.via_handoff, b.spin_ns, b.queued_ns, b.handoff_ns, b.max_total_ns,
        );
    }
    out.push_str("],\"cascades\":[");
    for (i, c) in report.cascades.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"lock\":{},\"tids\":{},\"start_ns\":{},\"end_ns\":{}}}",
            c.lock,
            json_u32s(&c.tids),
            c.start_ns,
            c.end_ns,
        );
    }
    out.push_str("],\"convoys\":[");
    for (i, c) in report.convoys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"lock\":{},\"length\":{},\"start_ns\":{},\"end_ns\":{}}}",
            c.lock, c.length, c.start_ns, c.end_ns,
        );
    }
    out.push_str("],\"starvations\":[");
    for (i, s) in report.starvations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"lock\":{},\"tid\":{},\"queued_ns\":{},\"threshold_ns\":{}}}",
            s.lock, s.tid, s.queued_ns, s.threshold_ns,
        );
    }
    out.push_str("],\"wait_chains\":[");
    for (i, w) in report.wait_chains.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tids\":{},\"locks\":{},\"ts_ns\":{}}}",
            json_u32s(&w.tids),
            json_u32s(&w.locks),
            w.ts_ns,
        );
    }
    out.push_str("]}}");
    out
}

/// A minimal JSON reader for the documents this module emits: round-trip
/// tests and the `--trace` CI smoke check parse with it. Full JSON
/// grammar; numbers come back as f64 (which is why 64-bit tokens travel
/// as hex strings in `oll.trace`).
pub mod parse {
    use std::fmt;

    /// A parsed JSON value. Objects keep their key order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string, with escapes resolved.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Serializes this value back to JSON text (compact, key order
        /// preserved). Numbers render via Rust's shortest-round-trip
        /// `f64` formatting, so a parse → render → parse cycle is
        /// lossless.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            use std::fmt::Write as _;
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(true) => out.push_str("true"),
                Value::Bool(false) => out.push_str("false"),
                Value::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Str(s) => {
                    let _ = write!(out, "\"{}\"", oll_telemetry::report::json_escape(s));
                }
                Value::Arr(items) => {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        v.render_into(out);
                    }
                    out.push(']');
                }
                Value::Obj(members) => {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{}\":", oll_telemetry::report::json_escape(k));
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Object member lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Array element lookup.
        pub fn idx(&self, i: usize) -> Option<&Value> {
            match self {
                Value::Arr(items) => items.get(i),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The number, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The number as an exact non-negative integer, if it is one.
        pub fn as_u64(&self) -> Option<u64> {
            let n = self.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
        }

        /// The boolean, if this is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// A syntax error, with the byte offset it was found at.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        /// Byte offset into the input.
        pub pos: usize,
        /// What went wrong.
        pub msg: &'static str,
    }

    impl fmt::Display for ParseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
        }
    }

    impl std::error::Error for ParseError {}

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: &'static str) -> ParseError {
            ParseError { pos: self.pos, msg }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err("unexpected character"))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a value")),
            }
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                members.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u16, ParseError> {
            let end = self.pos + 4;
            let digits = self
                .bytes
                .get(self.pos..end)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u16::from_str_radix(h, 16).ok())
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            self.pos = end;
            Ok(digits)
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                    b'"' => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    b'\\' => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair: a second \uXXXX must follow.
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00)
                                } else {
                                    u32::from(hi)
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid \\u escape"))?,
                                );
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                    }
                    first => {
                        // Copy one UTF-8 scalar (the input is a &str, so
                        // the sequence is valid).
                        let len = match first {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(self.pos..self.pos + len)
                            .and_then(|c| std::str::from_utf8(c).ok())
                            .ok_or_else(|| self.err("unterminated string"))?;
                        out.push_str(chunk);
                        self.pos += len;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|n| n.is_finite())
                .map(Value::Num)
                .ok_or_else(|| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::Value;
    use super::*;
    use crate::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
    use crate::latency::run_latency;
    use crate::sweep::{run_panel, SweepOptions};

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
        if oll_telemetry::Telemetry::enabled() {
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
        let v = parse::parse(&doc).expect("shaped fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));
        assert_eq!(p.get("shape_threads").and_then(Value::as_u64), Some(4));

        // Default options serialize with every flag off and a null shape.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = parse::parse(&doc).unwrap();
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
        let v = parse::parse(&doc).expect("biased fig5 doc must parse");
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
        let v = parse::parse(&doc).expect("hazard fig5 doc must parse");
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
        let v = parse::parse(&doc).expect("cohort fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("cohort").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(false));

        // Default options serialize with the gate off.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = parse::parse(&doc).unwrap();
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
        let v = parse::parse(&doc).expect("self-tuning fig5 doc must parse");
        let p = v.get("panels").and_then(|p| p.idx(0)).expect("one panel");
        assert_eq!(p.get("self_tuning").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("biased").and_then(Value::as_bool), Some(true));

        // Default options serialize with the controller off.
        let panel = run_panel(Fig5Panel::A, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = parse::parse(&doc).unwrap();
        let p = v.get("panels").and_then(|p| p.idx(0)).unwrap();
        assert_eq!(p.get("self_tuning").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let v = parse::parse(r#"{"a":[1,-2.5,1e3],"s":"q\" \\ \n A 😀","t":true,"n":null,"o":{}}"#)
            .unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.idx(0)).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.idx(1)).and_then(Value::as_f64),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.idx(2)).and_then(Value::as_f64),
            Some(1000.0)
        );
        assert_eq!(v.get("s").and_then(Value::as_str), Some("q\" \\ \n A 😀"));
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("o"), Some(&Value::Obj(Vec::new())));
        assert!(parse::parse("{\"unterminated\":").is_err());
        assert!(parse::parse("[1,2,]").is_err());
        assert!(parse::parse("{} trailing").is_err());
    }

    #[test]
    fn fig5_round_trip() {
        let panel = run_panel(Fig5Panel::B, &tiny_opts());
        let doc = render_fig5_json(&[panel]);
        let v = parse::parse(&doc).expect("fig5 doc must parse");
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
    fn latency_round_trip() {
        let config = WorkloadConfig {
            threads: 2,
            read_pct: 80,
            acquisitions_per_thread: 200,
            critical_work: 0,
            outside_work: 0,
            seed: 7,
            runs: 1,
            verify: false,
        };
        let r = run_latency(LockKind::SolarisLike, &config);
        let p50 = r.read.p50_ns;
        let count = r.read.count;
        let doc = render_latency_json(2, 80, 200, &[r], &[None]);
        let v = parse::parse(&doc).expect("latency doc must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("oll.latency"));
        assert_eq!(
            v.get("version").and_then(Value::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        assert_eq!(v.get("read_pct").and_then(Value::as_u64), Some(80));
        let read = v
            .get("locks")
            .and_then(|l| l.idx(0))
            .and_then(|l| l.get("read"))
            .expect("read summary");
        assert_eq!(read.get("count").and_then(Value::as_u64), Some(count));
        assert_eq!(read.get("p50_ns").and_then(Value::as_u64), Some(p50));
    }

    #[test]
    fn trace_round_trip() {
        use oll_trace::{
            analyze, AnalyzerConfig, LockDescriptor, ThreadDescriptor, Timeline, TraceKind,
            TraceRecord,
        };

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
        let v = parse::parse(&doc).expect("trace doc must parse");
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

    #[test]
    fn render_is_parse_inverse() {
        let doc = r#"{"a":[1,-2.5,1e3,true,null],"s":"q\" \\ A 😀","o":{"k":0.000087}}"#;
        let v = parse::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(parse::parse(&rendered).unwrap(), v);
        // Idempotent: rendering the re-parse reproduces the same text.
        assert_eq!(parse::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn latency_document_shape() {
        let config = WorkloadConfig {
            threads: 2,
            read_pct: 80,
            acquisitions_per_thread: 200,
            critical_work: 0,
            outside_work: 0,
            seed: 7,
            runs: 1,
            verify: false,
        };
        let r = run_latency(LockKind::SolarisLike, &config);
        let doc = render_latency_json(2, 80, 200, &[r], &[None]);
        assert!(doc.starts_with("{\"schema\":\"oll.latency\",\"version\":1,"));
        assert!(doc.contains("\"lock\":\"Solaris Like\""));
        assert!(doc.contains("\"read\":{\"count\":"));
        assert!(doc.contains("\"telemetry\":null"));
    }
}
