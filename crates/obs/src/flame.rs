//! Folded-stack export over the trace analyzer's per-acquisition wait
//! breakdowns, consumable by standard flamegraph tooling
//! (`flamegraph.pl`, inferno, speedscope's collapsed format).
//!
//! Each completed acquisition contributes its three wait components to
//! three synthetic stacks:
//!
//! ```text
//! <lock>;read|write;spin     <summed ns>
//! <lock>;read|write;queued   <summed ns>
//! <lock>;read|write;handoff  <summed ns>
//! ```
//!
//! Because `spin + queued + handoff == total` for every acquisition by
//! analyzer construction, the folded totals per lock equal the
//! analyzer's [`LockBreakdown`](crate::analyze::LockBreakdown) sums
//! exactly — `tests/obs.rs` round-trips the text through [`parse_folded`] and
//! checks that identity with zero unmatched records.

use crate::TraceReport;
use oll_telemetry::trace::Timeline;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Replaces the two characters the folded format reserves (`;` between
/// frames, space before the weight) so lock names survive round trips.
fn frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

const PHASES: [&str; 3] = ["spin", "queued", "handoff"];

/// Renders the analyzer's acquisitions as folded stacks, one line per
/// `(lock, op, phase)` with a nonzero summed weight, sorted for stable
/// output.
pub fn render_folded(tl: &Timeline, report: &TraceReport) -> String {
    let mut agg: BTreeMap<(String, &'static str, &'static str), u64> = BTreeMap::new();
    for a in &report.acquisitions {
        let lock = frame(tl.lock_name(a.lock));
        let op = if a.write { "write" } else { "read" };
        for (phase, ns) in PHASES.iter().zip([a.spin_ns, a.queued_ns, a.handoff_ns]) {
            if ns > 0 {
                *agg.entry((lock.clone(), op, phase)).or_default() += ns;
            }
        }
    }
    let mut out = String::new();
    for ((lock, op, phase), weight) in &agg {
        let _ = writeln!(out, "{lock};{op};{phase} {weight}");
    }
    out
}

/// One parsed folded-stack line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedLine {
    /// The semicolon-separated frames, outermost first.
    pub frames: Vec<String>,
    /// The sample weight (nanoseconds, for this exporter).
    pub weight: u64,
}

/// Parses folded-stack text (the inverse of [`render_folded`]; also
/// accepts any other tool's collapsed output).
pub fn parse_folded(text: &str) -> Result<Vec<FoldedLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight", i + 1))?;
        let weight = weight
            .parse::<u64>()
            .map_err(|_| format!("line {}: bad weight `{weight}`", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {}: empty frame", i + 1));
        }
        out.push(FoldedLine { frames, weight });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzerConfig};
    use oll_telemetry::trace::{TraceKind, TraceRecord};

    fn rec(ts_ns: u64, tid: u32, lock: u32, kind: TraceKind, token: u64) -> TraceRecord {
        TraceRecord {
            ts_ns,
            tid,
            lock,
            kind,
            token,
        }
    }

    fn timeline() -> Timeline {
        use oll_telemetry::trace::LockDescriptor;
        // One spin-only read (t=0..10) and one fully staged write
        // (begin 0, enqueue 5, grant 20, acquire 30).
        Timeline {
            records: vec![
                rec(0, 1, 1, TraceKind::ReadBegin, 0),
                rec(10, 1, 1, TraceKind::ReadAcquired, 0),
                rec(0, 2, 1, TraceKind::WriteBegin, 0),
                rec(5, 2, 1, TraceKind::Enqueued, 7),
                rec(20, 1, 1, TraceKind::Granted, 7),
                rec(30, 2, 1, TraceKind::WriteAcquired, 0),
            ],
            locks: vec![LockDescriptor {
                id: 1,
                kind: "GOLL".into(),
                name: "flame lock; a".into(),
            }],
            ..Timeline::default()
        }
    }

    #[test]
    fn folded_totals_match_the_analyzer() {
        let tl = timeline();
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.unmatched_grants, 0);
        let folded = render_folded(&tl, &report);
        let lines = parse_folded(&folded).unwrap();
        // Reserved characters were sanitized, not leaked.
        assert!(lines.iter().all(|l| l.frames[0] == "flame_lock__a"));
        let total: u64 = lines.iter().map(|l| l.weight).sum();
        let breakdown: u64 = report
            .breakdowns
            .iter()
            .map(|b| b.spin_ns + b.queued_ns + b.handoff_ns)
            .sum();
        assert_eq!(total, breakdown);
        // The staged write contributed all three phases.
        let phases: Vec<_> = lines
            .iter()
            .filter(|l| l.frames[1] == "write")
            .map(|l| l.frames[2].clone())
            .collect();
        assert_eq!(phases, ["handoff", "queued", "spin"]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_folded("no_weight_here").is_err());
        assert!(parse_folded("a;b NaN").is_err());
        assert!(parse_folded("a;;b 3").is_err());
        assert_eq!(parse_folded("a;b 3\n\n").unwrap().len(), 1);
    }
}
