//! `--against`: two result documents, metric by metric, against the
//! bounds `/BENCHMARK.json` fixes.

use crate::fingerprint::Fingerprint;
use crate::metrics::Better;
use oll::workloads::json::parse::Value;

/// An end-to-end metric's direction and the share of the old value by
/// which it may get worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounds_from(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better is neither higher nor lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or better.
    Ok,
    /// Worse than the old value by more than the bound.
    Worse,
    /// A per-layer metric: it has no bound.
    Info,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// `(new - old) / old` (0 when the old value is 0).
    pub change: f64,
    pub verdict: Verdict,
}

/// How much worse `new` is than `old`, as a share of `old`.
pub fn worse_by(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (old - new) / old,
        Better::Lower => (new - old) / old,
    }
}

fn members(doc: &Value, key: &str) -> Vec<(String, Value)> {
    match doc.get(key) {
        Some(Value::Obj(m)) => m.clone(),
        _ => Vec::new(),
    }
}

/// One row per workload x metric present in both documents. `Err` if
/// the fingerprints forbid the comparison or either run failed an op.
pub fn compare(old: &Value, new: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let print = |doc: &Value| {
        doc.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or("a document has no fingerprint")
    };
    if let Some(why) = print(old)?.mismatch(&print(new)?) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut rows = Vec::new();
    for (workload, new_runs) in members(new, "workloads") {
        let Some(old_runs) = old.get("workloads").and_then(|w| w.get(&workload)) else {
            continue;
        };
        for kind in ["end_to_end", "traced"] {
            let (Some(old_run), Some(new_run)) = (old_runs.get(kind), new_runs.get(kind)) else {
                continue;
            };
            for run in [old_run, new_run] {
                if run.get("ops_failed").and_then(Value::as_u64) != Some(0) {
                    return Err(format!("{workload} ({kind}): a run has failed ops"));
                }
            }
            for (metric, new_m) in members(new_run, "metrics") {
                let value = |m: &Value| m.get("value").and_then(Value::as_f64);
                let (Some(old_v), Some(new_v)) = (
                    old_run
                        .get("metrics")
                        .and_then(|m| m.get(&metric))
                        .and_then(value),
                    value(&new_m),
                ) else {
                    continue;
                };
                let verdict = match bounds.iter().find(|b| b.name == metric) {
                    Some(b) if worse_by(old_v, new_v, b.better) > b.bound => Verdict::Worse,
                    Some(_) => Verdict::Ok,
                    None => Verdict::Info,
                };
                rows.push(Row {
                    workload: workload.clone(),
                    metric,
                    old: old_v,
                    new: new_v,
                    change: if old_v == 0.0 {
                        0.0
                    } else {
                        (new_v - old_v) / old_v
                    },
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// Prints the table; `true` if no row is [`Verdict::Worse`].
pub fn print(rows: &[Row], bounds: &[Bound]) -> bool {
    println!(
        "{:<12} {:<30} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "change", "bound"
    );
    for r in rows {
        let bound = bounds
            .iter()
            .find(|b| b.name == r.metric)
            .map_or("-".to_string(), |b| format!("{:.0}%", b.bound * 100.0));
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Info => "(no bound)",
        };
        let change = format!("{:+.1}%", r.change * 100.0);
        // Set-up times are microseconds in seconds; rates are millions.
        let show = |v: f64| match v.abs() < 1.0 {
            true => format!("{v:.9}"),
            false => format!("{v:.4}"),
        };
        println!(
            "{:<12} {:<30} {:>16} {:>16} {:>9} {:>7}  {}",
            r.workload,
            r.metric,
            show(r.old),
            show(r.new),
            change,
            bound,
            verdict
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    println!("{} rows, {} worse than the bound allows", rows.len(), worse);
    worse == 0
}
