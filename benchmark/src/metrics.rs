//! The metric names, units and directions the benchmark prints — the
//! program's copy of the lists in `/BENCHMARK.json` (`tests/contract.rs`
//! keeps the two equal) — and the shape of one run's output.

use oll::workloads::json::parse::Value;

/// The three bare OLL locks; `<l>` in a metric name is one of these.
pub const BARE: [&str; 3] = ["goll", "foll", "roll"];
/// The four lock configurations every workload drives.
pub const CONFIGS: [&str; 4] = ["goll", "foll", "roll", "stacked"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// `(name, unit, direction)`.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the locks sees; printed by an untraced run. Only what
/// repeats run to run on a shared host carries a bound: see the README's
/// "Which metrics carry a bound".
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", Lower),
    ("ops_s", "1/s", Higher),
    ("read_p50_ns", "ns", Lower),
];

/// Costs of single layers; printed by a traced run.
pub const PER_LAYER: &[Def] = &[
    // End-to-end by nature, but their run-to-run spread is too wide for
    // a bound (and the write percentiles have no value on read_only,
    // which takes no write; 0 is printed there).
    ("goll.ops_s", "1/s", Higher),
    ("foll.ops_s", "1/s", Higher),
    ("roll.ops_s", "1/s", Higher),
    ("stacked.ops_s", "1/s", Higher),
    ("read_p99_ns", "ns", Lower),
    ("write_p50_ns", "ns", Lower),
    ("write_p99_ns", "ns", Lower),
    ("csnzi.arrive_depart_direct_ns", "ns", Lower),
    ("csnzi.arrive_depart_tree_ns", "ns", Lower),
    ("csnzi.arrive_depart_policy_ns", "ns", Lower),
    ("csnzi.close_open_ns", "ns", Lower),
    ("csnzi.shared_direct_ops_s", "1/s", Higher),
    ("csnzi.shared_tree_ops_s", "1/s", Higher),
    ("csnzi.root_cas_fail_per_op", "ratio", Lower),
    ("csnzi.tree_arrival_share", "ratio", Higher),
    ("goll.read_ns", "ns", Lower),
    ("goll.write_ns", "ns", Lower),
    ("goll.read_self_ns", "ns", Lower),
    ("goll.timed_read_ns", "ns", Lower),
    ("goll.timed_write_ns", "ns", Lower),
    ("goll.handoff_ns", "ns", Lower),
    ("goll.slow_share", "ratio", Lower),
    ("goll.handoffs_per_write", "ratio", Lower),
    ("goll.read_p99_ns", "ns", Lower),
    ("goll.write_p99_ns", "ns", Lower),
    ("goll.new_ns", "ns", Lower),
    ("goll.new_bytes", "bytes", Lower),
    ("foll.read_ns", "ns", Lower),
    ("foll.write_ns", "ns", Lower),
    ("foll.read_self_ns", "ns", Lower),
    ("foll.timed_read_ns", "ns", Lower),
    ("foll.timed_write_ns", "ns", Lower),
    ("foll.handoff_ns", "ns", Lower),
    ("foll.slow_share", "ratio", Lower),
    ("foll.handoffs_per_write", "ratio", Lower),
    ("foll.read_p99_ns", "ns", Lower),
    ("foll.write_p99_ns", "ns", Lower),
    ("foll.new_ns", "ns", Lower),
    ("foll.new_bytes", "bytes", Lower),
    ("roll.read_ns", "ns", Lower),
    ("roll.write_ns", "ns", Lower),
    ("roll.read_self_ns", "ns", Lower),
    ("roll.timed_read_ns", "ns", Lower),
    ("roll.timed_write_ns", "ns", Lower),
    ("roll.handoff_ns", "ns", Lower),
    ("roll.slow_share", "ratio", Lower),
    ("roll.handoffs_per_write", "ratio", Lower),
    ("roll.read_p99_ns", "ns", Lower),
    ("roll.write_p99_ns", "ns", Lower),
    ("roll.new_ns", "ns", Lower),
    ("roll.new_bytes", "bytes", Lower),
    ("slots.register_ns", "ns", Lower),
    ("rwlock.read_self_ns", "ns", Lower),
    ("rwlock.write_self_ns", "ns", Lower),
    ("rwlock.timed_read_self_ns", "ns", Lower),
    ("bravo.biased_read_ns", "ns", Lower),
    ("bravo.unbiased_read_self_ns", "ns", Lower),
    ("bravo.write_self_ns", "ns", Lower),
    ("bravo.revoke_write_ns", "ns", Lower),
    ("bravo.bias_hit_share", "ratio", Higher),
    ("bravo.revokes_per_write", "ratio", Lower),
    ("tuning.read_self_ns", "ns", Lower),
    ("tuning.write_self_ns", "ns", Lower),
    ("tuning.flips", "count", Lower),
    ("cohort.write_self_ns", "ns", Lower),
    ("cohort.handoff_ns", "ns", Lower),
    ("telemetry.idle_overhead_pct", "%", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("baselines.std.ops_s", "1/s", Higher),
    ("baselines.centralized.ops_s", "1/s", Higher),
    ("ops_vs_std", "ratio", Higher),
    ("harness.loop_ns", "ns", Lower),
    ("harness.thread_balance", "ratio", Higher),
    ("harness.slice_iqr_pct", "%", Lower),
    ("harness.disturbed_tick_pct", "%", Lower),
];

/// One measured value, with what a reader needs beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Slice IQR, sample count, fallback percentile: printed, and kept in
    /// the result document, but not part of the driver's result line.
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (implies `failed == 0`).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// What else a reader should see: span summaries, reconciliations.
    pub remarks: Vec<String>,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl RunOutput {
    /// Collects `values` (by name) into the order and units of `defs`;
    /// `Err` names a metric the run did not produce.
    pub fn collect(defs: &[Def], values: &[(String, f64, String)]) -> Result<Vec<Metric>, String> {
        defs.iter()
            .map(|(name, unit, _)| {
                values
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, value, note)| Metric {
                        name: (*name).to_string(),
                        value: finite(*value),
                        unit,
                        note: note.clone(),
                    })
                    .ok_or_else(|| format!("metric {name} was not measured"))
            })
            .collect()
    }

    /// The metrics as a JSON object: each its `value` and `unit`, and its
    /// `note` if `with_notes`.
    fn metrics_json(&self, with_notes: bool) -> Value {
        let members = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value".to_string(), Value::Num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.into())),
            ];
            if with_notes {
                fields.push(("note".to_string(), Value::Str(m.note.clone())));
            }
            (m.name.clone(), Value::Obj(fields))
        });
        Value::Obj(members.collect())
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(false)),
        ])
        .render()
    }

    /// This run as a member of the result document.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("traced".into(), Value::Bool(self.traced)),
            ("correct".into(), Value::Bool(self.correct)),
            ("ops_attempted".into(), Value::Num(self.attempted as f64)),
            ("ops_failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(true)),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "workload {} ({}): ops_attempted {} ops_failed {} correct {}",
            self.workload,
            if self.traced { "traced" } else { "end to end" },
            self.attempted,
            self.failed,
            self.correct
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>22.9} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for r in &self.remarks {
            println!("  {r}");
        }
    }
}

/// Checks a driver result line against the contract: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`; whole op counts with at
/// least one attempted; and exactly the metrics of `defs`, each exactly a
/// numeric `value` and its `unit`.
pub fn check_result_line(line: &str, defs: &[Def]) -> Result<(), String> {
    let doc = oll::workloads::json::parse::parse(line).map_err(|e| e.to_string())?;
    let keys = |v: &Value| match v {
        Value::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    if keys(&doc) != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("top-level keys are {:?}", keys(&doc)));
    }
    if doc.get("correct").and_then(Value::as_bool).is_none() {
        return Err("correct is not a boolean".into());
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{key} is not a whole number"))
    };
    if count("attempted")? < 1 || count("failed")? > count("attempted")? {
        return Err("attempted must be at least 1 and at least failed".into());
    }
    let metrics = doc.get("metrics").expect("checked above");
    let expected: Vec<&str> = defs.iter().map(|d| d.0).collect();
    if keys(metrics) != expected {
        return Err(format!(
            "metrics are {:?}, expected {expected:?}",
            keys(metrics)
        ));
    }
    for (name, unit, _) in defs {
        let m = metrics.get(name).expect("checked above");
        if keys(m) != ["value", "unit"]
            || m.get("value").and_then(Value::as_f64).is_none()
            || m.get("unit").and_then(Value::as_str) != Some(unit)
        {
            return Err(format!("{name} is not {{value: number, unit: {unit:?}}}"));
        }
    }
    Ok(())
}
