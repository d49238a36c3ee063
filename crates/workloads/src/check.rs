//! Validators for the documents the workload binaries write — what the
//! `fig5check` bin runs after parsing its arguments. CI pipes short
//! `fig5 --json`, `fig5 --pair … --json` and `fig5_async --json` runs
//! through it so every option path is checked end to end: CLI flag →
//! lock dispatcher → sweep → JSON → in-tree parser → the shape the
//! renderer promises.
//!
//! [`check`] dispatches on the document's `"schema"`:
//!
//! - `oll.fig5` — every panel carries its option flags and every point a
//!   finite positive throughput; `biased` / `hazard` / `shape` demand
//!   the panels ran with that option.
//! - `oll.fig5_pair` — the sweep parameters are recorded, every row names
//!   one of the document's panels and has finite positive rates on both
//!   sides, a finite delta and a positive shortest-half time; `pair`
//!   demands the option compared. An `obs` comparison must additionally
//!   have had a live sampler, or it compared a run with itself.
//! - `oll.fig5_async` — every task accounted for (granted or timed out),
//!   zero C-SNZI surplus and zero queued waiters at exit, positive
//!   throughput; `async_tasks` demands at least that many tasks.
//!
//! An expectation that does not apply to the document's schema is an
//! error, not a pass: it would have checked nothing.

use crate::config::Fig5Panel;
use crate::json::parse::Value;
use crate::paired::PairOption;

/// What the caller requires of the document beyond being well-formed
/// (the `fig5check --expect-*` flags).
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// `oll.fig5`: every panel ran `--biased`.
    pub biased: bool,
    /// `oll.fig5`: every panel ran `--hazard`.
    pub hazard: bool,
    /// `oll.fig5`: every panel ran `--shape` with this value.
    pub shape: Option<u64>,
    /// `oll.fig5_pair`: the comparison was of this option.
    pub pair: Option<PairOption>,
    /// `oll.fig5_async`: the run drove at least this many tasks.
    pub async_tasks: Option<u64>,
}

fn get<'a, T>(
    v: &'a Value,
    key: &str,
    cast: fn(&'a Value) -> Option<T>,
    ctx: &str,
) -> Result<T, String> {
    v.get(key)
        .and_then(cast)
        .ok_or_else(|| format!("{ctx}: missing {key}"))
}

fn nonempty<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a [Value], String> {
    let items = get(v, key, Value::as_arr, ctx)?;
    if items.is_empty() {
        return Err(format!("{ctx}: empty {key}"));
    }
    Ok(items)
}

fn positive(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let n = get(v, key, Value::as_f64, ctx)?;
    if n.is_finite() && n > 0.0 {
        Ok(n)
    } else {
        Err(format!("{ctx}: non-positive {key} {n}"))
    }
}

/// Validates `doc` against its own schema and `expect`. `Ok` carries a
/// one-line summary of what was checked, `Err` the first violation.
pub fn check(doc: &Value, expect: &Expect) -> Result<String, String> {
    let schema = get(doc, "schema", Value::as_str, "document")?;
    get(doc, "version", Value::as_u64, "document")?;
    for (flag, set, applies_to) in [
        ("--expect-biased", expect.biased, "oll.fig5"),
        ("--expect-hazard", expect.hazard, "oll.fig5"),
        ("--expect-shape", expect.shape.is_some(), "oll.fig5"),
        ("--expect-pair", expect.pair.is_some(), "oll.fig5_pair"),
        (
            "--expect-async-tasks",
            expect.async_tasks.is_some(),
            "oll.fig5_async",
        ),
    ] {
        if set && applies_to != schema {
            return Err(format!(
                "{flag} checks an {applies_to} document, this one is \"{schema}\""
            ));
        }
    }
    match schema {
        "oll.fig5" => check_fig5(doc, expect),
        "oll.fig5_pair" => check_pair(doc, expect.pair),
        "oll.fig5_async" => check_async(doc, expect.async_tasks),
        other => Err(format!("unknown schema \"{other}\"")),
    }
}

fn check_fig5(doc: &Value, expect: &Expect) -> Result<String, String> {
    let flags = [("biased", expect.biased), ("hazard", expect.hazard)];
    let panels = nonempty(doc, "panels", "document")?;
    let mut points = 0usize;
    for (pi, panel) in panels.iter().enumerate() {
        let tag = get(panel, "panel", Value::as_str, &format!("panel[{pi}]"))?;
        let ctx = format!("panel {tag}");
        for (key, wanted) in flags {
            let on = get(panel, key, Value::as_bool, &ctx)?;
            if wanted && !on {
                return Err(format!("{ctx}: {key}=false, expected true"));
            }
        }
        if let Some(want) = expect.shape {
            match panel.get("shape_threads").and_then(Value::as_u64) {
                Some(got) if got == want => {}
                Some(got) => return Err(format!("{ctx}: shape_threads={got}, expected {want}")),
                None => return Err(format!("{ctx}: shape_threads=null, expected {want}")),
            }
        }
        for s in nonempty(panel, "series", &ctx)? {
            let lock = get(s, "lock", Value::as_str, &ctx)?;
            let ctx = format!("{ctx}/{lock}");
            for p in get(s, "points", Value::as_arr, &ctx)? {
                positive(p, "acquires_per_sec", &ctx)?;
                points += 1;
            }
        }
    }
    let mut summary = format!("{} panel(s), {points} point(s)", panels.len());
    for (name, _) in flags.iter().filter(|(_, wanted)| *wanted) {
        summary.push_str(&format!(", {name}"));
    }
    if let Some(n) = expect.shape {
        summary.push_str(&format!(", shape_threads={n}"));
    }
    Ok(summary)
}

fn check_pair(doc: &Value, expect: Option<PairOption>) -> Result<String, String> {
    let ctx = "pair";
    let name = get(doc, "option", Value::as_str, ctx)?;
    let option =
        PairOption::parse(name).ok_or_else(|| format!("{ctx}: unknown option \"{name}\""))?;
    if let Some(want) = expect.filter(|&want| want != option) {
        return Err(format!(
            "{ctx}: compares \"{name}\", expected \"{}\"",
            want.name()
        ));
    }
    let panels = nonempty(doc, "panels", ctx)?;
    for p in panels {
        if p.as_str().and_then(Fig5Panel::parse).is_none() {
            return Err(format!("{ctx}: unknown panel {}", p.render()));
        }
    }
    nonempty(doc, "threads", ctx)?;
    for key in ["acquisitions_per_thread", "runs", "ranks"] {
        if get(doc, key, Value::as_u64, ctx)? == 0 {
            return Err(format!("{ctx}: zero {key}"));
        }
    }
    let rows = nonempty(doc, "rows", ctx)?;
    let mut shortest = f64::INFINITY;
    for row in rows {
        let lock = get(row, "lock", Value::as_str, ctx)?;
        let panel = row.get("panel").filter(|p| panels.contains(p));
        let panel = panel.and_then(Value::as_str).ok_or_else(|| {
            format!("{ctx}/{lock}: row's panel is not one of the document's panels")
        })?;
        let ctx = format!("{ctx}/{lock}/{panel}");
        positive(row, "off_acquires_per_sec", &ctx)?;
        positive(row, "on_acquires_per_sec", &ctx)?;
        if !get(row, "delta_pct", Value::as_f64, &ctx)?.is_finite() {
            return Err(format!("{ctx}: non-finite delta_pct"));
        }
        shortest = shortest.min(positive(row, "min_elapsed_secs", &ctx)?);
    }
    let overall = get(doc, "overall_delta_pct", Value::as_f64, ctx)?;
    if !overall.is_finite() {
        return Err(format!("{ctx}: non-finite overall_delta_pct"));
    }
    let mut summary = format!(
        "pair {name}: {} row(s), {overall:+.2}% overall, shortest half {:.3} ms",
        rows.len(),
        shortest * 1e3,
    );
    if option == PairOption::Obs {
        if !get(doc, "sampler_active", Value::as_bool, ctx)? {
            return Err(format!(
                "{ctx}: sampler was not active (built without the telemetry feature?)"
            ));
        }
        let samples = get(doc, "samples", Value::as_u64, ctx)?;
        summary.push_str(&format!(", {samples} sample(s)"));
    }
    Ok(summary)
}

fn check_async(doc: &Value, expect_tasks: Option<u64>) -> Result<String, String> {
    let ctx = "async";
    let field = |key: &str| get(doc, key, Value::as_u64, ctx);
    let (tasks, workers) = (field("tasks")?, field("workers")?);
    if tasks == 0 || workers == 0 {
        return Err(format!("{ctx}: zero tasks or workers"));
    }
    if let Some(want) = expect_tasks.filter(|&want| tasks < want) {
        return Err(format!("{ctx}: {tasks} task(s), expected >= {want}"));
    }
    let accounted = field("granted_reads")? + field("granted_writes")? + field("timed_out")?;
    if accounted != tasks {
        return Err(format!(
            "{ctx}: {accounted} task(s) accounted for, expected {tasks}"
        ));
    }
    if field("surplus_at_exit")? != 0 || field("queued_at_exit")? != 0 {
        return Err(format!(
            "{ctx}: leaked exit state (surplus or queue nonzero)"
        ));
    }
    positive(doc, "tasks_per_sec", ctx)?;
    if doc.get("grant_latency").is_none() {
        return Err(format!("{ctx}: missing grant_latency"));
    }
    Ok(format!(
        "async {tasks} task(s) on {workers} worker(s), clean exit"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::parse;

    const PAIR: &str = r#"{"schema":"oll.fig5_pair","version":1,"option":"OPTION",
        "panels":["b","f"],"threads":[1,2],"acquisitions_per_thread":2000,"runs":3,"ranks":1,
        "rows":[{"panel":"b","lock":"FOLL","off_acquires_per_sec":31e6,
                 "on_acquires_per_sec":30e6,"delta_pct":-3.2,"min_elapsed_secs":0.00013},
                {"panel":"f","lock":"FOLL","off_acquires_per_sec":25e6,
                 "on_acquires_per_sec":26e6,"delta_pct":4.0,"min_elapsed_secs":0.00002}],
        "overall_delta_pct":0.4 EXTRA}"#;

    const ASYNC: &str = r#"{"schema":"oll.fig5_async","version":1,"tasks":1000,"workers":4,
        "granted_reads":880,"granted_writes":20,"timed_out":TIMED_OUT,"tasks_per_sec":1.5e5,
        "grant_latency":{"count":900},"surplus_at_exit":0,"queued_at_exit":0}"#;

    fn pair(option: &str, extra: &str) -> Value {
        parse(&PAIR.replace("OPTION", option).replace("EXTRA", extra)).unwrap()
    }

    fn expecting(option: PairOption) -> Expect {
        Expect {
            pair: Some(option),
            ..Expect::default()
        }
    }

    #[test]
    fn pair_documents() {
        let ok = check(&pair("cohort", ""), &expecting(PairOption::Cohort)).unwrap();
        assert!(ok.contains("2 row(s)") && ok.contains("0.020 ms"), "{ok}");
        check(&pair("cohort", ""), &Expect::default()).expect("no expectation, still valid");

        let wrong = check(&pair("self-tuning", ""), &expecting(PairOption::Cohort));
        assert!(wrong.unwrap_err().contains("expected \"cohort\""));
        assert!(check(&pair("tuned", ""), &Expect::default()).is_err());

        // A row from a panel the document did not sweep; a zero rate.
        let stray = PAIR.replace(r#""panel":"f","lock""#, r#""panel":"e","lock""#);
        let stray = parse(&stray.replace("OPTION", "cohort").replace("EXTRA", "")).unwrap();
        assert!(check(&stray, &Expect::default()).is_err());
        let dead = PAIR.replace("26e6", "0").replace("OPTION", "cohort");
        let dead = parse(&dead.replace("EXTRA", "")).unwrap();
        let err = check(&dead, &Expect::default()).unwrap_err();
        assert!(err.contains("pair/FOLL/f: non-positive on_acquires_per_sec"));
    }

    #[test]
    fn an_obs_pair_needs_a_live_sampler() {
        let live = pair("obs", r#","sampler_active":true,"samples":12"#);
        let ok = check(&live, &expecting(PairOption::Obs)).unwrap();
        assert!(ok.contains("12 sample(s)"), "{ok}");
        let inert = pair("obs", r#","sampler_active":false,"samples":0"#);
        let err = check(&inert, &expecting(PairOption::Obs)).unwrap_err();
        assert!(err.contains("sampler was not active"), "{err}");
        assert!(check(&pair("obs", ""), &Expect::default()).is_err());
    }

    #[test]
    fn async_documents() {
        let tasks = |n| Expect {
            async_tasks: Some(n),
            ..Expect::default()
        };
        let clean = parse(&ASYNC.replace("TIMED_OUT", "100")).unwrap();
        check(&clean, &tasks(1000)).expect("every task accounted for");
        let err = check(&clean, &tasks(1_000_000)).unwrap_err();
        assert!(err.contains("expected >= 1000000"), "{err}");

        let lost = parse(&ASYNC.replace("TIMED_OUT", "99")).unwrap();
        let err = check(&lost, &Expect::default()).unwrap_err();
        assert!(err.contains("999 task(s) accounted for, expected 1000"));
    }

    #[test]
    fn expectations_must_apply_to_the_schema() {
        let fig5 = parse(
            r#"{"schema":"oll.fig5","version":1,"panels":[{"panel":"b",
            "biased":false,"hazard":false,"shape_threads":4,"series":[{"lock":"GOLL",
            "points":[{"threads":1,"acquires_per_sec":4e7}]}]}]}"#,
        )
        .unwrap();
        let shape = Expect {
            shape: Some(4),
            ..Expect::default()
        };
        let ok = check(&fig5, &shape).unwrap();
        assert_eq!(ok, "1 panel(s), 1 point(s), shape_threads=4");
        let biased = Expect {
            biased: true,
            ..Expect::default()
        };
        assert!(check(&fig5, &biased).unwrap_err().contains("biased=false"));

        let err = check(&fig5, &expecting(PairOption::Cohort)).unwrap_err();
        assert!(err.contains("--expect-pair checks an oll.fig5_pair document"));
        assert!(check(&pair("cohort", ""), &shape).is_err());
        let other = parse(r#"{"schema":"oll.latency","version":1}"#).unwrap();
        assert!(check(&other, &Expect::default())
            .unwrap_err()
            .contains("unknown schema"));
    }
}
