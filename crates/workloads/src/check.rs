//! Validators for the documents the workload binaries write — what the
//! `fig5check` bin runs after parsing its arguments. CI pipes short
//! `fig5 --json` and `fig5_async --json` runs through it so every option
//! path is checked end to end: CLI flag → lock dispatcher → sweep → JSON
//! → in-tree parser → the shape the renderer promises.
//!
//! [`check`] dispatches on the document's `"schema"`:
//!
//! - `oll.fig5` — every panel carries its option flags (one per
//!   [`LOCK_OPTIONS`] entry) and every point a finite positive
//!   throughput; `options` / `shape` demand the panels ran with them.
//! - `oll.fig5_async` — every task accounted for (granted or timed out),
//!   zero C-SNZI surplus and zero queued waiters at exit, positive
//!   throughput; `async_tasks` demands at least that many tasks.
//!
//! An expectation that does not apply to the document's schema is an
//! error, not a pass: it would have checked nothing.

use oll::util::json::Value;

/// The lock options an `oll.fig5` panel records: the `fig5` flag's
/// name (also what `fig5check --expect-option` takes) and the panel key.
pub const LOCK_OPTIONS: [(&str, &str); 4] = [
    ("biased", "biased"),
    ("hazard", "hazard"),
    ("cohort", "cohort"),
    ("self-tuning", "self_tuning"),
];

/// What the caller requires of the document beyond being well-formed
/// (the `fig5check --expect-*` flags).
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// `oll.fig5`: every panel ran with these options on, each named by
    /// its panel key (the second column of [`LOCK_OPTIONS`]).
    pub options: Vec<&'static str>,
    /// `oll.fig5`: every panel ran `--shape` with this value.
    pub shape: Option<u64>,
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
        ("--expect-option", !expect.options.is_empty(), "oll.fig5"),
        ("--expect-shape", expect.shape.is_some(), "oll.fig5"),
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
        "oll.fig5_async" => check_async(doc, expect.async_tasks),
        other => Err(format!("unknown schema \"{other}\"")),
    }
}

fn check_fig5(doc: &Value, expect: &Expect) -> Result<String, String> {
    let panels = nonempty(doc, "panels", "document")?;
    let mut points = 0usize;
    for (pi, panel) in panels.iter().enumerate() {
        let tag = get(panel, "panel", Value::as_str, &format!("panel[{pi}]"))?;
        let ctx = format!("panel {tag}");
        for (_, key) in LOCK_OPTIONS {
            let on = get(panel, key, Value::as_bool, &ctx)?;
            if !on && expect.options.contains(&key) {
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
    for key in &expect.options {
        summary.push_str(&format!(", {key}"));
    }
    if let Some(n) = expect.shape {
        summary.push_str(&format!(", shape_threads={n}"));
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
    use oll::util::json::parse;

    const ASYNC: &str = r#"{"schema":"oll.fig5_async","version":1,"tasks":1000,"workers":4,
        "granted_reads":880,"granted_writes":20,"timed_out":TIMED_OUT,"tasks_per_sec":1.5e5,
        "grant_latency":{"count":900},"surplus_at_exit":0,"queued_at_exit":0}"#;

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
        // One panel per on/off setting of every lock option.
        let fig5 = |on: bool| {
            let flags = LOCK_OPTIONS.map(|(_, key)| format!(r#""{key}":{on},"#));
            parse(&format!(
                r#"{{"schema":"oll.fig5","version":1,"panels":[{{"panel":"b",{}
                "shape_threads":4,"series":[{{"lock":"GOLL",
                "points":[{{"threads":1,"acquires_per_sec":4e7}}]}}]}}]}}"#,
                flags.concat()
            ))
            .unwrap()
        };
        let expecting = |options: &[&'static str]| Expect {
            options: options.to_vec(),
            ..Expect::default()
        };
        let shape = Expect {
            shape: Some(4),
            ..Expect::default()
        };
        let ok = check(&fig5(false), &shape).unwrap();
        assert_eq!(ok, "1 panel(s), 1 point(s), shape_threads=4");

        // Each option: a panel that ran with it off fails, one that ran
        // with it on passes and says so.
        for (_, key) in LOCK_OPTIONS {
            let err = check(&fig5(false), &expecting(&[key])).unwrap_err();
            assert_eq!(err, format!("panel b: {key}=false, expected true"));
            let ok = check(&fig5(true), &expecting(&[key])).unwrap();
            assert_eq!(ok, format!("1 panel(s), 1 point(s), {key}"));
        }
        let all = LOCK_OPTIONS.map(|(_, key)| key);
        let ok = check(&fig5(true), &expecting(&all)).unwrap();
        assert!(ok.ends_with("biased, hazard, cohort, self_tuning"), "{ok}");

        // A panel that does not record an option is malformed.
        let bare = parse(
            r#"{"schema":"oll.fig5","version":1,"panels":[{"panel":"b",
            "biased":true,"hazard":true,"series":[{"lock":"GOLL",
            "points":[{"threads":1,"acquires_per_sec":4e7}]}]}]}"#,
        )
        .unwrap();
        let err = check(&bare, &Expect::default()).unwrap_err();
        assert_eq!(err, "panel b: missing cohort");

        let clean = parse(&ASYNC.replace("TIMED_OUT", "100")).unwrap();
        let err = check(&clean, &expecting(&["cohort"])).unwrap_err();
        assert!(err.contains("--expect-option checks an oll.fig5 document"));
        assert!(check(&clean, &shape).is_err());
        let tasks = Expect {
            async_tasks: Some(1),
            ..Expect::default()
        };
        assert!(check(&fig5(true), &tasks).is_err());
        let other = parse(r#"{"schema":"oll.unknown","version":1}"#).unwrap();
        assert!(check(&other, &Expect::default())
            .unwrap_err()
            .contains("unknown schema"));
    }
}
