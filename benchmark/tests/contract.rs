//! `/BENCHMARK.json` and the program must name the same workloads and
//! metrics: the driver reads the one, later issues cite the other.

use oll::workloads::json::parse::{parse, Value};
use oll_benchmark::metrics::{
    check_result_line, Better, Def, Metric, RunOutput, END_TO_END, PER_LAYER,
};
use oll_benchmark::workload::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn assert_same(list: &Value, defs: &[Def], bounded: bool) {
    let list = list.as_arr().expect("a list");
    let names: Vec<&str> = list.iter().map(|m| text(m, "name")).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.0).collect();
    assert_eq!(names, expected);
    for (m, (name, unit, better)) in list.iter().zip(defs) {
        assert_eq!(text(m, "unit"), *unit, "{name}");
        assert_eq!(text(m, "better"), better.as_str(), "{name}");
        match m.get("bound").and_then(Value::as_f64) {
            Some(b) => assert!(bounded && b > 0.0 && b <= 0.25, "{name}: bound {b}"),
            None => assert!(!bounded, "{name}: no bound"),
        }
    }
}

#[test]
fn benchmark_json_names_the_programs_metrics() {
    let doc = benchmark_json();
    assert_same(doc.get("end_to_end").unwrap(), END_TO_END, true);
    assert_same(doc.get("per_layer").unwrap(), PER_LAYER, false);
    assert_eq!(END_TO_END[0], ("setup_s", "s", Better::Lower));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

#[test]
fn benchmark_json_names_the_programs_workloads_with_a_reason_each() {
    let doc = benchmark_json();
    let listed = doc.get("workloads").and_then(Value::as_arr).unwrap();
    let names: Vec<&str> = listed.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for w in listed {
        let (name, why) = (text(w, "name"), text(w, "why"));
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}: {why:?}"
        );
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn result_line_meets_the_drivers_schema() {
    let metrics = END_TO_END
        .iter()
        .map(|(name, unit, _)| Metric {
            name: name.to_string(),
            value: 1.5,
            unit,
            note: "a note the driver must not see".into(),
        })
        .collect();
    let out = RunOutput {
        workload: "solo",
        traced: false,
        attempted: 10,
        failed: 0,
        correct: true,
        metrics,
        remarks: Vec::new(),
    };
    let line = out.result_line();
    check_result_line(&line, END_TO_END).unwrap();
    assert!(!line.contains('\n') && !line.contains("note"));
    assert!(
        check_result_line(&line, PER_LAYER).is_err(),
        "wrong metric list"
    );
    assert!(check_result_line(
        &line.replace("\"attempted\":10", "\"attempted\":0"),
        END_TO_END
    )
    .is_err());
    assert!(check_result_line("{}", END_TO_END).is_err());
}
