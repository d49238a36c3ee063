//! The benchmark's own arithmetic. A wrong percentile or a mis-binned
//! slice would move every number later PRs are judged by.

use oll::workloads::json::parse::{parse, Value};
use oll_benchmark::compare::{bounds_from, compare, worse_by, Verdict};
use oll_benchmark::fingerprint::Fingerprint;
use oll_benchmark::metrics::Better;
use oll_benchmark::stats::*;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn quartiles_follow_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, med, q3) = quartiles(&v);
    assert!(
        close(q1, 2.75) && close(med, 5.5) && close(q3, 8.25),
        "{q1} {med} {q3}"
    );
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; order is irrelevant.
    let (q1, med, q3) = quartiles(&[3.0, 1.0, 2.0]);
    assert!(close(q1, 1.0) && close(med, 2.0) && close(q3, 3.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
}

#[test]
fn median_and_iqr_of_slices() {
    // 14 slice rates, one burst: the median ignores it, the IQR shows it.
    let mut slices = vec![100.0; 13];
    slices.push(500.0);
    assert!(close(median(&slices), 100.0));
    assert!(close(iqr_pct(&slices), 0.0));
    let spread: Vec<f64> = (0..14).map(|i| 93.0 + f64::from(i)).collect();
    let (q1, med, q3) = quartiles(&spread);
    assert!(close(iqr_pct(&spread), (q3 - q1) / med * 100.0));
    assert!(
        close(iqr_pct(&[0.0, 0.0]), 0.0),
        "a zero median has no relative spread"
    );
}

#[test]
fn geometric_mean() {
    assert!(close(geomean(&[2.0, 8.0]), 4.0));
    assert!(close(geomean(&[10.0, 10.0, 10.0]), 10.0));
    assert_eq!(geomean(&[]), 0.0);
    assert_eq!(
        geomean(&[5.0, 0.0]),
        0.0,
        "a config that measured nothing must not vanish"
    );
}

#[test]
fn raw_sample_percentile_is_nearest_rank_placed_within_its_tie() {
    let distinct: Vec<u32> = (1..=100).collect();
    // Rank 50 of 100 distinct values is the value 50; the rank reaches the
    // end of its one-sample tie.
    assert!(close(percentile(&distinct, 50.0), 51.0));
    assert!(close(percentile(&distinct, 99.0), 100.0));
    // 1000 samples of 35 ns and 1000 of 36: the median sits at the top of
    // the run of 35s, p25 halfway through it.
    let mut tied = vec![35u32; 1000];
    tied.extend(vec![36u32; 1000]);
    assert!(close(percentile(&tied, 50.0), 36.0));
    assert!(close(percentile(&tied, 25.0), 35.5));
    assert!(close(percentile(&tied, 75.0), 36.5));
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // 1000 samples: exactly ten lie beyond p99.
    let enough: Vec<u32> = (1..=1000).collect();
    assert_eq!(tail_percentile(&enough, 99.0).0, 99.0);
    // 500 samples: five beyond p99, so the next lower percentile, p95
    // (25 beyond), is reported.
    let fewer: Vec<u32> = (1..=500).collect();
    let (pct, v) = tail_percentile(&fewer, 99.0);
    assert_eq!(pct, 95.0);
    assert!(close(v, percentile(&fewer, 95.0)));
    // 60 samples: p99, p95 and p90 have at most six beyond; p75 has 15.
    let few: Vec<u32> = (1..=60).collect();
    assert_eq!(tail_percentile(&few, 99.0).0, 75.0);
    // Too few for any rung: the median.
    let tiny: Vec<u32> = (1..=15).collect();
    assert_eq!(
        tail_percentile(&tiny, 99.0),
        (50.0, percentile(&tiny, 50.0))
    );
    assert_eq!(tail_percentile(&[], 99.0), (50.0, 0.0));
}

/// A tick of `ops` ops in `ns`, stamped every 256 ops at an even pace.
fn tick(ops: u64, ns: u64) -> Tick {
    let stamps = (ops / STAMP_EVERY).max(1);
    Tick {
        ops,
        ns,
        stamps,
        max_gap_ns: ns / stamps,
        lat_from: (0, 0),
    }
}

#[test]
fn slice_binning_across_the_warm_up_boundary() {
    let mut bins = SliceBins::new(2);
    // Slice 0 is the warm-up slice: never throughput.
    bins.record(0, 0, tick(256, 1_000));
    bins.record(0, TICKS_PER_SLICE - 1, tick(256, 1_000));
    assert_eq!(bins, SliceBins::new(2));
    // Slice 1 is measured slice 0: its first tick is not the warm-up's last.
    bins.record(1, 0, tick(2_560, 10_000));
    assert_eq!(bins.slice(0)[0].ops, 2_560);
    // Slice 2 is the last measured slice; past it nothing is recorded.
    bins.record(2, TICKS_PER_SLICE - 1, tick(256, 1_000));
    bins.record(3, 0, tick(256, 1_000));
    bins.record(2, TICKS_PER_SLICE, tick(256, 1_000));
    assert_eq!(bins.measured(), 2);
    assert_eq!(bins.slice(1)[TICKS_PER_SLICE - 1].ops, 256);
    // One tick of 32 filled: the median tick of each slice is still empty.
    assert_eq!(slice_rates(&[bins]), vec![0.0, 0.0]);
}

#[test]
fn a_descheduled_worker_disturbs_the_tick() {
    // 10 ms tick, 39 stamps of 256 ops: one every 256 us.
    let even = tick(10_000, 10_000_000);
    assert!(!even.disturbed());
    // The same ops with one 3 ms hole (over 4x the mean interval).
    assert!(Tick {
        max_gap_ns: 3_000_000,
        ..even
    }
    .disturbed());
    // A fast loop (6 us between stamps) tolerates a 90 us hiccup, not 150.
    let fast = tick(400_000, 10_000_000);
    assert!(!Tick {
        max_gap_ns: 90_000,
        ..fast
    }
    .disturbed());
    assert!(Tick {
        max_gap_ns: 150_000,
        ..fast
    }
    .disturbed());
    assert!(
        !Tick::default().disturbed(),
        "an unrecorded tick is merely empty"
    );
}

#[test]
fn slice_rate_is_the_median_undisturbed_tick() {
    let mut a = SliceBins::new(1);
    let mut b = SliceBins::new(1);
    for t in 0..TICKS_PER_SLICE {
        // Worker b is descheduled for most of 12 ticks; a bursts meanwhile.
        // Each tick's time includes the block that overran its end.
        let burst = t < 12;
        a.record(1, t, tick(if burst { 10_240 } else { 1_024 }, 1_000_000));
        let held_up = Tick {
            max_gap_ns: 900_000,
            ..tick(256, 1_024_000)
        };
        b.record(
            1,
            t,
            if burst {
                held_up
            } else {
                tick(1_024, 1_024_000)
            },
        );
    }
    // 1 024 and 1 000 ops/ms from the two workers in the 20 counted ticks.
    assert_eq!(
        clean_ticks(&[a.clone(), b.clone()], 0),
        (12..TICKS_PER_SLICE).collect::<Vec<_>>()
    );
    let rates = slice_rates(&[a.clone(), b.clone()]);
    assert!(close(rates[0], 2_024_000.0), "{rates:?}");
    assert!(close(disturbed_share(&[a.clone(), b.clone()]), 12.0 / 32.0));
    assert!((slice_balance(&[a.clone(), b.clone()])[0] - 1_000.0 / 1_024.0).abs() < 1e-9);
    // With fewer than a quarter of the ticks undisturbed, all are counted.
    let mut c = SliceBins::new(1);
    for t in 0..TICKS_PER_SLICE {
        let held_up = Tick {
            max_gap_ns: 900_000,
            ..tick(256, 1_024_000)
        };
        c.record(
            1,
            t,
            if t < 30 {
                held_up
            } else {
                tick(1_024, 1_024_000)
            },
        );
    }
    assert_eq!(clean_ticks(&[a.clone(), c], 0).len(), TICKS_PER_SLICE);
    // A worker that gets a third of the other's ops all slice long shows.
    let mut starved = SliceBins::new(1);
    let mut full = SliceBins::new(1);
    for t in 0..TICKS_PER_SLICE {
        starved.record(1, t, tick(512, 1_000_000));
        full.record(1, t, tick(1_536, 1_000_000));
    }
    assert!(slice_balance(&[full.clone(), starved])[0] < 0.5);
    assert_eq!(slice_balance(&[full]), vec![1.0]);
}

fn print(cpu: &str, threads: usize, features: &str, commit: &str, seed: u64) -> Fingerprint {
    Fingerprint {
        cpu_model: cpu.into(),
        nproc: threads,
        threads,
        rustc: "rustc 1.95.0".into(),
        features: features.into(),
        commit: commit.into(),
        seed,
    }
}

fn doc(print: &Fingerprint, ops_s: f64, failed: u64) -> Value {
    let run = format!(
        r#"{{"traced":false,"correct":true,"ops_attempted":10,"ops_failed":{failed},
            "metrics":{{"ops_s":{{"value":{ops_s},"unit":"1/s","note":""}},
                        "read_p50_ns":{{"value":100,"unit":"ns","note":""}}}}}}"#
    );
    Value::Obj(vec![
        ("fingerprint".into(), print.to_json()),
        (
            "workloads".into(),
            Value::Obj(vec![(
                "solo".into(),
                Value::Obj(vec![("end_to_end".into(), parse(&run).unwrap())]),
            )]),
        ),
    ])
}

#[test]
fn fingerprint_mismatch_refuses_the_comparison() {
    let base = print("Xeon A", 2, "default", "abc", 1);
    assert_eq!(
        base.mismatch(&print("Xeon A", 2, "default", "def", 2)),
        None,
        "commit and seed may differ"
    );
    assert!(base
        .mismatch(&print("Xeon B", 2, "default", "abc", 1))
        .unwrap()
        .contains("CPU model"));
    assert!(base
        .mismatch(&print("Xeon A", 4, "default", "abc", 1))
        .unwrap()
        .contains("T differs"));
    assert!(base
        .mismatch(&print("Xeon A", 2, "telemetry", "abc", 1))
        .unwrap()
        .contains("features"));
    assert_eq!(Fingerprint::from_json(&base.to_json()), Some(base.clone()));

    let bounds = bounds_from(
        &parse(r#"{"end_to_end":[{"name":"ops_s","unit":"1/s","better":"higher","bound":0.1}]}"#)
            .unwrap(),
    )
    .unwrap();
    let other = print("Xeon B", 2, "default", "abc", 1);
    let err = compare(&doc(&base, 100.0, 0), &doc(&other, 100.0, 0), &bounds).unwrap_err();
    assert!(err.contains("refusing to compare"), "{err}");
}

#[test]
fn comparison_applies_each_metrics_bound_in_its_direction() {
    assert!(close(worse_by(100.0, 80.0, Better::Higher), 0.2));
    assert!(close(worse_by(100.0, 80.0, Better::Lower), -0.2));
    assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);

    let bounds = bounds_from(
        &parse(r#"{"end_to_end":[{"name":"ops_s","unit":"1/s","better":"higher","bound":0.1}]}"#)
            .unwrap(),
    )
    .unwrap();
    let p = print("Xeon A", 2, "default", "abc", 1);
    let verdict = |new: f64| {
        let rows = compare(&doc(&p, 100.0, 0), &doc(&p, new, 0), &bounds).unwrap();
        assert_eq!(rows.len(), 2, "one row per workload x metric");
        rows.iter().find(|r| r.metric == "ops_s").unwrap().verdict
    };
    assert_eq!(verdict(95.0), Verdict::Ok);
    assert_eq!(verdict(89.0), Verdict::Worse);
    assert_eq!(verdict(150.0), Verdict::Ok);
    // A metric without a bound is reported, never judged.
    let rows = compare(&doc(&p, 100.0, 0), &doc(&p, 100.0, 0), &bounds).unwrap();
    assert_eq!(
        rows.iter()
            .find(|r| r.metric == "read_p50_ns")
            .unwrap()
            .verdict,
        Verdict::Info
    );
    // A run with failed ops is no baseline.
    assert!(compare(&doc(&p, 100.0, 3), &doc(&p, 100.0, 0), &bounds).is_err());
}
