//! Paired off/on comparison: what turning one option on does to
//! throughput, measured so that the machine cannot answer instead.
//!
//! `fig5 --pair OPT` drives this. Every selected (panel, lock, threads)
//! point is measured `--runs` times, and each repetition is a **pair**:
//! one run with the option off and one with it on, adjacent in time.
//! Three rules, each learned from a number that was wrong without it:
//!
//! * **Pair per run, not per sweep.** On a shared box two sweeps taken
//!   minutes apart differ by ±10–25 % from drift alone; a sweep-then-sweep
//!   harness once "measured" sampler overheads from −26 % to +29 %.
//!   Adjacent halves see the same machine.
//! * **Alternate which half goes first**, by the parity of
//!   `lock + point + run`, so warm-up and any monotone drift bias neither
//!   side.
//! * **Aggregate the per-pair deltas, by median** — never the rates, never
//!   by mean. An oversubscribed box is bistable: a short run either fits
//!   each thread's loop into one scheduler slice (tens of M acquires/s, no
//!   contention ever forms) or convoys behind a preempted holder (a few
//!   hundred k/s). A pair whose halves straddle that flip reads as ±1000 %;
//!   a pair inside either regime gives an honest ratio. The median of
//!   deltas discards the straddlers, where a mean (of deltas or of rates)
//!   lets a single one become the headline.
//!
//! The off/on rate columns are medians too, but informational: they need
//! not reproduce the delta. Each row also carries the elapsed time of its
//! shortest half, because a pairing of sub-millisecond runs measures the
//! scheduler, and a reader should be able to see that it is one.
//! `benchmark/` times the same questions at fixed duration with a noise
//! bound (`cohort.*`, `tuning.*`, `bravo.*`, `telemetry.idle_overhead_pct`);
//! this mode is the quick look over any panel, lock set and option.

use crate::config::{Fig5Panel, LockOptions};
use crate::runner::run_throughput_profiled_with;
use crate::sweep::SweepOptions;
use oll_obs::{Sampler, SamplerConfig};
use oll_telemetry::report::SCHEMA_VERSION;
use oll_util::json::{obj, rounded, text, Value};
use std::fmt::Write as _;

/// The option a comparison turns on. "Off" is whatever [`LockOptions`]
/// the caller passes; "on" is the same plus this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOption {
    /// [`LockOptions::biased`].
    Biased,
    /// [`LockOptions::hazard`].
    Hazard,
    /// [`LockOptions::cohort`].
    Cohort,
    /// [`LockOptions::self_tuning`].
    SelfTuning,
    /// Not a lock option: the "on" half runs under a live
    /// [`oll_obs::Sampler`], so the delta is the cost of being watched.
    Obs,
}

impl PairOption {
    /// Every option, in `--pair` usage order.
    pub const ALL: [PairOption; 5] = [
        PairOption::Biased,
        PairOption::Hazard,
        PairOption::Cohort,
        PairOption::SelfTuning,
        PairOption::Obs,
    ];

    /// The `--pair` spelling, also the document's `"option"`.
    pub fn name(self) -> &'static str {
        match self {
            PairOption::Biased => "biased",
            PairOption::Hazard => "hazard",
            PairOption::Cohort => "cohort",
            PairOption::SelfTuning => "self-tuning",
            PairOption::Obs => "obs",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<PairOption> {
        Self::ALL.into_iter().find(|o| o.name() == s)
    }

    /// `off` with this option on (`off` itself for [`PairOption::Obs`]).
    pub fn turned_on(self, off: LockOptions) -> LockOptions {
        let mut on = off;
        match self {
            PairOption::Biased => on.biased = true,
            PairOption::Hazard => on.hazard = true,
            PairOption::Cohort => on.cohort = true,
            PairOption::SelfTuning => on.self_tuning = true,
            PairOption::Obs => {}
        }
        on
    }
}

/// One repetition: the two adjacent rates, in acquires per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// Rate with the option off.
    pub off: f64,
    /// Rate with the option on.
    pub on: f64,
}

impl Pair {
    /// The on half relative to the off half, in percent.
    pub fn delta_pct(&self) -> f64 {
        (self.on - self.off) / self.off * 100.0
    }
}

/// Median of `samples` (reordering them); NaN when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    match samples.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Measures one point `runs` times (at least once), each a [`Pair`] whose
/// halves `measure(on)` takes back to back. The off half goes first when
/// `parity + run` is even — pass `lock index + point index`.
pub fn run_pairs(runs: usize, parity: usize, mut measure: impl FnMut(bool) -> f64) -> Vec<Pair> {
    (0..runs.max(1))
        .map(|run| {
            if (parity + run) & 1 == 0 {
                let off = measure(false);
                Pair {
                    off,
                    on: measure(true),
                }
            } else {
                let on = measure(true);
                Pair {
                    off: measure(false),
                    on,
                }
            }
        })
        .collect()
}

/// Median off rate, median on rate, median of the paired deltas.
pub fn summarize(pairs: &[Pair]) -> (f64, f64, f64) {
    let column = |f: fn(&Pair) -> f64| median(&mut pairs.iter().map(f).collect::<Vec<_>>());
    (column(|p| p.off), column(|p| p.on), column(Pair::delta_pct))
}

/// Runs the comparison — `option` off vs. on (off being
/// `sweep.lock_options`) over `panels` × `sweep.locks` ×
/// `sweep.thread_counts`, `sweep.base.runs` pairs per point, `sampler`
/// being what [`PairOption::Obs`] samples at — and returns it as an
/// `oll.fig5_pair` document: the sweep's parameters, the machine's
/// locality ranks, one row per (panel, lock) over all its thread counts
/// (median off and on rates, median of the paired deltas, elapsed seconds
/// of the shortest half), the median of every paired delta of the run,
/// and for `obs` whether a sampler actually ran (not in a build without
/// the `telemetry` feature) and how many samples the on halves took.
pub fn compare(
    option: PairOption,
    panels: &[Fig5Panel],
    sweep: &SweepOptions,
    sampler: &SamplerConfig,
) -> Value {
    let off_opts = sweep.lock_options;
    let on_opts = option.turned_on(off_opts);
    let (mut sampler_active, mut samples) = (false, 0u64);
    let mut all_deltas = Vec::new();
    let mut rows = Vec::new();
    for (pi, &panel) in panels.iter().enumerate() {
        for (li, &kind) in sweep.locks.iter().enumerate() {
            let mut pairs = Vec::new();
            let mut min_elapsed_secs = f64::INFINITY;
            for (ti, &threads) in sweep.thread_counts.iter().enumerate() {
                let mut config = sweep.point_config(panel, threads);
                config.runs = 1;
                let point = run_pairs(sweep.base.runs, li + pi + ti, |on| {
                    let watcher =
                        (on && option == PairOption::Obs).then(|| Sampler::start(sampler.clone()));
                    let opts = if on { &on_opts } else { &off_opts };
                    let r = run_throughput_profiled_with(kind, &config, opts).0;
                    if let Some(w) = watcher {
                        sampler_active |= w.is_active();
                        samples += w.stop().samples;
                    }
                    min_elapsed_secs = min_elapsed_secs.min(r.elapsed.as_secs_f64());
                    r.acquires_per_sec
                });
                if sweep.progress {
                    let (off, on, delta) = summarize(&point);
                    eprintln!(
                        "  {:<13} panel={} threads={threads:<3} -> off {off:>12.0} / on \
                         {on:>12.0} acquires/s ({delta:+.2}%)",
                        kind.name(),
                        panel.tag(),
                    );
                }
                pairs.extend(point);
            }
            let (off, on, delta) = summarize(&pairs);
            all_deltas.extend(pairs.iter().map(Pair::delta_pct));
            rows.push(obj(vec![
                ("panel", text(panel.tag())),
                ("lock", text(kind.name())),
                ("off_acquires_per_sec", rounded(off, 1)),
                ("on_acquires_per_sec", rounded(on, 1)),
                ("delta_pct", rounded(delta, 3)),
                ("min_elapsed_secs", rounded(min_elapsed_secs, 9)),
            ]));
        }
    }
    let mut doc = vec![
        ("schema", text("oll.fig5_pair")),
        ("version", SCHEMA_VERSION.into()),
        ("option", text(option.name())),
        ("panels", panels.iter().map(|p| p.tag()).collect()),
        ("threads", sweep.thread_counts.iter().copied().collect()),
        (
            "acquisitions_per_thread",
            sweep.base.acquisitions_per_thread.into(),
        ),
        ("runs", sweep.base.runs.max(1).into()),
        ("ranks", oll_util::topology::rank_count().into()),
        ("rows", Value::Arr(rows)),
        ("overall_delta_pct", rounded(median(&mut all_deltas), 3)),
    ];
    if option == PairOption::Obs {
        doc.push(("sampler_active", sampler_active.into()));
        doc.push(("samples", samples.into()));
    }
    obj(doc)
}

/// The terminal table of an `oll.fig5_pair` document: one line per row,
/// then the overall delta. Fields the document lacks print as `?`/NaN.
pub fn render_table(doc: &Value) -> String {
    fn num(v: &Value, key: &str) -> f64 {
        v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
    }
    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or("?")
    }
    let mut out = format!(
        "{:<13} {:>5} {:>14} {:>14} {:>10} {:>14}\n",
        "lock", "panel", "off acq/s", "on acq/s", "delta", "shortest half"
    );
    for r in doc.get("rows").and_then(Value::as_arr).unwrap_or_default() {
        let _ = writeln!(
            out,
            "{:<13} {:>5} {:>14.0} {:>14.0} {:>+9.2}% {:>12.3}ms",
            text(r, "lock"),
            text(r, "panel"),
            num(r, "off_acquires_per_sec"),
            num(r, "on_acquires_per_sec"),
            num(r, "delta_pct"),
            num(r, "min_elapsed_secs") * 1e3,
        );
    }
    let _ = write!(
        out,
        "overall: {:+.2}% with {} on (median of paired run deltas, {} locality rank(s))",
        num(doc, "overall_delta_pct"),
        text(doc, "option"),
        num(doc, "ranks"),
    );
    if let Some(active) = doc.get("sampler_active").and_then(Value::as_bool) {
        let _ = write!(
            out,
            "; sampler active={active}, {} sample(s)",
            num(doc, "samples")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LockKind, WorkloadConfig};

    fn pairs(rates: &[(f64, f64)]) -> Vec<Pair> {
        rates.iter().map(|&(off, on)| Pair { off, on }).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert!(median(&mut []).is_nan());

        // Three pairs: deltas +10, -10, +20 -> +10. Four: the middle two.
        let (_, _, d) = summarize(&pairs(&[(100.0, 110.0), (100.0, 90.0), (100.0, 120.0)]));
        assert!((d - 10.0).abs() < 1e-9, "{d}");
        let four = pairs(&[
            (100.0, 110.0),
            (100.0, 90.0),
            (100.0, 120.0),
            (100.0, 104.0),
        ]);
        let (_, _, d) = summarize(&four);
        assert!((d - 7.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn a_pair_straddling_a_regime_flip_does_not_move_the_median() {
        // Four honest pairs at -2..+2 % in either regime, and one whose
        // off half convoyed while its on half ran free: a 100x "gain".
        let honest = [
            (30e6, 30.6e6),
            (400e3, 392e3),
            (30e6, 30.3e6),
            (400e3, 396e3),
        ];
        let mut with_flip = honest.to_vec();
        with_flip.push((400e3, 40e6));
        let (_, _, calm) = summarize(&pairs(&honest));
        let (_, _, flipped) = summarize(&pairs(&with_flip));
        assert!(calm.abs() < 2.0, "{calm}");
        assert!(flipped.abs() <= 2.0, "{flipped}");
        // What the mean of the same deltas would have reported.
        let mean = pairs(&with_flip).iter().map(Pair::delta_pct).sum::<f64>() / 5.0;
        assert!(mean > 1000.0, "{mean}");
    }

    #[test]
    fn halves_are_adjacent_and_the_order_alternates() {
        for parity in [0, 1] {
            let mut order = Vec::new();
            let got = run_pairs(3, parity, |on| {
                order.push(on);
                if on {
                    2.0
                } else {
                    1.0
                }
            });
            let first_on = parity == 1;
            assert_eq!(
                order,
                [first_on, !first_on, !first_on, first_on, first_on, !first_on],
                "parity {parity}"
            );
            // Whichever half ran first, each lands on its own side.
            assert_eq!(got, pairs(&[(1.0, 2.0); 3]));
        }
        assert_eq!(run_pairs(0, 0, |_| 1.0).len(), 1, "at least one pair");
    }

    #[test]
    fn options_parse_and_apply() {
        for o in PairOption::ALL {
            assert_eq!(PairOption::parse(o.name()), Some(o));
            let on = o.turned_on(LockOptions::default());
            assert_eq!(on.is_default(), o == PairOption::Obs, "{}", o.name());
        }
        assert_eq!(PairOption::parse("tuned"), None);
    }

    #[test]
    fn a_tiny_comparison_yields_a_document_the_validator_accepts() {
        let sweep = SweepOptions {
            thread_counts: vec![1, 2],
            locks: vec![LockKind::Foll, LockKind::Roll],
            base: WorkloadConfig {
                acquisitions_per_thread: 200,
                runs: 2,
                ..WorkloadConfig::quick(1, 0)
            },
            ..SweepOptions::quick()
        };
        let panels = [Fig5Panel::B, Fig5Panel::F];
        let doc = compare(
            PairOption::Cohort,
            &panels,
            &sweep,
            &SamplerConfig::default(),
        );
        assert_eq!(
            doc.get("rows").and_then(Value::as_arr).map(<[_]>::len),
            Some(4)
        );
        assert!(doc.get("sampler_active").is_none());
        assert!(render_table(&doc).contains("with cohort on"));
        let doc = oll_util::json::parse(&doc.render()).expect("renders as JSON");
        let expect = crate::check::Expect {
            pair: Some(PairOption::Cohort),
            ..Default::default()
        };
        crate::check::check(&doc, &expect).expect("a fresh document validates");
    }
}
