//! `fig5` — regenerate the throughput panels of Figure 5.
//!
//! ```text
//! USAGE:
//!   fig5 [--panel a|b|c|d|e|f|all] [--threads 1,2,4,8,16]
//!        [--locks GOLL,FOLL,ROLL,KSUH,Solaris-Like,...|all]
//!        [--acquisitions N] [--runs N] [--paper] [--verify]
//!        [--biased] [--hazard] [--cohort] [--self-tuning] [--shape N]
//!        [--csv PATH] [--json PATH] [--telemetry]
//!        [--trace PATH] [--trace-json PATH] [--flame PATH]
//!        [--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]
//! ```
//!
//! Defaults are scaled for a small machine; `--paper` switches to the
//! paper's exact per-thread acquisition counts (100k, or 10k at ≤50%
//! reads). `--telemetry` prints each lock's contention profile (counts
//! and histograms) after its panel; it needs a build with the
//! `telemetry` cargo feature to record anything. `--json` writes the
//! whole run as a schema-versioned `oll.fig5` document, including the
//! profiles when collected. `--trace` captures the run in the flight
//! recorder and writes a Chrome Trace Event file that loads directly in
//! Perfetto (needs a `--features telemetry` build, like `--obs`:
//! without it both are usage errors); `--trace-json` also
//! writes the raw capture as an `oll.trace` document.
//!
//! `--shape N` overrides the OLL locks' (GOLL/FOLL/ROLL) C-SNZI tree
//! shape to one sized for N threads. `--biased` wraps the OLL locks in the
//! BRAVO reader-biasing layer: biased reads publish into the global
//! visible-readers table and skip the underlying lock entirely until a
//! writer revokes the bias. `--hazard` wraps every lock in the
//! `oll::hazard::Watched` hardening layer (poisoning + wait-for-graph
//! tracking of every hold) so its steady-state overhead is measurable.
//! `--cohort` builds FOLL/ROLL
//! with the NUMA cohort writer gate: per-socket writer queues that hand
//! the write lock to same-socket waiters up to a batch bound before
//! releasing cross-node (GOLL and the baselines ignore it).
//! `--self-tuning` implies `--biased` and wraps the biased OLL locks in
//! the `SelfTuning` online controller: the lock's own observed
//! read/write mix arms or disarms its BRAVO bias while the sweep runs
//! (the baselines have no bias and ignore it). All five options are
//! recorded in the JSON report as what ran, where
//! `fig5check --expect-option` and `--expect-shape` check them.
//! What an option costs is measured by `benchmark/run.sh`, at fixed
//! duration with a noise bound; this sweep shows the panels.
//!
//! `--obs` runs the whole sweep under the continuous-monitoring sampler
//! (needs a `--features telemetry` build); with an ADDR it also serves
//! Prometheus text on `http://ADDR/metrics` (plus `/json` and
//! `/health`) for the duration of the run, and `--obs-json` writes the
//! final `oll.obs` document. `--flame` writes the trace analyzer's wait
//! breakdowns as folded stacks for flamegraph tooling (needs
//! `--trace`).

use oll::trace::TraceSession;
use oll_workloads::config::{Fig5Panel, LockKind, WorkloadConfig};
use oll_workloads::json::render_fig5_json;
use oll_workloads::obsio::{self, ObsArgs};
use oll_workloads::report::{render_csv, render_table};
use oll_workloads::sweep::{run_panel, PanelResult, SweepOptions};
use oll_workloads::traceio;
use std::process::exit;

struct Args {
    panels: Vec<Fig5Panel>,
    opts: SweepOptions,
    csv: Option<String>,
    json: Option<String>,
    telemetry: bool,
    trace: Option<String>,
    trace_json: Option<String>,
    flame: Option<String>,
    obs: ObsArgs,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fig5 [--panel a|b|c|d|e|f|all] [--threads 1,2,4]\n\
         \t[--locks name,...|all] [--acquisitions N] [--runs N]\n\
         \t[--paper] [--verify] [--biased] [--hazard] [--cohort]\n\
         \t[--self-tuning] [--shape N]\n\
         \t[--csv PATH] [--json PATH] [--telemetry]\n\
         \t[--trace PATH] [--trace-json PATH] [--flame PATH]\n\
         \t[--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut panels = Fig5Panel::ALL.to_vec();
    let mut opts = SweepOptions::quick();
    opts.progress = true;
    let mut csv = None;
    let mut json = None;
    let mut telemetry = false;
    let mut paper = false;
    let mut trace = None;
    let mut trace_json = None;
    let mut flame = None;
    let mut obs = ObsArgs::default();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if obsio::parse_flag(&argv, &mut i, &mut obs, &mut |m| usage(m)) {
            i += 1;
            continue;
        }
        let value = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| usage("missing value for flag"))
                .clone()
        };
        match argv[i].as_str() {
            "--panel" => {
                let v = value(i);
                i += 1;
                if v.eq_ignore_ascii_case("all") {
                    panels = Fig5Panel::ALL.to_vec();
                } else {
                    panels = v
                        .split(',')
                        .map(|p| {
                            Fig5Panel::parse(p)
                                .unwrap_or_else(|| usage(&format!("unknown panel `{p}`")))
                        })
                        .collect();
                }
            }
            "--threads" => {
                let v = value(i);
                i += 1;
                opts.thread_counts = v
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .unwrap_or_else(|_| usage(&format!("bad thread count `{t}`")))
                    })
                    .collect();
                if opts.thread_counts.is_empty() {
                    usage("--threads needs at least one value");
                }
                if opts.thread_counts.contains(&0) {
                    usage("--threads needs positive thread counts");
                }
            }
            "--locks" => {
                opts.locks = LockKind::parse_list(&value(i)).unwrap_or_else(|e| usage(&e));
                i += 1;
            }
            "--acquisitions" => {
                opts.base.acquisitions_per_thread = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --acquisitions"));
                i += 1;
            }
            "--runs" => {
                opts.base.runs = value(i).parse().unwrap_or_else(|_| usage("bad --runs"));
                i += 1;
            }
            "--paper" => paper = true,
            "--verify" => opts.base.verify = true,
            "--biased" => opts.lock_options.biased = true,
            "--hazard" => opts.lock_options.hazard = true,
            "--cohort" => opts.lock_options.cohort = true,
            "--self-tuning" => {
                opts.lock_options.self_tuning = true;
                opts.lock_options.biased = true;
            }
            "--shape" => {
                let n: usize = value(i).parse().unwrap_or_else(|_| usage("bad --shape"));
                if n == 0 {
                    usage("--shape needs a positive thread count");
                }
                opts.lock_options.shape_threads = Some(n);
                i += 1;
            }
            "--csv" => {
                csv = Some(value(i));
                i += 1;
            }
            "--json" => {
                json = Some(value(i));
                i += 1;
            }
            "--telemetry" => telemetry = true,
            "--trace" => {
                trace = Some(value(i));
                i += 1;
            }
            "--trace-json" => {
                trace_json = Some(value(i));
                i += 1;
            }
            "--flame" => {
                flame = Some(value(i));
                i += 1;
            }
            "--quiet" => opts.progress = false,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if paper {
        opts.base = WorkloadConfig {
            verify: opts.base.verify,
            runs: opts.base.runs,
            ..WorkloadConfig::paper_fidelity(1, 100)
        };
    }
    // JSON consumers want the profiles too, so any --json run collects
    // them when the build can record.
    opts.collect_telemetry = telemetry || json.is_some();
    if trace.is_none() && trace_json.is_some() {
        usage("--trace-json needs --trace");
    }
    if trace.is_none() && flame.is_some() {
        usage("--flame needs --trace");
    }
    for (asked, flag) in [(trace.is_some(), "--trace"), (obs.on, "--obs")] {
        if asked {
            oll_workloads::require_telemetry(flag).unwrap_or_else(|m| usage(&m));
        }
    }
    Args {
        panels,
        opts,
        csv,
        json,
        telemetry,
        trace,
        trace_json,
        flame,
        obs,
    }
}

/// Prints the contention profiles of one panel's locks at the largest
/// swept thread count (the full per-point set goes in the JSON report).
fn print_panel_telemetry(result: &PanelResult) {
    let profiles: Vec<_> = result
        .series
        .iter()
        .filter_map(|s| s.profiles.last().cloned().flatten())
        .collect();
    println!(
        "-- telemetry at {} thread(s) --",
        result.thread_counts.last().copied().unwrap_or(0)
    );
    println!("{}", oll_obs::report::render_text(&profiles));
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn main() {
    let args = parse_args();
    if args.telemetry && !oll::telemetry::Telemetry::enabled() {
        eprintln!(
            "warning: this binary was built without the `telemetry` feature; \
             no profiles will be recorded. Rebuild with:\n  \
             cargo run -p oll-workloads --release --features telemetry --bin fig5 -- --telemetry"
        );
    }
    eprintln!(
        "fig5: {} panel(s), threads {:?}, {} acquisitions/thread (/10 at <=50% reads), {} run(s) averaged",
        args.panels.len(),
        args.opts.thread_counts,
        args.opts.base.acquisitions_per_thread,
        args.opts.base.runs,
    );
    if !args.opts.lock_options.is_default() {
        eprintln!("fig5: lock options: {:?}", args.opts.lock_options);
    }

    let session = args.trace.as_ref().map(|_| TraceSession::begin());
    let obs_session = obsio::start(&args.obs, &mut |m| usage(m));

    let mut csv_body = String::new();
    let mut results = Vec::with_capacity(args.panels.len());
    let mut first = true;
    for &panel in &args.panels {
        eprintln!("== {} ==", panel.caption());
        let result = run_panel(panel, &args.opts);
        println!("{}", render_table(&result));
        if args.telemetry {
            print_panel_telemetry(&result);
        }
        csv_body.push_str(&render_csv(&result, first));
        first = false;
        results.push(result);
    }

    if let Some(path) = &args.csv {
        write_file(path, &csv_body);
    }
    if let Some(path) = &args.json {
        write_file(path, &(render_fig5_json(&results) + "\n"));
    }
    if let Some(session) = obs_session {
        let text = obsio::finish(session, args.obs.json.as_deref())
            .unwrap_or_else(|e| usage(&format!("cannot write obs report: {e}")));
        println!("-- obs --\n{text}");
    }
    if let (Some(path), Some(session)) = (&args.trace, session) {
        let tl = session.collect();
        let text =
            traceio::write_outputs(&tl, path, args.trace_json.as_deref(), args.flame.as_deref())
                .unwrap_or_else(|e| usage(&format!("cannot write trace: {e}")));
        println!("-- flight recorder --\n{text}");
    }
}
