//! `latency` — per-acquisition latency percentiles for every lock.
//!
//! ```text
//! USAGE:
//!   latency [--threads N] [--read-pct P] [--acquisitions N]
//!           [--locks name,...|all] [--biased] [--hazard]
//!           [--cohort] [--self-tuning] [--shape N] [--json PATH] [--telemetry]
//!           [--trace PATH] [--trace-json PATH] [--flame PATH]
//!           [--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]
//! ```
//!
//! Complements the throughput-oriented `fig5` binary with tail-latency
//! visibility: how long can a single `lock_read` / `lock_write` stall
//! under the given mix? The lock-option flags mean exactly what they
//! mean to `fig5` (one dispatcher builds the locks for both):
//! `--shape N` sizes the OLL locks' (GOLL/FOLL/ROLL) C-SNZI tree for N
//! threads; `--biased`
//! wraps the OLL locks in the BRAVO reader-biasing layer, exposing the
//! biased read fast path's latency. `--hazard` wraps every lock in the
//! `oll_hazard::Watched` hardening layer (poisoning + wait-for-graph
//! tracking of every hold) so its cost shows in the tails. `--cohort` builds FOLL/ROLL with the NUMA cohort writer
//! gate (batched same-socket write hand-off), exposing what the batch
//! bound does to writer tails. `--self-tuning` wraps the OLL locks in
//! the `SelfTuning` online policy controller, so the tails include any
//! mid-run knob steering (bias arm/disarm, backoff, cohort batch) the
//! controller decides on. `--telemetry` additionally prints each lock's
//! contention profile (needs a `--features telemetry` build to record);
//! `--json` writes a schema-versioned `oll.latency` document. `--trace`
//! captures the run in the flight recorder and writes a Perfetto-loadable
//! Chrome Trace Event file;
//! `--trace-json` also writes the raw capture as an `oll.trace`
//! document, and `--flame` the analyzer's wait breakdowns as folded
//! stacks for flamegraph tooling. `--obs` runs the measurement under
//! the continuous-monitoring sampler, optionally serving Prometheus text
//! on ADDR; `--obs-json` writes the final `oll.obs` document. `--trace`
//! and `--obs` need a `--features telemetry` build: without it they are
//! usage errors (exit 2).

use oll_telemetry::report::fmt_ns;
use oll_trace::TraceSession;
use oll_workloads::config::{LockKind, LockOptions, WorkloadConfig};
use oll_workloads::json::render_latency_json;
use oll_workloads::latency::run_latency_profiled_with;
use oll_workloads::obsio::{self, ObsArgs};
use oll_workloads::traceio;
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: latency [--threads N] [--read-pct P] [--acquisitions N] [--locks name,...|all] \
         [--biased] [--hazard] [--cohort] [--self-tuning] [--shape N] \
         [--json PATH] [--telemetry] \
         [--trace PATH] [--trace-json PATH] \
         [--flame PATH] [--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]"
    );
    exit(2);
}

fn main() {
    let mut threads = 4usize;
    let mut read_pct = 95u32;
    let mut acquisitions = 10_000usize;
    let mut locks = LockKind::FIGURE5.to_vec();
    let mut json: Option<String> = None;
    let mut lock_options = LockOptions::default();
    let mut telemetry = false;
    let mut trace: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut flame: Option<String> = None;
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
            "--threads" => {
                threads = value(i).parse().unwrap_or_else(|_| usage("bad --threads"));
                if threads == 0 {
                    usage("--threads needs a positive thread count");
                }
                i += 1;
            }
            "--read-pct" => {
                read_pct = value(i).parse().unwrap_or_else(|_| usage("bad --read-pct"));
                if read_pct > 100 {
                    usage("--read-pct must be 0..=100");
                }
                i += 1;
            }
            "--acquisitions" => {
                acquisitions = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --acquisitions"));
                i += 1;
            }
            "--locks" => {
                locks = LockKind::parse_list(&value(i)).unwrap_or_else(|e| usage(&e));
                i += 1;
            }
            "--json" => {
                json = Some(value(i));
                i += 1;
            }
            "--shape" => {
                let n: usize = value(i).parse().unwrap_or_else(|_| usage("bad --shape"));
                if n == 0 {
                    usage("--shape needs a positive thread count");
                }
                lock_options.shape_threads = Some(n);
                i += 1;
            }
            "--biased" => lock_options.biased = true,
            "--hazard" => lock_options.hazard = true,
            "--cohort" => lock_options.cohort = true,
            "--self-tuning" => lock_options.self_tuning = true,
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
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    if telemetry && !oll_telemetry::Telemetry::enabled() {
        eprintln!(
            "warning: this binary was built without the `telemetry` feature; \
             no profiles will be recorded. Rebuild with:\n  \
             cargo run -p oll-workloads --release --features telemetry --bin latency -- --telemetry"
        );
    }
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
    let session = trace.as_ref().map(|_| TraceSession::begin());
    let obs_session = obsio::start(&obs, &mut |m| usage(m));

    let config = WorkloadConfig {
        threads,
        read_pct,
        acquisitions_per_thread: acquisitions,
        critical_work: 0,
        outside_work: 0,
        seed: 0x7A7E_2009,
        runs: 1,
        verify: false,
    };

    println!("latency: {threads} threads, {read_pct}% reads, {acquisitions} acquisitions/thread");
    if !lock_options.is_default() {
        println!("latency: lock options: {lock_options:?}");
    }
    println!(
        "{:<13} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "lock", "r.p50", "r.p99", "r.p999", "r.max", "w.p50", "w.p99", "w.p999", "w.max"
    );
    let mut results = Vec::with_capacity(locks.len());
    let mut profiles = Vec::with_capacity(locks.len());
    for kind in locks {
        let (r, profile) = run_latency_profiled_with(kind, &config, &lock_options);
        println!(
            "{:<13} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
            r.kind.name(),
            fmt_ns(r.read.p50_ns),
            fmt_ns(r.read.p99_ns),
            fmt_ns(r.read.p999_ns),
            fmt_ns(r.read.max_ns),
            fmt_ns(r.write.p50_ns),
            fmt_ns(r.write.p99_ns),
            fmt_ns(r.write.p999_ns),
            fmt_ns(r.write.max_ns),
        );
        results.push(r);
        profiles.push(profile);
    }

    if telemetry {
        let recorded: Vec<_> = profiles.iter().flatten().cloned().collect();
        println!("\n-- telemetry --");
        println!("{}", oll_telemetry::report::render_text(&recorded));
    }
    if let Some(path) = json {
        let doc = render_latency_json(threads, read_pct, acquisitions, &results, &profiles);
        std::fs::write(&path, doc + "\n")
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(session) = obs_session {
        let text = obsio::finish(session, obs.json.as_deref())
            .unwrap_or_else(|e| usage(&format!("cannot write obs report: {e}")));
        println!("-- obs --\n{text}");
    }
    if let (Some(path), Some(session)) = (&trace, session) {
        let tl = session.collect();
        let text = traceio::write_outputs(&tl, path, trace_json.as_deref(), flame.as_deref())
            .unwrap_or_else(|e| usage(&format!("cannot write trace: {e}")));
        println!("-- flight recorder --\n{text}");
    }
}
