//! `fig5_async` — the async-lock counterpart of `fig5`: mass *task*
//! contention on a bounded worker pool.
//!
//! ```text
//! USAGE:
//!   fig5_async [--tasks N] [--workers N] [--write-pct P] [--cancel-pct P]
//!              [--deadline-ms N] [--seed N]
//!              [--json PATH] [--telemetry] [--quiet]
//!              [--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]
//! ```
//!
//! Spawns `--tasks` futures that each acquire an
//! `oll::async_lock::AsyncRwLock` (a `--write-pct` slice as writers, a
//! `--cancel-pct` slice with a deadline so timeouts exercise the
//! tombstone-cancellation path) on `--workers` OS threads, behind a
//! write-lock gate so the whole backlog queues before the grant cascade
//! starts. The headline configuration — one million tasks on eight
//! workers — is what `regen_results.sh` records as `BENCH_async.json`:
//!
//! ```sh
//! cargo run -p oll-workloads --release --features async --bin fig5_async -- \
//!     --tasks 1000000 --workers 8 --json BENCH_async.json
//! ```
//!
//! `--obs` (the continuous-monitoring sampler, as in `fig5`) needs a
//! `--features async,telemetry` build: without telemetry it is a usage
//! error (exit 2).
//!
//! `--json` writes the run as an `oll.fig5_async` document, which
//! `fig5check --expect-async-tasks N` validates. The binary exits
//! nonzero if the run leaks state: every task must end
//! granted or timed out, and the C-SNZI surplus and wait queue must
//! both be zero at exit.

use oll_workloads::async_bench::{
    render_async_text, render_fig5_async_json, run_async_bench, AsyncBenchConfig,
};
use oll_workloads::obsio::{self, ObsArgs};
use std::process::exit;

struct Args {
    config: AsyncBenchConfig,
    json: Option<String>,
    telemetry: bool,
    quiet: bool,
    obs: ObsArgs,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fig5_async [--tasks N] [--workers N] [--write-pct P]\n\
         \t[--cancel-pct P] [--deadline-ms N] [--seed N]\n\
         \t[--json PATH] [--telemetry] [--quiet]\n\
         \t[--obs [ADDR]] [--obs-json PATH] [--obs-interval-ms N]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut config = AsyncBenchConfig {
        tasks: 100_000,
        workers: 8,
        ..AsyncBenchConfig::quick()
    };
    let mut json = None;
    let mut telemetry = false;
    let mut quiet = false;
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
            "--tasks" => {
                config.tasks = value(i).parse().unwrap_or_else(|_| usage("bad --tasks"));
                i += 1;
            }
            "--workers" => {
                config.workers = value(i).parse().unwrap_or_else(|_| usage("bad --workers"));
                if config.workers == 0 {
                    usage("--workers needs at least one thread");
                }
                i += 1;
            }
            "--write-pct" => {
                config.write_pct = value(i)
                    .parse()
                    .ok()
                    .filter(|p| *p <= 100)
                    .unwrap_or_else(|| usage("bad --write-pct"));
                i += 1;
            }
            "--cancel-pct" => {
                config.cancel_pct = value(i)
                    .parse()
                    .ok()
                    .filter(|p| *p <= 100)
                    .unwrap_or_else(|| usage("bad --cancel-pct"));
                i += 1;
            }
            "--deadline-ms" => {
                config.deadline_ms = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --deadline-ms"));
                i += 1;
            }
            "--seed" => {
                config.seed = value(i).parse().unwrap_or_else(|_| usage("bad --seed"));
                i += 1;
            }
            "--json" => {
                json = Some(value(i));
                i += 1;
            }
            "--telemetry" => telemetry = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Args {
        config,
        json,
        telemetry,
        quiet,
        obs,
    }
}

fn main() {
    let args = parse_args();
    if args.telemetry && !oll::telemetry::Telemetry::enabled() {
        eprintln!(
            "warning: this binary was built without the `telemetry` feature; \
             no profiles will be recorded. Rebuild with:\n  \
             cargo run -p oll-workloads --release --features async,telemetry \
             --bin fig5_async -- --telemetry"
        );
    }
    if !args.quiet {
        eprintln!(
            "fig5_async: {} task(s) on {} worker(s), {}% writes, {}% with a {}ms deadline",
            args.config.tasks,
            args.config.workers,
            args.config.write_pct,
            args.config.cancel_pct,
            args.config.deadline_ms,
        );
    }
    if args.obs.on {
        oll_workloads::require_telemetry("--obs").unwrap_or_else(|m| usage(&m));
    }
    let obs_session = obsio::start(&args.obs, &mut |m| usage(m));

    let result = run_async_bench(&args.config);
    println!("{}", render_async_text(&result));
    if let Some(session) = obs_session {
        let text = obsio::finish(session, args.obs.json.as_deref())
            .unwrap_or_else(|e| usage(&format!("cannot write obs report: {e}")));
        println!("-- obs --\n{text}");
    }
    if args.telemetry {
        if let Some(profile) = &result.telemetry {
            println!(
                "{}",
                oll_obs::report::render_text(std::slice::from_ref(profile))
            );
        }
    }

    if let Some(path) = &args.json {
        std::fs::write(path, render_fig5_async_json(&result) + "\n")
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }

    if !result.clean_exit() {
        eprintln!(
            "fig5_async: FAIL: leaked exit state: {}+{}+{} of {} task(s), \
             surplus={}, queued={}",
            result.granted_reads,
            result.granted_writes,
            result.timed_out,
            result.config.tasks,
            result.surplus_at_exit,
            result.queued_at_exit,
        );
        exit(1);
    }
}
