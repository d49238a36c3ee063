//! `fig5check` — validate a document the workload binaries wrote.
//!
//! ```text
//! USAGE:
//!   fig5check PATH [--expect-option biased|hazard|cohort|self-tuning]...
//!             [--expect-shape N] [--expect-async-tasks N]
//! ```
//!
//! Parses PATH with the in-tree parser and hands it to
//! [`oll_workloads::check`], which validates it against its own
//! `"schema"` — `oll.fig5` (`fig5 --json`) or `oll.fig5_async`
//! (`fig5_async --json`) — and against the `--expect-*` flags given.
//! Exits 1 with a diagnostic on the first violation.

use oll_workloads::check::{check, Expect, LOCK_OPTIONS};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fig5check PATH [--expect-option biased|hazard|cohort|self-tuning]... \
         [--expect-shape N] [--expect-async-tasks N]"
    );
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut expect = Expect::default();
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .unwrap_or_else(|| usage(&format!("missing value for {}", argv[i])))
        };
        match argv[i].as_str() {
            "--expect-option" => {
                let name = value();
                let key = LOCK_OPTIONS.iter().find(|(flag, _)| flag == name);
                let (_, key) =
                    key.unwrap_or_else(|| usage(&format!("bad --expect-option `{name}`")));
                expect.options.push(key);
                i += 1;
            }
            "--expect-shape" => {
                let n = value().parse().ok();
                expect.shape = Some(n.unwrap_or_else(|| usage("bad --expect-shape")));
                i += 1;
            }
            "--expect-async-tasks" => {
                let n = value().parse().ok();
                expect.async_tasks = Some(n.unwrap_or_else(|| usage("bad --expect-async-tasks")));
                i += 1;
            }
            "--help" | "-h" => usage("help requested"),
            other if path.is_none() => path = Some(other.to_string()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| usage("missing PATH"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let verdict = oll::util::json::parse(&text)
        .map_err(|e| format!("not valid JSON: {e}"))
        .and_then(|doc| check(&doc, &expect));
    match verdict {
        Ok(summary) => println!("fig5check: OK: {path}: {summary}"),
        Err(msg) => {
            eprintln!("fig5check: FAIL: {path}: {msg}");
            exit(1);
        }
    }
}
