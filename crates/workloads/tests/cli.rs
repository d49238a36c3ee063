//! The harness binaries as a user runs them: real processes, real
//! arguments, exit codes and output checked from the outside.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("error:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    assert_usage_error(fig5, &["--panel", "a", "--threads", "0", "--locks", "GOLL"]);
    assert_usage_error(
        fig5,
        &["--panel", "a", "--threads", "1,0", "--locks", "GOLL"],
    );
    assert_usage_error(env!("CARGO_BIN_EXE_latency"), &["--threads", "0"]);
}

#[test]
fn latency_over_all_locks_prints_one_row_per_kind() {
    let out = run(
        env!("CARGO_BIN_EXE_latency"),
        &["--threads", "2", "--acquisitions", "200", "--locks", "all"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Rows follow the `lock r.p50 ...` header; the name is the first
    // column, 13 wide.
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("lock "))
        .skip(1)
        .map(|l| l.get(..13).unwrap_or(l).trim_end())
        .collect();
    assert_eq!(
        rows,
        [
            "GOLL",
            "FOLL",
            "ROLL",
            "KSUH",
            "Solaris Like",
            "Centralized",
            "std RwLock"
        ],
        "{stdout}"
    );
}
