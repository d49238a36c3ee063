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

/// Tracing and sampling need the telemetry hooks: without them the flags
/// that ask for either are refused, rather than writing an empty trace
/// or comparing a run with itself.
#[cfg(not(feature = "telemetry"))]
#[test]
fn observability_flags_need_telemetry() {
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let latency = env!("CARGO_BIN_EXE_latency");
    let dir = std::env::temp_dir().join(format!("oll-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let small = "--threads 1 --acquisitions 10 --locks GOLL";
    let cases = [
        (
            fig5,
            format!("--panel b {small} --trace {}", trace.display()),
        ),
        (fig5, format!("--panel b {small} --obs")),
        (fig5, format!("--panel b {small} --pair obs --runs 1")),
        (latency, format!("{small} --trace {}", trace.display())),
        (latency, format!("{small} --obs")),
    ];
    for (bin, args) in &cases {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("--features telemetry"),
            "{bin} {args:?}: {stderr}"
        );
    }
    assert!(!trace.exists(), "a refused --trace wrote a file");
    let _ = std::fs::remove_dir_all(&dir);
}
