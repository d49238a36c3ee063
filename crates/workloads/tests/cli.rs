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
}

/// Tracing and sampling need the telemetry hooks: without them the flags
/// that ask for either are refused, rather than writing an empty trace
/// or serving a sampler that never ticks.
#[cfg(not(feature = "telemetry"))]
#[test]
fn observability_flags_need_telemetry() {
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let dir = std::env::temp_dir().join(format!("oll-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let small = "--threads 1 --acquisitions 10 --locks GOLL";
    let cases = [
        format!("--panel b {small} --trace {}", trace.display()),
        format!("--panel b {small} --obs"),
    ];
    for args in &cases {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(fig5, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fig5 {args:?}: {stderr}");
        assert!(stderr.contains("error:"), "fig5 {args:?}: {stderr}");
        assert!(
            stderr.contains("--features telemetry"),
            "fig5 {args:?}: {stderr}"
        );
    }
    assert!(!trace.exists(), "a refused --trace wrote a file");
    let _ = std::fs::remove_dir_all(&dir);
}
