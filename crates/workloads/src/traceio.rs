//! `--trace` plumbing shared by the workload binaries.
//!
//! Both `fig5` and `examples/lockstat.rs` offer a `--trace PATH` flag:
//! start a [`TraceSession`](oll::trace::TraceSession) before the runs,
//! then hand the collected [`Timeline`] here to write the Chrome Trace
//! Event file (loadable in Perfetto or `chrome://tracing`), optionally an
//! `oll.trace` document and/or a folded-stack contention flamegraph
//! (`--flame`, consumable by `flamegraph.pl` and friends), and get back
//! the analyzer's text report.

use crate::json::render_trace_json;
use oll::trace::Timeline;
use oll_obs::{analyze, render_chrome_trace, render_report_text, AnalyzerConfig};

fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    std::fs::write(path, format!("{contents}\n"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Writes the Perfetto JSON to `perfetto_path` (and, when given, the
/// `oll.trace` document to `doc_path` and the folded-stack contention
/// flamegraph to `flame_path`), naming each file written on stderr, and
/// returns the analyzer's text report for printing.
pub fn write_outputs(
    tl: &Timeline,
    perfetto_path: &str,
    doc_path: Option<&str>,
    flame_path: Option<&str>,
) -> std::io::Result<String> {
    let report = analyze(tl, &AnalyzerConfig::default());
    write_file(perfetto_path, &render_chrome_trace(tl))?;
    if let Some(path) = doc_path {
        write_file(path, &render_trace_json(tl, &report))?;
    }
    if let Some(path) = flame_path {
        write_file(path, oll_obs::flame::render_folded(tl, &report).trim_end())?;
    }
    Ok(render_report_text(tl, &report))
}
