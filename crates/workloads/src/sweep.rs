//! Parameter sweeps: regenerate a Figure 5 panel as a table of
//! (lock × thread-count) throughput points.

use crate::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
use crate::runner::{run_throughput_profiled_with, ThroughputResult};
use oll::telemetry::LockSnapshot;

/// One regenerated panel: a throughput series per lock.
#[derive(Debug, Clone)]
pub struct PanelResult {
    /// Which panel this is.
    pub panel: Fig5Panel,
    /// Thread counts swept (the x axis).
    pub thread_counts: Vec<usize>,
    /// One series per lock, in the order requested.
    pub series: Vec<Series>,
    /// The OLL lock construction options the panel ran with.
    pub options: LockOptions,
}

/// A single lock's throughput curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// The lock.
    pub kind: LockKind,
    /// One point per swept thread count.
    pub points: Vec<ThroughputResult>,
    /// One telemetry profile per point — `None` entries unless the sweep
    /// requested telemetry, the build has the feature, and the lock is
    /// instrumented.
    pub profiles: Vec<Option<LockSnapshot>>,
}

/// Options for a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Thread counts to sweep (the paper sweeps 1..=256 on its T5440).
    pub thread_counts: Vec<usize>,
    /// Locks to include (default: the Figure 5 five).
    pub locks: Vec<LockKind>,
    /// Base config factory; `threads`/`read_pct` are overwritten per point.
    pub base: WorkloadConfig,
    /// Print progress to stderr as points complete.
    pub progress: bool,
    /// Collect per-lock telemetry profiles at every point (only
    /// meaningful when the workspace is built with the `telemetry`
    /// feature; otherwise every profile stays `None`).
    pub collect_telemetry: bool,
    /// Construction options applied to the OLL locks at every point
    /// (explicit tree shapes, wrappers, the cohort gate).
    pub lock_options: LockOptions,
}

impl SweepOptions {
    /// Defaults scaled for a small machine: the Figure 5 locks over
    /// 1–16 threads, quick acquisition counts, 3-run averages.
    pub fn quick() -> Self {
        Self {
            thread_counts: vec![1, 2, 4, 8, 16],
            locks: LockKind::FIGURE5.to_vec(),
            base: WorkloadConfig::quick(1, 100),
            progress: false,
            collect_telemetry: false,
            lock_options: LockOptions::default(),
        }
    }

    /// The base config at one point of `panel`'s sweep.
    pub(crate) fn point_config(&self, panel: Fig5Panel, threads: usize) -> WorkloadConfig {
        let read_pct = panel.read_pct();
        WorkloadConfig {
            threads,
            read_pct,
            // Keep the paper's 100k/10k split rule relative to the
            // base's scaling.
            acquisitions_per_thread: if read_pct > 50 {
                self.base.acquisitions_per_thread
            } else {
                (self.base.acquisitions_per_thread / 10).max(1)
            },
            ..self.base
        }
    }
}

/// Regenerates one panel of Figure 5.
pub fn run_panel(panel: Fig5Panel, opts: &SweepOptions) -> PanelResult {
    let mut series = Vec::with_capacity(opts.locks.len());
    for &kind in &opts.locks {
        let mut points = Vec::with_capacity(opts.thread_counts.len());
        let mut profiles = Vec::with_capacity(opts.thread_counts.len());
        for &threads in &opts.thread_counts {
            let config = opts.point_config(panel, threads);
            let (r, profile) = {
                let (r, p) = run_throughput_profiled_with(kind, &config, &opts.lock_options);
                (r, if opts.collect_telemetry { p } else { None })
            };
            if opts.progress {
                eprintln!(
                    "  {:<13} threads={:<3} -> {:>12.0} acquires/s",
                    kind.name(),
                    threads,
                    r.acquires_per_sec
                );
            }
            points.push(r);
            profiles.push(profile);
        }
        series.push(Series {
            kind,
            points,
            profiles,
        });
    }
    PanelResult {
        panel,
        thread_counts: opts.thread_counts.clone(),
        series,
        options: opts.lock_options,
    }
}

impl PanelResult {
    /// The series for a given lock, if present.
    pub fn series_for(&self, kind: LockKind) -> Option<&Series> {
        self.series.iter().find(|s| s.kind == kind)
    }

    /// Throughput of `kind` at the largest swept thread count.
    pub fn peak_threads_throughput(&self, kind: LockKind) -> Option<f64> {
        self.series_for(kind)
            .and_then(|s| s.points.last())
            .map(|p| p.acquires_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_panel_produces_full_grid() {
        let opts = SweepOptions {
            thread_counts: vec![1, 2],
            locks: vec![LockKind::Foll, LockKind::Centralized],
            base: WorkloadConfig {
                threads: 1,
                read_pct: 100,
                acquisitions_per_thread: 200,
                critical_work: 0,
                outside_work: 0,
                seed: 1,
                runs: 1,
                verify: false,
            },
            progress: false,
            collect_telemetry: false,
            lock_options: LockOptions::default(),
        };
        let panel = run_panel(Fig5Panel::A, &opts);
        assert_eq!(panel.series.len(), 2);
        for s in &panel.series {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                assert_eq!(p.read_pct, 100);
                assert!(p.acquires_per_sec > 0.0);
            }
        }
        assert!(panel.series_for(LockKind::Foll).is_some());
        assert!(panel
            .peak_threads_throughput(LockKind::Centralized)
            .is_some());
        assert!(panel.series_for(LockKind::Goll).is_none());
    }

    #[test]
    fn low_read_panels_scale_down_acquisitions() {
        let opts = SweepOptions {
            thread_counts: vec![2],
            locks: vec![LockKind::Roll],
            base: WorkloadConfig {
                threads: 1,
                read_pct: 100,
                acquisitions_per_thread: 100,
                critical_work: 0,
                outside_work: 0,
                seed: 1,
                runs: 1,
                verify: false,
            },
            progress: false,
            collect_telemetry: false,
            lock_options: LockOptions::default(),
        };
        let panel = run_panel(Fig5Panel::F, &opts);
        let p = &panel.series[0].points[0];
        assert_eq!(p.total_acquisitions, 2 * 10); // 100/10 per thread
    }
}
