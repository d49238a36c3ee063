//! Workload configuration, mirroring the paper's methodology (§5.1).

/// Which lock algorithm a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// The general OLL lock (§3.2).
    Goll,
    /// The FIFO OLL lock (§4.2).
    Foll,
    /// The reader-preference OLL lock (§4.3).
    Roll,
    /// Krieger et al.'s doubly-linked queue lock.
    Ksuh,
    /// The Solaris-kernel-style central-lockword lock.
    SolarisLike,
    /// The naive single-CAS-word lock.
    Centralized,
    /// `std::sync::RwLock`.
    StdRw,
}

impl LockKind {
    /// The five locks of the paper's Figure 5, in its legend order.
    pub const FIGURE5: [LockKind; 5] = [
        LockKind::Goll,
        LockKind::Foll,
        LockKind::Roll,
        LockKind::Ksuh,
        LockKind::SolarisLike,
    ];

    /// Every lock in the workspace: Figure 5's five, then the two
    /// yardsticks.
    pub const ALL: [LockKind; 7] = [
        LockKind::Goll,
        LockKind::Foll,
        LockKind::Roll,
        LockKind::Ksuh,
        LockKind::SolarisLike,
        LockKind::Centralized,
        LockKind::StdRw,
    ];

    /// Display name matching the paper's legend where applicable.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Goll => "GOLL",
            LockKind::Foll => "FOLL",
            LockKind::Roll => "ROLL",
            LockKind::Ksuh => "KSUH",
            LockKind::SolarisLike => "Solaris Like",
            LockKind::Centralized => "Centralized",
            LockKind::StdRw => "std RwLock",
        }
    }

    /// Parses a CLI name (case-insensitive; accepts paper legend names).
    pub fn parse(s: &str) -> Option<LockKind> {
        let k = s.trim().to_ascii_lowercase().replace([' ', '_'], "-");
        Some(match k.as_str() {
            "goll" => LockKind::Goll,
            "foll" => LockKind::Foll,
            "roll" => LockKind::Roll,
            "ksuh" => LockKind::Ksuh,
            "solaris" | "solaris-like" => LockKind::SolarisLike,
            "centralized" | "naive" => LockKind::Centralized,
            "std" | "std-rwlock" => LockKind::StdRw,
            _ => return None,
        })
    }

    /// Parses a `--locks` value: `all` is [`LockKind::ALL`], anything
    /// else a comma-separated list of [`parse`](Self::parse) names, kept
    /// in the order given. The error names the first unknown entry.
    pub fn parse_list(s: &str) -> Result<Vec<LockKind>, String> {
        if s.eq_ignore_ascii_case("all") {
            return Ok(LockKind::ALL.to_vec());
        }
        s.split(',')
            .map(|l| LockKind::parse(l).ok_or_else(|| format!("unknown lock `{l}`")))
            .collect()
    }
}

/// Construction options for the OLL locks (GOLL/FOLL/ROLL). The
/// baselines have no C-SNZI tree to configure and ignore these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockOptions {
    /// Override the C-SNZI tree shape to one sized for this many threads.
    /// `None` keeps the default one-leaf-per-thread shape.
    pub shape_threads: Option<usize>,
    /// Wrap the OLL locks in the BRAVO reader-biasing layer
    /// (`oll::core::Bravo`): biased reads bypass the lock through the
    /// process-global visible-readers table until a writer revokes.
    pub biased: bool,
    /// Wrap every constructed lock, outermost, in the hazard layer
    /// (`oll::hazard::Watched`: poisoning, wait-for-graph tracking of
    /// every hold, starvation watchdog) so its steady-state cost shows up
    /// in the measurement. Unlike the other options this applies to the
    /// baselines too.
    pub hazard: bool,
    /// Build FOLL/ROLL with the NUMA cohort writer gate: per-socket
    /// writer queues with batched local hand-off before a cross-node
    /// release (`FollBuilder::cohort` / `RollBuilder::cohort`). Ignored
    /// by GOLL and the baselines, which have no cohort path.
    pub cohort: bool,
    /// Wrap the OLL locks in the BRAVO layer and the
    /// `oll::core::SelfTuning` online controller over it: the lock's
    /// observed read/write mix arms or disarms its bias while it runs, so
    /// this implies `biased`. Ignored by the baselines, which have no
    /// bias to steer.
    pub self_tuning: bool,
}

impl LockOptions {
    /// True when every field is at its default (the JSON reports omit
    /// nothing, but sweeps use this to label runs).
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

/// One throughput measurement's parameters.
///
/// The paper's harness: "threads repeatedly acquire and release the lock
/// in a tight loop without performing any work within the critical
/// section. Threads decide whether to acquire the lock for reading or
/// writing using a per-thread private random number generator and a target
/// read percentage" — plus 100,000 acquisitions per thread (10,000 for
/// read percentages ≤ 50%) and the average of 3 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of concurrent threads.
    pub threads: usize,
    /// Percentage of acquisitions that are reads (0–100).
    pub read_pct: u32,
    /// Acquisitions performed by *each* thread.
    pub acquisitions_per_thread: usize,
    /// Dummy work iterations inside the critical section (paper: 0).
    pub critical_work: u32,
    /// Dummy work iterations between acquisitions (paper: 0).
    pub outside_work: u32,
    /// Base PRNG seed; thread `i` uses a stream derived from it.
    pub seed: u64,
    /// Independent repetitions to average (paper: 3).
    pub runs: usize,
    /// When set, the harness additionally checks the reader-writer
    /// exclusion invariant on every critical section (slower; used by the
    /// integration tests, not the benchmarks).
    pub verify: bool,
}

impl WorkloadConfig {
    /// A paper-shaped config scaled for quick local runs.
    pub fn quick(threads: usize, read_pct: u32) -> Self {
        Self {
            threads,
            read_pct,
            // The paper's 100k/10k split, scaled down 20x so a full sweep
            // finishes in minutes on a small machine.
            acquisitions_per_thread: if read_pct > 50 { 5_000 } else { 500 },
            critical_work: 0,
            outside_work: 0,
            seed: 0x5EED_2009,
            runs: 3,
            verify: false,
        }
    }

    /// The paper's exact per-thread acquisition counts (§5.1).
    pub fn paper_fidelity(threads: usize, read_pct: u32) -> Self {
        Self {
            acquisitions_per_thread: if read_pct > 50 { 100_000 } else { 10_000 },
            ..Self::quick(threads, read_pct)
        }
    }

    /// Total acquisitions across all threads.
    pub fn total_acquisitions(&self) -> usize {
        self.threads * self.acquisitions_per_thread
    }
}

/// The six panels of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5Panel {
    /// (a) 100% reads.
    A,
    /// (b) 99% reads.
    B,
    /// (c) 95% reads.
    C,
    /// (d) 80% reads.
    D,
    /// (e) 50% reads.
    E,
    /// (f) 0% reads.
    F,
}

impl Fig5Panel {
    /// All panels in paper order.
    pub const ALL: [Fig5Panel; 6] = [
        Fig5Panel::A,
        Fig5Panel::B,
        Fig5Panel::C,
        Fig5Panel::D,
        Fig5Panel::E,
        Fig5Panel::F,
    ];

    /// The panel's target read percentage.
    pub fn read_pct(self) -> u32 {
        match self {
            Fig5Panel::A => 100,
            Fig5Panel::B => 99,
            Fig5Panel::C => 95,
            Fig5Panel::D => 80,
            Fig5Panel::E => 50,
            Fig5Panel::F => 0,
        }
    }

    /// The panel's lowercase letter tag (`"a"`..`"f"`), as used in CSV
    /// and JSON output.
    pub fn tag(self) -> &'static str {
        match self {
            Fig5Panel::A => "a",
            Fig5Panel::B => "b",
            Fig5Panel::C => "c",
            Fig5Panel::D => "d",
            Fig5Panel::E => "e",
            Fig5Panel::F => "f",
        }
    }

    /// The paper's caption for the panel.
    pub fn caption(self) -> &'static str {
        match self {
            Fig5Panel::A => "Figure 5(a): 100% Reads",
            Fig5Panel::B => "Figure 5(b): 99% Reads",
            Fig5Panel::C => "Figure 5(c): 95% Reads",
            Fig5Panel::D => "Figure 5(d): 80% Reads",
            Fig5Panel::E => "Figure 5(e): 50% Reads",
            Fig5Panel::F => "Figure 5(f): 0% Reads",
        }
    }

    /// Parses `a`..`f`.
    pub fn parse(s: &str) -> Option<Fig5Panel> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "a" => Fig5Panel::A,
            "b" => Fig5Panel::B,
            "c" => Fig5Panel::C,
            "d" => Fig5Panel::D,
            "e" => Fig5Panel::E,
            "f" => Fig5Panel::F,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_kind_parse_round_trips() {
        for k in LockKind::ALL {
            assert_eq!(LockKind::parse(k.name()), Some(k), "{}", k.name());
        }
        assert_eq!(LockKind::parse("solaris like"), Some(LockKind::SolarisLike));
        assert!(LockKind::parse("nope").is_none());

        assert_eq!(LockKind::parse_list("all"), Ok(LockKind::ALL.to_vec()));
        assert_eq!(LockKind::ALL.len(), 7);
        assert_eq!(
            LockKind::parse_list("std,GOLL,solaris like"),
            Ok(vec![LockKind::StdRw, LockKind::Goll, LockKind::SolarisLike])
        );
        for gone in [
            "MCS-RW",
            "MCS-RW-rp",
            "MCS-RW-wp",
            "Per-thread",
            "MCS mutex",
        ] {
            assert_eq!(LockKind::parse(gone), None, "{gone}");
            let err = LockKind::parse_list(&format!("GOLL,{gone}")).unwrap_err();
            assert!(err.contains(gone), "{gone}: {err}");
        }
    }

    #[test]
    fn panel_read_pcts_match_paper() {
        let pcts: Vec<u32> = Fig5Panel::ALL.iter().map(|p| p.read_pct()).collect();
        assert_eq!(pcts, vec![100, 99, 95, 80, 50, 0]);
    }

    #[test]
    fn paper_fidelity_uses_paper_counts() {
        assert_eq!(
            WorkloadConfig::paper_fidelity(4, 99).acquisitions_per_thread,
            100_000
        );
        assert_eq!(
            WorkloadConfig::paper_fidelity(4, 50).acquisitions_per_thread,
            10_000
        );
    }

    #[test]
    fn quick_splits_at_50_pct() {
        assert!(
            WorkloadConfig::quick(2, 80).acquisitions_per_thread
                > WorkloadConfig::quick(2, 50).acquisitions_per_thread
        );
        assert_eq!(WorkloadConfig::quick(3, 99).total_acquisitions(), 15_000);
    }

    #[test]
    fn panel_parse() {
        assert_eq!(Fig5Panel::parse("C"), Some(Fig5Panel::C));
        assert!(Fig5Panel::parse("z").is_none());
    }
}
