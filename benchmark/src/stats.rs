//! The benchmark's own arithmetic: slice binning, median and quartiles
//! of slices, raw-sample percentiles, geometric mean. Pure functions,
//! pinned by `tests/arithmetic.rs`.

/// Quartiles `(q1, median, q3)` by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so a
/// spread printed here is the spread an outside checker computes. Fewer
/// than two values have no spread: all three are the value itself (0 for
/// none).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile range as a percentage of the median (0 when the median
/// is 0).
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med * 100.0
    }
}

/// Geometric mean of strictly positive values; 0 if there are none or
/// any is not positive (a config that measured nothing must not vanish
/// into an average).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentile of an ascending slice of whole nanoseconds (0 for none):
/// the nearest-rank sample, plus how far the rank reaches into the run of
/// samples that share its value. The clock ticks in whole ns, so a
/// million samples around 35 ns tie in a few dozen values; placing the
/// rank within its tie keeps sub-ns resolution instead of a median that
/// reads 35 on every run until it reads 36.
pub fn percentile(sorted: &[u32], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = pct / 100.0 * sorted.len() as f64;
    let v = sorted[rank(sorted.len(), pct) - 1];
    let lo = sorted.partition_point(|s| *s < v);
    let hi = sorted.partition_point(|s| *s <= v);
    f64::from(v) + ((at - lo as f64) / (hi - lo) as f64).clamp(0.0, 1.0)
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles a tail request may fall back to, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] not above `want` that has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, with its value: a p99
/// backed by three samples is a maximum, not a percentile, so with fewer
/// than ten samples beyond it the next lower percentile is reported. With
/// too few samples for any rung this is the median.
pub fn tail_percentile(sorted: &[u32], want: f64) -> (f64, f64) {
    for pct in TAIL_LADDER.into_iter().filter(|p| *p <= want) {
        if !sorted.is_empty() && sorted.len() - rank(sorted.len(), pct) >= TAIL_MIN_BEYOND {
            return (pct, percentile(sorted, pct));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Ticks a slice is cut into. A slice's rate is the median of its ticks,
/// leaving out those in which a worker was descheduled (see
/// [`Tick::disturbed`]); total ops over slice length would average in the
/// partner's uncontended bursts.
pub const TICKS_PER_SLICE: usize = 32;

/// Ops between a worker's timestamps.
pub const STAMP_EVERY: u64 = 256;

/// What one worker did in one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tick {
    pub ops: u64,
    /// From the tick's start to the worker's last timestamp, which is the
    /// first at or past the tick's end: the overrun block is included, so
    /// no op goes uncounted.
    pub ns: u64,
    /// Timestamps the worker took (one per [`STAMP_EVERY`] ops).
    pub stamps: u64,
    /// Longest wait for a timestamp: from the tick's start to the first,
    /// or from one to the next.
    pub max_gap_ns: u64,
    /// Read and write latency samples the worker had taken when the tick
    /// began: where this tick's samples start.
    pub lat_from: (usize, usize),
}

/// A gap this many times the mean of the tick's other timestamp
/// intervals ...
pub const GAP_FACTOR: u64 = 4;
/// ... and longer than this means the worker was not running: the host
/// descheduled it (or woke it late for its turn).
pub const GAP_FLOOR_NS: u64 = 100_000;

impl Tick {
    /// Whether the worker was descheduled during the tick. Its partner
    /// then ran the lock uncontended, at several times the contended
    /// rate, so such a tick measures the host and is left out. The longest
    /// gap is held against the mean of the others, so that a worker that
    /// was away for most of the tick does not set its own yardstick.
    pub fn disturbed(&self) -> bool {
        let others =
            (self.ns - self.max_gap_ns.min(self.ns)) / self.stamps.saturating_sub(1).max(1);
        self.stamps > 0 && self.max_gap_ns > GAP_FLOOR_NS.max(GAP_FACTOR * others)
    }

    fn rate(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.ns as f64
        }
    }
}

/// One worker's ticks. Slice 0 is the discarded warm-up slice: its ops
/// count as attempted (the worker counts those itself), never as
/// throughput. Slices `1..=measured` are the measured ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceBins {
    /// The ticks of the measured slices, slice-major.
    ticks: Vec<Tick>,
}

/// A slice with fewer undisturbed ticks than this is rated on all its
/// ticks: a median of a handful is no median.
pub const MIN_CLEAN_TICKS: usize = TICKS_PER_SLICE / 4;

impl SliceBins {
    pub fn new(measured: usize) -> Self {
        Self {
            ticks: vec![Tick::default(); measured * TICKS_PER_SLICE],
        }
    }

    pub fn measured(&self) -> usize {
        self.ticks.len() / TICKS_PER_SLICE
    }

    /// Records tick `tick` of slice `slice`; a warm-up tick is dropped.
    pub fn record(&mut self, slice: usize, tick: usize, t: Tick) {
        if (1..=self.measured()).contains(&slice) && tick < TICKS_PER_SLICE {
            self.ticks[(slice - 1) * TICKS_PER_SLICE + tick] = t;
        }
    }

    /// The ticks of measured slice `i` (0-based).
    pub fn slice(&self, i: usize) -> &[Tick] {
        &self.ticks[i * TICKS_PER_SLICE..(i + 1) * TICKS_PER_SLICE]
    }
}

/// Which ticks of measured slice `i` count: those in which no worker was
/// disturbed, or all of them if fewer than [`MIN_CLEAN_TICKS`] are.
pub fn clean_ticks(per_thread: &[SliceBins], i: usize) -> Vec<usize> {
    let clean: Vec<usize> = (0..TICKS_PER_SLICE)
        .filter(|t| per_thread.iter().all(|w| !w.slice(i)[*t].disturbed()))
        .collect();
    if clean.len() < MIN_CLEAN_TICKS {
        (0..TICKS_PER_SLICE).collect()
    } else {
        clean
    }
}

/// Share of all measured ticks in which some worker was disturbed.
pub fn disturbed_share(per_thread: &[SliceBins]) -> f64 {
    let measured = per_thread.first().map_or(0, SliceBins::measured);
    if measured == 0 {
        return 0.0;
    }
    let disturbed = (0..measured)
        .flat_map(|i| (0..TICKS_PER_SLICE).map(move |t| (i, t)))
        .filter(|(i, t)| per_thread.iter().any(|w| w.slice(*i)[*t].disturbed()))
        .count();
    disturbed as f64 / (measured * TICKS_PER_SLICE) as f64
}

/// Ops per second of each measured slice: the median over the slice's
/// counted ticks of the workers' summed rates in the tick.
pub fn slice_rates(per_thread: &[SliceBins]) -> Vec<f64> {
    let measured = per_thread.first().map_or(0, SliceBins::measured);
    (0..measured)
        .map(|i| {
            let sums: Vec<f64> = clean_ticks(per_thread, i)
                .into_iter()
                .map(|t| per_thread.iter().map(|w| w.slice(i)[t].rate()).sum())
                .collect();
            median(&sums)
        })
        .collect()
}

/// Per-slice balance: the lowest over the highest of the workers' own
/// median counted ticks in the slice (1 for a single worker, 0 if some
/// worker's median tick is empty).
pub fn slice_balance(per_thread: &[SliceBins]) -> Vec<f64> {
    let measured = per_thread.first().map_or(0, SliceBins::measured);
    (0..measured)
        .map(|i| {
            let counted = clean_ticks(per_thread, i);
            let medians = per_thread.iter().map(|w| {
                median(
                    &counted
                        .iter()
                        .map(|t| w.slice(i)[*t].rate())
                        .collect::<Vec<f64>>(),
                )
            });
            let (min, max) =
                medians.fold((f64::MAX, 0.0_f64), |(lo, hi), m| (lo.min(m), hi.max(m)));
            if max == 0.0 {
                0.0
            } else {
                min / max
            }
        })
        .collect()
}
