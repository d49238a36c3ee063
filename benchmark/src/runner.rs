//! What a run is made of: the end-to-end run, the traced run, and the
//! telemetry build's count run, each turning [`workload::run_group`]
//! results into named metrics.

use crate::layers;
use crate::metrics::{RunOutput, BARE, CONFIGS, END_TO_END, PER_LAYER};
use crate::noop::NoopLock;
use crate::stats::{geomean, iqr_pct, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{self, run_group, spec, Blocking, ConfigResult, Plan, Spec, Timed, Workload};
use oll::telemetry::LockEvent;
use oll::workloads::json::parse::Value;
use oll::{Bravo, CentralizedRwLock, FollLock, GollLock, RollLock, SelfTuning, StdRwLock};
use std::time::Duration;

/// Measured slices per configuration (plus one discarded warm-up slice).
pub const SLICES: usize = 14;
/// Measured slices of the traced run's ten-configuration group, and of
/// the short side runs on the solo shape: fewer, so that their ticks stay
/// several ms long.
const TRACED_SLICES: usize = 7;
const SIDE_SLICES: usize = 3;
/// Times the end-to-end run sets up to report the median as `setup_s`.
const SETUP_REPS: usize = 2001;
/// More than this many slices of a multi-thread configuration below
/// [`MIN_BALANCE`] fail the run: the workers did not run side by side.
const MAX_UNBALANCED_SLICES: usize = 2;
const MIN_BALANCE: f64 = 0.5;
/// Shortest slice: its ticks must dwarf the hand-over between turns.
const MIN_SLICE_NS: u64 = 32_000_000;

/// The machine as the benchmark uses it.
#[derive(Debug, Clone)]
pub struct Machine {
    /// CPUs this process may run on.
    pub nproc: usize,
    /// The CPUs of the `T = min(nproc, 4)` workers.
    pub cpus: Vec<usize>,
}

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long one run measures, all configurations together.
    pub seconds: f64,
    /// Overrides of the slice length and count (the smoke test's).
    pub slice_ms: Option<u64>,
    pub slices: Option<usize>,
}

impl Opts {
    /// A plan for `configs` configurations of `slices` measured slices
    /// (and one warm-up slice) each, `share` of the run's seconds in all,
    /// on `shape`'s threads and mix (`w`'s table ops if `shape` is `w`).
    fn plan(
        &self,
        w: Workload,
        shape: Workload,
        m: &Machine,
        configs: usize,
        share: f64,
        slices: usize,
    ) -> Plan {
        let slices = self.slices.unwrap_or(slices);
        let slice_ns = match self.slice_ms {
            Some(ms) => ms * 1_000_000,
            None => (self.seconds * share * 1e9 / (configs * (1 + slices)) as f64) as u64,
        };
        Plan {
            seed: self.seed,
            read_pct: shape.read_pct(),
            kv: w.is_kv() && shape == w,
            cpus: m.cpus[..shape.threads(m.cpus.len())].to_vec(),
            slice_ns: slice_ns.max(MIN_SLICE_NS),
            measured: slices,
        }
    }
}

fn stacked(t: usize) -> SelfTuning<Bravo<RollLock>> {
    SelfTuning::new(RollLock::builder(t).biased(true).build_biased())
}

fn flips(lock: &SelfTuning<Bravo<RollLock>>) -> Option<u64> {
    Some(lock.flips())
}

/// The four configurations under `names`, acquiring through the timed
/// twins iff `kv`.
fn four<'a>(names: [&'static str; 4], kv: bool, traced: bool) -> Vec<Spec<'a>> {
    if kv {
        vec![
            spec::<_, Timed>(names[0], traced, GollLock::new, |_| None),
            spec::<_, Timed>(names[1], traced, FollLock::new, |_| None),
            spec::<_, Timed>(names[2], traced, RollLock::new, |_| None),
            spec::<_, Timed>(names[3], traced, stacked, flips),
        ]
    } else {
        vec![
            spec::<_, Blocking>(names[0], traced, GollLock::new, |_| None),
            spec::<_, Blocking>(names[1], traced, FollLock::new, |_| None),
            spec::<_, Blocking>(names[2], traced, RollLock::new, |_| None),
            spec::<_, Blocking>(names[3], traced, stacked, flips),
        ]
    }
}

const TRACED_CONFIGS: [&str; 4] = [
    "traced.goll",
    "traced.foll",
    "traced.roll",
    "traced.stacked",
];

fn find<'a>(configs: &'a [ConfigResult], name: &str) -> &'a ConfigResult {
    configs
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("configuration {name} was run"))
}

/// Median slice rate of `c` with the slice IQR beside it.
fn rate(c: &ConfigResult) -> (f64, String) {
    (
        median(&c.rates),
        format!(
            "slice IQR {:.1}% of {} slices, {:.1}% of ticks disturbed",
            iqr_pct(&c.rates),
            c.rates.len(),
            c.disturbed * 100.0
        ),
    )
}

/// Geometric mean over the bare locks of `f`, and the three values.
fn over_bare(
    configs: &[ConfigResult],
    prefix: &str,
    f: impl Fn(&ConfigResult) -> f64,
) -> (f64, String) {
    let each: Vec<f64> = BARE
        .iter()
        .map(|l| f(find(configs, &format!("{prefix}{l}"))))
        .collect();
    (
        geomean(&each),
        format!(
            "geomean of goll {:.1} foll {:.1} roll {:.1}",
            each[0], each[1], each[2]
        ),
    )
}

/// The highest trustworthy percentile up to p99 of `lat`, and which it is.
fn tail(lat: &[u32]) -> (f64, String) {
    let (pct, v) = tail_percentile(lat, 99.0);
    let fallback = if pct == 99.0 {
        String::new()
    } else {
        format!(" (p{pct}: fewer than ten samples beyond p99)")
    };
    (v, format!("{} samples{fallback}", lat.len()))
}

/// Fails the run when the workers of a multi-thread bare-lock
/// configuration did not run side by side, and adds up the op counts.
/// Only the bare locks: their workers are coupled through the lock word,
/// so one doing half the other's work for seconds is a scheduling
/// failure. `stacked`'s biased reads share nothing, so its balance reads
/// the two vCPUs' relative speed (below 0.5 for six slices in one run of
/// a hundred here), and the baselines are unfair by design.
fn check(configs: &[ConfigResult]) -> Result<(u64, u64), String> {
    let bare = |c: &&ConfigResult| BARE.iter().any(|l| c.name.ends_with(l));
    for c in configs.iter().filter(|c| c.threads > 1).filter(bare) {
        let low = c.balance.iter().filter(|b| **b < MIN_BALANCE).count();
        if low > MAX_UNBALANCED_SLICES {
            return Err(format!(
                "{}: thread balance below {MIN_BALANCE} on {low} of {} slices ({:.2?}): the workers did not run side by side, so this run is no measurement",
                c.name,
                c.balance.len(),
                c.balance
            ));
        }
    }
    Ok((
        configs.iter().map(|c| c.attempted).sum(),
        configs.iter().map(|c| c.failed).sum(),
    ))
}

type Values = Vec<(String, f64, String)>;

/// The throughput and latency metrics both kinds of run derive from the
/// four untraced configurations.
fn headline(configs: &[ConfigResult], values: &mut Values) {
    let (ops, note) = over_bare(configs, "", |c| median(&c.rates));
    values.push(("ops_s".into(), ops, note));
    for name in CONFIGS {
        let (v, note) = rate(find(configs, name));
        values.push((format!("{name}.ops_s"), v, note));
    }
    type Pick = fn(&ConfigResult) -> &Vec<u32>;
    let kinds: [(&str, Pick); 2] = [("read", |c| &c.read_lat), ("write", |c| &c.write_lat)];
    for (kind, pick) in kinds {
        let n: usize = BARE.iter().map(|l| pick(find(configs, l)).len()).sum();
        let (p50, note) = over_bare(configs, "", |c| percentile(pick(c), 50.0));
        values.push((
            format!("{kind}_p50_ns"),
            p50,
            format!("{note}; {n} samples"),
        ));
        let (p99, note) = over_bare(configs, "", |c| tail(pick(c)).0);
        values.push((
            format!("{kind}_p99_ns"),
            p99,
            format!("{note}; {n} samples"),
        ));
    }
}

/// The end-to-end run of `w`: set-up timed [`SETUP_REPS`] times, then the
/// four configurations for `opts.seconds` in all.
pub fn end_to_end(w: Workload, opts: &Opts, m: &Machine) -> Result<RunOutput, String> {
    let plan = opts.plan(w, w, m, CONFIGS.len(), 1.0, SLICES);
    // All of them before the measured run, on the heap every run starts
    // with: after it the allocator has the run's sample buffers to
    // recycle, and the same set-up takes 1.2x or 1.7x as long depending
    // on how that went.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| workload::set_up(&plan, four(CONFIGS, plan.kv, false)) as f64 / 1e9)
        .collect();
    let group = run_group(&plan, four(CONFIGS, plan.kv, false));
    let (attempted, failed) = check(&group.configs)?;

    let mut values: Values = vec![(
        "setup_s".into(),
        median(&setups),
        format!(
            "median of {SETUP_REPS} set-ups, IQR {:.1}%; not counted: {:.6} s to spawn, pin and register this run's workers",
            iqr_pct(&setups),
            group.spawn_ns as f64 / 1e9
        ),
    )];
    headline(&group.configs, &mut values);
    // What stands behind the three bounded numbers, for a reader.
    let remarks = group
        .configs
        .iter()
        .map(|c| {
            let (ops, note) = rate(c);
            format!(
                "{}: {ops:.0} ops/s ({note}); read p50 {:.1} p99 {:.1} ns of {} samples; write p50 {:.1} p99 {:.1} ns of {}; lowest slice balance {:.2}",
                c.name,
                percentile(&c.read_lat, 50.0),
                tail(&c.read_lat).0,
                c.read_lat.len(),
                percentile(&c.write_lat, 50.0),
                tail(&c.write_lat).0,
                c.write_lat.len(),
                c.balance.iter().copied().fold(1.0, f64::min),
            )
        })
        .collect();
    Ok(RunOutput {
        workload: w.name(),
        traced: false,
        attempted,
        failed,
        correct: failed == 0,
        metrics: RunOutput::collect(END_TO_END, &values)?,
        remarks,
    })
}

/// Event counts of one configuration from the telemetry build.
fn event(counts: &Value, config: &str, e: LockEvent) -> f64 {
    counts
        .get("configs")
        .and_then(|c| c.get(config))
        .and_then(|c| c.get("events"))
        .and_then(|ev| ev.get(e.name()))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of `w`: the solo shape over the bare locks and a no-op
/// lock, the layer batches, then one group of the four configurations
/// traced, the same four untraced and the two baselines, taking turns
/// tick by tick so that `trace.overhead_pct` and `ops_vs_std` compare
/// runs that saw the same machine. `counts` is this workload's member of
/// the telemetry build's count run.
pub fn traced(
    w: Workload,
    opts: &Opts,
    m: &Machine,
    counts: &Value,
    tracer: &mut Tracer,
) -> Result<RunOutput, String> {
    // The solo shape over the bare locks and a no-op lock: the default
    // build's side of telemetry.idle_overhead_pct, and harness.loop_ns.
    let solo_plan = opts.plan(w, Workload::Solo, m, 4, 0.08, SIDE_SLICES);
    let solo = run_group(
        &solo_plan,
        vec![
            spec::<_, Blocking>("goll", false, GollLock::new, |_| None),
            spec::<_, Blocking>("foll", false, FollLock::new, |_| None),
            spec::<_, Blocking>("roll", false, RollLock::new, |_| None),
            spec::<_, Blocking>("noop", false, |_| NoopLock, |_| None),
        ],
    );

    // Next to it in time, so that the reconciliation below compares
    // numbers taken in one state of the machine.
    let mut values = layers::measure(
        &m.cpus,
        Duration::from_secs_f64(opts.seconds * 0.015),
        tracer,
    );

    let plan = opts.plan(w, w, m, 10, 0.52, TRACED_SLICES);
    let mut specs = four(TRACED_CONFIGS, plan.kv, true);
    specs.extend(four(CONFIGS, plan.kv, false));
    specs.push(spec::<_, Blocking>("std", false, StdRwLock::new, |_| None));
    specs.push(spec::<_, Blocking>(
        "centralized",
        false,
        CentralizedRwLock::new,
        |_| None,
    ));
    let group = run_group(&plan, specs);
    let (attempted, failed) = check(&group.configs)?;
    let (solo_attempted, solo_failed) = check(&solo.configs)?;

    for name in TRACED_CONFIGS {
        for s in &find(&group.configs, name).spans {
            tracer.op(name, s);
        }
    }

    headline(&group.configs, &mut values);
    for l in BARE {
        let c = find(&group.configs, l);
        let (v, note) = tail(&c.read_lat);
        values.push((format!("{l}.read_p99_ns"), v, note));
        let (v, note) = tail(&c.write_lat);
        values.push((format!("{l}.write_p99_ns"), v, note));
    }
    let ops_s = values.iter().find(|v| v.0 == "ops_s").map_or(0.0, |v| v.1);
    let (traced_ops, note) = over_bare(&group.configs, "traced.", |c| median(&c.rates));
    values.push((
        "trace.overhead_pct".into(),
        ratio(ops_s - traced_ops, ops_s) * 100.0,
        format!("untraced ops_s {ops_s:.0} vs traced {traced_ops:.0} ({note})"),
    ));
    let (std_rate, note) = rate(find(&group.configs, "std"));
    values.push(("baselines.std.ops_s".into(), std_rate, note));
    let (v, note) = rate(find(&group.configs, "centralized"));
    values.push(("baselines.centralized.ops_s".into(), v, note));
    values.push((
        "ops_vs_std".into(),
        ratio(ops_s, std_rate),
        "ops_s / baselines.std.ops_s".into(),
    ));
    values.push((
        "tuning.flips".into(),
        find(&group.configs, "stacked").probed.unwrap_or(0) as f64,
        "SelfTuning::flips() of the untraced stacked configuration".into(),
    ));

    let (loop_rate, note) = rate(find(&solo.configs, "noop"));
    values.push((
        "harness.loop_ns".into(),
        ratio(1e9, loop_rate),
        format!("solo loop over a no-op lock; {note}"),
    ));
    let four_untraced = || CONFIGS.iter().map(|n| find(&group.configs, n));
    values.push((
        "harness.thread_balance".into(),
        four_untraced()
            .map(|c| median(&c.balance))
            .fold(1.0, f64::min),
        "lowest of the four configurations' median slice balance".into(),
    ));
    values.push((
        "harness.slice_iqr_pct".into(),
        four_untraced()
            .map(|c| iqr_pct(&c.rates))
            .fold(0.0, f64::max),
        "highest of the four configurations' slice IQR".into(),
    ));
    values.push((
        "harness.disturbed_tick_pct".into(),
        four_untraced().map(|c| c.disturbed).fold(0.0, f64::max) * 100.0,
        "highest of the four configurations' share of ticks left out: a worker was descheduled"
            .into(),
    ));

    let (solo_ops, _) = over_bare(&solo.configs, "", |c| median(&c.rates));
    let solo_telemetry = counts
        .get("solo_ops_s")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    values.push((
        "telemetry.idle_overhead_pct".into(),
        ratio(solo_ops - solo_telemetry, solo_ops) * 100.0,
        format!("solo ops_s: default build {solo_ops:.0}, telemetry build {solo_telemetry:.0}"),
    ));

    let bare = |e: LockEvent| BARE.iter().map(|l| event(counts, l, e)).sum::<f64>();
    let acquisitions = |l: &str| {
        [
            LockEvent::ReadFast,
            LockEvent::ReadSlow,
            LockEvent::WriteFast,
            LockEvent::WriteSlow,
        ]
        .map(|e| event(counts, l, e))
    };
    let all_bare: f64 = BARE
        .iter()
        .map(|l| acquisitions(l).iter().sum::<f64>())
        .sum();
    values.push((
        "csnzi.root_cas_fail_per_op".into(),
        ratio(bare(LockEvent::CsnziRootCasFail), all_bare),
        format!("telemetry build, {all_bare:.0} acquisitions of the bare locks"),
    ));
    values.push((
        "csnzi.tree_arrival_share".into(),
        ratio(
            bare(LockEvent::ArriveTree),
            bare(LockEvent::ArriveTree) + bare(LockEvent::ArriveDirect),
        ),
        "telemetry build: arrive_tree over all arrivals of the bare locks".into(),
    ));
    for l in BARE {
        let [rf, rs, wf, ws] = acquisitions(l);
        values.push((
            format!("{l}.slow_share"),
            ratio(rs + ws, rf + rs + wf + ws),
            "telemetry build: (read_slow + write_slow) / acquisitions".into(),
        ));
        values.push((
            format!("{l}.handoffs_per_write"),
            ratio(
                event(counts, l, LockEvent::HandoffToWriter)
                    + event(counts, l, LockEvent::HandoffToReaders),
                wf + ws,
            ),
            "telemetry build: handoff_to_* / writes (0 on a workload without writes)".into(),
        ));
    }
    let [rf, rs, wf, ws] = acquisitions("stacked");
    values.push((
        "bravo.bias_hit_share".into(),
        ratio(event(counts, "stacked", LockEvent::BiasGrant), rf + rs),
        "telemetry build, stacked: bias_grant / reads".into(),
    ));
    values.push((
        "bravo.revokes_per_write".into(),
        ratio(event(counts, "stacked", LockEvent::BiasRevoke), wf + ws),
        "telemetry build, stacked: bias_revoke / writes".into(),
    ));

    let mut remarks = Vec::new();
    for name in TRACED_CONFIGS {
        remarks.push(format!(
            "spans {name}: median acquire {:.0} ns, hold {:.0} ns, release {:.0} ns over {} sampled ops",
            tracer.median_ns(name, "acquire"),
            tracer.median_ns(name, "hold"),
            tracer.median_ns(name, "release"),
            find(&group.configs, name).spans.len()
        ));
    }
    // Do the layer costs account for the end-to-end one? Against ROLL on
    // the solo shape, measured right before the layer batches.
    let v = |name: &str| values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
    let layers = v("harness.loop_ns")
        + 0.9 * (v("rwlock.read_self_ns") + v("roll.read_ns"))
        + 0.1 * (v("rwlock.write_self_ns") + v("roll.write_ns"));
    let measured = ratio(1e9, median(&find(&solo.configs, "roll").rates));
    remarks.push(format!(
        "solo reconciliation: harness.loop_ns + 0.9 (rwlock.read_self_ns + roll.read_ns) + 0.1 (rwlock.write_self_ns + roll.write_ns) = {layers:.2} ns vs 1e9 / roll.ops_s on the solo shape = {measured:.2} ns ({:+.1}%)",
        ratio(layers - measured, measured) * 100.0
    ));

    let failed = failed + solo_failed;
    Ok(RunOutput {
        workload: w.name(),
        traced: true,
        attempted: attempted + solo_attempted,
        failed,
        correct: failed == 0,
        metrics: RunOutput::collect(PER_LAYER, &values)?,
        remarks,
    })
}

/// The telemetry build's count run of `w`: event counts per
/// configuration, checked against the ops the benchmark issued, and the
/// solo `ops_s` for `telemetry.idle_overhead_pct`.
pub fn counts(w: Workload, opts: &Opts, m: &Machine) -> Result<Value, String> {
    let plan = opts.plan(w, w, m, CONFIGS.len(), 0.08, SIDE_SLICES);
    let group = run_group(&plan, four(CONFIGS, plan.kv, false));
    let (_, failed) = check(&group.configs)?;
    if failed != 0 {
        return Err(format!(
            "{}: {failed} failed ops in the count run",
            w.name()
        ));
    }
    let mut configs = Vec::new();
    for c in &group.configs {
        let snapshot = c
            .counts
            .as_ref()
            .ok_or("the count run needs the benchmark built with --features telemetry")?;
        let acquired: u64 = [
            LockEvent::ReadFast,
            LockEvent::ReadSlow,
            LockEvent::WriteFast,
            LockEvent::WriteSlow,
        ]
        .iter()
        .map(|e| snapshot.get(*e))
        .sum();
        // A bare lock counts exactly the ops the benchmark issued. Under
        // the wrappers it may count more: when `TunedHandle`'s opening
        // `try_lock_write` wins the inner lock but `Bravo` cannot revoke
        // the bias without waiting, the inner acquisition is undone and
        // the blocking path takes (and counts) it again.
        let issued = c.attempted - c.failed;
        if acquired < issued || (acquired > issued && c.name != "stacked") {
            return Err(format!(
                "{} on {}: telemetry counted {acquired} acquisitions, the benchmark issued {issued} successful ops",
                c.name,
                w.name()
            ));
        }
        let events = LockEvent::ALL
            .iter()
            .map(|e| (e.name().to_string(), Value::Num(snapshot.get(*e) as f64)))
            .collect();
        configs.push((
            c.name.to_string(),
            Value::Obj(vec![
                ("ops_attempted".into(), Value::Num(c.attempted as f64)),
                ("ops_failed".into(), Value::Num(c.failed as f64)),
                ("events".into(), Value::Obj(events)),
            ]),
        ));
    }
    let solo_plan = opts.plan(w, Workload::Solo, m, 4, 0.08, SIDE_SLICES);
    let solo = run_group(&solo_plan, four(CONFIGS, false, false));
    let (solo_ops, _) = over_bare(&solo.configs, "", |c| median(&c.rates));
    Ok(Value::Obj(vec![
        ("solo_ops_s".into(), Value::Num(solo_ops)),
        ("configs".into(), Value::Obj(configs)),
    ]))
}
