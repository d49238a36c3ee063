//! The five workloads and the closed loop that drives one lock
//! configuration through `oll::RwLock<Protected, L>::owner()` guards.
//!
//! Load shape: closed loop, one process, worker *i* pinned to the *i*-th
//! allowed CPU, zero think time. Workers self-timestamp every
//! [`STAMP_EVERY`] ops and record their own op counts per tick; no
//! coordinator thread runs while they measure.

use crate::pin;
use crate::stats::{
    clean_ticks, disturbed_share, slice_balance, slice_rates, SliceBins, Tick, STAMP_EVERY,
    TICKS_PER_SLICE,
};
use crate::trace::OpSpan;
use oll::core::{RwLockOwner, RwLockReadGuard, RwLockWriteGuard};
use oll::telemetry::LockSnapshot;
use oll::util::XorShift64;
use oll::{RwLock, RwLockFamily, TimedHandle};
use std::marker::PhantomData;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A named set of inputs. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    ReadOnly,
    ReadMostly,
    WriteHeavy,
    KvCache,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Solo,
        Workload::ReadOnly,
        Workload::ReadMostly,
        Workload::WriteHeavy,
        Workload::KvCache,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::ReadOnly => "read_only",
            Workload::ReadMostly => "read_mostly",
            Workload::WriteHeavy => "write_heavy",
            Workload::KvCache => "kv_cache",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads, given the machine's `T`.
    pub fn threads(self, t: usize) -> usize {
        match self {
            Workload::Solo => 1,
            _ => t,
        }
    }

    /// Share of ops that are reads (`get`s for `kv_cache`).
    pub fn read_pct(self) -> u32 {
        match self {
            Workload::Solo => 90,
            Workload::ReadOnly => 100,
            Workload::ReadMostly | Workload::KvCache => 95,
            Workload::WriteHeavy => 20,
        }
    }

    /// Whether ops are table `get`/`put`/`invalidate_all` through the
    /// timed acquisitions, rather than bare counter reads and writes.
    pub fn is_kv(self) -> bool {
        self == Workload::KvCache
    }
}

/// Slots in the `kv_cache` table.
pub const TABLE_SLOTS: usize = 4096;
/// Slots a `get` or `put` probes from the key's home slot.
pub const PROBE: usize = 16;
/// Keys are drawn from `1..=KEYS`; key 0 marks an empty slot.
pub const KEYS: u64 = 4096;
/// Thread 0 wipes the table once in this many of its own ops.
pub const WIPE_EVERY: u64 = 20_000;
/// Timeout of every `kv_cache` acquisition. No op is expected to meet it:
/// it is long enough to outlast the host stalling the vCPU that holds the
/// lock (50 ms was met once in 25 minutes of `kv_cache` here).
pub const KV_TIMEOUT: Duration = Duration::from_secs(1);
/// One op in this many has its acquisition timed.
pub const SAMPLE_EVERY: u64 = 64;
// Both strides are applied as bit masks.
const _: () = assert!(SAMPLE_EVERY.is_power_of_two() && STAMP_EVERY.is_power_of_two());

/// The value behind the lock. Every write guard adds one to both `a` and
/// `b`, so `a == b` under any read guard (no torn or overlapping write)
/// and `a` ends as the number of write guards taken (no lost write).
pub struct Protected {
    pub a: u64,
    pub b: u64,
    /// `(key, value)` pairs, `value == key * 7`; empty unless `kv_cache`.
    table: Vec<(u64, u64)>,
}

impl Protected {
    /// The start state; `kv` prefills half the table.
    pub fn new(kv: bool) -> Self {
        let mut p = Self {
            a: 0,
            b: 0,
            table: Vec::new(),
        };
        if kv {
            p.table = vec![(0, 0); TABLE_SLOTS];
            for key in 1..=KEYS / 2 {
                p.put(key);
            }
        }
        p
    }

    fn home(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize
    }

    /// Looks `key` up; `false` only for a hit whose value is wrong (a miss
    /// is a correct outcome).
    fn get_is_consistent(&self, key: u64) -> bool {
        let home = Self::home(key);
        for i in 0..PROBE {
            let (k, v) = self.table[(home + i) % TABLE_SLOTS];
            if k == key {
                return v == key * 7;
            }
            if k == 0 {
                break;
            }
        }
        true
    }

    fn put(&mut self, key: u64) {
        let home = Self::home(key);
        let slot = (0..PROBE)
            .map(|i| (home + i) % TABLE_SLOTS)
            .find(|s| self.table[*s].0 == key || self.table[*s].0 == 0)
            .unwrap_or(home);
        self.table[slot] = (key, key * 7);
    }

    fn invalidate_all(&mut self) {
        self.table.fill((0, 0));
    }
}

/// How a worker acquires: the blocking guards, or the `*_timeout` twins.
pub trait Mode<L: RwLockFamily> {
    fn read<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockReadGuard<'o, T, L::Handle<'l>>>;
    fn write<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockWriteGuard<'o, T, L::Handle<'l>>>;
}

/// `owner.read()` / `owner.write()`.
pub struct Blocking;

impl<L: RwLockFamily> Mode<L> for Blocking {
    #[inline(always)]
    fn read<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockReadGuard<'o, T, L::Handle<'l>>> {
        Some(owner.read())
    }

    #[inline(always)]
    fn write<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockWriteGuard<'o, T, L::Handle<'l>>> {
        Some(owner.write())
    }
}

/// `owner.read_timeout(KV_TIMEOUT)` / `owner.write_timeout(KV_TIMEOUT)`.
pub struct Timed;

impl<L> Mode<L> for Timed
where
    L: RwLockFamily,
    for<'l> L::Handle<'l>: TimedHandle,
{
    #[inline(always)]
    fn read<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockReadGuard<'o, T, L::Handle<'l>>> {
        owner.read_timeout(KV_TIMEOUT).ok()
    }

    #[inline(always)]
    fn write<'o, 'l, T>(
        owner: &'o mut RwLockOwner<'l, T, L>,
    ) -> Option<RwLockWriteGuard<'o, T, L::Handle<'l>>> {
        owner.write_timeout(KV_TIMEOUT).ok()
    }
}

/// What every configuration of one group shares.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub read_pct: u32,
    pub kv: bool,
    /// CPU of worker *i*; its length is the thread count.
    pub cpus: Vec<usize>,
    /// Length of one slice: [`TICKS_PER_SLICE`] ticks.
    pub slice_ns: u64,
    /// Measured slices per configuration, after its one discarded
    /// warm-up slice.
    pub measured: usize,
}

/// Sampled ops whose spans one worker keeps in a traced configuration.
const SPAN_CAP: usize = 1024;

/// One worker's records.
pub struct ThreadOut {
    bins: SliceBins,
    attempted: u64,
    timed_out: u64,
    inconsistent: u64,
    writes_ok: u64,
    read_lat: Vec<u32>,
    write_lat: Vec<u32>,
    spans: Vec<OpSpan>,
}

/// What one configuration measured.
pub struct ConfigResult {
    pub name: &'static str,
    pub threads: usize,
    /// Ops per second of each measured slice (its median counted tick).
    pub rates: Vec<f64>,
    /// Lowest over highest of the workers' own median ticks, per slice.
    pub balance: Vec<f64>,
    /// Every op issued, warm-up and overrun included.
    pub attempted: u64,
    /// Timed-out acquisitions and failed invariant checks, plus one if the
    /// final write count is wrong.
    pub failed: u64,
    /// Share of the measured ticks in which a worker was descheduled.
    pub disturbed: f64,
    /// Ascending acquisition latencies, ns, of the ops sampled in the
    /// counted ticks of the measured slices.
    pub read_lat: Vec<u32>,
    pub write_lat: Vec<u32>,
    pub spans: Vec<OpSpan>,
    /// The lock's telemetry at the end of the run (telemetry build only).
    pub counts: Option<LockSnapshot>,
    /// Whatever the configuration's probe read off the lock.
    pub probed: Option<u64>,
}

/// Whose tick it is. The configurations of a group take turns tick by
/// tick (round-robin) rather than each running its slices back to back:
/// this kind of host flips between speed states a quarter apart every
/// few seconds, and a back-to-back window reads whichever state it lands
/// in, while ticks dealt out in turn give every configuration the same
/// share of every state. The workers hand the turn on among themselves;
/// no thread coordinates.
struct Turns {
    /// `(turn, its start, workers that finished it)`.
    state: Mutex<(usize, Instant, usize)>,
    /// One per configuration, so a hand-over wakes only the workers whose
    /// turn comes (all configurations' workers share the same CPUs).
    wake: Vec<Condvar>,
    workers_per_turn: usize,
}

/// Head start the workers of the next turn get to wake up.
const TURN_LEAD: Duration = Duration::from_micros(150);

impl Turns {
    fn new(configs: usize, workers_per_turn: usize) -> Self {
        Self {
            state: Mutex::new((usize::MAX, Instant::now(), 0)),
            wake: (0..configs).map(|_| Condvar::new()).collect(),
            workers_per_turn,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, Instant, usize)> {
        self.state
            .lock()
            .expect("no worker panics holding the turn")
    }

    fn begin(&self, turn: usize) {
        *self.lock() = (turn, Instant::now() + TURN_LEAD, 0);
        self.wake[turn % self.wake.len()].notify_all();
    }

    /// Sleeps until `turn` comes, then spins to its start instant. Returns
    /// when the worker really starts, and how late that is, in ns.
    fn wait_for(&self, turn: usize) -> (Instant, u64) {
        let mut state = self.lock();
        while state.0 != turn {
            state = self.wake[turn % self.wake.len()]
                .wait(state)
                .expect("no worker panics holding the turn");
        }
        let due = state.1;
        drop(state);
        loop {
            let now = Instant::now();
            if now >= due {
                return (now, (now - due).as_nanos() as u64);
            }
            std::hint::spin_loop();
        }
    }

    /// The last worker to finish a turn begins the next one.
    fn finish(&self) {
        let mut state = self.lock();
        state.2 += 1;
        if state.2 == self.workers_per_turn {
            let next = state.0 + 1;
            drop(state);
            self.begin(next);
        }
    }
}

struct Ctx<'a> {
    plan: &'a Plan,
    turns: &'a Turns,
    barrier: &'a Barrier,
    /// This configuration's place in the round-robin, and the group size.
    index: usize,
    group: usize,
    traced: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Read,
    Write,
    Wipe,
}

/// One op: acquire, check or mutate under the guard, release. `stamps`
/// receives the instants after acquire, after the critical section and
/// after release. `None`: the acquisition timed out.
#[inline(always)]
fn do_op<L: RwLockFamily, M: Mode<L>>(
    owner: &mut RwLockOwner<'_, Protected, L>,
    kind: Kind,
    key: u64,
    mut stamps: Option<&mut [Instant; 3]>,
) -> Option<bool> {
    let ok = if kind == Kind::Read {
        let g = M::read(owner)?;
        if let Some(s) = stamps.as_deref_mut() {
            s[0] = Instant::now();
        }
        let ok = g.a == g.b && (key == 0 || g.get_is_consistent(key));
        if let Some(s) = stamps.as_deref_mut() {
            s[1] = Instant::now();
        }
        drop(g);
        ok
    } else {
        let mut g = M::write(owner)?;
        if let Some(s) = stamps.as_deref_mut() {
            s[0] = Instant::now();
        }
        let ok = g.a == g.b;
        g.a += 1;
        match kind {
            Kind::Wipe => g.invalidate_all(),
            _ if key != 0 => g.put(key),
            _ => {}
        }
        g.b += 1;
        if let Some(s) = stamps.as_deref_mut() {
            s[1] = Instant::now();
        }
        drop(g);
        ok
    };
    if let Some(s) = stamps {
        s[2] = Instant::now();
    }
    Some(ok)
}

/// A worker's state that outlives one turn.
struct Stream {
    rng: XorShift64,
    /// Ops issued so far.
    n: u64,
}

/// Runs one worker's ops for one tick of slice `slice`, from `start` to
/// its first timestamp at or past the tick's end.
fn run_tick<L: RwLockFamily, M: Mode<L>>(
    owner: &mut RwLockOwner<'_, Protected, L>,
    ctx: &Ctx<'_>,
    tid: usize,
    slice: usize,
    start: Instant,
    stream: &mut Stream,
    out: &mut ThreadOut,
) -> Tick {
    let plan = ctx.plan;
    let tick_ns = plan.slice_ns / TICKS_PER_SLICE as u64;
    let first = stream.n;
    let mut tick = Tick {
        lat_from: (out.read_lat.len(), out.write_lat.len()),
        ..Tick::default()
    };
    loop {
        let n = stream.n;
        let kind = if plan.kv && tid == 0 && n % WIPE_EVERY == WIPE_EVERY - 1 {
            Kind::Wipe
        } else if stream.rng.percent(plan.read_pct) {
            Kind::Read
        } else {
            Kind::Write
        };
        let key = if plan.kv {
            1 + stream.rng.next_below(KEYS)
        } else {
            0
        };
        let outcome = if slice > 0 && n & (SAMPLE_EVERY - 1) == 0 {
            let t0 = Instant::now();
            let mut stamps = [t0; 3];
            let outcome = do_op::<L, M>(owner, kind, key, Some(&mut stamps));
            if outcome.is_some() {
                let lat = if kind == Kind::Read {
                    &mut out.read_lat
                } else {
                    &mut out.write_lat
                };
                let ns = (stamps[0] - t0).as_nanos();
                lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
                if ctx.traced && out.spans.len() < out.spans.capacity() {
                    let at = |t: Instant| crate::epoch_ns(t);
                    out.spans.push(OpSpan {
                        op: n,
                        thread: tid,
                        write: kind != Kind::Read,
                        start: at(t0),
                        acquired: at(stamps[0]),
                        held: at(stamps[1]),
                        end: at(stamps[2]),
                    });
                }
            }
            outcome
        } else {
            do_op::<L, M>(owner, kind, key, None)
        };
        out.attempted += 1;
        match outcome {
            Some(true) => out.writes_ok += u64::from(kind != Kind::Read),
            // The write happened; only its entry check failed.
            Some(false) => {
                out.inconsistent += 1;
                out.writes_ok += u64::from(kind != Kind::Read);
            }
            None => out.timed_out += 1,
        }
        stream.n += 1;
        if stream.n & (STAMP_EVERY - 1) == 0 {
            let elapsed = start.elapsed().as_nanos() as u64;
            tick.max_gap_ns = tick.max_gap_ns.max(elapsed.saturating_sub(tick.ns));
            tick.ns = elapsed;
            tick.stamps += 1;
            if elapsed >= tick_ns {
                tick.ops = stream.n - first;
                return tick;
            }
        }
    }
}

/// A lock configuration with its type erased, so that a group can hold
/// several; the per-op code below it stays monomorphic.
trait Config: Sync {
    /// Registers `handles` owners at once, then lets them go.
    fn register(&self, handles: usize);
    fn work(&self, ctx: &Ctx<'_>, tid: usize, out: &mut ThreadOut);
    fn finish(self: Box<Self>, outs: Vec<ThreadOut>) -> ConfigResult;
}

struct Typed<L: RwLockFamily, M> {
    name: &'static str,
    rw: RwLock<Protected, L>,
    probe: fn(&L) -> Option<u64>,
    mode: PhantomData<fn() -> M>,
}

/// A worker that cannot be pinned or registered would leave its group
/// waiting for it forever; such a run is no measurement, so it ends here.
fn die(what: String) -> ! {
    eprintln!("benchmark: {what}");
    std::process::exit(2);
}

impl<L: RwLockFamily, M: Mode<L>> Config for Typed<L, M> {
    fn register(&self, handles: usize) {
        let owners: Vec<_> = (0..handles).map(|_| self.rw.owner()).collect();
        if owners.iter().any(Result::is_err) {
            die(format!("{}: cannot register {handles} owners", self.name));
        }
    }

    fn work(&self, ctx: &Ctx<'_>, tid: usize, out: &mut ThreadOut) {
        let plan = ctx.plan;
        if let Err(e) = pin::pin_to(plan.cpus[tid]) {
            die(e);
        }
        let mut owner = match self.rw.owner() {
            Ok(owner) => owner,
            Err(e) => die(format!("{}: owner(): {e}", self.name)),
        };
        ctx.barrier.wait();
        let mut stream = Stream {
            rng: XorShift64::for_thread(plan.seed, tid),
            n: 0,
        };
        for slice in 0..=plan.measured {
            for tick in 0..TICKS_PER_SLICE {
                let turn = (slice * TICKS_PER_SLICE + tick) * ctx.group + ctx.index;
                let (start, late_ns) = ctx.turns.wait_for(turn);
                let mut done =
                    run_tick::<L, M>(&mut owner, ctx, tid, slice, start, &mut stream, out);
                // A worker woken late ran its tick late, beside nobody for
                // that long: its rate stands, but the tick counts as
                // disturbed if the delay would as a gap.
                done.max_gap_ns = done.max_gap_ns.max(late_ns);
                out.bins.record(slice, tick, done);
                ctx.turns.finish();
            }
        }
    }

    fn finish(self: Box<Self>, mut outs: Vec<ThreadOut>) -> ConfigResult {
        let name = self.name;
        let counts = self.rw.raw().telemetry().snapshot();
        let probed = (self.probe)(self.rw.raw());
        let end = self.rw.into_inner();
        let writes_ok: u64 = outs.iter().map(|o| o.writes_ok).sum();
        let value_ok = end.a == writes_ok && end.b == writes_ok;
        let timed_out: u64 = outs.iter().map(|o| o.timed_out).sum();
        let inconsistent: u64 = outs.iter().map(|o| o.inconsistent).sum();
        if !value_ok || timed_out + inconsistent > 0 {
            eprintln!(
                "{name}: {timed_out} acquisitions timed out, {inconsistent} guards saw a broken invariant; protected value is a={} b={} after {writes_ok} write guards",
                end.a, end.b
            );
        }
        let bins: Vec<SliceBins> = outs.iter().map(|o| o.bins.clone()).collect();
        // Latency samples of the counted ticks only, like the rates. A
        // tick's samples run from its `lat_from` to the next tick's.
        let mut read_lat = Vec::new();
        let mut write_lat = Vec::new();
        for i in 0..bins.first().map_or(0, SliceBins::measured) {
            for t in clean_ticks(&bins, i) {
                for out in &outs {
                    let from = out.bins.slice(i)[t].lat_from;
                    let to = match t + 1 < TICKS_PER_SLICE {
                        true => out.bins.slice(i)[t + 1].lat_from,
                        false if i + 1 < out.bins.measured() => out.bins.slice(i + 1)[0].lat_from,
                        false => (out.read_lat.len(), out.write_lat.len()),
                    };
                    read_lat.extend_from_slice(&out.read_lat[from.0..to.0]);
                    write_lat.extend_from_slice(&out.write_lat[from.1..to.1]);
                }
            }
        }
        read_lat.sort_unstable();
        write_lat.sort_unstable();
        ConfigResult {
            name,
            threads: outs.len(),
            rates: slice_rates(&bins),
            balance: slice_balance(&bins),
            attempted: outs.iter().map(|o| o.attempted).sum(),
            failed: timed_out + inconsistent + u64::from(!value_ok),
            disturbed: disturbed_share(&bins),
            read_lat,
            write_lat,
            spans: outs.iter_mut().flat_map(|o| o.spans.drain(..)).collect(),
            counts,
            probed,
        }
    }
}

type Build<'a> = Box<dyn FnOnce(&Plan) -> Box<dyn Config + 'a> + 'a>;

/// A configuration yet to be built; building it is part of set-up.
pub struct Spec<'a> {
    traced: bool,
    build: Build<'a>,
}

/// `name` over a fresh `make(threads)` lock, acquiring as `M` does.
/// `probe` reads one more number off the lock after the run.
pub fn spec<'a, L, M>(
    name: &'static str,
    traced: bool,
    make: impl FnOnce(usize) -> L + 'a,
    probe: fn(&L) -> Option<u64>,
) -> Spec<'a>
where
    L: RwLockFamily + 'a,
    M: Mode<L> + 'a,
{
    Spec {
        traced,
        build: Box::new(move |plan: &Plan| {
            Box::new(Typed::<L, M> {
                name,
                rw: RwLock::new(make(plan.cpus.len()), Protected::new(plan.kv)),
                probe,
                mode: PhantomData,
            })
        }),
    }
}

/// Sets a group up and drops it again; returns the ns the set-up took:
/// build every lock and its protected value (`kv_cache`: prefill the
/// table) and register one owner per worker. This is the set-up work a
/// change to the library can move: spawning and pinning the workers is
/// the operating system's, forty times longer and twice as long on one
/// run as on the next, so it would hide a doubled constructor and is not
/// counted (see [`GroupResult::spawn_ns`]).
pub fn set_up(plan: &Plan, specs: Vec<Spec<'_>>) -> u64 {
    let start = Instant::now();
    let configs: Vec<Box<dyn Config + '_>> = specs.into_iter().map(|s| (s.build)(plan)).collect();
    for config in &configs {
        config.register(plan.cpus.len());
    }
    start.elapsed().as_nanos() as u64
}

/// What a group measured.
pub struct GroupResult {
    /// From the first spawn until every worker is pinned, registered and
    /// at the barrier.
    pub spawn_ns: u64,
    pub configs: Vec<ConfigResult>,
}

/// Runs a group of configurations: builds every lock and its protected
/// value, spawns and pins every worker and registers its owner; then the
/// configurations take turns tick by tick until each has run its
/// `1 + plan.measured` slices, and each protected value is checked
/// against its write count.
pub fn run_group(plan: &Plan, specs: Vec<Spec<'_>>) -> GroupResult {
    let threads = plan.cpus.len();
    let group = specs.len();
    // Room for 200 M ops/s per worker, over twice the fastest
    // configuration seen (biased reads); reserved, not touched, so that
    // no sampled op pays for a reallocation.
    let lat_cap =
        (plan.slice_ns as f64 * plan.measured as f64 * 0.2 / SAMPLE_EVERY as f64) as usize + 1024;
    let mut outs: Vec<Vec<ThreadOut>> = specs
        .iter()
        .map(|spec| {
            (0..threads)
                .map(|_| ThreadOut {
                    bins: SliceBins::new(plan.measured),
                    attempted: 0,
                    timed_out: 0,
                    inconsistent: 0,
                    writes_ok: 0,
                    read_lat: Vec::with_capacity(lat_cap),
                    write_lat: Vec::with_capacity(lat_cap),
                    spans: Vec::with_capacity(if spec.traced { SPAN_CAP } else { 0 }),
                })
                .collect()
        })
        .collect();
    let traced: Vec<bool> = specs.iter().map(|s| s.traced).collect();

    let configs: Vec<Box<dyn Config + '_>> = specs.into_iter().map(|s| (s.build)(plan)).collect();
    let spawn_start = Instant::now();
    let turns = Turns::new(group, threads);
    let barrier = Barrier::new(group * threads + 1);
    let mut spawn_ns = 0;
    std::thread::scope(|s| {
        for (index, (config, outs)) in configs.iter().zip(outs.iter_mut()).enumerate() {
            for (tid, out) in outs.iter_mut().enumerate() {
                let ctx = Ctx {
                    plan,
                    turns: &turns,
                    barrier: &barrier,
                    index,
                    group,
                    traced: traced[index],
                };
                s.spawn(move || config.work(&ctx, tid, out));
            }
        }
        barrier.wait();
        spawn_ns = spawn_start.elapsed().as_nanos() as u64;
        turns.begin(0);
    });
    GroupResult {
        spawn_ns,
        configs: configs
            .into_iter()
            .zip(outs)
            .map(|(config, outs)| config.finish(outs))
            .collect(),
    }
}
