//! `lockstat` — run a mixed read/write workload over the instrumented
//! locks and print every lock's contention profile from the global
//! telemetry registry.
//!
//! ```sh
//! cargo run --release --features telemetry --example lockstat
//! cargo run --release --features telemetry --example lockstat -- --json
//! cargo run --release --features telemetry --example lockstat -- --biased
//! cargo run --release --features telemetry --example lockstat -- --self-tuning
//! cargo run --release --features telemetry --example lockstat -- --trace out.json
//! cargo run --release --features telemetry --example lockstat -- --obs 127.0.0.1:9184
//! ```
//!
//! Without the `telemetry` feature the example still runs, but every
//! recording hook is a compiled-out no-op, so the report is empty — the
//! point of the zero-cost facade. `--biased` wraps the three OLL locks
//! in the BRAVO reader-biasing layer, so the profiles additionally show
//! bias grants/revocations and the biased-read `read_fast` counts.
//! `--cohort` builds FOLL/ROLL with the NUMA cohort writer gate, so the
//! profiles show the `cohort_local_handoff` / `cohort_remote_handoff` /
//! `cohort_batch_exhausted` counters (GOLL has no cohort path).
//! `--self-tuning` wraps the three OLL locks in the `SelfTuning` online
//! policy controller, so the profiles show the `tuner_sample` /
//! `tuner_flip` / `tuner_hold` counters alongside whatever knob
//! steering the observed mix provoked.
//! `--trace PATH` additionally captures the run in the flight recorder
//! and writes a Perfetto-loadable Chrome Trace Event file. `--obs
//! [ADDR]` runs the sweep under the continuous-monitoring sampler,
//! optionally serving Prometheus text on ADDR, and `--obs-json PATH`
//! writes the final `oll.obs` document. Both need the `telemetry`
//! feature: without it they are usage errors (exit 2).

use oll::telemetry::{registry, report, Telemetry};
use oll::trace::TraceSession;
use oll::util::XorShift64;
use oll::{RwHandle, RwLockFamily};
use oll_workloads::obsio::{self, ObsArgs};
use oll_workloads::{traceio, LockKind, LockOptions, LockVisitor};
use std::any::Any;

const THREADS: usize = 4;
const ACQUISITIONS: usize = 20_000;
const READ_PCT: u32 = 95;

/// The paper's §5.1 loop: each thread flips a per-thread PRNG coin and
/// takes the lock for reading or writing with an empty critical section.
fn hammer<L: RwLockFamily>(lock: &L, name: &str) {
    lock.telemetry().rename(name);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity covers every thread");
                let mut rng = XorShift64::for_thread(0x10C5_7A75, tid);
                for _ in 0..ACQUISITIONS {
                    if rng.percent(READ_PCT) {
                        handle.lock_read();
                        handle.unlock_read();
                    } else {
                        handle.lock_write();
                        handle.unlock_write();
                    }
                }
            });
        }
    });
}

/// [`hammer`] over the lock the harness's dispatcher builds, labelled by
/// family plus the given suffix, handing the lock back so `main` can keep
/// it alive until after the report: the registry holds weak references
/// and prunes dropped instances.
struct Hammer(String);

impl LockVisitor for Hammer {
    type Out = Box<dyn Any>;

    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Box<dyn Any> {
        hammer(&lock, &format!("lockstat/{}{}", lock.name(), self.0));
        Box::new(lock)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let json = argv.iter().any(|a| a == "--json");
    let biased = argv.iter().any(|a| a == "--biased");
    let cohort = argv.iter().any(|a| a == "--cohort");
    let tuned = argv.iter().any(|a| a == "--self-tuning");
    let trace = argv
        .iter()
        .position(|a| a == "--trace")
        .map(|i| argv.get(i + 1).expect("--trace needs a PATH").clone());
    let mut obs = ObsArgs::default();
    {
        let mut bad = |m: &str| {
            eprintln!("error: {m}");
            std::process::exit(2);
        };
        let mut i = 0;
        while i < argv.len() {
            obsio::parse_flag(&argv, &mut i, &mut obs, &mut bad);
            i += 1;
        }
    }
    for (asked, flag) in [(trace.is_some(), "--trace"), (obs.on, "--obs")] {
        if asked {
            if let Err(m) = oll_workloads::require_telemetry(flag) {
                eprintln!("error: {m}");
                std::process::exit(2);
            }
        }
    }
    if !Telemetry::enabled() {
        eprintln!(
            "note: built without the `telemetry` feature, so nothing is \
             recorded. Rebuild with:\n  \
             cargo run --release --features telemetry --example lockstat"
        );
    }
    let session = trace.as_ref().map(|_| TraceSession::begin());
    let obs_session = obsio::start(&obs, &mut |m| {
        eprintln!("error: {m}");
        std::process::exit(2);
    });
    eprintln!(
        "lockstat: {THREADS} threads x {ACQUISITIONS} acquisitions, {READ_PCT}% reads, per lock{}{}{}",
        if biased {
            ", BRAVO-biased OLL locks"
        } else {
            ""
        },
        if cohort {
            ", cohort writer gate on FOLL/ROLL"
        } else {
            ""
        },
        if tuned {
            ", self-tuning controller"
        } else {
            ""
        }
    );

    let opts = LockOptions {
        biased,
        cohort,
        self_tuning: tuned,
        ..LockOptions::default()
    };
    let mut alive = Vec::new();
    for kind in [
        LockKind::Goll,
        LockKind::Foll,
        LockKind::Roll,
        LockKind::SolarisLike,
    ] {
        // Label each lock by the options that apply to its kind.
        let mut suffix = String::new();
        if kind != LockKind::SolarisLike {
            if cohort && kind != LockKind::Goll {
                suffix.push_str("+cohort");
            }
            if biased {
                suffix.push_str("+bravo");
            }
            if tuned {
                suffix.push_str("+tuned");
            }
        }
        alive.push(kind.with_lock(THREADS, &opts, Hammer(suffix)));
    }
    let snaps = registry::snapshot_all();
    if json {
        println!("{}", report::render_json(&snaps));
    } else {
        print!("{}", report::render_text(&snaps));
    }
    if let Some(obs_session) = obs_session {
        let text = obsio::finish(obs_session, obs.json.as_deref()).expect("obs file is writable");
        println!("-- obs --\n{text}");
    }
    if let (Some(path), Some(session)) = (&trace, session) {
        let tl = session.collect();
        let text = traceio::write_outputs(&tl, path, None, None).expect("trace file is writable");
        println!("-- flight recorder --\n{text}");
    }
}
