//! The command line of the benchmark binary. `run.sh` builds it and
//! passes its arguments through; see the README for the flags.

use crate::compare;
use crate::fingerprint::Fingerprint;
use crate::metrics::{check_result_line, RunOutput, END_TO_END, PER_LAYER};
use crate::pin;
use crate::runner::{self, Machine, Opts};
use crate::trace::Tracer;
use crate::workload::Workload;
use oll::workloads::json::parse::{parse, Value};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  oll-benchmark [run] [--workload NAME|all] [--seed N] [--seconds S]
                [--trace 0|1 | --traced] [--counts FILE] [--against FILE]
                [--out DIR] [--bounds BENCHMARK.json] [--slice-ms N] [--slices N]
  oll-benchmark counts [--workload NAME|all] [--seed N] [--seconds S] [--slice-ms N] [--slices N]
  oll-benchmark compare OLD.json NEW.json [--bounds BENCHMARK.json]
  oll-benchmark check --trace 0|1      (a result line on standard input)
workloads: solo read_only read_mostly write_heavy kv_cache";

struct Args {
    command: String,
    positional: Vec<String>,
    workloads: Vec<Workload>,
    opts: Opts,
    end_to_end: bool,
    traced: bool,
    counts: Option<PathBuf>,
    against: Option<PathBuf>,
    out: PathBuf,
    bounds: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        positional: Vec::new(),
        workloads: Workload::ALL.to_vec(),
        opts: Opts {
            seed: 1,
            seconds: 20.0,
            slice_ms: None,
            slices: None,
        },
        end_to_end: true,
        traced: false,
        counts: None,
        against: None,
        out: PathBuf::from("benchmark/out"),
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        args.command = first.clone();
        it.next();
    }
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            args.positional.push(flag.clone());
            continue;
        }
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("no workload named {value}"))?];
            }
            "--seed" => args.opts.seed = number()?,
            "--seconds" => {
                args.opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value}: not in (0, 600]"))?;
            }
            "--trace" => match value.as_str() {
                "0" => (args.end_to_end, args.traced) = (true, false),
                "1" => (args.end_to_end, args.traced) = (false, true),
                _ => return Err(format!("--trace {value}: 0 or 1")),
            },
            "--slice-ms" => args.opts.slice_ms = Some(number()?.clamp(1, 60_000)),
            "--slices" => args.opts.slices = Some(number()?.clamp(1, 1_000) as usize),
            "--counts" => args.counts = Some(value.into()),
            "--against" => args.against = Some(value.into()),
            "--out" => args.out = value.into(),
            "--bounds" => args.bounds = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn machine() -> Result<Machine, String> {
    let allowed = pin::allowed_cpus();
    if allowed.is_empty() {
        return Err("cannot read the CPU affinity mask (Linux only)".into());
    }
    Ok(Machine {
        nproc: allowed.len(),
        cpus: allowed[..allowed.len().min(4)].to_vec(),
    })
}

fn document(print: &Fingerprint, workloads: Vec<(String, Value)>) -> Value {
    Value::Obj(vec![
        ("schema".into(), Value::Str("oll.benchmark".into())),
        ("version".into(), Value::Num(1.0)),
        ("fingerprint".into(), print.to_json()),
        ("workloads".into(), Value::Obj(workloads)),
    ])
}

fn compare_docs(old: &Value, new: &Value, bounds: &Path) -> Result<bool, String> {
    let bounds = compare::bounds_from(&read_json(bounds)?)?;
    let rows = compare::compare(old, new, &bounds)?;
    Ok(compare::print(&rows, &bounds))
}

fn run(args: &Args) -> Result<bool, String> {
    let m = machine()?;
    let print = Fingerprint::collect(m.nproc, m.cpus.len(), args.opts.seed);
    print.print();
    let counts = match (&args.counts, args.traced) {
        (Some(path), true) => Some(read_json(path)?),
        (None, true) => {
            return Err("a traced run needs --counts FILE, the telemetry build's `counts` output (run.sh makes it)".into())
        }
        _ => None,
    };

    let mut members = Vec::new();
    let mut outputs: Vec<RunOutput> = Vec::new();
    for w in &args.workloads {
        let mut runs = Vec::new();
        if args.end_to_end {
            let out = runner::end_to_end(*w, &args.opts, &m)?;
            out.print();
            runs.push(("end_to_end".to_string(), out.to_json()));
            outputs.push(out);
        }
        if let Some(counts) = &counts {
            let counts = counts
                .get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .ok_or_else(|| format!("the counts file has no workload {}", w.name()))?;
            let mut tracer = Tracer::default();
            let out = runner::traced(*w, &args.opts, &m, counts, &mut tracer)?;
            out.print();
            let path = args.out.join(format!("trace-{}.json", w.name()));
            write_json(&path, &tracer.to_json(w.name()))?;
            println!("  {} spans written to {}", tracer.len(), path.display());
            runs.push(("traced".to_string(), out.to_json()));
            outputs.push(out);
        }
        members.push((w.name().to_string(), Value::Obj(runs)));
    }
    let doc = document(&print, members);
    write_json(&args.out.join("results.json"), &doc)?;

    let mut ok = outputs.iter().all(|o| o.correct);
    if let Some(old) = &args.against {
        ok &= compare_docs(&read_json(old)?, &doc, &args.bounds)?;
    }
    // The driver's contract: one workload, one kind of run, and its
    // result as the last line of standard output.
    if let [only] = &outputs[..] {
        println!("{}", only.result_line());
    }
    Ok(ok)
}

fn counts(args: &Args) -> Result<bool, String> {
    let m = machine()?;
    let print = Fingerprint::collect(m.nproc, m.cpus.len(), args.opts.seed);
    let mut members = Vec::new();
    for w in &args.workloads {
        members.push((w.name().to_string(), runner::counts(*w, &args.opts, &m)?));
    }
    println!("{}", document(&print, members).render());
    Ok(true)
}

/// Checks the last line of standard input against the driver's schema
/// for the kind of run `--trace` names.
fn check(args: &Args) -> Result<bool, String> {
    let input = std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?;
    let line = input
        .lines()
        .last()
        .ok_or("no result line on standard input")?;
    check_result_line(line, if args.traced { PER_LAYER } else { END_TO_END })?;
    Ok(true)
}

/// Runs the command line; the process exit code.
pub fn main() -> i32 {
    crate::epoch_ns(std::time::Instant::now());
    // glibc hands the top of the heap back to the kernel whenever 128 KiB
    // of it are free, and a repeated set-up (`kv_cache`: four 64 KiB
    // tables) would then measure page faults, or not, depending on where
    // its blocks landed. Freeing one large mapped block first raises that
    // threshold to twice the block's size for the life of the process.
    drop(std::hint::black_box(vec![0u8; 64 << 20]));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => run(&args),
        "counts" => counts(&args),
        "check" => check(&args),
        "compare" => match &args.positional[..] {
            [old, new] => compare_docs(
                &read_json(Path::new(old))?,
                &read_json(Path::new(new))?,
                &args.bounds,
            ),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    });
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}
