//! The async Figure 5 harness: massed *task* contention instead of
//! massed *thread* contention.
//!
//! The thread-based fig5 sweep tops out at a few dozen waiters — one per
//! OS thread. The async lock family's claim is different: waiters are
//! futures, so a bounded pool ([`crate::async_exec::Executor`]) can park
//! **millions** of concurrently queued acquisitions in a few hundred
//! megabytes and drain them through the C-SNZI grant cascade. This
//! module measures exactly that:
//!
//! 1. take the write lock so every spawned task must queue,
//! 2. spawn `tasks` lock-user futures (a `write_pct` slice acquire the
//!    write lock, a `cancel_pct` slice carry a deadline so the run
//!    exercises timeout/tombstone cancellation at scale),
//! 3. release the gate and wait for the pool to drain,
//! 4. report throughput, grant-latency percentiles, and the exit-state
//!    invariants (C-SNZI surplus and wait-queue length both zero).
//!
//! The `fig5_async` binary drives it and renders the result as an
//! `oll.fig5_async` JSON document; `regen_results.sh` commits the
//! million-task run as `BENCH_async.json`.

use oll::async_lock::AsyncRwLock;
use oll::telemetry::{HistogramSnapshot, LockSnapshot};
use oll::util::json::{obj, rounded, text, Value};
use oll::util::XorShift64;
use oll_obs::report::{lock_json, SCHEMA_VERSION};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency shards: tasks record into `shard[task % SHARDS]` so eight
/// workers rarely collide on one mutex.
const SHARDS: usize = 16;

/// Latency percentiles over the granted tasks, from the telemetry
/// crate's 64-bucket log2 histogram (1 ns … ~9 s).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    fn from(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            p50_ns: h.percentile_ns(0.50),
            p99_ns: h.percentile_ns(0.99),
            p999_ns: h.percentile_ns(0.999),
            max_ns: h.max_ns,
        }
    }
}

fn summary_json(s: &LatencySummary) -> Value {
    obj([
        ("count", s.count.into()),
        ("p50_ns", s.p50_ns.into()),
        ("p99_ns", s.p99_ns.into()),
        ("p999_ns", s.p999_ns.into()),
        ("max_ns", s.max_ns.into()),
    ])
}

/// Parameters of one async bench run.
#[derive(Debug, Clone)]
pub struct AsyncBenchConfig {
    /// Total lock-user tasks to spawn (the headline run uses 1_000_000).
    pub tasks: usize,
    /// Executor worker threads (the headline run uses 8).
    pub workers: usize,
    /// Percentage of tasks that acquire the write lock.
    pub write_pct: u32,
    /// Percentage of tasks that carry a deadline (and may therefore
    /// time out and exercise the tombstone-cancellation path).
    pub cancel_pct: u32,
    /// Deadline offset for the `cancel_pct` slice, from spawn time.
    pub deadline_ms: u64,
    /// PRNG seed for the write/cancel assignment.
    pub seed: u64,
}

impl AsyncBenchConfig {
    /// A small smoke-sized run (CI, unit tests).
    pub fn quick() -> Self {
        Self {
            tasks: 10_000,
            workers: 4,
            write_pct: 2,
            cancel_pct: 10,
            deadline_ms: 25,
            seed: 42,
        }
    }
}

/// Everything one async bench run produced.
#[derive(Debug, Clone)]
pub struct AsyncBenchResult {
    /// The configuration that produced this result.
    pub config: AsyncBenchConfig,
    /// Tasks that completed holding a read guard.
    pub granted_reads: u64,
    /// Tasks that completed holding a write guard.
    pub granted_writes: u64,
    /// Deadline tasks that timed out (cancelled via tombstone).
    pub timed_out: u64,
    /// Wall-clock for spawn + drain.
    pub elapsed: Duration,
    /// `tasks / elapsed` — completed lock-user tasks per second.
    pub tasks_per_sec: f64,
    /// Queue-to-grant latency percentiles over every *granted* task.
    pub grant_latency: LatencySummary,
    /// C-SNZI surplus after the pool drained (must be 0).
    pub surplus_at_exit: u64,
    /// Wait-queue length after the pool drained (must be 0).
    pub queued_at_exit: usize,
    /// The lock's contention profile (`None` unless built with the
    /// `telemetry` feature).
    pub telemetry: Option<LockSnapshot>,
}

impl AsyncBenchResult {
    /// Every spawned task is accounted for: granted or timed out.
    pub fn accounted(&self) -> bool {
        self.granted_reads + self.granted_writes + self.timed_out == self.config.tasks as u64
    }

    /// The exit-state invariants the harness promises: no leaked C-SNZI
    /// surplus, no leaked queue entries, every task accounted for.
    pub fn clean_exit(&self) -> bool {
        self.accounted() && self.surplus_at_exit == 0 && self.queued_at_exit == 0
    }
}

struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    timed_out: AtomicU64,
}

/// Runs one async bench: spawns `config.tasks` futures against a single
/// [`AsyncRwLock`] on a `config.workers`-thread pool and drains them.
pub fn run_async_bench(config: &AsyncBenchConfig) -> AsyncBenchResult {
    let lock = Arc::new(
        AsyncRwLock::<u64>::builder()
            .concurrency(config.workers.max(1))
            .telemetry_name("ASYNC fig5")
            .build(0u64),
    );
    let exec = crate::async_exec::Executor::new(config.workers);
    let counters = Arc::new(Counters {
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        timed_out: AtomicU64::new(0),
    });
    let shards: Arc<Vec<Mutex<HistogramSnapshot>>> = Arc::new(
        (0..SHARDS)
            .map(|_| Mutex::new(HistogramSnapshot::default()))
            .collect(),
    );

    let start = Instant::now();
    // Gate: hold the write lock so every task queues behind it; the
    // release below fires the grant cascade over the whole backlog.
    let gate = lock.try_write().expect("gate acquisition is uncontended");
    let mut rng = XorShift64::new(config.seed);
    for i in 0..config.tasks {
        let is_write = rng.percent(config.write_pct);
        let deadline = rng
            .percent(config.cancel_pct)
            .then(|| Instant::now() + Duration::from_millis(config.deadline_ms));
        let lock = Arc::clone(&lock);
        let counters = Arc::clone(&counters);
        let shards = Arc::clone(&shards);
        exec.spawn(async move {
            let t0 = Instant::now();
            let outcome = if is_write {
                let granted = match deadline {
                    Some(d) => match lock.write_deadline(d).await {
                        Ok(mut g) => {
                            *g += 1;
                            true
                        }
                        Err(_) => false,
                    },
                    None => {
                        *lock.write().await += 1;
                        true
                    }
                };
                granted.then_some(&counters.writes)
            } else {
                let granted = match deadline {
                    Some(d) => match lock.read_deadline(d).await {
                        Ok(g) => {
                            std::hint::black_box(*g);
                            true
                        }
                        Err(_) => false,
                    },
                    None => {
                        std::hint::black_box(*lock.read().await);
                        true
                    }
                };
                granted.then_some(&counters.reads)
            };
            match outcome {
                Some(counter) => {
                    counter.fetch_add(1, Ordering::Relaxed);
                    let ns = t0.elapsed().as_nanos() as u64;
                    shards[i % SHARDS].lock().unwrap().record(ns);
                }
                None => {
                    counters.timed_out.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    drop(gate);
    exec.wait_idle();
    let elapsed = start.elapsed();
    drop(exec);

    let mut merged = HistogramSnapshot::default();
    for shard in shards.iter() {
        merged.merge(&shard.lock().unwrap());
    }
    let mut telemetry = lock.telemetry().snapshot();
    if let Some(p) = &mut telemetry {
        p.name = format!(
            "ASYNC fig5 tasks={} workers={}",
            config.tasks, config.workers
        );
    }
    AsyncBenchResult {
        config: config.clone(),
        granted_reads: counters.reads.load(Ordering::Relaxed),
        granted_writes: counters.writes.load(Ordering::Relaxed),
        timed_out: counters.timed_out.load(Ordering::Relaxed),
        elapsed,
        tasks_per_sec: config.tasks as f64 / elapsed.as_secs_f64().max(1e-9),
        grant_latency: LatencySummary::from(&merged),
        surplus_at_exit: lock.csnzi_snapshot().surplus(),
        queued_at_exit: lock.queued_waiters(),
        telemetry,
    }
}

/// Renders one async bench run as an `oll.fig5_async` document (same
/// versioning regime as the other OLL JSON schemas).
pub fn render_fig5_async_json(r: &AsyncBenchResult) -> String {
    let c = &r.config;
    obj([
        ("schema", text("oll.fig5_async")),
        ("version", SCHEMA_VERSION.into()),
        ("tasks", c.tasks.into()),
        ("workers", c.workers.into()),
        ("write_pct", c.write_pct.into()),
        ("cancel_pct", c.cancel_pct.into()),
        ("deadline_ms", c.deadline_ms.into()),
        ("seed", c.seed.into()),
        ("granted_reads", r.granted_reads.into()),
        ("granted_writes", r.granted_writes.into()),
        ("timed_out", r.timed_out.into()),
        ("elapsed_secs", rounded(r.elapsed.as_secs_f64(), 6)),
        ("tasks_per_sec", rounded(r.tasks_per_sec, 1)),
        ("grant_latency", summary_json(&r.grant_latency)),
        ("surplus_at_exit", r.surplus_at_exit.into()),
        ("queued_at_exit", r.queued_at_exit.into()),
        (
            "telemetry",
            r.telemetry.as_ref().map_or(Value::Null, lock_json),
        ),
    ])
    .render()
}

/// A human-readable summary block for the terminal.
pub fn render_async_text(r: &AsyncBenchResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fig5_async: {} task(s) on {} worker thread(s) in {:.3}s ({:.0} tasks/s)",
        r.config.tasks,
        r.config.workers,
        r.elapsed.as_secs_f64(),
        r.tasks_per_sec,
    );
    let _ = writeln!(
        out,
        "  granted: {} read(s), {} write(s); timed out: {}",
        r.granted_reads, r.granted_writes, r.timed_out
    );
    let l = &r.grant_latency;
    let _ = writeln!(
        out,
        "  grant latency: p50 {}ns  p99 {}ns  p99.9 {}ns  max {}ns",
        l.p50_ns, l.p99_ns, l.p999_ns, l.max_ns
    );
    let _ = write!(
        out,
        "  exit state: surplus={} queued={} ({})",
        r.surplus_at_exit,
        r.queued_at_exit,
        if r.clean_exit() { "clean" } else { "LEAKED" },
    );
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use oll::util::json::{self as parse, Value};

    #[test]
    fn quick_bench_drains_cleanly() {
        let config = AsyncBenchConfig {
            tasks: 2_000,
            workers: 2,
            ..AsyncBenchConfig::quick()
        };
        let r = run_async_bench(&config);
        assert!(r.clean_exit(), "leaked exit state: {r:?}");
        assert!(r.granted_reads > 0);
        assert!(r.tasks_per_sec > 0.0);
    }

    #[test]
    fn async_json_round_trips() {
        let config = AsyncBenchConfig {
            tasks: 500,
            workers: 2,
            ..AsyncBenchConfig::quick()
        };
        let r = run_async_bench(&config);
        let doc = render_fig5_async_json(&r);
        let v = parse::parse(&doc).expect("fig5_async doc must parse");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("oll.fig5_async")
        );
        assert_eq!(v.get("tasks").and_then(Value::as_u64), Some(500));
        let granted = v.get("granted_reads").and_then(Value::as_u64).unwrap()
            + v.get("granted_writes").and_then(Value::as_u64).unwrap()
            + v.get("timed_out").and_then(Value::as_u64).unwrap();
        assert_eq!(granted, 500);
        assert_eq!(v.get("surplus_at_exit").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("queued_at_exit").and_then(Value::as_u64), Some(0));
        assert!(v.get("grant_latency").is_some());
    }

    #[test]
    fn all_cancel_run_still_accounts_for_every_task() {
        // Every task carries an already-tight deadline; whatever mix of
        // grants and timeouts results, nothing may leak.
        let config = AsyncBenchConfig {
            tasks: 1_000,
            workers: 2,
            cancel_pct: 100,
            deadline_ms: 1,
            ..AsyncBenchConfig::quick()
        };
        let r = run_async_bench(&config);
        assert!(r.clean_exit(), "leaked exit state: {r:?}");
    }
}
