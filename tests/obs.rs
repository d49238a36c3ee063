//! End-to-end contract of the `obs` monitoring layer: the sampler's
//! time-series deltas telescope back to the final telemetry snapshot
//! (even across ring eviction), the exposition endpoint serves
//! parseable Prometheus text and a valid `oll.obs` document over real
//! HTTP, the flamegraph export round-trips against the trace analyzer
//! with zero unmatched records, and a hammered lock scores as live.

#![cfg(feature = "telemetry")]

use oll::telemetry::registry;
use oll::util::XorShift64;
use oll::{GollLock, RwHandle, RwLockFamily};
use oll_obs::{HealthConfig, LockHealth, Sampler, SamplerConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const THREADS: usize = 4;

/// The paper's §5.1 loop against one named lock, for `dur` wall time.
fn hammer(lock: &GollLock, read_pct: u32, dur: Duration) {
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity covers every thread");
                let mut rng = XorShift64::for_thread(0x0B5E_2026, tid);
                let start = Instant::now();
                while start.elapsed() < dur {
                    for _ in 0..64 {
                        if rng.percent(read_pct) {
                            handle.lock_read();
                            handle.unlock_read();
                        } else {
                            handle.lock_write();
                            handle.unlock_write();
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn time_series_deltas_reproduce_the_final_snapshot() {
    let name = "obs_consistency/GOLL";
    let lock = GollLock::new(THREADS);
    lock.telemetry().rename(name);

    let sampler = Sampler::start(SamplerConfig {
        interval: Duration::from_millis(1),
        ring_capacity: 2,
    });
    assert!(sampler.is_active());

    // Hammer until the tiny ring has provably wrapped, so the totals
    // below exercise the fold-on-evict path, not just live windows.
    let start = Instant::now();
    while sampler.state().windows_evicted == 0 && start.elapsed() < Duration::from_secs(10) {
        hammer(&lock, 95, Duration::from_millis(10));
        sampler.sample_now();
    }

    let state = sampler.stop();
    assert!(state.samples > 0);
    assert!(state.windows_evicted > 0, "ring never wrapped");
    assert!(state.windows.len() <= 2);

    // Summing every retained and evicted window must reproduce the
    // end-of-run registry snapshot exactly — counters and histograms.
    let finals = registry::snapshot_all();
    let fin = finals
        .iter()
        .find(|s| s.name == name)
        .expect("lock is still registered");
    let total = state
        .totals
        .iter()
        .find(|s| s.name == name)
        .expect("lock was sampled");
    assert_eq!(total, fin, "telescoped deltas drifted from the snapshot");
    drop(lock);
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("endpoint accepts");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: oll\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a body");
    (head.to_string(), body.to_string())
}

#[test]
fn exposition_endpoint_serves_metrics_json_and_health() {
    let name = "obs_http/GOLL";
    let lock = GollLock::new(THREADS);
    lock.telemetry().rename(name);

    let sampler = Sampler::start(SamplerConfig {
        interval: Duration::from_millis(5),
        ring_capacity: 64,
    });
    let server = sampler.serve("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().expect("listener is bound");

    hammer(&lock, 95, Duration::from_millis(20));
    sampler.sample_now();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(head.contains("text/plain; version=0.0.4"));
    let escaped = name.replace('\\', "\\\\").replace('"', "\\\"");
    assert!(body.contains(&format!("lock=\"{escaped}\"")), "{body}");
    assert!(body.contains("oll_lock_acquire_rate"), "{body}");
    assert!(body.contains("oll_lock_hold_time_ns"), "{body}");
    assert!(body.contains("quantile=\"0.99\""), "{body}");
    // Every sample line must parse as `series value`.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(!series.is_empty());
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
    }

    let (head, body) = http_get(addr, "/json");
    assert!(head.starts_with("HTTP/1.1 200"));
    let doc = oll::util::json::parse(&body).expect("oll.obs document parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("oll.obs"),
        "{body}"
    );
    assert!(doc.get("totals").is_some());

    let (head, body) = http_get(addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(head.contains("application/json"), "head: {head}");
    let rows = oll::util::json::parse(&body).expect("health array parses");
    let row = rows
        .as_arr()
        .expect("health is an array")
        .iter()
        .find(|r| r.get("lock").and_then(|v| v.as_str()) == Some(name))
        .unwrap_or_else(|| panic!("no health row for {name}: {body}"));
    let health = row.get("health").and_then(|v| v.as_str());
    let level = LockHealth::ALL
        .into_iter()
        .find(|l| Some(l.name()) == health)
        .unwrap_or_else(|| panic!("unknown health level: {body}"));
    assert_ne!(level, LockHealth::Idle, "a hammered lock is live: {body}");
    assert_eq!(
        row.get("severity").and_then(|v| v.as_u64()),
        Some(u64::from(level.severity())),
        "{body}"
    );

    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "head: {head}");

    server.shutdown();
    let state = sampler.stop();
    assert!(state.samples > 0);
    drop(lock);
}

#[test]
fn flamegraph_round_trips_against_the_analyzer() {
    use oll::trace::{LockDescriptor, Timeline, TraceKind, TraceRecord};
    use oll_obs::{analyze, AnalyzerConfig};
    let rec = |ts_ns, tid, kind, token| TraceRecord {
        ts_ns,
        tid,
        lock: 1,
        kind,
        token,
    };
    // One spin-only read and one fully staged write, so all three wait
    // phases appear with known weights.
    let tl = Timeline {
        records: vec![
            rec(0, 1, TraceKind::ReadBegin, 0),
            rec(10, 1, TraceKind::ReadAcquired, 0),
            rec(0, 2, TraceKind::WriteBegin, 0),
            rec(5, 2, TraceKind::Enqueued, 7),
            rec(20, 1, TraceKind::Granted, 7),
            rec(30, 2, TraceKind::WriteAcquired, 0),
        ],
        locks: vec![LockDescriptor {
            id: 1,
            kind: "GOLL".into(),
            name: "obs flame/GOLL".into(),
        }],
        ..Timeline::default()
    };
    let report = analyze(&tl, &AnalyzerConfig::default());
    assert_eq!(report.unmatched_grants, 0);

    let folded = oll_obs::flame::render_folded(&tl, &report);
    let lines = oll_obs::flame::parse_folded(&folded).expect("own output parses");
    assert!(!lines.is_empty());
    let total: u64 = lines.iter().map(|l| l.weight).sum();
    let breakdown: u64 = report
        .breakdowns
        .iter()
        .map(|b| b.spin_ns + b.queued_ns + b.handoff_ns)
        .sum();
    assert_eq!(total, breakdown, "folded weights drifted from the analyzer");
    assert!(lines.iter().all(|l| l.frames[0] == "obs_flame/GOLL"));
}

#[test]
fn hammered_lock_scores_as_live() {
    let name = "obs_health/GOLL";
    let lock = GollLock::new(THREADS);
    lock.telemetry().rename(name);

    let sampler = Sampler::start(SamplerConfig {
        interval: Duration::from_millis(5),
        ring_capacity: 64,
    });
    hammer(&lock, 50, Duration::from_millis(30));
    let state = sampler.stop();

    let health = oll_obs::health::score_all(&state, &HealthConfig::default());
    let mine = health
        .iter()
        .find(|h| h.name == name)
        .expect("hammered lock was scored");
    assert!(mine.acquires > 0);
    assert!(mine.health.severity() >= 1, "not idle: {mine:?}");
    let ratio = mine.read_ratio.expect("acquires imply a read ratio");
    assert!((0.0..=1.0).contains(&ratio));
    drop(lock);
}
