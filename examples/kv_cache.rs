//! A read-heavy key-value cache with occasional invalidation, protected
//! by the ROLL lock — the reader-preference scenario of §4.3: lookups
//! should keep flowing even while invalidators queue for write access.
//!
//! The run reports read and write latency percentiles per lock so the
//! trade is visible: ROLL favors readers; FOLL is FIFO-fair; the
//! Solaris-like lock serializes every lookup on its lockword.
//!
//! ```sh
//! cargo run --release --example kv_cache
//! ```

use oll::baselines::SolarisLikeRwLock;
use oll::{FollLock, RollLock, RwLockFamily};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A toy cache: fixed-size direct-mapped table.
struct Cache {
    slots: Vec<Option<(u64, u64)>>,
}

impl Cache {
    fn new(size: usize) -> Self {
        Self {
            slots: vec![None; size],
        }
    }

    fn get(&self, key: u64) -> Option<u64> {
        let slot = (key as usize) % self.slots.len();
        match self.slots[slot] {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    fn put(&mut self, key: u64, value: u64) {
        let slot = (key as usize) % self.slots.len();
        self.slots[slot] = Some((key, value));
    }

    fn invalidate_all(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn run<L: RwLockFamily>(label: &str, lock: L, readers: usize, duration: Duration) {
    let cache = oll::RwLock::new(lock, Cache::new(1024));

    let stop = AtomicBool::new(false);
    let all_read_lat: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let all_write_lat: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for r in 0..readers {
            let cache = &cache;
            let stop = &stop;
            let all_read_lat = &all_read_lat;
            s.spawn(move || {
                let mut me = cache.owner().unwrap();
                let mut rng = oll::util::XorShift64::for_thread(2026, r);
                let mut lat = Vec::with_capacity(4096);
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next_below(2048);
                    let t0 = Instant::now();
                    let hit = me.read().get(key);
                    lat.push(t0.elapsed());
                    if hit.is_none() {
                        // Miss: fill (a write).
                        let t0 = Instant::now();
                        me.write().put(key, key * 7);
                        let _fill = t0.elapsed();
                    }
                }
                all_read_lat.lock().unwrap().extend(lat);
            });
        }
        // Invalidator: periodically wipes the cache (a heavyweight write).
        let cache = &cache;
        let stop = &stop;
        let all_write_lat = &all_write_lat;
        s.spawn(move || {
            let mut me = cache.owner().unwrap();
            let mut lat = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                let t0 = Instant::now();
                me.write().invalidate_all();
                lat.push(t0.elapsed());
            }
            all_write_lat.lock().unwrap().extend(lat);
        });

        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });

    let mut reads = all_read_lat.into_inner().unwrap();
    let mut writes = all_write_lat.into_inner().unwrap();
    reads.sort_unstable();
    writes.sort_unstable();
    println!(
        "{label:>13}: {:>9} lookups  read p50={:>8.0?} p99={:>8.0?}   invalidate p50={:>8.0?}",
        reads.len(),
        percentile(&reads, 0.50),
        percentile(&reads, 0.99),
        percentile(&writes, 0.50),
    );
}

fn main() {
    let readers = 4;
    let duration = Duration::from_millis(600);
    println!("kv cache: {readers} lookup threads + 1 invalidator, {duration:?} per lock");
    run("ROLL", RollLock::new(readers + 2), readers, duration);
    run("FOLL", FollLock::new(readers + 2), readers, duration);
    run(
        "Solaris-like",
        SolarisLikeRwLock::new(readers + 2),
        readers,
        duration,
    );
}
