//! Fairness-policy behavior: FOLL's FIFO guarantee (writers are not
//! starved by a reader stream), ROLL's reader preference (readers
//! overtake queued writers), and GOLL's alternating hand-off.

use oll::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Under a continuous reader stream, a writer must acquire a FIFO lock
/// promptly: once it enqueues, readers arriving later queue behind it.
#[test]
fn foll_writer_not_starved_by_reader_stream() {
    writer_completes_under_reader_stream(FollLock::new, "FOLL");
}

#[test]
fn goll_writer_not_starved_by_reader_stream() {
    writer_completes_under_reader_stream(GollLock::new, "GOLL");
}

fn writer_completes_under_reader_stream<L, F>(make: F, name: &'static str)
where
    L: RwLockFamily + 'static,
    F: FnOnce(usize) -> L,
{
    const READERS: usize = 3;
    let lock = Arc::new(make(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let writes_done = Arc::new(AtomicU64::new(0));

    let mut reader_threads = Vec::new();
    for _ in 0..READERS {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        reader_threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_read();
                h.unlock_read();
            }
        }));
    }

    // The writer must make progress while the readers keep streaming.
    {
        let lock = Arc::clone(&lock);
        let writes_done = Arc::clone(&writes_done);
        let w = std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            let deadline = Instant::now() + Duration::from_secs(20);
            for _ in 0..50 {
                h.lock_write();
                h.unlock_write();
                writes_done.fetch_add(1, Ordering::Relaxed);
                assert!(Instant::now() < deadline, "{name}: writer starved");
            }
        });
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for t in reader_threads {
        t.join().unwrap();
    }
    assert_eq!(writes_done.load(Ordering::Relaxed), 50, "{name}");
}

/// ROLL reader preference: with a writer queued behind an active reader,
/// new readers join the *waiting* reader group ahead of later writers.
/// (The deterministic single-overtake version lives in the ROLL unit
/// tests; this is the probabilistic end-to-end check that readers keep a
/// large throughput advantage while writers still finish.)
#[test]
fn roll_readers_flow_around_writers() {
    const READERS: usize = 3;
    let lock = Arc::new(RollLock::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    for _ in 0..READERS {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_read();
                reads.fetch_add(1, Ordering::Relaxed);
                h.unlock_read();
            }
        }));
    }
    {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_write();
                writes.fetch_add(1, Ordering::Relaxed);
                h.unlock_write();
                std::thread::yield_now();
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    let r = reads.load(Ordering::Relaxed);
    let w = writes.load(Ordering::Relaxed);
    assert!(w > 0, "writer made no progress at all");
    assert!(
        r > w,
        "reads ({r}) should dominate writes ({w}) under reader preference"
    );
}

/// GOLL alternating policy: when both classes wait, a releasing writer
/// wakes readers and a releasing reader wakes a writer — so with one
/// writer looping against a reader group, writes interleave with read
/// bursts rather than one side monopolizing.
#[test]
fn goll_alternating_handoff_interleaves_classes() {
    const READERS: usize = 2;
    let lock = Arc::new(GollLock::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    for _ in 0..READERS {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_read();
                reads.fetch_add(1, Ordering::Relaxed);
                h.unlock_read();
            }
        }));
    }
    {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        threads.push(std::thread::spawn(move || {
            let mut h = lock.handle().unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.lock_write();
                writes.fetch_add(1, Ordering::Relaxed);
                h.unlock_write();
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    let r = reads.load(Ordering::Relaxed);
    let w = writes.load(Ordering::Relaxed);
    // Alternation means neither class is starved.
    assert!(r > 0 && w > 0, "reads={r} writes={w}");
    assert!(w >= 10, "writer starved: only {w} writes against {r} reads");
}
