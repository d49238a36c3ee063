//! The recorder's global side: ring/lock registries, the emit path, and
//! the collector that drains every ring into a merged [`Timeline`].
//!
//! # Drain protocol
//!
//! A [`TraceSession`] snapshots each live ring's `written` cursor at
//! [`TraceSession::begin`]. [`TraceSession::collect`] walks every ring
//! (including rings born after `begin`, from position 0) over
//! `[start, written_now)`, clamps the low end to the ring's retention
//! window (`written_now - capacity`), and counts everything outside the
//! window — plus any record the owner laps mid-copy — as **dropped**.
//! Collection is non-destructive: cursors live in the session, not the
//! ring, so concurrent sessions never steal each other's records.
//! `begin` also counts the session open, and its drop counts it closed:
//! [`enabled`] reads that count, and the telemetry facade emits only
//! while it is nonzero.

use crate::trace::record::TraceRecord;

/// One lock instance in the timeline's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDescriptor {
    /// The id carried by records (1-based; 0 = unattributed).
    pub id: u32,
    /// Lock algorithm (e.g. `"GOLL"`).
    pub kind: String,
    /// Instance name (tracks `Telemetry::rename`).
    pub name: String,
}

/// One recording thread in the timeline's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDescriptor {
    /// The id carried by records: the thread's
    /// `oll_util::topology::dense_thread_id() + 1` (0 = unattributed).
    pub tid: u32,
    /// OS thread name at first emit, if any.
    pub name: String,
}

/// A merged, time-ordered drain of every ring.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Records sorted by `(ts_ns, tid)`.
    pub records: Vec<TraceRecord>,
    /// Records lost to ring wrap-around (reported, never silent).
    pub dropped: u64,
    /// Known lock instances (header metadata).
    pub locks: Vec<LockDescriptor>,
    /// Known recording threads (header metadata).
    pub threads: Vec<ThreadDescriptor>,
}

impl Timeline {
    /// Whether any record was lost to ring wrap-around.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Display name for lock `id` (`"?"` if unregistered).
    pub fn lock_name(&self, id: u32) -> &str {
        self.locks
            .iter()
            .find(|l| l.id == id)
            .map(|l| l.name.as_str())
            .unwrap_or("?")
    }

    /// Display name for thread `tid`.
    pub fn thread_name(&self, tid: u32) -> String {
        self.threads
            .iter()
            .find(|t| t.tid == tid)
            .filter(|t| !t.name.is_empty())
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("thread-{tid}"))
    }

    /// A copy containing only records for lock `id` (header kept).
    /// Handy for tests that must ignore other locks' concurrent noise.
    pub fn filter_lock(&self, id: u32) -> Timeline {
        Timeline {
            records: self
                .records
                .iter()
                .filter(|r| r.lock == id)
                .copied()
                .collect(),
            dropped: self.dropped,
            locks: self.locks.clone(),
            threads: self.threads.clone(),
        }
    }
}

#[cfg(feature = "enabled")]
mod recorder {
    use super::*;
    use crate::trace::record::TraceKind;
    use crate::trace::ring::Ring;
    use crate::trace::DEFAULT_RING_CAPACITY;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// `(ring, written-at-begin)` for the rings alive when a session
    /// began.
    pub(super) type Marks = Vec<(Arc<Ring>, u64)>;

    /// Number of open [`TraceSession`]s. `Relaxed` throughout: it
    /// publishes no data, and a record emitted while a session opens or
    /// closes may land or not; the session's marks bound what it keeps.
    static OPEN: AtomicUsize = AtomicUsize::new(0);

    static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

    fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    struct LockEntry {
        kind: String,
        name: Mutex<String>,
    }

    fn locks() -> &'static Mutex<Vec<Arc<LockEntry>>> {
        static LOCKS: OnceLock<Mutex<Vec<Arc<LockEntry>>>> = OnceLock::new();
        LOCKS.get_or_init(|| Mutex::new(Vec::new()))
    }

    #[inline]
    pub(super) fn recording() -> bool {
        OPEN.load(Ordering::Relaxed) != 0
    }

    /// Monotonic clock shared by every ring: nanoseconds since the first
    /// call in the process.
    pub(super) fn now_ns() -> u64 {
        static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
        let e = EPOCH.get_or_init(std::time::Instant::now).elapsed();
        e.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(e.subsec_nanos()))
    }

    fn install_ring() -> Arc<Ring> {
        let tid = oll_util::topology::dense_thread_id() as u32 + 1;
        let name = std::thread::current().name().map(str::to_string);
        let ring = Arc::new(Ring::new(tid, name, RING_CAPACITY.load(Ordering::Relaxed)));
        rings().lock().unwrap().push(Arc::clone(&ring));
        ring
    }

    thread_local! {
        static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    }

    #[inline]
    pub(super) fn emit(lock: u32, kind: TraceKind, token: u64) {
        let r = TraceRecord {
            ts_ns: now_ns(),
            tid: 0, // filled from the ring below
            lock,
            kind,
            token,
        };
        // Threads whose TLS is already tearing down lose the record;
        // the flight recorder must never panic out of a lock path.
        let _ = RING.try_with(|cell| {
            let ring = cell.get_or_init(install_ring);
            ring.push(&TraceRecord {
                tid: ring.tid(),
                ..r
            });
        });
    }

    pub(super) fn register_lock(kind: &str, name: &str) -> u32 {
        let mut locks = locks().lock().unwrap();
        locks.push(Arc::new(LockEntry {
            kind: kind.to_string(),
            name: Mutex::new(name.to_string()),
        }));
        locks.len() as u32
    }

    pub(super) fn rename_lock(id: u32, name: &str) {
        let entry = match id {
            0 => None,
            id => locks().lock().unwrap().get(id as usize - 1).cloned(),
        };
        if let Some(e) = entry {
            *e.name.lock().unwrap() = name.to_string();
        }
    }

    pub(super) fn set_ring_capacity(records: usize) {
        RING_CAPACITY.store(records.max(1), Ordering::Relaxed);
    }

    /// Opens a session: counts it, then marks every live ring.
    pub(super) fn open() -> Marks {
        OPEN.fetch_add(1, Ordering::Relaxed);
        rings()
            .lock()
            .unwrap()
            .iter()
            .map(|r| (Arc::clone(r), r.written()))
            .collect()
    }

    pub(super) fn close() {
        OPEN.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drains every ring from its mark in `marks` (rings without one
    /// from position 0) into a merged, time-sorted [`Timeline`].
    pub(super) fn collect(marks: &Marks) -> Timeline {
        let all: Vec<Arc<Ring>> = rings().lock().unwrap().clone();
        let start_of = |ring: &Arc<Ring>| -> u64 {
            marks
                .iter()
                .find(|(r, _)| Arc::ptr_eq(r, ring))
                .map(|(_, pos)| *pos)
                .unwrap_or(0)
        };
        let mut tl = Timeline::default();
        for ring in &all {
            let start = start_of(ring);
            let end = ring.written();
            let lo = start.max(end.saturating_sub(ring.capacity()));
            tl.dropped += lo - start;
            for pos in lo..end {
                match ring.read_at(pos) {
                    Some(r) => tl.records.push(r),
                    None => tl.dropped += 1,
                }
            }
            tl.threads.push(ThreadDescriptor {
                tid: ring.tid(),
                name: ring.thread_name().unwrap_or("").to_string(),
            });
        }
        tl.records.sort_by_key(|r| (r.ts_ns, r.tid));
        tl.threads.sort_by_key(|t| t.tid);
        tl.locks = locks()
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, e)| LockDescriptor {
                id: i as u32 + 1,
                kind: e.kind.clone(),
                name: e.name.lock().unwrap().clone(),
            })
            .collect();
        tl
    }
}

/// The recorder compiled out: no rings, atomics or clock reads; every
/// hook is an empty function and a session is zero-sized.
#[cfg(not(feature = "enabled"))]
mod recorder {
    use super::Timeline;
    use crate::trace::record::TraceKind;

    pub(super) type Marks = ();

    #[inline]
    pub(super) fn recording() -> bool {
        false
    }
    pub(super) fn now_ns() -> u64 {
        0
    }
    #[inline]
    pub(super) fn emit(_: u32, _: TraceKind, _: u64) {}
    pub(super) fn register_lock(_: &str, _: &str) -> u32 {
        0
    }
    pub(super) fn rename_lock(_: u32, _: &str) {}
    pub(super) fn set_ring_capacity(_: usize) {}
    pub(super) fn open() -> Marks {}
    pub(super) fn close() {}
    pub(super) fn collect(_: &Marks) -> Timeline {
        Timeline::default()
    }
}

/// Whether the flight recorder is recording right now: compiled in
/// (this crate's `enabled` feature) and at least one [`TraceSession`]
/// open. One `Relaxed` load; a constant `false` without the feature.
/// The telemetry facade asks this before every record, so a build that
/// never opens a session creates no ring and no lock-table entry.
#[inline]
pub fn enabled() -> bool {
    recorder::recording()
}

/// Nanoseconds on the trace clock (monotonic, process-wide epoch).
/// Always 0 when the `enabled` feature is off.
#[inline]
pub fn now_ns() -> u64 {
    recorder::now_ns()
}

/// Appends a record to the calling thread's ring, session or not (the
/// telemetry facade checks [`enabled`] first). A no-op without the
/// `enabled` feature.
#[inline]
pub fn emit(lock: u32, kind: crate::trace::record::TraceKind, token: u64) {
    recorder::emit(lock, kind, token);
}

/// Registers a lock instance; the returned id attributes its records.
/// Returns 0 (the unattributed id) when tracing is compiled out.
pub fn register_lock(kind: &str, name: &str) -> u32 {
    recorder::register_lock(kind, name)
}

/// Renames a registered lock (shows up in subsequent collections); id 0
/// is a no-op.
pub fn rename_lock(id: u32, name: &str) {
    recorder::rename_lock(id, name);
}

/// Sets the capacity (in records) of rings created *after* this call.
/// Existing rings keep their size. No-op when tracing is compiled out.
pub fn set_thread_ring_capacity(records: usize) {
    recorder::set_ring_capacity(records);
}

/// A collection window over the flight recorder, and the switch that
/// turns it on: the telemetry facade records while at least one session
/// is open ([`enabled`]), and dropping the last one stops it.
///
/// Zero-sized when the `enabled` feature is off ([`TraceSession::begin`]
/// and [`TraceSession::collect`] still exist; `collect` returns an empty
/// [`Timeline`]), so tooling needs no `cfg` of its own.
#[derive(Debug)]
pub struct TraceSession {
    marks: recorder::Marks,
}

impl TraceSession {
    /// Opens a window and starts recording: subsequent
    /// [`TraceSession::collect`] calls return records emitted from this
    /// point on (rings born later are included from their first record).
    pub fn begin() -> Self {
        Self {
            marks: recorder::open(),
        }
    }

    /// Drains every ring into a merged, time-sorted [`Timeline`].
    /// Non-destructive; callable repeatedly on one session.
    pub fn collect(&self) -> Timeline {
        recorder::collect(&self.marks)
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        recorder::close();
    }
}

/// Everything still retained in every ring, since process start.
pub fn capture_all() -> Timeline {
    recorder::collect(&Default::default())
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::trace::record::TraceKind;

    #[test]
    fn session_scopes_and_merges() {
        let lock = register_lock("TEST", "collect/session");
        emit(lock, TraceKind::ReadFast, 0);
        let session = TraceSession::begin();
        let handle = std::thread::Builder::new()
            .name("collector-worker".into())
            .spawn(move || {
                for i in 0..10 {
                    emit(lock, TraceKind::WriteFast, i);
                }
            })
            .unwrap();
        handle.join().unwrap();
        emit(lock, TraceKind::ReadSlow, 7);
        let tl = session.collect().filter_lock(lock);
        // The pre-session ReadFast is out of the window; this thread's
        // ReadSlow and the worker's 10 WriteFasts are in.
        let fast = tl
            .records
            .iter()
            .filter(|r| r.kind == TraceKind::WriteFast)
            .count();
        assert_eq!(fast, 10);
        assert!(tl.records.iter().any(|r| r.kind == TraceKind::ReadSlow));
        assert!(!tl.records.iter().any(|r| r.kind == TraceKind::ReadFast));
        // Sorted by time.
        assert!(tl.records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The worker thread's name made it into the header.
        let wtid = tl
            .records
            .iter()
            .find(|r| r.kind == TraceKind::WriteFast)
            .unwrap()
            .tid;
        assert_eq!(tl.thread_name(wtid), "collector-worker");
        assert_eq!(tl.lock_name(lock), "collect/session");
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        set_thread_ring_capacity(16);
        let lock = register_lock("TEST", "collect/overflow");
        let session = TraceSession::begin();
        std::thread::spawn(move || {
            for i in 0..100 {
                emit(lock, TraceKind::ArriveTree, i);
            }
        })
        .join()
        .unwrap();
        set_thread_ring_capacity(crate::trace::DEFAULT_RING_CAPACITY);
        let tl = session.collect();
        let mine = tl.filter_lock(lock);
        // 100 written into a 16-slot ring: at least 84 dropped, the
        // survivors are the newest, and truncation is flagged.
        assert!(tl.dropped >= 84, "dropped = {}", tl.dropped);
        assert!(tl.truncated());
        assert!(mine.records.len() <= 16);
        assert!(mine.records.iter().any(|r| r.token == 99));
        assert!(!mine.records.iter().any(|r| r.token == 0));
    }

    #[test]
    fn an_open_session_turns_recording_on() {
        let outer = TraceSession::begin();
        let inner = TraceSession::begin();
        drop(outer);
        assert!(enabled(), "one session is still open");
        drop(inner);
    }

    #[test]
    fn ring_tid_is_the_dense_thread_id_plus_one() {
        use oll_util::topology::dense_thread_id;
        let lock = register_lock("TEST", "collect/tid");
        let session = TraceSession::begin();
        let mut expected = Vec::new();
        for _ in 0..4 {
            // A thread that never emits still takes a dense id, so the
            // ring tids cannot be a count of emitting threads.
            std::thread::spawn(dense_thread_id).join().unwrap();
            let dense = std::thread::spawn(move || {
                emit(lock, TraceKind::ReadFast, 0);
                dense_thread_id()
            })
            .join()
            .unwrap();
            expected.push(dense as u32 + 1);
        }
        let tl = session.collect().filter_lock(lock);
        let tids: Vec<u32> = tl.records.iter().map(|r| r.tid).collect();
        assert_eq!(tids, expected);
    }

    #[test]
    fn rename_shows_in_later_collections() {
        let lock = register_lock("TEST", "before");
        rename_lock(lock, "after");
        let tl = capture_all();
        assert_eq!(tl.lock_name(lock), "after");
    }
}
