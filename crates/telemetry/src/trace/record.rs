//! The trace record: one timestamped event, packed to three words.
//!
//! A record is `(ts_ns, tid, lock, kind, token)`. The leading
//! [`TraceKind`]s are [`LockEvent`](crate::LockEvent) itself — both
//! enums are generated from the one list in `crate::event`, so counter
//! increments flow into the timeline without a translation table; the
//! remaining kinds are trace-only *markers* that exist to give events
//! structure in time: acquisition begin/end, queue entry, and ownership
//! grants carrying a causality token (a waiter-node address or
//! wait-event address) that lets `oll-obs`'s analyzer stitch a
//! hand-off's grantor and grantee into an edge.

crate::event::lock_events! {
    /// What happened: the [`LockEvent`](crate::LockEvent) list (same
    /// discriminants, same names), then the trace-only markers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    #[repr(u8)]
    pub enum TraceKind {
        /// `lock_read` entered (marker; opens a read acquisition span).
        ReadBegin = "read_begin",
        /// `lock_write` entered (marker; opens a write acquisition span).
        WriteBegin = "write_begin",
        /// The thread joined a wait queue; `token` names what it waits on.
        Enqueued = "enqueued",
        /// A releasing thread granted ownership to the waiter(s) parked on
        /// `token` (emitted by the *grantor*).
        Granted = "granted",
        /// `lock_read` succeeded (marker; closes the read span).
        ReadAcquired = "read_acquired",
        /// `lock_write` succeeded (marker; closes the write span).
        WriteAcquired = "write_acquired",
        /// `unlock_read` entered (marker; closes the read hold span).
        ReadRelease = "read_release",
        /// `unlock_write` entered (marker; closes the write hold span).
        WriteRelease = "write_release",
    }
}

impl TraceKind {
    /// Inverse of [`TraceKind::index`].
    pub const fn from_u8(v: u8) -> Option<TraceKind> {
        if (v as usize) < TraceKind::COUNT {
            Some(TraceKind::ALL[v as usize])
        } else {
            None
        }
    }
}

/// Largest thread id a packed record can carry (24 bits).
pub const MAX_TID: u32 = (1 << 24) - 1;

/// One trace event. 29 bytes of payload, packed into three 64-bit words
/// in the ring (`ts` · `token` · `lock:32 | tid:24 | kind:8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Recording thread: `oll_util::topology::dense_thread_id() + 1`
    /// (0 = unattributed).
    pub tid: u32,
    /// Lock instance id from lock registration (0 = unattributed).
    pub lock: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Causality token for [`TraceKind::Enqueued`]/[`TraceKind::Granted`]
    /// (waiter-node address or wait-event address); 0 when unused.
    pub token: u64,
}

// Only the (feature-gated) ring packs records; keep the pair compiled in
// tests so the round-trip stays pinned even in disabled builds.
#[cfg_attr(not(any(feature = "enabled", test)), allow(dead_code))]
impl TraceRecord {
    /// Packs to the ring's three-word slot payload.
    #[inline]
    pub(crate) fn pack(&self) -> [u64; 3] {
        [
            self.ts_ns,
            self.token,
            (u64::from(self.lock) << 32)
                | (u64::from(self.tid & MAX_TID) << 8)
                | self.kind.index() as u64,
        ]
    }

    /// Unpacks a slot payload; `None` if the kind byte is invalid
    /// (possible only on a torn read the sequence check then rejects).
    #[inline]
    pub(crate) fn unpack(w: [u64; 3]) -> Option<Self> {
        let kind = TraceKind::from_u8((w[2] & 0xff) as u8)?;
        Some(Self {
            ts_ns: w[0],
            token: w[1],
            lock: (w[2] >> 32) as u32,
            tid: ((w[2] >> 8) & u64::from(MAX_TID)) as u32,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_names() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(TraceKind::from_u8(i as u8), Some(*k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(TraceKind::from_u8(TraceKind::COUNT as u8), None);
    }

    #[test]
    fn record_pack_roundtrip() {
        let r = TraceRecord {
            ts_ns: 123_456_789_012,
            tid: 0x00ab_cdef,
            lock: 0xdead_beef,
            kind: TraceKind::Granted,
            token: 0x1234_5678_9abc_def0,
        };
        assert_eq!(TraceRecord::unpack(r.pack()), Some(r));
    }
}
