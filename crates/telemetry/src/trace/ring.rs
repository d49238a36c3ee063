//! Per-thread fixed-capacity record rings (flight recorder storage).
//!
//! Each recording thread owns exactly one [`Ring`]; only the owner ever
//! writes, so publication needs no CAS — a per-slot sequence word makes
//! every slot an independent single-writer seqlock. Writing position
//! `p` into slot `p % cap` goes: `seq ← 2p+1` (odd: in progress), the
//! three payload words (relaxed atomics — torn reads are *detected*,
//! never undefined), then `seq ← 2(p+1)` (even: slot stably holds `p`).
//! A concurrent collector reading position `p` checks `seq == 2(p+1)`
//! before and after copying the payload; any mismatch means the owner
//! lapped the slot and the record counts as **dropped** — overwritten
//! history is accounted, never silently wrapped.

use crate::trace::record::TraceRecord;
use std::sync::atomic::{fence, AtomicU64, Ordering};

#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 3],
}

/// One thread's ring. Shared as `Arc` between the owning thread (sole
/// writer) and collectors (readers); rings outlive their threads so a
/// session can still drain records from exited workers.
#[derive(Debug)]
pub(crate) struct Ring {
    tid: u32,
    thread_name: Option<String>,
    cap: u64,
    /// Total records ever written (monotonic; `written - cap` is the
    /// oldest position that can still be read back).
    written: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    pub(crate) fn new(tid: u32, thread_name: Option<String>, cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            tid,
            thread_name,
            cap: cap as u64,
            written: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                })
                .collect(),
        }
    }

    pub(crate) fn tid(&self) -> u32 {
        self.tid
    }

    pub(crate) fn thread_name(&self) -> Option<&str> {
        self.thread_name.as_deref()
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.cap
    }

    pub(crate) fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Appends a record. MUST only be called by the owning thread.
    #[inline]
    pub(crate) fn push(&self, r: &TraceRecord) {
        let pos = self.written.load(Ordering::Relaxed);
        let slot = &self.slots[(pos % self.cap) as usize];
        slot.seq.store(2 * pos + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let w = r.pack();
        slot.words[0].store(w[0], Ordering::Relaxed);
        slot.words[1].store(w[1], Ordering::Relaxed);
        slot.words[2].store(w[2], Ordering::Relaxed);
        slot.seq.store(2 * (pos + 1), Ordering::Release);
        self.written.store(pos + 1, Ordering::Release);
    }

    /// Reads back position `pos`, or `None` if the slot has been
    /// overwritten (or is being overwritten right now).
    pub(crate) fn read_at(&self, pos: u64) -> Option<TraceRecord> {
        let expect = 2 * (pos + 1);
        let slot = &self.slots[(pos % self.cap) as usize];
        if slot.seq.load(Ordering::Acquire) != expect {
            return None;
        }
        let w = [
            slot.words[0].load(Ordering::Relaxed),
            slot.words[1].load(Ordering::Relaxed),
            slot.words[2].load(Ordering::Relaxed),
        ];
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != expect {
            return None;
        }
        TraceRecord::unpack(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::record::TraceKind;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: i,
            tid: 7,
            lock: 3,
            kind: TraceKind::ReadFast,
            token: i * 17,
        }
    }

    #[test]
    fn push_then_read_back() {
        let ring = Ring::new(7, None, 8);
        for i in 0..5 {
            ring.push(&rec(i));
        }
        assert_eq!(ring.written(), 5);
        for i in 0..5 {
            assert_eq!(ring.read_at(i), Some(rec(i)));
        }
    }

    #[test]
    fn overwritten_positions_read_as_none() {
        let ring = Ring::new(7, None, 4);
        for i in 0..10 {
            ring.push(&rec(i));
        }
        // Positions 0..6 were lapped; only the last 4 survive.
        for i in 0..6 {
            assert_eq!(ring.read_at(i), None, "position {i} should be gone");
        }
        for i in 6..10 {
            assert_eq!(ring.read_at(i), Some(rec(i)));
        }
    }
}
