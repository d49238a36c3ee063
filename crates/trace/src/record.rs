//! The trace record: one timestamped event, packed to three words.
//!
//! A record is `(ts_ns, tid, lock, kind, token)`. The leading
//! [`TraceKind`]s are `oll_telemetry::LockEvent` itself — both enums are
//! generated from the one list in [`lock_events!`](crate::lock_events),
//! so counter increments flow into the timeline without a translation
//! table; the remaining kinds are trace-only *markers* that exist to
//! give events structure in time: acquisition begin/end, queue entry,
//! and ownership grants carrying a causality token (a waiter-node
//! address or wait-event address) that lets the analyzer stitch a
//! hand-off's grantor and grantee into an edge.

/// The event taxonomy, declared once: every countable thing a lock slow
/// path can do, as `Variant = "snake_case_name"` with its doc line.
///
/// The set follows §5 of the paper and the adaptive-lock literature
/// (BRAVO, Fissile Locks): what a bias/adaptation policy needs to know
/// is *where acquisitions land* (fast vs. slow path, direct vs. tree
/// C-SNZI arrival), *how releases travel* (hand-offs, grant cascades),
/// and *how often waits are abandoned* (timeouts, cancellations).
///
/// Invoked on an enum header, the macro generates that enum — these
/// events in this order, then whatever variants the header's body adds —
/// with `COUNT`, `ALL`, `name()` and `index()`. `oll_telemetry::LockEvent`
/// is the list alone (an event doubles as its counter-array index);
/// [`TraceKind`] appends its markers. An event added here is counted,
/// traced and named everywhere at once.
#[macro_export]
macro_rules! lock_events {
    (
        $(#[$attr:meta])*
        $vis:vis enum $Enum:ident {
            $($(#[$xdoc:meta])* $xvariant:ident = $xname:literal,)*
        }
    ) => {
        $crate::lock_events! { @emit [$(#[$attr])*] $vis $Enum
            /// A read acquisition completed on the fast path (no queueing,
            /// no waiting on another thread).
            ReadFast = "read_fast",
            /// A read acquisition entered the slow path (queued or waited).
            ReadSlow = "read_slow",
            /// A write acquisition completed on the fast path.
            WriteFast = "write_fast",
            /// A write acquisition entered the slow path.
            WriteSlow = "write_slow",
            /// A C-SNZI arrival landed directly on the shared root word.
            ArriveDirect = "arrive_direct",
            /// A C-SNZI arrival landed on a tree leaf (distributed cache
            /// line).
            ArriveTree = "arrive_tree",
            /// A release handed the lock to a waiting writer.
            HandoffToWriter = "handoff_to_writer",
            /// A release handed the lock to one or more waiting reader
            /// groups.
            HandoffToReaders = "handoff_to_readers",
            /// A grant skipped over an abandoned (cancelled) queue node and
            /// released on its behalf (FOLL/ROLL cascade).
            GrantCascade = "grant_cascade",
            /// A timed acquisition gave up at its deadline.
            Timeout = "timeout",
            /// A cancellation had to undo a partial acquisition (a queued
            /// waiter was excised, a C-SNZI arrival departed, or a node
            /// was abandoned).
            Cancel = "cancel",
            /// A sole-reader upgrade to a write hold succeeded.
            Upgrade = "upgrade",
            /// An upgrade attempt failed (other readers present).
            UpgradeFail = "upgrade_fail",
            /// A write hold was downgraded to a read hold.
            Downgrade = "downgrade",
            /// The C-SNZI root word was successfully written (shared cache
            /// line).
            CsnziRootWrite = "csnzi_root_write",
            /// A C-SNZI tree node was successfully written (distributed
            /// line).
            CsnziNodeWrite = "csnzi_node_write",
            /// A CAS on the C-SNZI root word failed (wasted shared-line
            /// traffic). Arrivals are unconditional, so these are the
            /// closes, the last-departer claim and tree arrivals at the
            /// root.
            CsnziRootCasFail = "csnzi_root_cas_fail",
            /// A direct C-SNZI arrival landed on a closed word and took
            /// itself back (the two root writes a failed arrival costs).
            CsnziArriveUndone = "csnzi_arrive_undone",
            /// A C-SNZI allocated its tree: the first arrival a handle's
            /// contention evidence sent to the tree built it (once per
            /// object; it is never freed).
            CsnziInflate = "csnzi_inflate",
            /// A handle's cached C-SNZI leaf missed (leaf-level CAS failed)
            /// and the handle migrated to a neighbouring leaf.
            CsnziLeafMigrate = "csnzi_leaf_migrate",
            /// A biased (BRAVO) read acquisition completed through the
            /// global visible-readers table, bypassing the underlying lock
            /// entirely.
            BiasGrant = "bias_grant",
            /// A writer revoked reader bias: cleared `rbias` and waited out
            /// every published slot before proceeding.
            BiasRevoke = "bias_revoke",
            /// A biased reader found its hashed slot occupied and fell back
            /// to the underlying lock.
            BiasSlotCollision = "bias_slot_collision",
            /// Reader bias re-armed after the adaptive inhibit window
            /// elapsed.
            BiasRearm = "bias_rearm",
            /// A write holder panicked in its critical section and its
            /// release marked the `Watched` lock poisoned.
            Poisoned = "poisoned",
            /// A poison mark was cleared (`Watched::clear_poison`).
            PoisonCleared = "poison_cleared",
            /// A watched blocker found a wait-for cycle through itself and
            /// abandoned the acquisition
            /// (`AcquireError::DeadlockDetected`).
            DeadlockDetected = "deadlock_detected",
            /// The starvation watchdog saw a watched writer outwait the
            /// stall threshold (counted at each escalation below
            /// degradation).
            WatchdogStall = "watchdog_stall",
            /// The watchdog degraded the lock: its `bias_allowed` knob is
            /// cleared, so the reader bias cannot re-arm until a write
            /// completes.
            BiasDegraded = "bias_degraded",
            /// An async acquisition stored its task waker and returned
            /// `Pending` (the futures-native analogue of parking a
            /// thread).
            WakerStored = "waker_stored",
            /// A grant found a stored waker and woke it (the grantee was
            /// suspended; absence means the grant won the register race).
            WakerWoken = "waker_woken",
            /// A cohort release handed the write lock to a same-socket
            /// waiter without touching the global queue (batched NUMA
            /// hand-off).
            CohortLocalHandoff = "cohort_local_handoff",
            /// A cohort release published the write lock outward: the
            /// global queue hand-off crossed (or may cross) a socket
            /// boundary.
            CohortRemoteHandoff = "cohort_remote_handoff",
            /// A cohort release hit the batch bound with local waiters
            /// still queued and released globally instead (the starvation
            /// bound).
            CohortBatchExhausted = "cohort_batch_exhausted",
            /// The self-tuning controller closed a sampling window and
            /// evaluated its decision table (one count per completed
            /// window, not per slow-path entry).
            TunerSample = "tuner_sample",
            /// The controller changed policy: stored new knob values (bias
            /// arm/disarm, re-arm multiplier, backoff caps, cohort
            /// batch) after the regime held for the full hysteresis
            /// requirement (as a trace record, `token` carries the packed
            /// old/new regime pair).
            TunerFlip = "tuner_flip",
            /// The controller saw a regime change but held the current
            /// policy — hysteresis (or the decision-rate cap) suppressed
            /// the flip.
            TunerHold = "tuner_hold",
            $($(#[$xdoc])* $xvariant = $xname,)*
        }
    };
    (
        @emit [$(#[$attr:meta])*] $vis:vis $Enum:ident
        $($(#[$doc:meta])* $variant:ident = $name:literal,)*
    ) => {
        $(#[$attr])*
        $vis enum $Enum {
            $($(#[$doc])* $variant,)*
        }

        impl $Enum {
            /// Number of variants.
            pub const COUNT: usize = [$($name,)*].len();

            /// Every variant, in discriminant order.
            pub const ALL: [$Enum; Self::COUNT] = [$($Enum::$variant,)*];

            /// Stable `snake_case` name: the JSON key, the text-report row
            /// label, the trace event name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($Enum::$variant => $name,)*
                }
            }

            /// The discriminant as an index.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }
        }
    };
}

lock_events! {
    /// What happened: the [`lock_events!`](crate::lock_events) list
    /// (`oll_telemetry::LockEvent`, same discriminants, same names),
    /// then the trace-only markers.
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
