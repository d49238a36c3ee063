//! The event taxonomy: every countable thing a lock slow path can do.
//!
//! The list itself — variant, `snake_case` name, doc line — lives once,
//! in `lock_events!` below, which also generates the leading
//! [`TraceKind`](crate::trace::TraceKind)s from it: a counted event and
//! its trace record cannot drift apart. The C-SNZI's shared-write counts
//! (root writes, node writes, failed root CASes) are first-class events,
//! so one snapshot carries the whole contention picture.

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
/// with `COUNT`, `ALL`, `name()` and `index()`. [`LockEvent`] is the
/// list alone (an event doubles as its counter-array index);
/// [`TraceKind`](crate::trace::TraceKind) appends its markers. An event
/// added here is counted, traced and named everywhere at once.
macro_rules! lock_events {
    (
        $(#[$attr:meta])*
        $vis:vis enum $Enum:ident {
            $($(#[$xdoc:meta])* $xvariant:ident = $xname:literal,)*
        }
    ) => {
        $crate::event::lock_events! { @emit [$(#[$attr])*] $vis $Enum
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
            /// The controller changed regime: allowed or disallowed the
            /// BRAVO bias after the regime held for the full hysteresis
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

pub(crate) use lock_events;

lock_events! {
    /// One countable lock event. `repr(usize)` so an event doubles as an
    /// index into the per-shard counter array.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[repr(usize)]
    pub enum LockEvent {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order_and_complete() {
        assert_eq!(LockEvent::ALL.len(), LockEvent::COUNT);
        for (i, e) in LockEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{}", e.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = LockEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LockEvent::COUNT);
    }
}
