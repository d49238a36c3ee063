//! NUMA cohort writer gate: per-socket writer queues with batched
//! inter-node hand-off, layered over the shared global FIFO queue.
//!
//! Every writer in FOLL/ROLL normally swings on one global queue tail, so
//! write-heavy workloads pay a cross-socket cache-line migration per
//! hand-off. Cohort locking (Fissile Locks, RMA locks) fixes that by
//! preferring same-node successors: the gate gives each locality rank
//! (socket, per [`oll_util::topology`]) its own writer-queue tail, and a
//! releasing writer hands the lock to the next waiter *in its own cohort*
//! — a same-socket transfer — up to a tunable batch bound before it must
//! release through the global queue, where remote cohorts (and readers)
//! wait.
//!
//! The gate is a layer *above* the unchanged global queue, not a
//! replacement for it:
//!
//! * An uncontended writer bypasses the gate entirely: when its cohort
//!   queue is empty *and* the global queue is idle there is nothing to
//!   batch, so the handle takes the plain writer path (two atomic RMWs,
//!   same as a cohort-free build) and releases with the plain
//!   `writer_unlock`. The check is heuristic — losing the race merely
//!   queues the writer globally, which the protocol already admits.
//! * A writer first enqueues on its cohort tail (an MCS-style CAS-free
//!   `swap`). The cohort **head** proceeds to the ordinary global
//!   `QueueCore::writer_lock`; everyone behind it spins on its cohort
//!   node.
//! * Release resolves the cohort successor first. While the running batch
//!   is under the bound, the grant word passes the lock itself
//!   (`WITH_LOCK`, with the batch counter and the global owner node) —
//!   the global queue is never touched, and the owner's global writer
//!   node stays in place, lent to the batch.
//! * Once the batch bound is hit (or the cohort empties), the releaser
//!   runs the global release *first* and only then passes bare cohort
//!   headship on, so the successor re-queues globally **behind** any
//!   remote writer already waiting. A lone remote writer is therefore
//!   never passed over more than `cohort_batch` times: the starvation
//!   bound.
//!
//! Cohort nodes reuse the existing four-state
//! [`node_state`](crate::node_state) word, so timed acquisitions cancel
//! exactly like global ones: a timed-out waiter CASes `WAITING →
//! ABANDONED` and the granter excises the node from the cohort queue,
//! marking it `RELEASED` for the owner to reclaim.
//!
//! On hardware where topology detection falls back (one locality rank),
//! every writer lands in one cohort and the gate degrades to a single
//! extra tail word in front of today's single-tail behaviour.

use crate::foll::node_state::{ABANDONED, GRANTED, RELEASED, WAITING};
use crate::foll::{NodeRef, QueueCore, WriteTimeout};
use oll_telemetry::LockEvent;
use oll_util::backoff::{spin_until, spin_until_deadline, Deadline};
use oll_util::fault;
use oll_util::knobs::TuningKnobs;
use oll_util::sync::{AtomicU32, AtomicU64, Ordering};
use oll_util::CachePadded;

/// Default batch bound: local hand-offs per cohort tenure before the
/// release is forced through the global queue. The live value is read
/// from the lock's [`TuningKnobs`].
pub const DEFAULT_COHORT_BATCH: u32 = oll_util::knobs::DEFAULT_COHORT_BATCH;

/// Grant-word flag: the hand-off carries the global lock itself (the
/// grantee inherits the owner's place in the global queue). Absent, the
/// hand-off carries bare cohort headship and the grantee must acquire
/// the global lock on its own.
const WITH_LOCK: u64 = 1 << 63;

/// Packs a lock-carrying grant word: the batch counter in bits `32..63`
/// and the raw [`NodeRef`] of the *global* owner node in the low 32.
fn pack_grant(owner: NodeRef, batch: u32) -> u64 {
    debug_assert_eq!(u64::from(batch) >> 31, 0);
    WITH_LOCK | (u64::from(batch) << 32) | u64::from(owner.raw())
}

/// Trace causality token for a cohort node. High bit set so it can never
/// collide with the [`NodeRef`] raw values the global queue stamps on its
/// `enqueued`/`granted` markers.
fn cohort_token(slot: usize) -> u64 {
    u64::from(0x8000_0000u32 | (slot as u32 + 1))
}

/// One slot's cohort-queue node: the MCS link and hand-off state plus the
/// packed grant word the granter deposits before flipping the state.
pub(crate) struct CohortNode {
    /// Cohort successor as `slot + 1`; `0` = nil.
    qnext: AtomicU32,
    /// Four-state hand-off word ([`node_state`](crate::node_state)).
    state: AtomicU32,
    /// What the grant carried; valid only after `state` reads `GRANTED`.
    grant: AtomicU64,
}

impl CohortNode {
    fn new() -> Self {
        Self {
            qnext: AtomicU32::new(0),
            state: AtomicU32::new(GRANTED),
            grant: AtomicU64::new(0),
        }
    }
}

/// The per-lock cohort gate: one writer-queue tail per locality rank and
/// one cohort node per thread slot.
pub(crate) struct CohortGate {
    /// Per-cohort queue tails (`slot + 1`; `0` = empty).
    ctails: Box<[CachePadded<AtomicU32>]>,
    /// One cohort node per thread slot (same indexing as writer nodes).
    nodes: Box<[CachePadded<CohortNode>]>,
    /// Live knobs; the batch bound (≥ 1) is read per release so a
    /// controller can re-balance local throughput against remote
    /// starvation while the lock runs.
    knobs: std::sync::Arc<TuningKnobs>,
    /// Number of cohorts (≥ 1).
    cohorts: usize,
}

impl CohortGate {
    pub(crate) fn new(capacity: usize, cohorts: usize, knobs: std::sync::Arc<TuningKnobs>) -> Self {
        let cohorts = cohorts.max(1);
        Self {
            ctails: (0..cohorts)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            nodes: (0..capacity.max(1))
                .map(|_| CachePadded::new(CohortNode::new()))
                .collect(),
            knobs,
            cohorts,
        }
    }

    pub(crate) fn cohorts(&self) -> usize {
        self.cohorts
    }

    pub(crate) fn batch_limit(&self) -> u32 {
        self.knobs.cohort_batch()
    }

    fn node(&self, slot: usize) -> &CohortNode {
        &self.nodes[slot]
    }
}

/// Proof of a cohort-gated write hold: which cohort queue we came through,
/// whose *global* writer node actually holds the lock (the batch may have
/// inherited it from an earlier cohort member), and how many local
/// hand-offs this tenure has already burned.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CohortHold {
    pub(crate) cohort: usize,
    pub(crate) owner_slot: usize,
    pub(crate) batch: u32,
}

/// How a cohort release discharged the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CohortRelease {
    /// The lock passed to a same-cohort waiter; the owner's global node
    /// stays lent out (its handle must reclaim before the node's next
    /// use if the owner is the releaser).
    LocalHandoff,
    /// Released through the global queue; the releaser's own node held
    /// the lock, so it is immediately reusable.
    GlobalReleasedOwn,
    /// Released through the global queue on behalf of another slot's
    /// node (that node was marked `RELEASED` for its owner to reclaim).
    GlobalReleasedForeign,
    /// Nothing global to release (the caller held only cohort headship).
    NoGlobal,
}

impl QueueCore {
    /// Whether a cohort-gated writer may skip the cohort queue entirely
    /// and acquire like a plain writer: nobody waits in its cohort and
    /// the global queue is idle, so the gate has nothing to batch and
    /// would only add its two bookkeeping RMWs (the cohort-tail swap and
    /// the release-side tail CAS) to an uncontended acquisition.
    ///
    /// The check is a heuristic, not a lock: losing the race after a
    /// stale read just means the bypasser enqueues on the global queue
    /// like any remote writer, which the protocol already admits. A
    /// running batch can never be missed — while the lock circulates
    /// locally the owner's lent global node keeps the global tail
    /// non-nil, so the bypass never fires mid-batch.
    pub(crate) fn cohort_bypass_ready(&self, cohort: usize) -> bool {
        let gate = self
            .cohort
            .as_ref()
            .expect("cohort_bypass_ready without a gate");
        gate.ctails[cohort].load(Ordering::Acquire) == 0 && self.load_tail().is_nil()
    }

    /// Which cohort the current acquisition should queue on: an explicit
    /// handle pin, else the calling thread's detected locality rank.
    pub(crate) fn pick_cohort(&self, pinned: Option<usize>) -> usize {
        let gate = self.cohort.as_ref().expect("pick_cohort without a gate");
        match pinned {
            Some(c) => c % gate.cohorts,
            None => oll_util::topology::cohort_of_current() % gate.cohorts,
        }
    }

    /// Cohort-gated `WriterLock`, blocking and timed alike: enqueue on the
    /// cohort tail, then either receive the lock directly from a
    /// same-cohort predecessor or become cohort head and take the ordinary
    /// global [`writer_lock`](Self::writer_lock) path.
    ///
    /// `pending_reclaim` is the handle's abandoned-global-node flag; the
    /// reclaim is deferred until this call actually needs the global
    /// writer node (a `WITH_LOCK` grant never touches it — it may still
    /// be lent to a running batch).
    ///
    /// A wait that outlasts `deadline` undoes the acquisition; the error
    /// says which of the slot's two queue nodes (if any) was left behind
    /// for later reclaim.
    pub(crate) fn cohort_lock<D: Deadline>(
        &self,
        slot: usize,
        cohort: usize,
        wait_for_active: bool,
        deadline: D,
        pending_reclaim: &mut bool,
    ) -> Result<CohortHold, WriteTimeout> {
        let gate = self.cohort.as_ref().expect("cohort_lock without a gate");
        let me = gate.node(slot);
        me.qnext.store(0, Ordering::Relaxed);
        let pred = gate.ctails[cohort].swap(slot as u32 + 1, Ordering::AcqRel);
        if pred != 0 {
            let acquire = self.telemetry.begin_write();
            // WAITING before the link store: the predecessor finds us only
            // through qnext, so it cannot grant us before we start waiting.
            me.state.store(WAITING, Ordering::Relaxed);
            gate.node(pred as usize - 1)
                .qnext
                .store(slot as u32 + 1, Ordering::Release);
            fault::inject("cohort.write.enqueued");
            self.telemetry.trace_enqueued(cohort_token(slot));
            let timed_out =
                !spin_until_deadline(deadline, || me.state.load(Ordering::Acquire) == GRANTED);
            if timed_out {
                fault::inject("cohort.write.abandon-self");
                if me
                    .state
                    .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // The granter will excise us and mark the node RELEASED.
                    return Err(WriteTimeout::CohortAbandoned);
                }
                // The grant beat the cancel; undo it below.
            }
            let word = me.grant.load(Ordering::Acquire);
            if word & WITH_LOCK != 0 {
                // Same-socket hand-off: we inherit the owner's global node.
                let hold = CohortHold {
                    cohort,
                    owner_slot: NodeRef::from_raw((word & 0xFFFF_FFFF) as u32).index(),
                    batch: ((word >> 32) & 0x7FFF_FFFF) as u32,
                };
                if timed_out {
                    // Granted at the wire: release properly, report timeout.
                    // The outcome governs our global node exactly as in an
                    // ordinary unlock — lent out on a local hand-off,
                    // discharged (clearing any earlier lend) on a global
                    // release through it.
                    let outcome = self.cohort_release(slot, cohort, Some(hold));
                    if hold.owner_slot == slot {
                        *pending_reclaim = outcome == CohortRelease::LocalHandoff;
                    }
                    return Err(WriteTimeout::Clean);
                }
                self.telemetry.incr(LockEvent::WriteSlow);
                self.telemetry.record_write_acquire(&acquire);
                return Ok(hold);
            }
            // Bare cohort headship: the previous batch released globally
            // (or relinquished).
            if timed_out {
                self.cohort_release(slot, cohort, None);
                return Err(WriteTimeout::Clean);
            }
        }
        // Cohort head — from the start or by that bare grant: acquire the
        // global lock the ordinary way.
        self.ensure_global_node(slot, pending_reclaim);
        match self.writer_lock(slot, wait_for_active, deadline) {
            Ok(()) => Ok(CohortHold {
                cohort,
                owner_slot: slot,
                batch: 0,
            }),
            Err(left_behind) => {
                // We still head the cohort: pass headship on (or detach
                // the tail) before reporting the timeout.
                self.cohort_release(slot, cohort, None);
                Err(left_behind)
            }
        }
    }

    /// Cohort-gated release. With a `hold` this discharges the global
    /// lock (locally while the batch bound allows, globally otherwise);
    /// with `None` it merely passes cohort headship on (the timed-out
    /// head's relinquish path). Cascades over abandoned cohort waiters,
    /// excising them like the global queue's grant does.
    pub(crate) fn cohort_release(
        &self,
        me_slot: usize,
        cohort: usize,
        hold: Option<CohortHold>,
    ) -> CohortRelease {
        let gate = self.cohort.as_ref().expect("cohort_release without a gate");
        let me = gate.node(me_slot);
        let mut succ = me.qnext.load(Ordering::Acquire);
        if succ == 0 {
            fault::inject("cohort.release.tail-cas");
            if gate.ctails[cohort]
                .compare_exchange(me_slot as u32 + 1, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Cohort empty: the lock (if held) goes out globally.
                return match hold {
                    Some(h) => self.cohort_global_release(me_slot, h),
                    None => CohortRelease::NoGlobal,
                };
            }
            // Someone is linking in behind us; wait for the link.
            spin_until(|| me.qnext.load(Ordering::Acquire) != 0);
            succ = me.qnext.load(Ordering::Acquire);
        }
        me.qnext.store(0, Ordering::Relaxed);
        // Decide what the successor gets: the lock itself (batch bound
        // permitting) or bare headship after a global release.
        let (word, outcome) = match hold {
            Some(h) if h.batch < gate.batch_limit() => (
                pack_grant(NodeRef::writer(h.owner_slot), h.batch + 1),
                CohortRelease::LocalHandoff,
            ),
            Some(h) => {
                self.telemetry.incr(LockEvent::CohortBatchExhausted);
                // Global release *first*, so the successor re-queues
                // behind any remote writer already waiting globally —
                // this is what bounds remote starvation at `batch_limit`.
                (0, self.cohort_global_release(me_slot, h))
            }
            None => (0, CohortRelease::NoGlobal),
        };
        let mut cur = succ;
        loop {
            let node = gate.node(cur as usize - 1);
            node.grant.store(word, Ordering::Release);
            match node
                .state
                .compare_exchange(WAITING, GRANTED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    if word & WITH_LOCK != 0 {
                        self.telemetry.incr(LockEvent::CohortLocalHandoff);
                    }
                    self.telemetry.trace_granted(cohort_token(cur as usize - 1));
                    return outcome;
                }
                Err(observed) => {
                    debug_assert_eq!(
                        observed, ABANDONED,
                        "cohort grant raced a non-cancel transition"
                    );
                    self.telemetry.incr(LockEvent::GrantCascade);
                    let mut nxt = node.qnext.load(Ordering::Acquire);
                    if nxt == 0 {
                        fault::inject("cohort.release.tail-cas");
                        if gate.ctails[cohort]
                            .compare_exchange(cur, 0, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            node.state.store(RELEASED, Ordering::Release);
                            // Queue emptied mid-cascade: a lock still in
                            // hand must go out globally after all.
                            return match (word & WITH_LOCK != 0, hold) {
                                (true, Some(h)) => self.cohort_global_release(me_slot, h),
                                _ => outcome,
                            };
                        }
                        spin_until(|| node.qnext.load(Ordering::Acquire) != 0);
                        nxt = node.qnext.load(Ordering::Acquire);
                    }
                    node.qnext.store(0, Ordering::Relaxed);
                    node.state.store(RELEASED, Ordering::Release);
                    cur = nxt;
                }
            }
        }
    }

    /// Releases the batch's global lock: runs `writer_unlock` on the
    /// *owner's* node (possibly another slot's) and, when it is foreign,
    /// marks it `RELEASED` so its handle's pending reclaim completes.
    fn cohort_global_release(&self, me_slot: usize, hold: CohortHold) -> CohortRelease {
        if self.writer_unlock(hold.owner_slot) {
            // The global queue had a waiter: the hand-off left the
            // cohort, so it may cross a socket boundary.
            self.telemetry.incr(LockEvent::CohortRemoteHandoff);
        }
        if hold.owner_slot == me_slot {
            CohortRelease::GlobalReleasedOwn
        } else {
            self.wnode(hold.owner_slot)
                .state
                .store(RELEASED, Ordering::Release);
            CohortRelease::GlobalReleasedForeign
        }
    }

    /// Blocks until an abandoned cohort node's excision finishes, then
    /// resets it for reuse (the cohort analogue of
    /// [`reclaim_writer_node`](Self::reclaim_writer_node)).
    pub(crate) fn cohort_reclaim_node(&self, slot: usize) {
        let gate = self.cohort.as_ref().expect("cohort reclaim without a gate");
        let node = gate.node(slot);
        spin_until(|| node.state.load(Ordering::Acquire) == RELEASED);
        node.qnext.store(0, Ordering::Relaxed);
        node.state.store(GRANTED, Ordering::Relaxed);
    }

    /// Finishes a deferred reclaim of the slot's *global* writer node
    /// right before a code path that needs it.
    fn ensure_global_node(&self, slot: usize, pending_reclaim: &mut bool) {
        if *pending_reclaim {
            self.reclaim_writer_node(slot);
            *pending_reclaim = false;
        }
    }
}
