//! The OLL distributed-queue lock (§4.2–4.3, Figure 4 of the paper): a
//! queue reader-writer lock extending the MCS mutex. This module holds the
//! queue protocol (`QueueCore`), the one lock/builder/handle type over it
//! ([`QueueLock`]), and the FIFO ordering policy that makes it **FOLL**
//! ([`FollLock`]); [`roll`](crate::roll) adds the reader-preference policy
//! that makes it ROLL.
//!
//! Writers queue exactly as in the MCS mutex. Successive readers, however,
//! *share a single queue node* by arriving at that node's C-SNZI — so a
//! read-only workload never writes the tail pointer after the first
//! reader, eliminating the central point of contention that limits the
//! MCS-RW and KSUH locks.
//!
//! Reader nodes outlive individual acquisitions (many readers may still be
//! inside when the enqueuer leaves), so they are pool-allocated from a
//! ring of `capacity` nodes with a `FREE`/`IN_USE` flag (§4.2.1 proves one
//! node per thread suffices). We use indices into per-lock arrays instead
//! of raw pointers; besides being safe Rust, index+generation-free reuse
//! is exactly the ring discipline the paper's recycling argument assumes.

use crate::cohort::{CohortGate, CohortHold, CohortRelease};
use crate::raw::{RwHandle, RwLockFamily, TimedOut};
use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, LeafCursor, Ticket, TreeShape};
use oll_telemetry::{LockEvent, Telemetry, Timer};
use oll_util::backoff::{spin_until, spin_until_deadline, Backoff, Deadline, Never};
use oll_util::fault;
use oll_util::knobs::TuningKnobs;
use oll_util::slots::{SlotError, SlotGuard, SlotRegistry};
use oll_util::sync::{AtomicBool, AtomicU32, Ordering};
use oll_util::CachePadded;
use std::marker::PhantomData;

/// Hand-off state of a queue node, generalizing Figure 4's boolean `spin`
/// flag so that timed acquisitions can *cancel* a wait.
///
/// The MCS-style hand-off gives each waiting node exactly one granter (its
/// queue predecessor, or the last departing reader of a closed reader
/// node). Cancellation races that grant; the node's state word is the
/// arbiter, with a single CAS deciding who is responsible for the node:
///
/// * granter CAS `WAITING → GRANTED` wins: the waiter (or its canceller)
///   owns the lock and must release it normally;
/// * canceller CAS `WAITING → ABANDONED` wins: the waiter is gone, and the
///   *granter* performs the release on its behalf when the grant arrives
///   (the grant cascades over abandoned nodes).
///
/// Abandoned reader nodes are recycled by the granter (their C-SNZI is
/// owned — by whoever abandoned the node, for the granter — exactly the
/// pool invariant). Abandoned *writer* nodes belong to a thread slot, so
/// the granter cannot recycle them; it marks them `RELEASED` and the owning
/// handle reclaims the node before its next writer-side operation.
pub mod node_state {
    /// The node's owner holds the lock (also the unqueued/initial state —
    /// Figure 4's `spin = false`).
    pub const GRANTED: u32 = 0;
    /// Waiting for the predecessor's grant (Figure 4's `spin = true`).
    pub const WAITING: u32 = 1;
    /// The waiter timed out and left; the granter releases on its behalf.
    pub const ABANDONED: u32 = 2;
    /// Writer nodes only: the granter finished the abandoned release and
    /// the owning handle may now reuse the node.
    pub const RELEASED: u32 = 3;
}
use node_state::{ABANDONED, GRANTED, RELEASED, WAITING};

/// Outcome of a timed write acquisition that did not get the lock: which
/// of the slot's queue nodes (if any) it left behind for later reclaim.
pub(crate) enum WriteTimeout {
    /// The cancel undid everything; the slot's nodes are immediately
    /// reusable.
    Clean,
    /// The writer node was left `ABANDONED` in the queue; the handle must
    /// [`QueueCore::reclaim_writer_node`] before the node's next use.
    Abandoned,
    /// The *cohort* node was left `ABANDONED` in its cohort queue (cohort
    /// builds only); the handle must [`QueueCore::cohort_reclaim_node`]
    /// before its next use.
    CohortAbandoned,
}

/// Items that must be *nominally* `pub` — they appear in the bounds and
/// hook signatures of the public [`QueueLock`] — but that nothing outside
/// the crate should name: the module is private and re-exports them at
/// crate visibility only, which also seals [`OrderPolicy`].
mod sealed {
    use super::{QueueHandle, QueueLock};
    use oll_csnzi::Ticket;

    /// A packed reference to a queue node: `0` is null; otherwise bit 0 is the
    /// node kind (1 = reader) and the remaining bits are `index + 1`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NodeRef(u32);

    impl NodeRef {
        pub(crate) const NIL: Self = Self(0);

        pub(crate) fn reader(idx: usize) -> Self {
            Self((((idx as u32) + 1) << 1) | 1)
        }

        pub(crate) fn writer(idx: usize) -> Self {
            Self(((idx as u32) + 1) << 1)
        }

        pub(crate) fn is_nil(self) -> bool {
            self.0 == 0
        }

        pub(crate) fn is_reader(self) -> bool {
            !self.is_nil() && (self.0 & 1) == 1
        }

        pub(crate) fn index(self) -> usize {
            debug_assert!(!self.is_nil());
            ((self.0 >> 1) - 1) as usize
        }

        pub(crate) fn raw(self) -> u32 {
            self.0
        }

        pub(crate) fn from_raw(raw: u32) -> Self {
            Self(raw)
        }
    }

    /// Names of the fault-injection windows on a family's reader path
    /// (`<family>.read.*`, what `tests/fault_injection.rs` plans match on).
    pub struct ReadSites {
        /// Arrived at a reader node, about to wait for its grant.
        pub waiting: &'static str,
        /// Overtook a writer by joining a waiting group, about to wait.
        pub joined: &'static str,
        /// The wait expired, about to cancel.
        pub timeout: &'static str,
    }

    /// Builds a family's [`ReadSites`] from its fault-site prefix.
    macro_rules! read_sites {
        ($family:literal) => {
            $crate::foll::ReadSites {
                waiting: concat!($family, ".read.waiting"),
                joined: concat!($family, ".read.joined"),
                timeout: concat!($family, ".read.timeout"),
            }
        };
    }
    pub(crate) use read_sites;

    /// How a queue lock orders readers against queued writers. The hooks
    /// are exactly the two places §4.3 changes §4.2 — what a reader does
    /// when the tail is a writer, and whether a writer lets a waiting
    /// reader predecessor become active before closing it — plus the
    /// family's name and whatever lock-wide state the policy keeps.
    pub trait OrderPolicy: Sized + 'static {
        /// Lock-wide state only this ordering needs (zero-sized for FIFO).
        type State: Send + Sync;
        /// The family name ([`RwLockFamily::name`](crate::RwLockFamily::name)
        /// and the telemetry kind).
        const NAME: &'static str;
        /// The family's reader-path fault sites.
        const SITES: ReadSites;
        /// Whether a writer waits for a reader predecessor to hold the lock
        /// before closing its C-SNZI (`wait_for_active` in
        /// [`QueueCore::writer_lock`](super::QueueCore::writer_lock)).
        const WAIT_FOR_ACTIVE: bool;

        /// Builds the policy state.
        fn new_state() -> Self::State;

        /// A reader found the writer `tail` at the end of the queue: try to
        /// overtake it by arriving (through
        /// [`QueueHandle::arrive_at`](super::QueueHandle::arrive_at), which
        /// settles what a failed arrival owes) at a reader node queued
        /// further up. `None` sends the reader to the back of the queue.
        fn overtake(handle: &mut QueueHandle<'_, Self>, tail: NodeRef) -> Option<(usize, Ticket)>;

        /// A reader just enqueued (and arrived at) the fresh, still-waiting
        /// `node` behind a writer.
        fn enqueued_behind_writer(lock: &QueueLock<Self>, node: NodeRef);
    }
}
pub(crate) use sealed::{read_sites, NodeRef, OrderPolicy, ReadSites};

/// A writer's queue node: the MCS node (`qNext`, hand-off `state`).
pub(crate) struct WriterNode {
    pub(crate) qnext: AtomicU32,
    pub(crate) state: AtomicU32,
    /// Predecessor link, written by every enqueuer whatever the policy; read
    /// only by the reader-preference policy's backward search
    /// (`ReaderPreference::overtake` in `roll.rs`).
    pub(crate) prev: AtomicU32,
}

impl WriterNode {
    fn new() -> Self {
        Self {
            qnext: AtomicU32::new(NodeRef::NIL.raw()),
            state: AtomicU32::new(GRANTED),
            prev: AtomicU32::new(NodeRef::NIL.raw()),
        }
    }
}

/// A reader queue node: MCS fields plus the shared C-SNZI and the pool
/// ring fields (`allocState`, `next`).
pub(crate) struct ReaderNode {
    pub(crate) csnzi: CSnzi,
    pub(crate) qnext: AtomicU32,
    pub(crate) state: AtomicU32,
    /// `true` = IN_USE, `false` = FREE.
    pub(crate) in_use: AtomicBool,
    /// Immutable ring successor for pool traversal.
    pub(crate) ring_next: usize,
    /// Predecessor link (see [`WriterNode::prev`]).
    pub(crate) prev: AtomicU32,
}

impl ReaderNode {
    fn new(shape: TreeShape, ring_next: usize, telemetry: Telemetry) -> Self {
        // "when just allocated, has a closed C-SNZI with no surplus" —
        // owned, here, by whoever allocates the node. Its tree waits for
        // the node's first tree arrival, so a lock that never sees read
        // contention allocates no trees at all.
        let mut csnzi = CSnzi::new_closed(shape);
        csnzi.attach_telemetry(telemetry);
        Self {
            csnzi,
            qnext: AtomicU32::new(NodeRef::NIL.raw()),
            state: AtomicU32::new(GRANTED),
            in_use: AtomicBool::new(false),
            ring_next,
            prev: AtomicU32::new(NodeRef::NIL.raw()),
        }
    }
}

/// The queue protocol every [`QueueLock`] runs on, whatever its ordering
/// policy: node pool, tail, grant cascade, writer lock/unlock, reader
/// unlock and the cancellation undo paths.
pub(crate) struct QueueCore {
    pub(crate) tail: CachePadded<AtomicU32>,
    pub(crate) writer_nodes: Box<[CachePadded<WriterNode>]>,
    pub(crate) reader_nodes: Box<[CachePadded<ReaderNode>]>,
    pub(crate) slots: SlotRegistry,
    /// Live tuning knobs (the cohort batch bound); shared with the
    /// cohort gate.
    pub(crate) knobs: std::sync::Arc<TuningKnobs>,
    pub(crate) arrival_threshold: u32,
    pub(crate) telemetry: Telemetry,
    /// NUMA cohort writer gate (per-socket writer queues layered over
    /// this global queue); `None` = plain single-tail writer path.
    pub(crate) cohort: Option<Box<CohortGate>>,
}

impl QueueCore {
    pub(crate) fn new(
        capacity: usize,
        shape: TreeShape,
        knobs: std::sync::Arc<TuningKnobs>,
        arrival_threshold: u32,
        telemetry: Telemetry,
    ) -> Self {
        let capacity = capacity.max(1);
        Self {
            tail: CachePadded::new(AtomicU32::new(NodeRef::NIL.raw())),
            writer_nodes: (0..capacity)
                .map(|_| CachePadded::new(WriterNode::new()))
                .collect(),
            reader_nodes: (0..capacity)
                .map(|i| {
                    CachePadded::new(ReaderNode::new(
                        shape,
                        (i + 1) % capacity,
                        telemetry.clone(),
                    ))
                })
                .collect(),
            slots: SlotRegistry::new(capacity),
            knobs,
            arrival_threshold,
            telemetry,
            cohort: None,
        }
    }

    /// Classifies a successful per-node C-SNZI arrival for telemetry.
    #[inline]
    pub(crate) fn note_arrival(&self, ticket: Ticket) {
        self.telemetry.incr(if ticket.is_root() {
            LockEvent::ArriveDirect
        } else {
            LockEvent::ArriveTree
        });
    }

    /// Counts a release hand-off by what the lock was handed to.
    #[inline]
    fn note_handoff(&self, succ: NodeRef) {
        self.telemetry.incr(if succ.is_reader() {
            LockEvent::HandoffToReaders
        } else {
            LockEvent::HandoffToWriter
        });
    }

    #[inline]
    pub(crate) fn load_tail(&self) -> NodeRef {
        NodeRef::from_raw(self.tail.load(Ordering::Acquire))
    }

    pub(crate) fn cas_tail(&self, old: NodeRef, new: NodeRef) -> bool {
        self.tail
            .compare_exchange(old.raw(), new.raw(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    pub(crate) fn swap_tail(&self, new: NodeRef) -> NodeRef {
        NodeRef::from_raw(self.tail.swap(new.raw(), Ordering::AcqRel))
    }

    #[inline]
    pub(crate) fn rnode(&self, idx: usize) -> &ReaderNode {
        &self.reader_nodes[idx]
    }

    pub(crate) fn wnode(&self, idx: usize) -> &WriterNode {
        &self.writer_nodes[idx]
    }

    pub(crate) fn set_qnext(&self, node: NodeRef, next: NodeRef) {
        let cell = if node.is_reader() {
            &self.rnode(node.index()).qnext
        } else {
            &self.wnode(node.index()).qnext
        };
        cell.store(next.raw(), Ordering::Release);
    }

    fn state_cell(&self, node: NodeRef) -> &AtomicU32 {
        if node.is_reader() {
            &self.rnode(node.index()).state
        } else {
            &self.wnode(node.index()).state
        }
    }

    /// Hands the lock to `node` (Figure 4's `spin := false`), cascading
    /// over abandoned waiters: if `node`'s owner cancelled its acquisition,
    /// the grant performs the release the owner would have performed —
    /// recycling an abandoned reader node and granting the writer linked
    /// behind it, or running an abandoned writer's `WriterUnlock` — and the
    /// cascade continues until the grant lands on a live waiter (or the
    /// queue empties).
    pub(crate) fn grant(&self, node: NodeRef) {
        let mut cur = node;
        loop {
            match self.state_cell(cur).compare_exchange(
                WAITING,
                GRANTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // The node reference is the trace causality token the
                    // waiter stamped on its `enqueued` marker; this joins
                    // the hand-off edge from our side.
                    self.telemetry.trace_granted(u64::from(cur.raw()));
                    return;
                }
                Err(observed) => {
                    debug_assert_eq!(observed, ABANDONED, "grant raced a non-cancel transition");
                    self.telemetry.incr(LockEvent::GrantCascade);
                    if cur.is_reader() {
                        // An abandoned reader node's C-SNZI is owned (its
                        // abandoner closed it empty or claimed it drained,
                        // and left it to us) with the closing writer
                        // already linked behind it (both abandonment paths
                        // establish this before the ABANDONED store becomes
                        // visible). Recycle it and pass the lock on.
                        let n = self.rnode(cur.index());
                        debug_assert!(n.csnzi.root_snapshot().owned);
                        let succ = NodeRef::from_raw(n.qnext.load(Ordering::Acquire));
                        debug_assert!(
                            !succ.is_nil(),
                            "abandoned reader nodes always have a queued successor"
                        );
                        n.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed);
                        self.free_reader_node(cur.index());
                        cur = succ;
                    } else {
                        // Release on the abandoned writer's behalf, then let
                        // its owner reclaim the node. `writer_unlock` grants
                        // the successor itself (cascading further if needed).
                        let slot = cur.index();
                        self.writer_unlock(slot);
                        self.wnode(slot).state.store(RELEASED, Ordering::Release);
                        return;
                    }
                }
            }
        }
    }

    /// Blocks until an abandoned writer node's takeover release finishes,
    /// then resets it for reuse. Must be called (once) before the node's
    /// next enqueue after a [`WriteTimeout::Abandoned`].
    pub(crate) fn reclaim_writer_node(&self, slot: usize) {
        let node = self.wnode(slot);
        spin_until(|| node.state.load(Ordering::Acquire) == RELEASED);
        node.state.store(GRANTED, Ordering::Relaxed);
    }

    /// Takes back an arrival at reader node `idx` that does not hold the
    /// lock: a timed reader's that gave up waiting for the node's grant, or
    /// a try's that found the node waiting. On return the caller holds
    /// nothing and owes nothing; any hand-off obligation picked up in the
    /// race with a concurrent grant is discharged here.
    pub(crate) fn cancel_read_session(&self, idx: usize, ticket: Ticket) {
        match self.rnode(idx).csnzi.cancel(ticket) {
            // Other readers remain arrived, or the node is simply back to
            // surplus zero. Either way it stays queued — reader nodes
            // outlive acquisitions by design, and a waiting empty node is
            // still joinable (ROLL) and recyclable by the next writer.
            CancelOutcome::Undone => {}
            CancelOutcome::MustHandOff => self.discharge_drained(idx),
        }
    }

    /// The caller's decrement drained reader node `idx`'s closed C-SNZI and
    /// won the claim, so it is the node's last departer: the closing writer
    /// linked in behind the node and expects the lock. The one place that
    /// duty is discharged — for a reader releasing the lock, a waiter
    /// cancelling, and an arrival that landed on the closed node and took
    /// itself back.
    ///
    /// The claim may belong to a *later* life of the node than the
    /// decrement that led to it (the node was recycled in between, and
    /// drained again), so nothing known from before the claim is used: node
    /// state and `qnext` are read here, after it. If the node is still
    /// waiting, the obligation is left with its future granter; if the
    /// grant already arrived, the caller owns the lock and passes it on.
    /// Out of line, so that the read paths that can end here stay small.
    #[inline(never)]
    pub(crate) fn discharge_drained(&self, idx: usize) {
        let node = self.rnode(idx);
        fault::inject("foll.read.cancel-vs-grant");
        if node
            .state
            .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            let succ = NodeRef::from_raw(node.qnext.load(Ordering::Acquire));
            debug_assert!(!succ.is_nil(), "the closing writer linked in first");
            fault::inject("foll.read.handoff");
            self.note_handoff(succ);
            self.grant(succ);
            node.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed); // clean up
            self.free_reader_node(idx);
        }
    }

    /// `AllocReaderNode` (Figure 4): claim a FREE node from the ring,
    /// starting at the thread's default node.
    pub(crate) fn alloc_reader_node(&self, slot: usize) -> usize {
        let mut idx = slot;
        let mut backoff = Backoff::new();
        loop {
            let node = self.rnode(idx);
            if !node.in_use.load(Ordering::Relaxed)
                && node
                    .in_use
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // Owned by the pool until now, by the caller from here on.
                // (A stale arrival may be on the word, taking itself back.)
                debug_assert!(node.csnzi.root_snapshot().owned);
                return idx;
            }
            idx = node.ring_next;
            if idx == slot {
                // §4.2.1 proves a free node always exists with one node per
                // thread; a full wrap can only be transient contention.
                backoff.backoff();
            }
        }
    }

    /// Publishes the allocated reader node `r` at the tail behind `pred`
    /// (`NIL` = the queue is empty, so the node is granted at once) and
    /// opens its C-SNZI with `arrivals` direct arrivals already on it, the
    /// caller's to depart with [`Ticket::ROOT`]: a writer that links in
    /// behind and closes the node waits for them. `false` means the tail
    /// moved first: nothing was published and `r` is still the caller's.
    #[inline]
    pub(crate) fn enqueue_reader_node(&self, r: usize, pred: NodeRef, arrivals: u64) -> bool {
        let me = NodeRef::reader(r);
        let node = self.rnode(r);
        let state = if pred.is_nil() { GRANTED } else { WAITING };
        node.state.store(state, Ordering::Relaxed);
        node.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        node.prev.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        if !self.cas_tail(pred, me) {
            return false;
        }
        // Yield-only: the node is at the tail, and a writer linking in
        // behind it waits for the open below.
        fault::inject_yield_only("foll.read.enqueued");
        if !pred.is_nil() {
            node.prev.store(pred.raw(), Ordering::Release);
            self.set_qnext(pred, me);
        }
        // Only now that the node is enqueued may its C-SNZI open (§4.2
        // explains why this ordering is vital).
        node.csnzi.open_with_arrivals(arrivals, false);
        true
    }

    /// `FreeReaderNode`: return a node to the pool. At most one thread
    /// frees a node before it is reallocated (§4.2.1), so a plain store
    /// suffices, exactly as in the paper.
    pub(crate) fn free_reader_node(&self, idx: usize) {
        let node = self.rnode(idx);
        debug_assert!(node.in_use.load(Ordering::Relaxed));
        debug_assert!(
            node.csnzi.root_snapshot().owned,
            "only the owner of a node's C-SNZI recycles the node"
        );
        node.in_use.store(false, Ordering::Release);
    }

    /// `WriterLock` (Figure 4), shared by every ordering policy and by the
    /// blocking and timed acquisitions alike. The policies differ only in
    /// when the reader-predecessor's C-SNZI gets closed: FOLL closes
    /// immediately (`wait_for_active` = false); ROLL first waits for the
    /// predecessor's readers to become active, which is what lets later
    /// readers overtake us and join them (§4.3).
    ///
    /// With a [`Never`](oll_util::backoff::Never) deadline this cannot fail.
    /// With a real one it gives up at `deadline`, undoing the acquisition;
    /// the error says which undo path was taken — after
    /// [`WriteTimeout::Abandoned`] the slot's writer node is still in the
    /// queue and must be [reclaimed](Self::reclaim_writer_node) before its
    /// next use.
    pub(crate) fn writer_lock<D: Deadline>(
        &self,
        slot: usize,
        wait_for_active: bool,
        deadline: D,
    ) -> Result<(), WriteTimeout> {
        let acquire = self.telemetry.begin_write();
        let me = NodeRef::writer(slot);
        let node = self.wnode(slot);
        node.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        node.prev.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        let pred = self.swap_tail(me);
        if pred.is_nil() {
            self.telemetry.incr(LockEvent::WriteFast);
            self.telemetry.record_write_acquire(&acquire);
            return Ok(()); // lock acquired
        }
        self.telemetry.incr(LockEvent::WriteSlow);
        // Set our state to WAITING *before* publishing the qNext link: our
        // predecessor finds us only through qNext, so it cannot grant us
        // before we start waiting.
        node.state.store(WAITING, Ordering::Relaxed);
        node.prev.store(pred.raw(), Ordering::Release);
        self.set_qnext(pred, me);
        fault::inject("foll.write.enqueued");
        if pred.is_reader() {
            let pnode = self.rnode(pred.index());
            // Node recycling: wait until the enqueuer has opened the
            // C-SNZI of this node incarnation (§4.2). Untimed on purpose:
            // the enqueuer opens it within a few instructions of the CAS
            // that made the node visible.
            spin_until(|| pnode.csnzi.query().open);
            if wait_for_active {
                // ROLL: let readers keep joining until the group holds the
                // lock. The predecessor reader node cannot be ABANDONED
                // here: its C-SNZI is still open, so nobody has claimed
                // it drained (`MustHandOff`). This is a courtesy wait: on
                // expiry just close early — the acquisition degrades to
                // FOLL behaviour but stays correct.
                self.telemetry.trace_enqueued(u64::from(pred.raw()));
                spin_until_deadline(deadline, || pnode.state.load(Ordering::Acquire) == GRANTED);
            }
            if pnode.csnzi.close() {
                // No readers will signal us: the group is (or became)
                // empty. Wait for the lock to reach the predecessor node
                // through the queue, then take over and recycle it. (The
                // close saw surplus zero, so no arrived reader exists to
                // cancel and abandon the node — it can only be GRANTED.)
                fault::inject("foll.write.closed-empty");
                self.telemetry.trace_enqueued(u64::from(pred.raw()));
                if !spin_until_deadline(deadline, || pnode.state.load(Ordering::Acquire) == GRANTED)
                {
                    return Err(self.cancel_takeover(slot, pred.index()));
                }
                self.free_reader_node(pred.index());
                self.telemetry.record_write_acquire(&acquire);
                return Ok(());
            }
        }
        // Our writer predecessor's release — or the last reader departing
        // the node we just closed — will grant us.
        fault::inject("foll.write.waiting");
        self.telemetry.trace_enqueued(u64::from(me.raw()));
        if !spin_until_deadline(deadline, || node.state.load(Ordering::Acquire) == GRANTED) {
            return Err(self.cancel_writer_wait(slot));
        }
        self.telemetry.record_write_acquire(&acquire);
        Ok(())
    }

    /// A writer that closed its *empty* reader predecessor `pred` timed out
    /// waiting to take it over. Abandon *our own* node first — a plain
    /// store is enough, since our only granter works through `pred`, which
    /// is still WAITING — then race the grant for `pred`.
    fn cancel_takeover(&self, slot: usize, pred: usize) -> WriteTimeout {
        let node = self.wnode(slot);
        let pnode = self.rnode(pred);
        node.state.store(ABANDONED, Ordering::Release);
        fault::inject("foll.write.abandon-pred");
        if pnode
            .state
            .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // `pred`'s granter will recycle it and release on our behalf
            // (cascade), ending in a RELEASED store.
            WriteTimeout::Abandoned
        } else {
            // The grant reached `pred` first: the lock is ours (we closed
            // its empty C-SNZI, so no reader signals us). Un-abandon — no
            // granter can have seen the store, it would have had to go
            // through `pred` — and release normally.
            node.state.store(GRANTED, Ordering::Relaxed);
            self.free_reader_node(pred);
            self.writer_unlock(slot);
            WriteTimeout::Clean
        }
    }

    /// Races the pending grant for our own writer node: either we abandon
    /// it (the granter releases on our behalf) or the grant already
    /// arrived and we release normally.
    fn cancel_writer_wait(&self, slot: usize) -> WriteTimeout {
        fault::inject("foll.write.abandon-self");
        if self
            .wnode(slot)
            .state
            .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            WriteTimeout::Abandoned
        } else {
            self.writer_unlock(slot);
            WriteTimeout::Clean
        }
    }

    /// `WriterUnlock` (Figure 4) — identical to the MCS mutex release.
    /// Returns whether the lock was handed to a queued successor (`false`
    /// = the queue emptied), which the cohort gate uses to classify the
    /// release as an outward hand-off.
    pub(crate) fn writer_unlock(&self, slot: usize) -> bool {
        let me = NodeRef::writer(slot);
        let node = self.wnode(slot);
        if NodeRef::from_raw(node.qnext.load(Ordering::Acquire)).is_nil() {
            if self.cas_tail(me, NodeRef::NIL) {
                return false;
            }
            // Someone is linking in behind us; wait for the link.
            spin_until(|| !NodeRef::from_raw(node.qnext.load(Ordering::Acquire)).is_nil());
        }
        let succ = NodeRef::from_raw(node.qnext.load(Ordering::Acquire));
        self.note_handoff(succ);
        self.grant(succ);
        node.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed); // clean up
        true
    }

    /// `ReaderUnlock` (Figure 4), shared by FOLL and ROLL.
    #[inline]
    pub(crate) fn reader_unlock(&self, depart_from: usize, ticket: Ticket) {
        if !self.rnode(depart_from).csnzi.depart(ticket) {
            // Last departure from a closed C-SNZI: a writer closed it after
            // linking in behind this node; signal it and recycle the node.
            self.discharge_drained(depart_from);
        }
    }
}

/// The FIFO ordering policy (§4.2): a reader that meets a writer tail
/// always queues behind it, and a writer closes its reader predecessor at
/// once.
#[derive(Debug, Clone, Copy)]
pub struct Fifo;

impl OrderPolicy for Fifo {
    type State = ();
    const NAME: &'static str = "FOLL";
    const SITES: ReadSites = read_sites!("foll");
    const WAIT_FOR_ACTIVE: bool = false;

    fn new_state() {}

    fn overtake(_: &mut QueueHandle<'_, Self>, _: NodeRef) -> Option<(usize, Ticket)> {
        None
    }

    fn enqueued_behind_writer(_: &QueueLock<Self>, _: NodeRef) {}
}

/// Builder for a [`QueueLock`] ([`FollBuilder`], [`RollBuilder`](crate::RollBuilder)).
#[derive(Debug, Clone)]
pub struct QueueBuilder<P> {
    capacity: usize,
    shape: Option<TreeShape>,
    arrival_threshold: u32,
    #[cfg(not(loom))]
    biased: bool,
    cohort: bool,
    cohort_ranks: Option<usize>,
    telemetry_name: Option<String>,
    order: PhantomData<fn() -> P>,
}

impl<P: OrderPolicy> QueueBuilder<P> {
    /// Starts a builder for a lock used by at most `capacity` concurrent
    /// threads.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            shape: None,
            arrival_threshold: ArrivalPolicy::DEFAULT_THRESHOLD,
            #[cfg(not(loom))]
            biased: false,
            cohort: false,
            cohort_ranks: None,
            telemetry_name: None,
            order: PhantomData,
        }
    }

    /// Enables the NUMA cohort writer gate: each locality rank (socket)
    /// gets its own writer queue, and releases hand the lock to a
    /// same-socket waiter up to the batch bound (the lock's
    /// `knobs().cohort_batch()`, default
    /// [`DEFAULT_COHORT_BATCH`](crate::DEFAULT_COHORT_BATCH)) before
    /// releasing through the global queue. On single-socket
    /// machines (or when topology detection falls back) every writer
    /// shares one cohort and behaviour degrades to the plain writer path.
    pub fn cohort(mut self, cohort: bool) -> Self {
        self.cohort = cohort;
        self
    }

    /// Overrides the detected cohort (socket) count — for tests and
    /// pinned-thread deployments that partition writers explicitly. The
    /// default is `oll_util::topology::rank_count()`.
    pub fn cohort_ranks(mut self, ranks: usize) -> Self {
        self.cohort_ranks = Some(ranks);
        self
    }

    /// Enables BRAVO-style reader biasing for
    /// [`build_biased`](Self::build_biased): biased reads bypass the lock
    /// through the process-global visible-readers table (zero shared
    /// RMWs) until a writer revokes the bias.
    #[cfg(not(loom))]
    pub fn biased(mut self, biased: bool) -> Self {
        self.biased = biased;
        self
    }

    /// Builds the lock wrapped in the [`Bravo`](crate::Bravo) biasing
    /// layer. The wrapper passes straight through unless
    /// [`biased(true)`](Self::biased) was set, so one call site serves
    /// both configurations.
    #[cfg(not(loom))]
    pub fn build_biased(self) -> crate::Bravo<QueueLock<P>> {
        let biased = self.biased;
        crate::Bravo::wrapping(self.build(), biased)
    }

    /// Names this lock's telemetry instance (default `"<family>#<seq>"`).
    /// No effect unless built with the `telemetry` feature.
    pub fn telemetry_name(mut self, name: &str) -> Self {
        self.telemetry_name = Some(name.to_string());
        self
    }

    /// Overrides the per-node C-SNZI tree shape (default: one leaf per
    /// thread). Each node's tree is allocated by the first reader arrival
    /// that goes to it.
    pub fn tree_shape(mut self, shape: TreeShape) -> Self {
        self.shape = Some(shape);
        self
    }

    /// Sets the C-SNZI arrival threshold: a root arrival that finds this
    /// many others in flight is a crowded one, and this many crowded ones
    /// in a row move the handle's arrivals to the tree.
    pub fn arrival_threshold(mut self, threshold: u32) -> Self {
        self.arrival_threshold = threshold;
        self
    }

    /// Builds the lock.
    pub fn build(self) -> QueueLock<P> {
        let capacity = self.capacity.max(1);
        let telemetry = Telemetry::register(P::NAME);
        if let Some(name) = &self.telemetry_name {
            telemetry.rename(name);
        }
        let mut core = QueueCore::new(
            capacity,
            self.shape
                .unwrap_or_else(|| TreeShape::for_threads(capacity)),
            TuningKnobs::shared(),
            self.arrival_threshold,
            telemetry,
        );
        if self.cohort {
            let ranks = self
                .cohort_ranks
                .unwrap_or_else(oll_util::topology::rank_count);
            core.cohort = Some(Box::new(CohortGate::new(
                capacity,
                ranks,
                core.knobs.clone(),
            )));
        }
        QueueLock {
            core,
            order: P::new_state(),
        }
    }
}

/// The OLL distributed-queue reader-writer lock (§4.2–4.3): one queue
/// protocol, with the reader/writer ordering chosen by the policy `P` —
/// [`FollLock`] is the [`Fifo`] instance, [`RollLock`](crate::RollLock) the
/// [`ReaderPreference`](crate::roll::ReaderPreference) one.
pub struct QueueLock<P: OrderPolicy> {
    pub(crate) core: QueueCore,
    /// The policy's lock-wide state (ROLL's last-reader hint).
    pub(crate) order: P::State,
}

/// Builder for [`FollLock`].
pub type FollBuilder = QueueBuilder<Fifo>;

/// The FIFO OLL reader-writer lock (§4.2).
///
/// ```
/// use oll_core::{FollLock, RwHandle, RwLockFamily};
///
/// let lock = FollLock::new(4); // up to 4 concurrently registered threads
/// let mut me = lock.handle().unwrap();
/// {
///     let _shared = me.read();
/// }
/// {
///     let _exclusive = me.write();
/// }
/// ```
pub type FollLock = QueueLock<Fifo>;

/// Per-thread handle for [`FollLock`].
pub type FollHandle<'a> = QueueHandle<'a, Fifo>;

impl<P: OrderPolicy> QueueLock<P> {
    /// Creates a lock for at most `capacity` concurrent threads.
    pub fn new(capacity: usize) -> Self {
        QueueBuilder::new(capacity).build()
    }

    /// Starts a [`QueueBuilder`].
    pub fn builder(capacity: usize) -> QueueBuilder<P> {
        QueueBuilder::new(capacity)
    }

    /// Whether the queue is currently empty (racy; for diagnostics).
    pub fn is_queue_empty(&self) -> bool {
        self.core.load_tail().is_nil()
    }

    /// Whether any pooled reader node's C-SNZI has allocated its tree:
    /// some reader arrival has gone to it (racy; for diagnostics and
    /// tests).
    pub fn is_inflated(&self) -> bool {
        self.core
            .reader_nodes
            .iter()
            .any(|n| n.csnzi.is_tree_allocated())
    }

    /// Whether writers go through the NUMA cohort gate
    /// (built with [`QueueBuilder::cohort`]).
    pub fn is_cohort(&self) -> bool {
        self.core.cohort.is_some()
    }

    /// Number of writer cohorts (0 when the cohort gate is off).
    pub fn cohort_count(&self) -> usize {
        self.core.cohort.as_ref().map_or(0, |g| g.cohorts())
    }

    /// The cohort batch bound (0 when the cohort gate is off).
    pub fn cohort_batch(&self) -> u32 {
        self.core.cohort.as_ref().map_or(0, |g| g.batch_limit())
    }

    /// The live tuning-knob block this lock reads (share it with a
    /// controller to steer the lock while it runs).
    pub fn knobs(&self) -> &std::sync::Arc<TuningKnobs> {
        &self.core.knobs
    }
}

impl<P: OrderPolicy> RwLockFamily for QueueLock<P> {
    type Handle<'a> = QueueHandle<'a, P>;

    fn handle(&self) -> Result<QueueHandle<'_, P>, SlotError> {
        let slot = SlotGuard::claim(&self.core.slots)?;
        let policy = ArrivalPolicy::new(self.core.arrival_threshold);
        Ok(QueueHandle {
            lock: self,
            slot,
            policy,
            cursor: LeafCursor::new(),
            session: None,
            write_held: false,
            pending_reclaim: false,
            cohort_hold: None,
            cohort_reclaim: false,
            cohort_pin: None,
            cohort_cache: None,
            hold: Timer::inactive(),
        })
    }

    fn capacity(&self) -> usize {
        self.core.slots.capacity()
    }

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn telemetry(&self) -> Telemetry {
        self.core.telemetry.clone()
    }

    fn tuning_knobs(&self) -> Option<&std::sync::Arc<TuningKnobs>> {
        Some(&self.core.knobs)
    }
}

/// Per-thread handle for a [`QueueLock`] (the paper's `Local` record).
pub struct QueueHandle<'a, P: OrderPolicy> {
    pub(crate) lock: &'a QueueLock<P>,
    slot: SlotGuard<'a>,
    policy: ArrivalPolicy,
    /// Cached C-SNZI leaf: topology-placed on first tree arrival, then
    /// sticky until a leaf-level CAS failure migrates it. Reader nodes all
    /// share one tree shape, so the cursor carries across pooled nodes.
    cursor: LeafCursor,
    /// `(depart_from, ticket)` while holding for reading — and while
    /// *waiting* to: it is published before the wait starts, so whatever
    /// interrupts the wait finds the arrival it has to undo.
    session: Option<(usize, Ticket)>,
    write_held: bool,
    /// A timed write abandoned this slot's writer node in the queue; it
    /// must be reclaimed before the node's next use. Also set when a
    /// cohort release lends the node to a running batch.
    pending_reclaim: bool,
    /// Proof of the current cohort-gated write hold (cohort builds only).
    cohort_hold: Option<CohortHold>,
    /// A timed cohort write abandoned this slot's cohort node; it must be
    /// reclaimed before the node's next use.
    cohort_reclaim: bool,
    /// Explicit cohort override set via [`set_cohort`](Self::set_cohort).
    cohort_pin: Option<usize>,
    /// Resolved cohort index, cached on first writer use so the hot path
    /// skips the thread-local topology lookup. Any index is correct —
    /// a stale cache merely costs placement quality — so the cache is
    /// only invalidated by [`set_cohort`](Self::set_cohort).
    cohort_cache: Option<usize>,
    /// Started when an acquisition succeeds, recorded as hold time at
    /// release. One outstanding acquisition per handle, so one timer.
    hold: Timer,
}

impl<P: OrderPolicy> QueueHandle<'_, P> {
    fn slot_idx(&self) -> usize {
        self.slot.slot()
    }

    /// Finishes any pending reclaim of this slot's writer node (after a
    /// timed write abandoned it). Must run before every writer-node use.
    fn ensure_writer_node(&mut self) {
        if self.pending_reclaim {
            self.lock.core.reclaim_writer_node(self.slot_idx());
            self.pending_reclaim = false;
        }
    }

    /// Finishes any pending reclaim of this slot's cohort node (after a
    /// timed cohort write abandoned it).
    fn ensure_cohort_node(&mut self) {
        if self.cohort_reclaim {
            self.lock.core.cohort_reclaim_node(self.slot_idx());
            self.cohort_reclaim = false;
        }
    }

    /// Pins this handle's writer acquisitions to cohort `cohort` (modulo
    /// the lock's cohort count) instead of deriving the cohort from the
    /// calling thread's topology. For tests and explicitly-placed
    /// threads; no effect unless the lock was built with
    /// [`QueueBuilder::cohort`].
    pub fn set_cohort(&mut self, cohort: usize) {
        self.cohort_pin = Some(cohort);
        self.cohort_cache = None;
    }

    /// The cohort this handle's writer acquisitions queue on, resolved
    /// once and cached (see `cohort_cache`).
    fn cohort_index(&mut self) -> usize {
        match self.cohort_cache {
            Some(c) => c,
            None => {
                let c = self.lock.core.pick_cohort(self.cohort_pin);
                self.cohort_cache = Some(c);
                c
            }
        }
    }

    /// Arrives at reader node `idx`'s C-SNZI through this handle's arrival
    /// policy and cached leaf. `None`: the node is closed — and if taking
    /// the failed arrival back made this thread the node's last departer,
    /// that duty has been discharged before returning, so the caller
    /// carries on as after any failed arrival.
    #[inline(always)]
    pub(crate) fn arrive_at(&mut self, idx: usize) -> Option<Ticket> {
        let core = &self.lock.core;
        // Whatever named node `idx` — the tail, ROLL's hint, a `prev` link
        // — was read a moment ago: stretched, this is the window in which
        // the node is closed, recycled and reopened before the arrival
        // lands. Yield-only: the caller may hold a spare node.
        fault::inject_yield_only("foll.read.arrive");
        let ticket = core
            .rnode(idx)
            .csnzi
            .arrive_cached(&mut self.policy, &mut self.cursor);
        match ticket.failure() {
            None => Some(ticket),
            Some(CancelOutcome::Undone) => None,
            Some(CancelOutcome::MustHandOff) => {
                core.discharge_drained(idx);
                None
            }
        }
    }

    /// Publishes the allocated reader node `r` at the tail behind `pred`
    /// and arrives at it. `Err(())`: the tail moved first, and `r` is still
    /// the caller's. A direct arrival comes with the node's open, so it
    /// cannot fail. A handle whose arrivals go to the tree arrives there
    /// after the open, and finds the node closed (`Ok(None)`) if a writer
    /// queued behind it first: the node stays queued for that writer.
    fn enqueue_own_node(&mut self, r: usize, pred: NodeRef) -> Result<Option<Ticket>, ()> {
        let core = &self.lock.core;
        let direct = !self.policy.wants_tree();
        if !core.enqueue_reader_node(r, pred, u64::from(direct)) {
            return Err(());
        }
        Ok(if direct {
            Some(Ticket::ROOT)
        } else {
            self.arrive_at(r)
        })
    }

    /// Records a read acquisition that needed no wait.
    #[inline]
    fn read_granted(&mut self, idx: usize, ticket: Ticket) {
        let core = &self.lock.core;
        core.note_arrival(ticket);
        core.telemetry.incr(LockEvent::ReadFast);
        self.hold = core.telemetry.timer();
        self.session = Some((idx, ticket));
    }

    /// `ReaderLock` (Figure 4), for every ordering policy and for blocking
    /// and timed acquisitions alike: the no-wait arm. If the tail is a
    /// reader node whose readers hold the lock, one arrival there is the
    /// whole acquisition (one that still waits is waited for, out of
    /// line); anything else goes on to [`acquire_read`](Self::acquire_read).
    #[inline]
    fn read<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.session.is_none() && !self.write_held);
        let core = &self.lock.core;
        let acquire = core.telemetry.begin_read();
        let tail = core.load_tail();
        if tail.is_reader() {
            if let Some(ticket) = self.arrive_at(tail.index()) {
                return self.joined_tail(tail, ticket, deadline, &acquire);
            }
        }
        self.acquire_read(deadline, &acquire)
    }

    /// The reader acquire loop, entered when the no-wait arm found no
    /// reader node to arrive at.
    ///
    /// A deadline adds two things to the blocking walk: between attempts
    /// (nothing enqueued or arrived, so only the spare allocation needs
    /// returning) the loop gives up once it has expired, and a wait that
    /// outlasts it departs the C-SNZI again through
    /// [`QueueCore::cancel_read_session`], which also discharges any
    /// hand-off obligation picked up in the race with the grant.
    #[inline(never)]
    fn acquire_read<D: Deadline>(&mut self, deadline: D, acquire: &Timer) -> Result<(), TimedOut> {
        let lock = self.lock;
        let core = &lock.core;
        let slot = self.slot_idx();
        let mut rnode: Option<usize> = None;
        let mut backoff = Backoff::new();
        loop {
            let tail = core.load_tail();
            if tail.is_nil() {
                // Empty queue: enqueue a reader node we immediately own.
                let r = rnode.take().unwrap_or_else(|| core.alloc_reader_node(slot));
                match self.enqueue_own_node(r, NodeRef::NIL) {
                    Ok(Some(ticket)) => {
                        // Granted on enqueue — no wait, so nothing left to
                        // time out on.
                        self.read_granted(r, ticket);
                        core.telemetry.record_read_acquire(acquire);
                        return Ok(());
                    }
                    // A writer already queued behind us and closed the
                    // C-SNZI; our node stays in the queue for it.
                    Ok(None) => {}
                    Err(()) => rnode = Some(r), // keep the allocation for the retry
                }
            } else if tail.is_reader() {
                // Tail is a reader node: share it via its C-SNZI.
                if let Some(ticket) = self.arrive_at(tail.index()) {
                    if let Some(n) = rnode.take() {
                        core.free_reader_node(n);
                    }
                    return self.joined_tail(tail, ticket, deadline, acquire);
                }
                // C-SNZI closed ⇒ a writer queued behind that node ⇒ the
                // tail changed; retry.
                backoff.backoff();
            } else if let Some((idx, ticket)) = P::overtake(self, tail) {
                // Tail is a writer, and the policy found a group of readers
                // still waiting further up the queue: we joined it,
                // overtaking the writer.
                if let Some(n) = rnode.take() {
                    core.free_reader_node(n);
                }
                core.note_arrival(ticket);
                core.telemetry.incr(LockEvent::ReadSlow);
                core.telemetry
                    .trace_enqueued(u64::from(NodeRef::reader(idx).raw()));
                return self.await_grant(idx, ticket, P::SITES.joined, deadline, acquire);
            } else {
                // Tail is a writer: enqueue a reader node behind it.
                let r = rnode.take().unwrap_or_else(|| core.alloc_reader_node(slot));
                match self.enqueue_own_node(r, tail) {
                    Ok(Some(ticket)) => {
                        core.note_arrival(ticket);
                        core.telemetry.incr(LockEvent::ReadSlow);
                        P::enqueued_behind_writer(lock, NodeRef::reader(r));
                        core.telemetry
                            .trace_enqueued(u64::from(NodeRef::reader(r).raw()));
                        return self.await_grant(r, ticket, P::SITES.waiting, deadline, acquire);
                    }
                    Ok(None) => {}
                    Err(()) => rnode = Some(r),
                }
            }
            if deadline.expired() {
                if let Some(n) = rnode.take() {
                    core.free_reader_node(n);
                }
                core.telemetry.incr(LockEvent::Timeout);
                return Err(TimedOut);
            }
        }
    }

    /// Arrived with `ticket` at the reader node `tail`: if its readers hold
    /// the lock, so does the caller, at once; else the node still waits
    /// behind a writer, and so does the caller.
    #[inline(always)]
    fn joined_tail<D: Deadline>(
        &mut self,
        tail: NodeRef,
        ticket: Ticket,
        deadline: D,
        acquire: &Timer,
    ) -> Result<(), TimedOut> {
        let core = &self.lock.core;
        if core.rnode(tail.index()).state.load(Ordering::Acquire) == GRANTED {
            self.read_granted(tail.index(), ticket);
            core.telemetry.record_read_acquire(acquire);
            return Ok(());
        }
        core.note_arrival(ticket);
        core.telemetry.incr(LockEvent::ReadSlow);
        core.telemetry.trace_enqueued(u64::from(tail.raw()));
        self.await_grant(tail.index(), ticket, P::SITES.waiting, deadline, acquire)
    }

    /// The tail of every waiting arm of the read acquisition: arrived at
    /// node `idx` with `ticket`, wait for the node's grant.
    #[inline(never)]
    fn await_grant<D: Deadline>(
        &mut self,
        idx: usize,
        ticket: Ticket,
        site: &'static str,
        deadline: D,
        acquire: &Timer,
    ) -> Result<(), TimedOut> {
        let core = &self.lock.core;
        self.session = Some((idx, ticket));
        fault::inject(site);
        let node = core.rnode(idx);
        if spin_until_deadline(deadline, || node.state.load(Ordering::Acquire) == GRANTED) {
            core.telemetry.record_read_acquire(acquire);
            self.hold = core.telemetry.timer();
            return Ok(());
        }
        fault::inject(P::SITES.timeout);
        core.telemetry.incr(LockEvent::Timeout);
        core.telemetry.incr(LockEvent::Cancel);
        self.session = None;
        core.cancel_read_session(idx, ticket);
        Err(TimedOut)
    }

    /// `WriterLock` through the cohort gate when there is one and it has
    /// something to batch, else straight onto the global queue — blocking
    /// and timed alike. A timed-out attempt records which of the slot's
    /// nodes it left behind, so the next use reclaims it first.
    fn acquire_write<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        debug_assert!(self.session.is_none() && !self.write_held);
        let core = &self.lock.core;
        let slot = self.slot_idx();
        // An uncontended cohort writer bypasses the gate — it has nothing
        // to batch — and acquires like a plain writer. `cohort_hold` stays
        // `None`, making the release the plain `writer_unlock`.
        let gated = match core.cohort {
            Some(_) => Some(self.cohort_index()).filter(|&c| !core.cohort_bypass_ready(c)),
            None => None,
        };
        let outcome = match gated {
            Some(cohort) => {
                self.ensure_cohort_node();
                core.cohort_lock(
                    slot,
                    cohort,
                    P::WAIT_FOR_ACTIVE,
                    deadline,
                    &mut self.pending_reclaim,
                )
                .map(|hold| self.cohort_hold = Some(hold))
            }
            None => {
                self.ensure_writer_node();
                core.writer_lock(slot, P::WAIT_FOR_ACTIVE, deadline)
            }
        };
        match outcome {
            Ok(()) => {
                self.hold = core.telemetry.timer();
                self.write_held = true;
                Ok(())
            }
            Err(left_behind) => {
                core.telemetry.incr(LockEvent::Timeout);
                match left_behind {
                    WriteTimeout::Clean => {}
                    WriteTimeout::Abandoned => {
                        core.telemetry.incr(LockEvent::Cancel);
                        self.pending_reclaim = true;
                    }
                    WriteTimeout::CohortAbandoned => {
                        core.telemetry.incr(LockEvent::Cancel);
                        self.cohort_reclaim = true;
                    }
                }
                Err(TimedOut)
            }
        }
    }
}

impl<P: OrderPolicy> RwHandle for QueueHandle<'_, P> {
    #[inline]
    fn lock_read(&mut self) {
        let granted = self.read(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    #[inline]
    fn unlock_read(&mut self) {
        let (depart_from, ticket) = self.session.take().expect("unlock_read without read hold");
        self.lock.core.telemetry.record_read_hold(&self.hold);
        self.lock.core.reader_unlock(depart_from, ticket);
    }

    fn lock_write(&mut self) {
        let granted = self.acquire_write(Never);
        debug_assert!(
            granted.is_ok(),
            "an acquisition with no deadline cannot time out"
        );
    }

    fn unlock_write(&mut self) {
        debug_assert!(self.write_held, "unlock_write without write hold");
        self.write_held = false;
        let core = &self.lock.core;
        core.telemetry.record_write_hold(&self.hold);
        let slot = self.slot_idx();
        match self.cohort_hold.take() {
            Some(hold) => {
                let outcome = core.cohort_release(slot, hold.cohort, Some(hold));
                if hold.owner_slot == slot {
                    // LocalHandoff: our global writer node stays in the
                    // queue, lent to the batch; reclaim before its next
                    // use. A global release through our own node means we
                    // discharged it ourselves — including a node lent out
                    // earlier whose batch circled back to us — so any
                    // pending reclaim is already satisfied.
                    self.pending_reclaim = outcome == CohortRelease::LocalHandoff;
                }
            }
            None => {
                core.writer_unlock(slot);
            }
        }
    }

    /// Non-blocking read attempt: succeeds if the queue is empty (we
    /// enqueue and immediately own) or the tail is an *active* reader node
    /// we can join without waiting.
    fn try_lock_read(&mut self) -> bool {
        debug_assert!(self.session.is_none() && !self.write_held);
        let core = &self.lock.core;
        let tail = core.load_tail();
        if tail.is_nil() {
            let r = core.alloc_reader_node(self.slot_idx());
            return match self.enqueue_own_node(r, NodeRef::NIL) {
                Ok(Some(ticket)) => {
                    self.read_granted(r, ticket);
                    true
                }
                // A writer queued behind the node and closed it first; the
                // node stays queued, and that writer owns its recycling.
                Ok(None) => false,
                Err(()) => {
                    core.free_reader_node(r);
                    false
                }
            };
        }
        // Only join without waiting: the node's readers must already be
        // active.
        let granted = |idx| core.rnode(idx).state.load(Ordering::Acquire) == GRANTED;
        if !tail.is_reader() || !granted(tail.index()) {
            return false;
        }
        let idx = tail.index();
        // `None`: a writer queued behind the node and closed it first.
        let Some(ticket) = self.arrive_at(idx) else {
            return false;
        };
        // Between the check and the arrival, the node may have been
        // drained, recycled and enqueued again behind a writer. The
        // arrival keeps it from moving on, so this check is the one that
        // counts.
        if !granted(idx) {
            core.cancel_read_session(idx, ticket);
            return false;
        }
        self.read_granted(idx, ticket);
        true
    }

    /// Non-blocking write attempt: succeeds only when the queue is empty.
    fn try_lock_write(&mut self) -> bool {
        debug_assert!(self.session.is_none() && !self.write_held);
        self.ensure_writer_node();
        let core = &self.lock.core;
        let slot = self.slot_idx();
        let node = core.wnode(slot);
        node.qnext.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        node.prev.store(NodeRef::NIL.raw(), Ordering::Relaxed);
        if core.cas_tail(NodeRef::NIL, NodeRef::writer(slot)) {
            core.telemetry.incr(LockEvent::WriteFast);
            self.hold = core.telemetry.timer();
            self.write_held = true;
            true
        } else {
            false
        }
    }
}

#[cfg(not(loom))]
impl<P: OrderPolicy> crate::raw::TimedHandle for QueueHandle<'_, P> {
    #[inline]
    fn lock_read_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.read(deadline)
    }

    fn lock_write_deadline<D: Deadline>(&mut self, deadline: D) -> Result<(), TimedOut> {
        self.acquire_write(deadline)
    }
}

impl<P: OrderPolicy> Drop for QueueHandle<'_, P> {
    fn drop(&mut self) {
        debug_assert!(
            self.session.is_none() && !self.write_held,
            "{} handle dropped while holding the lock",
            P::NAME
        );
        // The slot (and with it the writer node) is released on drop; make
        // sure no abandoned-release is still running against the node.
        self.ensure_writer_node();
        self.ensure_cohort_node();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering as O};
    use std::sync::Arc;

    #[test]
    fn node_ref_packing() {
        assert!(NodeRef::NIL.is_nil());
        let r = NodeRef::reader(5);
        assert!(r.is_reader() && !r.is_nil());
        assert_eq!(r.index(), 5);
        let w = NodeRef::writer(5);
        assert!(!w.is_reader() && !w.is_nil());
        assert_eq!(w.index(), 5);
        assert_ne!(r, w);
    }

    #[test]
    fn uncontended_read_write() {
        let lock = FollLock::new(4);
        let mut h = lock.handle().unwrap();
        h.lock_read();
        h.unlock_read();
        // The reader node stays queued after the last departure — FOLL's
        // read-only steady state. A subsequent writer recycles it.
        assert!(!lock.is_queue_empty());
        h.lock_write();
        h.unlock_write();
        assert!(lock.is_queue_empty());
    }

    #[test]
    fn queue_drains_after_read() {
        let lock = FollLock::new(4);
        let mut h1 = lock.handle().unwrap();
        let mut h2 = lock.handle().unwrap();
        h1.lock_read();
        h2.lock_read(); // shares h1's node
        h1.unlock_read();
        h2.unlock_read();
        // The reader node stays queued (nothing closed it) — this is the
        // FOLL steady state for read-only workloads: one node, zero
        // surplus, open.
        assert!(!lock.is_queue_empty());
        // A writer can still get in promptly.
        h1.lock_write();
        h1.unlock_write();
        assert!(lock.is_queue_empty());
    }

    #[test]
    fn try_write_fails_while_read_held() {
        let lock = FollLock::new(2);
        let mut r = lock.handle().unwrap();
        let mut w = lock.handle().unwrap();
        r.lock_read();
        assert!(!w.try_lock_write());
        r.unlock_read();
        // The reader node is still queued, so conservative try_write still
        // fails; a full write lock works.
        w.lock_write();
        w.unlock_write();
        assert!(w.try_lock_write());
        w.unlock_write();
    }

    #[test]
    fn try_read_joins_active_readers() {
        let lock = FollLock::new(3);
        let mut r1 = lock.handle().unwrap();
        let mut r2 = lock.handle().unwrap();
        r1.lock_read();
        assert!(r2.try_lock_read());
        r1.unlock_read();
        r2.unlock_read();
    }

    #[test]
    fn try_read_fails_while_write_held() {
        let lock = FollLock::new(2);
        let mut w = lock.handle().unwrap();
        let mut r = lock.handle().unwrap();
        w.lock_write();
        assert!(!r.try_lock_read());
        w.unlock_write();
        assert!(r.try_lock_read());
        r.unlock_read();
    }

    #[test]
    fn writers_are_mutually_exclusive() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(FollLock::new(THREADS));
        let counter = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                for _ in 0..ITERS {
                    h.lock_write();
                    assert_eq!(counter.fetch_add(1, O::SeqCst), 0);
                    counter.fetch_sub(1, O::SeqCst);
                    h.unlock_write();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert!(lock.is_queue_empty());
    }

    #[test]
    fn mixed_readers_writers_exclusion_stress() {
        const THREADS: usize = 6;
        const ITERS: usize = 1_500;
        let lock = Arc::new(FollLock::new(THREADS));
        let state = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(7, tid);
                for _ in 0..ITERS {
                    if rng.percent(70) {
                        h.lock_read();
                        assert!(state.fetch_add(1, O::SeqCst) >= 0);
                        state.fetch_sub(1, O::SeqCst);
                        h.unlock_read();
                    } else {
                        h.lock_write();
                        assert_eq!(state.swap(-1, O::SeqCst), 0);
                        state.store(0, O::SeqCst);
                        h.unlock_write();
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
    }

    #[test]
    fn read_only_workload_touches_tail_once() {
        // The headline claim of §4.2: after the first reader enqueues a
        // node, subsequent readers only arrive/depart the C-SNZI; the tail
        // word is never written again.
        let lock = FollLock::new(4);
        let mut h1 = lock.handle().unwrap();
        let mut h2 = lock.handle().unwrap();
        h1.lock_read();
        let tail_after_first = lock.core.tail.load(O::SeqCst);
        for _ in 0..100 {
            h2.lock_read();
            h2.unlock_read();
        }
        assert_eq!(lock.core.tail.load(O::SeqCst), tail_after_first);
        h1.unlock_read();
        assert_eq!(lock.core.tail.load(O::SeqCst), tail_after_first);
    }

    #[test]
    fn node_pool_invariants_under_churn() {
        const THREADS: usize = 4;
        const ITERS: usize = 3_000;
        let lock = Arc::new(FollLock::new(THREADS));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                let mut h = lock.handle().unwrap();
                let mut rng = oll_util::XorShift64::for_thread(13, tid);
                for _ in 0..ITERS {
                    if rng.percent(40) {
                        h.lock_read();
                        h.unlock_read();
                    } else if rng.percent(33) {
                        // Mostly fails, and when it arrives at all it is
                        // at a node a writer may be closing or recycling.
                        if h.try_lock_read() {
                            h.unlock_read();
                        }
                    } else {
                        h.lock_write();
                        h.unlock_write();
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        // After quiescence at most one node may remain queued (a reader
        // node from a final read acquisition); all others must be FREE
        // with owned, empty C-SNZIs — no failed arrival left anything on
        // a word, and every drained node was claimed and recycled.
        let queued = lock.core.load_tail();
        let mut in_use = 0;
        for i in 0..THREADS {
            let n = lock.core.rnode(i);
            if n.in_use.load(O::SeqCst) {
                in_use += 1;
                assert!(queued.is_reader() && queued.index() == i);
            } else {
                assert_eq!(n.csnzi.root_snapshot(), oll_csnzi::RootWord::CLOSED_EMPTY);
            }
        }
        assert!(in_use <= 1);
    }

    #[test]
    #[should_panic(expected = "unlock_read without read hold")]
    fn unbalanced_unlock_panics() {
        let lock = FollLock::new(1);
        let mut h = lock.handle().unwrap();
        h.unlock_read();
    }
}
