//! The closable scalable nonzero indicator (Figure 2 of the paper).

use crate::node::{Parent, SnziNode, TreeShape};
use crate::policy::ArrivalPolicy;
use crate::root::{Decrement, RootWord};
use oll_telemetry::{LockEvent, Telemetry};
use oll_util::fault;
use oll_util::sync::{AtomicU64, Ordering};
use oll_util::CachePadded;

/// Result of [`CSnzi::query`]: Figure 1's `(surplus > 0, state = OPEN)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Whether there is a surplus of arrivals (readers hold the lock).
    pub nonzero: bool,
    /// Whether the C-SNZI is open (no writer owns or has claimed it).
    pub open: bool,
}

/// Result of [`CSnzi::cancel`] and of a failed arrival
/// ([`Ticket::failure`]): what the thread that took its arrival back owes
/// the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The arrival was undone; the caller holds nothing.
    Undone,
    /// The undo drained a closed C-SNZI and won the claim: the caller is
    /// the last departer and now owns the object — it must perform the
    /// owning lock's reader-release hand-off before returning.
    MustHandOff,
}

/// Where an arrival landed; required to depart.
///
/// The paper encapsulates the "node we arrived at" pointer in an opaque
/// ticket "not \[to\] be dereferenced or manipulated outside the C-SNZI
/// code". We use an index with two sentinels instead of a pointer.
///
/// Tickets are `Copy` for the same reason the paper passes them by value;
/// the usage contract (one `depart` per successful `arrive`) is the
/// caller's responsibility, exactly as in the paper.
///
/// A *failed* arrival is not always free: it lands on the closed word and
/// takes itself back, and that undo can be the decrement that drains the
/// object ([`FAILED_MUST_HAND_OFF`](Self::FAILED_MUST_HAND_OFF)). Lock
/// code therefore matches on [`failure`](Self::failure) rather than
/// testing [`arrived`](Self::arrived) alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a failed arrival may owe the lock a hand-off: match on `failure()`"]
pub struct Ticket(u32);

const TICKET_FAILED: u32 = u32::MAX;
const TICKET_FAILED_MUST_HAND_OFF: u32 = u32::MAX - 1;
const TICKET_ROOT: u32 = u32::MAX - 2;

impl Ticket {
    /// The ticket returned by a failed arrival (`Ticket(null)`) that owes
    /// nothing.
    pub const FAILED: Self = Self(TICKET_FAILED);

    /// The ticket returned by a failed arrival whose undo drained the
    /// closed C-SNZI and won the claim: the arriver holds no read
    /// arrival, but it is the last departer and must run the owning
    /// lock's reader-release hand-off ([`CancelOutcome::MustHandOff`]).
    pub const FAILED_MUST_HAND_OFF: Self = Self(TICKET_FAILED_MUST_HAND_OFF);

    /// A ticket that departs directly from the root — Figure 2's
    /// `DirectTicket`. Used by GOLL readers whose arrival was performed on
    /// their behalf by a releasing writer (`OpenWithArrivals`).
    pub const ROOT: Self = Self(TICKET_ROOT);

    fn node(idx: usize) -> Self {
        debug_assert!(idx < TICKET_ROOT as usize);
        Self(idx as u32)
    }

    /// Figure 2's `Arrived`: whether the arrival succeeded.
    #[inline]
    pub fn arrived(self) -> bool {
        self.0 < TICKET_FAILED_MUST_HAND_OFF
    }

    /// `None` for a successful arrival; for a failed one, what taking it
    /// back cost — the same vocabulary as [`CSnzi::cancel`].
    #[inline]
    pub fn failure(self) -> Option<CancelOutcome> {
        match self.0 {
            TICKET_FAILED => Some(CancelOutcome::Undone),
            TICKET_FAILED_MUST_HAND_OFF => Some(CancelOutcome::MustHandOff),
            _ => None,
        }
    }

    /// Whether this ticket departs directly at the root.
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 == TICKET_ROOT
    }
}

/// A handle-owned cursor remembering the last C-SNZI leaf this thread
/// arrived at successfully.
///
/// The paper's `GetLeafForThread` re-hashes a thread identity on every
/// arrival; the cursor instead starts from a topology-derived leaf
/// (threads sharing a core or package start on the same or neighbouring
/// leaves — see [`oll_util::topology`]) and then *stays put*, migrating
/// to the next leaf only when a leaf-level CAS actually fails. A stable
/// leaf means a stable cache line in the common case.
#[derive(Debug, Clone, Default)]
pub struct LeafCursor {
    ordinal: usize,
    placed: bool,
}

impl LeafCursor {
    /// A cursor that picks its initial leaf from the machine topology on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cursor pinned to an explicit identity hint (the legacy
    /// `hint % leaf_count` placement of Figure 2's `GetLeafForThread`);
    /// used by [`CSnzi::arrive`], so by [`CSnzi::arrive_tree`] too.
    pub fn pinned(hint: usize) -> Self {
        Self {
            ordinal: hint,
            placed: true,
        }
    }

    /// Current leaf ordinal in `0..leaf_count`, choosing the topology
    /// placement on first use.
    fn ordinal(&mut self, leaf_count: usize) -> usize {
        if !self.placed {
            self.ordinal = oll_util::topology::preferred_leaf(
                oll_util::topology::dense_thread_id(),
                leaf_count,
            );
            self.placed = true;
        }
        self.ordinal % leaf_count
    }

    fn migrate(&mut self, leaf_count: usize) {
        self.ordinal = (self.ordinal % leaf_count + 1) % leaf_count;
    }

    fn commit(&mut self, ordinal: usize) {
        self.ordinal = ordinal;
    }
}

/// A closable scalable nonzero indicator.
///
/// Supports the full interface of Figures 1–2 plus the §2.1 variations and
/// the §3.2.1 dual-counter extensions. Readers of an OLL lock `arrive` and
/// `depart`; writers `close` and `open`.
///
/// Where Figure 2's `Arrive` is load, check OPEN, CAS, a direct arrival
/// here is one unconditional `fetch_add` that takes itself back if it
/// landed on a closed word; the [`root`](crate::root) module docs give the
/// four word states and five rules that make that safe.
///
/// The surplus lives at a CAS-able [`RootWord`] plus a tree of counter
/// nodes; a subtree's root has nonzero surplus iff some node in the subtree
/// does, so `query` needs only the root word while concurrent arrivals and
/// departures at distinct leaves touch distinct cache lines.
///
/// The tree is allocated by its first arrival (§2.2: "we can avoid
/// allocating the tree (other than the root node) until it is needed, thus
/// incurring the associated space overhead only for those SNZI objects that
/// are heavily contended"). Each handle's [`ArrivalPolicy`] decides where
/// its own arrivals go, so an object whose readers never meet contention
/// stays one cache line. Once allocated the tree is never freed: a tree
/// ticket is departable for as long as the object lives.
#[derive(Debug)]
pub struct CSnzi {
    root: CachePadded<AtomicU64>,
    nodes: TreeNodes,
    shape: TreeShape,
    /// Owning lock's telemetry, if any (see [`CSnzi::attach_telemetry`]).
    /// Zero-sized and inert without the `telemetry` feature.
    telemetry: Telemetry,
}

/// The tree's node array: empty until the first tree arrival allocates
/// it, then fixed.
#[derive(Debug)]
struct TreeNodes {
    #[cfg(not(loom))]
    cell: std::sync::OnceLock<Box<[CachePadded<SnziNode>]>>,
    // loom cannot model `OnceLock`, and allocating adds no synchronization
    // of its own to check, so loom builds allocate at construction.
    #[cfg(loom)]
    cell: Box<[CachePadded<SnziNode>]>,
}

impl TreeNodes {
    fn new(shape: TreeShape) -> Self {
        #[cfg(not(loom))]
        let _ = shape;
        Self {
            #[cfg(not(loom))]
            cell: std::sync::OnceLock::new(),
            #[cfg(loom)]
            cell: shape.alloc_nodes(),
        }
    }

    #[inline]
    fn get(&self) -> Option<&[CachePadded<SnziNode>]> {
        #[cfg(not(loom))]
        {
            self.cell.get().map(|nodes| &**nodes)
        }
        #[cfg(loom)]
        {
            Some(&self.cell)
        }
    }

    /// The array, allocated by this call unless another arrival already
    /// has; `allocated` runs only in the call that allocates.
    fn get_or_alloc(&self, shape: TreeShape, allocated: impl FnOnce()) -> &[CachePadded<SnziNode>] {
        #[cfg(not(loom))]
        {
            self.cell.get_or_init(|| {
                allocated();
                shape.alloc_nodes()
            })
        }
        #[cfg(loom)]
        {
            let _ = (shape, allocated);
            &self.cell
        }
    }
}

impl Default for CSnzi {
    fn default() -> Self {
        Self::new(TreeShape::ROOT_ONLY)
    }
}

impl CSnzi {
    /// Creates an open, empty C-SNZI with the given tree shape. The tree
    /// is allocated by the first arrival that goes to it.
    pub fn new(shape: TreeShape) -> Self {
        Self::with_word(shape, RootWord::OPEN_EMPTY)
    }

    /// Creates a closed, empty C-SNZI owned by its creator (FOLL reader
    /// nodes start this way: "when just allocated, has a closed C-SNZI
    /// with no surplus", §4.2).
    pub fn new_closed(shape: TreeShape) -> Self {
        Self::with_word(shape, RootWord::CLOSED_EMPTY)
    }

    fn with_word(shape: TreeShape, word: RootWord) -> Self {
        Self {
            root: CachePadded::new(AtomicU64::new(word.pack())),
            nodes: TreeNodes::new(shape),
            shape,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Whether the first tree arrival has allocated the tree yet (always
    /// true under loom, which allocates at construction).
    pub fn is_tree_allocated(&self) -> bool {
        self.nodes.get().is_some()
    }

    /// Routes this object's shared-write counts into an owning lock's
    /// telemetry handle (as `csnzi_root_write` / `csnzi_node_write` /
    /// `csnzi_root_cas_fail` / `csnzi_arrive_undone` / `csnzi_inflate`
    /// events). Locks attach at construction, before sharing.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    #[inline]
    fn note_root_write(&self) {
        self.telemetry.incr(LockEvent::CsnziRootWrite);
    }

    #[inline]
    fn note_root_cas_failure(&self) {
        self.telemetry.incr(LockEvent::CsnziRootCasFail);
    }

    #[inline]
    fn note_node_write(&self) {
        self.telemetry.incr(LockEvent::CsnziNodeWrite);
    }

    /// The tree shape this C-SNZI was built with.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Acquire: whoever decides on this word (a closer, a tree arriver)
    /// sees what the RMW that wrote it published.
    #[inline]
    fn load_root_raw(&self) -> u64 {
        self.root.load(Ordering::Acquire)
    }

    #[inline]
    fn load_root(&self) -> RootWord {
        RootWord::unpack(self.load_root_raw())
    }

    /// Every root CAS — the closes, the claim, a tree arrival — on packed
    /// words. AcqRel — acquire: a closer or claimer that comes to own the
    /// object sees every departed reader's critical section; release: a
    /// close publishes the closer's queue entry to the last departer. A
    /// failure is Relaxed: the caller reloads or gives up.
    #[inline]
    fn cas_root(&self, old: u64, new: u64) -> bool {
        let ok = self
            .root
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if ok {
            self.note_root_write();
        } else {
            self.note_root_cas_failure();
        }
        ok
    }

    /// The one conditional-update loop (rules 3 and 5): CASes the root from
    /// the word it loads to `target` of that word, until the CAS lands
    /// (`Some(new word)`) or the loaded word has no target (`None`).
    #[inline]
    fn cas_root_to(&self, target: impl Fn(u64) -> Option<u64>) -> Option<u64> {
        loop {
            let old = self.load_root_raw();
            let new = target(old)?;
            if self.cas_root(old, new) {
                return Some(new);
            }
        }
    }

    /// Max cached-leaf migrations per arrival; past this the cursor stops
    /// chasing quiet cache lines and rides out the CAS loop where it is.
    const MAX_MIGRATIONS_PER_ARRIVAL: u32 = 2;

    /// `Arrive` (Figure 2): if open, increments the surplus — directly at
    /// the root or at this thread's leaf, per `policy` — and returns a
    /// ticket for the node arrived at. If closed, the arrival fails and
    /// leaves nothing behind: a direct one lands on the closed word and
    /// takes itself back, which is invisible unless that undo drains the
    /// object — then the ticket is [`Ticket::FAILED_MUST_HAND_OFF`]
    /// instead of [`Ticket::FAILED`].
    ///
    /// `leaf_hint` identifies the calling thread (`GetLeafForThread`);
    /// lock handles pass their slot index so distinct threads default to
    /// distinct leaves. Handles that keep per-object state should prefer
    /// [`arrive_cached`](Self::arrive_cached), which replaces the
    /// per-arrival re-hash with a remembered leaf.
    pub fn arrive(&self, policy: &mut ArrivalPolicy, leaf_hint: usize) -> Ticket {
        self.arrive_cached(policy, &mut LeafCursor::pinned(leaf_hint))
    }

    /// [`arrive`](Self::arrive) with a handle-owned [`LeafCursor`]: the
    /// tree path starts at the cursor's cached leaf (topology-placed on
    /// first use) and migrates to a neighbouring leaf only when a
    /// leaf-level CAS fails. The first tree arrival allocates the tree.
    ///
    /// The direct arm is [rule 1](crate::root): one `fetch_add`, no load
    /// before it and no retry after it. Only a handle whose policy
    /// [wants the tree](ArrivalPolicy::wants_tree) pays the root load
    /// that routes it there.
    #[inline]
    pub fn arrive_cached(&self, policy: &mut ArrivalPolicy, cursor: &mut LeafCursor) -> Ticket {
        if self.shape.depth > 0 && policy.wants_tree() {
            if let Some(ticket) = self.arrive_by_the_tree(policy, cursor) {
                return ticket;
            }
        }
        // Rule 1: one unconditional RMW. Acquire: an arrival that lands on
        // an open word sees the critical section of the owner whose `open`
        // (Release) opened it; it publishes nothing itself.
        let old = self.root.fetch_add(RootWord::ONE_DIRECT, Ordering::Acquire);
        self.note_root_write();
        if RootWord::after_arrive(old) {
            policy.record_arrival(RootWord::unpack(old));
            return Ticket::ROOT;
        }
        self.undo_arrival()
    }

    /// The handle's own evidence points at the tree: decide on a fresh root
    /// word, as Figure 2's `Arrive` does. `None`: the root shows no reason
    /// to, after all — arrive directly.
    #[inline(never)]
    fn arrive_by_the_tree(
        &self,
        policy: &mut ArrivalPolicy,
        cursor: &mut LeafCursor,
    ) -> Option<Ticket> {
        let old = self.load_root();
        if !old.open {
            return Some(Ticket::FAILED);
        }
        if policy.should_arrive_at_tree(old) {
            return Some(self.tree_arrive_cursor(policy, cursor));
        }
        None
    }

    /// The arrival landed on a closed word: take it back with the ordinary
    /// direct departure, last-departer duty included.
    #[cold]
    fn undo_arrival(&self) -> Ticket {
        // Yield-only: an unwind here would leak the surplus that is on
        // the word, and nobody could depart it.
        fault::inject_yield_only("csnzi.arrive.landed-closed");
        self.telemetry.incr(LockEvent::CsnziArriveUndone);
        if self.root_direct_depart() {
            Ticket::FAILED
        } else {
            Ticket::FAILED_MUST_HAND_OFF
        }
    }

    /// The tree-path arrival for [`arrive_cached`](Self::arrive_cached):
    /// [`tree_arrive`](Self::tree_arrive) specialised to the entry leaf,
    /// with cursor migration on leaf-level CAS failure. Tells `policy`
    /// when the entry leaf absorbed nothing (a *miss*: the arrival went
    /// through to the parent, so it cost more than a direct one).
    fn tree_arrive_cursor(&self, policy: &mut ArrivalPolicy, cursor: &mut LeafCursor) -> Ticket {
        let leaf_count = self.shape.leaf_count();
        let mut migrations = 0;
        let mut idx = self.shape.first_leaf() + cursor.ordinal(leaf_count);
        let mut parent = self.shape.parent_of(idx);
        let mut arrived_at_parent = false;
        loop {
            let node = self.node(idx);
            let x = node.cnt.load(Ordering::Acquire);
            if x == 0 && !arrived_at_parent {
                if self.parent_arrive(parent) {
                    arrived_at_parent = true;
                    continue;
                }
                return Ticket::FAILED;
            }
            if node
                .cnt
                .compare_exchange(x, x + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.note_node_write();
                if arrived_at_parent {
                    if x != 0 {
                        self.parent_depart(parent);
                    }
                    policy.record_tree_miss();
                }
                cursor.commit(idx - self.shape.first_leaf());
                return Ticket::node(idx);
            }
            // The cached leaf's line is hot: migrate to the next leaf —
            // but only while holding no parent pre-arrival, since undoing
            // one here could zero a closed C-SNZI and silently make this
            // thread the lock owner.
            if !arrived_at_parent && migrations < Self::MAX_MIGRATIONS_PER_ARRIVAL {
                migrations += 1;
                cursor.migrate(leaf_count);
                idx = self.shape.first_leaf() + cursor.ordinal(leaf_count);
                parent = self.shape.parent_of(idx);
                self.telemetry.incr(LockEvent::CsnziLeafMigrate);
            }
        }
    }

    /// Arrives directly at the root regardless of policy (still fails if
    /// closed). `benchmark/` times it as `csnzi.arrive_depart_direct_ns`.
    pub fn arrive_direct(&self) -> Ticket {
        let mut p = ArrivalPolicy::always_direct();
        self.arrive(&mut p, 0)
    }

    /// Arrives at this thread's leaf regardless of policy (still fails if
    /// the C-SNZI is closed). `benchmark/` times it as
    /// `csnzi.arrive_depart_tree_ns`.
    pub fn arrive_tree(&self, leaf_hint: usize) -> Ticket {
        if self.shape.depth == 0 {
            return self.arrive_direct();
        }
        // Check openness first, as the top of Arrive does; the tree path
        // linearizes at this check when the leaf already has surplus.
        if !self.load_root().open {
            return Ticket::FAILED;
        }
        let leaf = self.shape.leaf_for(leaf_hint);
        if self.tree_arrive(leaf) {
            Ticket::node(leaf)
        } else {
            Ticket::FAILED
        }
    }

    /// `Depart` (Figure 2): decrements the surplus; returns `false` iff the
    /// caller is the last departer of a closed C-SNZI — its decrement left
    /// the word *drained* and it won the claim — and must hand the lock to
    /// the waiting writer. At most one departure (or failed arrival) per
    /// close is told so.
    ///
    /// `ticket` must come from a successful arrival (or `Ticket::ROOT` for
    /// a pre-arranged direct arrival), departed exactly once.
    pub fn depart(&self, ticket: Ticket) -> bool {
        debug_assert!(ticket.arrived(), "cannot depart with a failed ticket");
        if ticket.is_root() {
            self.root_direct_depart()
        } else {
            self.tree_depart(ticket.0 as usize)
        }
    }

    /// Cancels a pending arrival: a reader that arrived but now abandons
    /// the acquisition (timeout, cancellation) calls this instead of
    /// `depart` to make the undo semantics explicit at the call site.
    ///
    /// Cancellation *is* departure — the C-SNZI has no separate undo
    /// operation; an arrival that will never be used is indistinguishable
    /// from one whose critical section already ended. The distinction that
    /// matters is the outcome: [`CancelOutcome::MustHandOff`] means this
    /// cancel drained a *closed* C-SNZI and won the claim, so the canceller
    /// now owns the lock exactly as a departing last reader would, and must
    /// run the owning lock's release protocol (it cannot simply walk away).
    #[must_use = "MustHandOff obligates the caller to release the lock"]
    pub fn cancel(&self, ticket: Ticket) -> CancelOutcome {
        if self.depart(ticket) {
            CancelOutcome::Undone
        } else {
            CancelOutcome::MustHandOff
        }
    }

    /// `Query` (Figure 2): one root load.
    #[inline]
    pub fn query(&self) -> Query {
        let w = self.load_root();
        Query {
            nonzero: w.surplus() > 0,
            open: w.open,
        }
    }

    /// `Open` (Figure 2): requires the caller to own the closed C-SNZI
    /// (Figure 2's "state CLOSED and surplus zero"; here a failed arrival
    /// may have a transient surplus on the word, and the open keeps it for
    /// that arrival to take back).
    pub fn open(&self) {
        self.open_with_arrivals(0, false);
    }

    /// `OpenWithArrivals` (§2.1, Figure 2): atomically opens, performs
    /// `cnt` arrivals *at the root*, and optionally closes again. Requires
    /// the caller to own the closed C-SNZI, as [`open`](Self::open) does.
    /// The beneficiaries depart with [`Ticket::ROOT`].
    pub fn open_with_arrivals(&self, cnt: u64, close: bool) {
        debug_assert!(self.load_root().owned, "only the owner opens");
        // Rule 4. Release: whoever arrives on (or is granted through) the
        // new word sees the owner's critical section and hand-off state.
        self.root
            .fetch_add(RootWord::open_delta(cnt, close), Ordering::Release);
        self.note_root_write();
    }

    /// `Close` (Figure 2): closes an open C-SNZI (no-op if already closed);
    /// returns `true` iff the state changed OPEN→CLOSED *and* the surplus
    /// is zero — i.e. the closer has write-acquired an uncontended object
    /// and owns it. A `false` may be spurious (the surplus it saw was a
    /// failed arrival's, about to be taken back); the closer then waits
    /// for the last departer like any other, and that arrival is it.
    pub fn close(&self) -> bool {
        self.cas_root_to(RootWord::close_target) == Some(RootWord::CLOSED_EMPTY.pack())
    }

    /// `CloseIfEmpty` (§2.1, Figure 2): closes only if open with zero
    /// surplus; returns whether it closed (and the caller owns the
    /// object). This is the writer fast path of the GOLL lock.
    pub fn close_if_empty(&self) -> bool {
        self.cas_root_to(RootWord::close_if_empty_target).is_some()
    }

    // ------------------------------------------------------------------
    // §3.2.1 dual-counter extensions (write-upgrade support)
    // ------------------------------------------------------------------

    /// Trades a tree arrival for a direct arrival at the root: arrives
    /// directly at the root, then departs from the original node (§3.2.1).
    /// Returns the new (root) ticket.
    ///
    /// Requires that the caller holds a successful arrival (`ticket`), so
    /// the surplus is nonzero throughout; the trade therefore succeeds even
    /// if the C-SNZI has been closed in the meantime.
    pub fn trade_to_direct(&self, ticket: Ticket) -> Ticket {
        debug_assert!(ticket.arrived());
        if ticket.is_root() {
            return ticket;
        }
        // Unconditional direct arrival: our existing arrival keeps the
        // word open or draining throughout. Relaxed: it publishes and
        // reads nothing — the caller moves an arrival it already holds.
        let old = self.root.fetch_add(RootWord::ONE_DIRECT, Ordering::Relaxed);
        self.note_root_write();
        debug_assert!({
            let old = RootWord::unpack(old);
            old.surplus() > 0 && !old.owned
        });
        let still_held = self.tree_depart(ticket.0 as usize);
        debug_assert!(still_held, "surplus kept nonzero by the direct arrival");
        Ticket::ROOT
    }

    /// Whether the *only* surplus is a single direct arrival — after
    /// [`trade_to_direct`](Self::trade_to_direct), this is exactly the
    /// paper's "the thread is the only one holding \[the\] lock" test.
    pub fn is_sole_direct(&self) -> bool {
        let w = self.load_root();
        w.direct == 1 && w.tree == 0
    }

    /// Attempts to atomically convert a sole direct arrival on an *open*
    /// C-SNZI into the owned-empty (write-acquired) state. Returns `true`
    /// on success; on failure nothing changes and the caller still holds
    /// its arrival.
    ///
    /// This is the commit point of the GOLL write-upgrade: the reader's own
    /// surplus is consumed and the object ends closed, empty and owned.
    pub fn try_upgrade_sole_direct(&self) -> bool {
        // (Retried while the word still matches: a concurrent reader that
        // arrived and already departed again may fail the CAS spuriously
        // without invalidating our sole-reader status.)
        self.cas_root_to(RootWord::upgrade_target).is_some()
    }

    // ------------------------------------------------------------------
    // Tree operations (Figure 2's TreeArrive / TreeDepart)
    // ------------------------------------------------------------------

    /// Tree node `idx`. An arrival's first call allocates the tree if no
    /// arrival has yet, before the arrival's first RMW; a departure's
    /// ticket proves the tree is there.
    #[inline]
    fn node(&self, idx: usize) -> &SnziNode {
        match self.nodes.get() {
            Some(nodes) => &nodes[idx],
            None => &self.alloc_tree()[idx],
        }
    }

    /// §2.2's deferred allocation. Several first arrivals may get here
    /// together; one allocates and counts it, the rest wait for its array.
    /// Nothing of the arrival is on any word yet, so an unwind from here
    /// leaves nothing behind.
    #[cold]
    #[inline(never)]
    fn alloc_tree(&self) -> &[CachePadded<SnziNode>] {
        // Sync point for the first-allocation race: fault plans widen the
        // window in which several arrivals find no tree.
        fault::inject("csnzi.inflate");
        self.nodes.get_or_alloc(self.shape, || {
            self.telemetry.incr(LockEvent::CsnziInflate);
        })
    }

    fn parent_arrive(&self, parent: Parent) -> bool {
        match parent {
            Parent::Root => self.root_tree_arrive(),
            Parent::Node(p) => self.tree_arrive(p),
        }
    }

    fn parent_depart(&self, parent: Parent) -> bool {
        match parent {
            Parent::Root => self.root_tree_depart(),
            Parent::Node(p) => self.tree_depart(p),
        }
    }

    /// `TreeArrive(node)`: increments this node's surplus, first arriving
    /// at the parent if the surplus here might go 0→1. Crucially (and this
    /// is what makes the closable extension work — §2.2), the node is *not*
    /// modified before the parent arrival, so a failed parent arrival needs
    /// no cleanup.
    fn tree_arrive(&self, idx: usize) -> bool {
        let parent = self.shape.parent_of(idx);
        let node = self.node(idx);
        let mut arrived_at_parent = false;
        loop {
            let x = node.cnt.load(Ordering::Acquire);
            if x == 0 && !arrived_at_parent {
                if self.parent_arrive(parent) {
                    arrived_at_parent = true;
                } else {
                    return false;
                }
                continue;
            }
            if node
                .cnt
                .compare_exchange(x, x + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.note_node_write();
                // We pre-arrived at the parent but someone else created the
                // surplus here first; undo the extra parent arrival.
                if arrived_at_parent && x != 0 {
                    self.parent_depart(parent);
                }
                return true;
            }
        }
    }

    /// `TreeDepart(node)`: decrements this node's surplus, propagating to
    /// the parent when the surplus here drops to zero. Returns `false` iff
    /// the C-SNZI as a whole became CLOSED with zero surplus.
    fn tree_depart(&self, idx: usize) -> bool {
        // Unconditional, so one `fetch_sub` (Figure 2: load + CAS loop).
        // AcqRel — release: this reader's critical section happens-before
        // whoever brings the node, and through it the root, to zero;
        // acquire: the 1 -> 0 departer carries every earlier departer's
        // release upward with its own.
        let x = self.node(idx).cnt.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(x > 0, "tree depart with no surplus at node {idx}");
        self.note_node_write();
        x != 1 || self.parent_depart(self.shape.parent_of(idx))
    }

    /// `TreeArrive` base case at the root (rule 5): fails when the C-SNZI
    /// has an owner or is drained and waiting for one (a tree arrival may
    /// legitimately land while the C-SNZI is closed but still held by
    /// readers; it linearizes at the openness check its leaf-arriving
    /// thread performed earlier — §2.2). Stays a conditional CAS: unlike a
    /// direct arrival, a tree arrival that lands must stay.
    fn root_tree_arrive(&self) -> bool {
        self.cas_root_to(|old| RootWord::tree_arrive_ok(old).then_some(old + RootWord::ONE_TREE))
            .is_some()
    }

    /// `TreeDepart` base case at the root.
    fn root_tree_depart(&self) -> bool {
        self.root_decrement(RootWord::ONE_TREE)
    }

    /// Departure of a direct (root) arrival — a reader's, a canceller's,
    /// or the undo of an arrival that landed closed.
    fn root_direct_depart(&self) -> bool {
        self.root_decrement(RootWord::ONE_DIRECT)
    }

    /// Rule 2: every decrement of the root is one wait-free `fetch_sub`,
    /// and the word it returns says whether this thread should try the
    /// claim. `false`: it is the last departer of a closed object. AcqRel
    /// — release: the reader's critical-section accesses happen-before
    /// whoever comes to own the object; acquire: the last departer, which
    /// must hand the lock off, sees the writer's enqueue that preceded
    /// its `close`, and carries every earlier departer's release with it.
    #[inline]
    fn root_decrement(&self, unit: u64) -> bool {
        let old = self.root.fetch_sub(unit, Ordering::AcqRel);
        self.note_root_write();
        match RootWord::after_decrement(old, unit) {
            Decrement::Held => true,
            Decrement::TryClaim => !self.claim(),
        }
    }

    /// The claim: *drained* → *owned*-empty. Whoever wins — this
    /// decrementer, or one left over from an earlier drain of the same
    /// word — is the one last departer; a loser owes nothing, because
    /// either someone else won or a failed arrival is on the word and
    /// will see *drained* at its own undo.
    fn claim(&self) -> bool {
        self.cas_root(RootWord::DRAINED.pack(), RootWord::CLOSED_EMPTY.pack())
    }

    /// Test/diagnostic accessor: the decoded root word (racy snapshot).
    pub fn root_snapshot(&self) -> RootWord {
        self.load_root()
    }
}

#[cfg(all(test, not(loom)))]
mod tests_support {
    use super::*;

    /// A handle whose streak of crowded root arrivals (`threshold` others
    /// in flight, `threshold` times in a row) just reached the default
    /// threshold.
    pub(super) fn contended_policy() -> ArrivalPolicy {
        let crowded = RootWord {
            direct: u64::from(ArrivalPolicy::DEFAULT_THRESHOLD),
            ..RootWord::OPEN_EMPTY
        };
        let mut p = ArrivalPolicy::default();
        for _ in 0..ArrivalPolicy::DEFAULT_THRESHOLD {
            p.record_arrival(crowded);
        }
        p
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn shapes() -> Vec<TreeShape> {
        vec![
            TreeShape::ROOT_ONLY,
            TreeShape::flat(1),
            TreeShape::flat(4),
            TreeShape {
                fanout: 2,
                depth: 2,
            },
            TreeShape {
                fanout: 2,
                depth: 3,
            },
        ]
    }

    fn tree_policy() -> ArrivalPolicy {
        ArrivalPolicy::always_tree()
    }

    #[test]
    fn starts_open_and_empty() {
        for shape in shapes() {
            let c = CSnzi::new(shape);
            assert_eq!(
                c.query(),
                Query {
                    nonzero: false,
                    open: true
                }
            );
        }
    }

    #[test]
    fn new_closed_starts_closed() {
        let c = CSnzi::new_closed(TreeShape::flat(2));
        assert_eq!(
            c.query(),
            Query {
                nonzero: false,
                open: false
            }
        );
        assert!(!c.arrive(&mut tree_policy(), 0).arrived());
    }

    #[test]
    fn direct_arrive_depart_round_trip() {
        for shape in shapes() {
            let c = CSnzi::new(shape);
            let t = c.arrive_direct();
            assert!(t.arrived());
            assert!(t.is_root());
            assert!(c.query().nonzero);
            assert!(c.depart(t)); // open ⇒ true
            assert!(!c.query().nonzero);
        }
    }

    #[test]
    fn tree_arrive_depart_round_trip_all_leaves() {
        for shape in shapes().into_iter().filter(|s| s.depth > 0) {
            let c = CSnzi::new(shape);
            for hint in 0..shape.leaf_count() * 2 {
                let t = c.arrive_tree(hint);
                assert!(t.arrived());
                assert!(!t.is_root());
                assert!(c.query().nonzero, "shape {shape:?} hint {hint}");
                assert!(c.depart(t));
                assert!(!c.query().nonzero);
            }
        }
    }

    #[test]
    fn surplus_at_root_iff_surplus_anywhere() {
        let shape = TreeShape {
            fanout: 2,
            depth: 2,
        };
        let c = CSnzi::new(shape);
        let mut tickets = Vec::new();
        // Arrive at every leaf and directly, in a mix.
        for hint in 0..shape.leaf_count() {
            tickets.push(c.arrive_tree(hint));
        }
        tickets.push(c.arrive_direct());
        assert!(c.query().nonzero);
        // Depart in reverse order; root must stay nonzero until the end.
        while let Some(t) = tickets.pop() {
            assert!(c.query().nonzero);
            assert!(c.depart(t));
        }
        assert!(!c.query().nonzero);
    }

    #[test]
    fn close_blocks_arrivals_everywhere() {
        for shape in shapes() {
            let c = CSnzi::new(shape);
            assert!(c.close());
            assert!(!c.arrive_direct().arrived());
            if shape.depth > 0 {
                assert!(!c.arrive_tree(0).arrived());
            }
            assert!(!c.close(), "closing twice must fail");
        }
    }

    #[test]
    fn close_with_tree_surplus_returns_false() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t = c.arrive_tree(0);
        assert!(!c.close());
        assert_eq!(
            c.query(),
            Query {
                nonzero: true,
                open: false
            }
        );
        // Last departure from a closed C-SNZI reports false.
        assert!(!c.depart(t));
        assert_eq!(
            c.query(),
            Query {
                nonzero: false,
                open: false
            }
        );
        c.open();
        assert!(c.query().open);
    }

    #[test]
    fn arrivals_fail_after_close_even_with_leaf_surplus() {
        // Every *new* arrival re-checks openness first (the §2.2 "closed
        // but leaf nonzero" window only exists for a thread that passed
        // the openness check before the close; such an arrival linearizes
        // at that earlier check). Arrivals starting after the close must
        // fail at every node.
        let c = CSnzi::new(TreeShape::flat(1));
        let t1 = c.arrive_tree(0);
        assert!(!c.close());
        // Public arrive re-checks openness and must fail.
        assert!(!c.arrive(&mut tree_policy(), 0).arrived());
        assert!(!c.arrive_tree(0).arrived());
        assert!(!c.depart(t1));
    }

    #[test]
    fn close_if_empty_fast_path() {
        let c = CSnzi::new(TreeShape::flat(2));
        assert!(c.close_if_empty());
        assert!(!c.close_if_empty());
        c.open();
        let t = c.arrive_direct();
        assert!(!c.close_if_empty());
        assert!(c.query().open);
        assert!(c.depart(t));
    }

    #[test]
    fn open_with_arrivals_and_root_tickets() {
        let c = CSnzi::new(TreeShape::flat(2));
        assert!(c.close());
        c.open_with_arrivals(3, false);
        assert_eq!(
            c.query(),
            Query {
                nonzero: true,
                open: true
            }
        );
        assert!(c.depart(Ticket::ROOT));
        assert!(c.depart(Ticket::ROOT));
        assert!(c.depart(Ticket::ROOT));
        assert!(!c.query().nonzero);
        assert!(c.query().open);
    }

    #[test]
    fn open_with_arrivals_closed_variant() {
        let c = CSnzi::new(TreeShape::flat(2));
        assert!(c.close());
        c.open_with_arrivals(2, true);
        assert_eq!(
            c.query(),
            Query {
                nonzero: true,
                open: false
            }
        );
        assert!(c.depart(Ticket::ROOT));
        assert!(!c.depart(Ticket::ROOT)); // last departer must hand off
    }

    #[test]
    fn policy_migrates_to_tree_after_failures() {
        let c = CSnzi::new(TreeShape::flat(4));
        let mut p = ArrivalPolicy::new(0); // tree immediately
        let t = c.arrive(&mut p, 3);
        assert!(t.arrived());
        assert!(!t.is_root());
        // A default-policy arrival goes to the root without looking
        // first, sees tree surplus in the word it got back, and the next
        // one follows it.
        let mut p2 = ArrivalPolicy::default();
        let t2 = c.arrive(&mut p2, 1);
        assert!(t2.is_root());
        assert!(c.depart(t2));
        let t2 = c.arrive(&mut p2, 1);
        assert!(!t2.is_root());
        assert!(c.depart(t2));
        assert!(c.depart(t));
    }

    /// A handle whose streak of crowded root arrivals just reached the
    /// default threshold.
    fn contended_policy() -> ArrivalPolicy {
        tests_support::contended_policy()
    }

    #[test]
    fn a_failed_arrival_leaves_a_closed_word_as_it_found_it() {
        // Sequentially a failed arrival is add + undo = nothing, whatever
        // closed state it lands on, and it owes nothing.
        let c = CSnzi::new(TreeShape::flat(2));
        let held = c.arrive_direct();
        assert!(!c.close());
        let draining = c.root_snapshot();
        assert_eq!(c.arrive_direct(), Ticket::FAILED);
        assert_eq!(c.root_snapshot(), draining);
        assert!(!c.depart(held), "the one real reader is the last departer");
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
        assert_eq!(c.arrive_direct(), Ticket::FAILED);
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
        c.open();
        assert_eq!(c.root_snapshot(), RootWord::OPEN_EMPTY);
    }

    #[test]
    fn ticket_failure_speaks_cancel_outcome() {
        assert_eq!(Ticket::ROOT.failure(), None);
        assert_eq!(Ticket::node(3).failure(), None);
        assert_eq!(Ticket::FAILED.failure(), Some(CancelOutcome::Undone));
        let owing = Ticket::FAILED_MUST_HAND_OFF;
        assert!(!owing.arrived());
        assert_eq!(owing.failure(), Some(CancelOutcome::MustHandOff));
    }

    #[test]
    fn opens_keep_a_transient_surplus_for_its_arrival_to_undo() {
        // What a failed arrival looks like from the owner's side: its
        // increment is on the word when the owner opens, and must still
        // be there for the undo that follows.
        let c = CSnzi::new(TreeShape::ROOT_ONLY);
        assert!(c.close_if_empty());
        c.root.fetch_add(RootWord::ONE_DIRECT, Ordering::Relaxed);
        assert!(!c.close_if_empty(), "closed already");
        c.open_with_arrivals(1, true);
        let w = c.root_snapshot();
        assert_eq!((w.direct, w.open, w.owned), (2, false, false));
        assert!(c.depart(Ticket::ROOT), "the transient arrival remains");
        assert!(!c.depart(Ticket::ROOT), "and its undo is the last depart");
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
    }

    #[test]
    fn tree_miss_sends_a_private_leaf_handle_back_to_the_root() {
        // The leaf is private, so it is empty on every arrival and can
        // absorb nothing: the tree costs leaf + root RMWs where a direct
        // arrival costs one. The first miss must end the tree excursion.
        let c = CSnzi::new(TreeShape::flat(2));
        let (mut p, mut cursor) = (contended_policy(), LeafCursor::pinned(0));
        let first = c.arrive_cached(&mut p, &mut cursor);
        assert!(!first.is_root(), "a failure streak routes to the tree");
        assert!(c.depart(first));
        let back_at_root = (0..2).any(|_| {
            let t = c.arrive_cached(&mut p, &mut cursor);
            assert!(c.depart(t));
            t.is_root()
        });
        assert!(back_at_root, "still on the tree after three arrivals");
        assert_eq!(p.failure_streak(), 0);
    }

    #[test]
    fn tree_hits_keep_the_handle_on_an_absorbing_leaf() {
        let c = CSnzi::new(TreeShape::flat(2));
        let hold = c.arrive_tree(0);
        let (mut p, mut cursor) = (contended_policy(), LeafCursor::pinned(0));
        for _ in 0..10 {
            let t = c.arrive_cached(&mut p, &mut cursor);
            assert_eq!(t, hold, "a hit stays on the shared leaf");
            assert_eq!(c.root_snapshot().tree, 1, "the leaf absorbed it");
            assert!(c.depart(t));
            assert_eq!(p.failure_streak(), 2, "a hit leaves the streak alone");
        }
        assert!(c.depart(hold));
    }

    #[test]
    fn pinned_policies_ignore_tree_feedback() {
        let c = CSnzi::new(TreeShape::flat(2));
        let mut cursor = LeafCursor::pinned(0);
        let mut tree = ArrivalPolicy::always_tree();
        let mut root = ArrivalPolicy::always_direct();
        for _ in 0..4 {
            // Every pinned-tree arrival here is a miss; it stays pinned.
            let t = c.arrive_cached(&mut tree, &mut cursor);
            assert!(!t.is_root());
            // Tree surplus is showing; pinned-root still goes direct.
            let d = c.arrive_cached(&mut root, &mut cursor);
            assert!(d.is_root());
            assert!(c.depart(d));
            assert!(c.depart(t));
        }
    }

    #[test]
    fn trade_to_direct_preserves_surplus() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t = c.arrive_tree(1);
        assert!(!t.is_root());
        let t = c.trade_to_direct(t);
        assert!(t.is_root());
        let w = c.root_snapshot();
        assert_eq!((w.direct, w.tree), (1, 0));
        assert!(c.is_sole_direct());
        assert!(c.depart(t));
        assert!(!c.query().nonzero);
    }

    #[test]
    fn trade_is_idempotent_for_root_tickets() {
        let c = CSnzi::new(TreeShape::ROOT_ONLY);
        let t = c.arrive_direct();
        assert_eq!(c.trade_to_direct(t), t);
        c.depart(t);
    }

    #[test]
    fn sole_direct_detects_other_readers() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t1 = c.arrive_direct();
        assert!(c.is_sole_direct());
        let t2 = c.arrive_tree(0);
        assert!(!c.is_sole_direct());
        c.depart(t2);
        assert!(c.is_sole_direct());
        c.depart(t1);
    }

    #[test]
    fn upgrade_sole_direct() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t = c.arrive_tree(0);
        let _t = c.trade_to_direct(t);
        assert!(c.try_upgrade_sole_direct());
        // Now closed and empty: a write-acquired lock.
        assert_eq!(
            c.query(),
            Query {
                nonzero: false,
                open: false
            }
        );
        // And reopenable.
        c.open();
        assert!(c.query().open);
    }

    #[test]
    fn upgrade_fails_with_second_reader() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t1 = c.arrive_direct();
        let t2 = c.arrive_direct();
        assert!(!c.try_upgrade_sole_direct());
        assert!(c.depart(t2));
        assert!(c.try_upgrade_sole_direct());
        let _ = t1; // consumed by the upgrade
    }

    #[test]
    fn upgrade_fails_when_closed() {
        let c = CSnzi::new(TreeShape::flat(2));
        let t = c.arrive_direct();
        assert!(!c.close());
        assert!(!c.try_upgrade_sole_direct());
        assert!(!c.depart(t));
    }

    #[test]
    fn many_arrivals_one_leaf_propagate_once() {
        let c = CSnzi::new(TreeShape::flat(2));
        let tickets: Vec<_> = (0..10).map(|_| c.arrive_tree(0)).collect();
        let w = c.root_snapshot();
        // Only the first arrival propagates to the root.
        assert_eq!(w.tree, 1);
        assert_eq!(w.direct, 0);
        for t in tickets {
            assert!(c.depart(t));
        }
        assert_eq!(c.root_snapshot().tree, 0);
    }

    #[test]
    fn concurrent_stress_matches_counted_oracle() {
        use std::sync::atomic::{AtomicI64, Ordering as O};
        use std::sync::Arc;

        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let c = Arc::new(CSnzi::new(TreeShape::flat(THREADS)));
        let oracle = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let c = Arc::clone(&c);
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut p = ArrivalPolicy::default();
                for i in 0..OPS {
                    let t = c.arrive(&mut p, tid);
                    assert!(t.arrived(), "object is never closed in this test");
                    oracle.fetch_add(1, O::SeqCst);
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    // While we hold an arrival, the root must be nonzero.
                    assert!(c.query().nonzero);
                    oracle.fetch_sub(1, O::SeqCst);
                    assert!(c.depart(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(oracle.load(O::SeqCst), 0);
        assert!(!c.query().nonzero);
        assert!(c.query().open);
        let w = c.root_snapshot();
        assert_eq!((w.direct, w.tree), (0, 0));
    }
}

#[cfg(all(test, not(loom)))]
mod allocation_tests {
    use super::*;

    #[test]
    fn tree_is_allocated_at_its_first_tree_arrival() {
        let c = CSnzi::new(TreeShape::flat(8));
        assert!(!c.is_tree_allocated());

        // Root-path operations never allocate the tree.
        let t = c.arrive_direct();
        assert!(!c.is_tree_allocated());
        assert!(c.depart(t));
        assert!(c.close());
        c.open();
        assert!(c.close_if_empty());
        c.open_with_arrivals(2, false);
        assert!(c.depart(Ticket::ROOT));
        assert!(c.depart(Ticket::ROOT));
        assert!(!c.is_tree_allocated());

        // The first tree arrival allocates it.
        let t = c.arrive_tree(3);
        assert!(c.is_tree_allocated());
        assert!(c.depart(t));
    }

    #[test]
    fn construction_allocates_no_tree() {
        assert!(!CSnzi::new(TreeShape::flat(2)).is_tree_allocated());
        assert!(!CSnzi::new_closed(TreeShape::flat(2)).is_tree_allocated());
        // A root-only shape has no tree to allocate.
        let c = CSnzi::new(TreeShape::ROOT_ONLY);
        let t = c.arrive_tree(0);
        assert!(t.is_root());
        assert!(c.depart(t));
    }

    #[test]
    fn allocation_is_invisible_to_tree_arrivals() {
        // One object allocates mid-sequence, the other before it.
        let fresh = CSnzi::new(TreeShape::flat(4));
        let built = CSnzi::new(TreeShape::flat(4));
        assert!(built.depart(built.arrive_tree(0)));
        for hint in 0..8 {
            let tf = fresh.arrive_tree(hint);
            let tb = built.arrive_tree(hint);
            assert_eq!(tf.arrived(), tb.arrived());
            assert_eq!(fresh.query(), built.query());
            assert_eq!(fresh.depart(tf), built.depart(tb));
        }
        // Both drained: closing an empty, open object succeeds.
        assert!(fresh.close());
        assert!(built.close());
    }

    #[test]
    fn uncontended_arrivals_never_allocate_the_tree() {
        let c = CSnzi::new(TreeShape::flat(8));
        let mut p = ArrivalPolicy::default();
        let mut cursor = LeafCursor::new();
        for _ in 0..100 {
            let t = c.arrive_cached(&mut p, &mut cursor);
            assert!(t.is_root());
            assert!(c.depart(t));
        }
        assert!(!c.is_tree_allocated());
    }

    #[test]
    fn a_failure_streak_allocates_the_tree() {
        let c = CSnzi::new(TreeShape::flat(8));
        // The contention evidence a run of crowded root arrivals leaves.
        let mut p = tests_support::contended_policy();
        let mut cursor = LeafCursor::new();
        let t = c.arrive_cached(&mut p, &mut cursor);
        assert!(t.arrived());
        assert!(!t.is_root(), "contended arrival lands on the tree");
        assert!(c.is_tree_allocated());
        assert!(c.query().nonzero);
        assert!(c.depart(t));
    }

    #[test]
    fn the_tree_once_allocated_is_never_freed() {
        let c = CSnzi::new(TreeShape::flat(4));
        let mut hot = tests_support::contended_policy();
        let mut cursor = LeafCursor::new();
        let t = c.arrive_cached(&mut hot, &mut cursor);
        assert!(!t.is_root());
        assert!(c.depart(t));

        // A long quiet spell of direct arrivals keeps the allocation.
        let mut calm = ArrivalPolicy::default();
        for _ in 0..256 {
            let d = c.arrive_cached(&mut calm, &mut cursor);
            assert!(d.is_root());
            assert!(c.depart(d));
        }
        assert!(c.is_tree_allocated(), "the tree is never freed");

        // Fresh contention evidence lands on the same tree.
        let mut hot2 = tests_support::contended_policy();
        let t2 = c.arrive_cached(&mut hot2, &mut cursor);
        assert!(!t2.is_root());
        assert!(c.depart(t2));
    }

    #[test]
    fn closed_objects_reject_arrivals_without_allocating() {
        let c = CSnzi::new_closed(TreeShape::flat(4));
        assert!(!c.arrive(&mut ArrivalPolicy::default(), 0).arrived());
        assert!(!c.arrive(&mut ArrivalPolicy::always_tree(), 0).arrived());
        assert!(!c.is_tree_allocated());
        c.open();
        let t = c.arrive(&mut ArrivalPolicy::default(), 0);
        assert!(t.is_root());
        assert!(c.depart(t));
    }

    #[test]
    fn full_protocol_from_a_first_tree_arrival() {
        // close/open/open_with_arrivals/trade/upgrade on an object whose
        // tree a contended arrival just allocated.
        let c = CSnzi::new(TreeShape::flat(4));
        let mut hot = tests_support::contended_policy();
        let mut cursor = LeafCursor::new();
        let t = c.arrive_cached(&mut hot, &mut cursor);
        assert!(!t.is_root());
        assert!(!c.close());
        assert!(!c.arrive(&mut ArrivalPolicy::default(), 0).arrived());
        assert!(!c.depart(t), "last departer of a closed object hands off");
        c.open_with_arrivals(1, false);
        assert!(c.depart(Ticket::ROOT));
        let t = c.arrive_cached(&mut hot, &mut cursor);
        let t = c.trade_to_direct(t);
        assert!(c.is_sole_direct());
        assert!(c.try_upgrade_sole_direct());
        c.open();
        let _ = t;
    }

    #[test]
    fn cursor_reuses_committed_leaf() {
        let c = CSnzi::new(TreeShape::flat(8));
        let mut p = ArrivalPolicy::always_tree();
        let mut cursor = LeafCursor::pinned(3);
        let t1 = c.arrive_cached(&mut p, &mut cursor);
        let t2 = c.arrive_cached(&mut p, &mut cursor);
        // Same cursor, no leaf CAS failures: both arrivals share a leaf.
        assert_eq!(t1, t2);
        assert!(c.depart(t1));
        assert!(c.depart(t2));
    }

    #[test]
    fn pinned_cursor_matches_leaf_for_hint() {
        let shape = TreeShape::flat(4);
        let c = CSnzi::new(shape);
        for hint in 0..8 {
            let mut p = ArrivalPolicy::always_tree();
            let t = c.arrive_cached(&mut p, &mut LeafCursor::pinned(hint));
            let expected = c.arrive_tree(hint);
            assert_eq!(t, expected, "hint {hint}");
            assert!(c.depart(t));
            assert!(c.depart(expected));
        }
    }

    #[test]
    fn concurrent_stress_from_an_unallocated_tree() {
        use std::sync::atomic::{AtomicI64, Ordering as O};
        use std::sync::Arc;

        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let c = Arc::new(CSnzi::new(TreeShape::for_threads(THREADS)));
        let oracle = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut p = ArrivalPolicy::default();
                let mut cursor = LeafCursor::new();
                for i in 0..OPS {
                    let t = c.arrive_cached(&mut p, &mut cursor);
                    assert!(t.arrived(), "object is never closed in this test");
                    oracle.fetch_add(1, O::SeqCst);
                    assert!(c.query().nonzero);
                    oracle.fetch_sub(1, O::SeqCst);
                    assert!(c.depart(t));
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(oracle.load(O::SeqCst), 0);
        assert!(!c.query().nonzero);
        assert!(c.query().open);
        let w = c.root_snapshot();
        assert_eq!((w.direct, w.tree), (0, 0));
    }

    #[test]
    fn concurrent_first_tree_arrivals_race_safely() {
        use std::sync::Arc;
        let c = Arc::new(CSnzi::new(TreeShape::flat(4)));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = c.arrive_tree(tid);
                    assert!(t.arrived());
                    assert!(c.query().nonzero);
                    assert!(c.depart(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.is_tree_allocated());
        assert_eq!(c.root_snapshot().surplus(), 0);
    }
}
