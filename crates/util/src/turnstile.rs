//! The turnstile: the one mutex-protected wait queue the blocking locks
//! queue conflicting requests on.
//!
//! §3.1 of the paper describes the Solaris kernel lock — a central lockword
//! plus a *turnstile*, a queue of sleeping threads on which a releaser
//! *hands over* ownership, so that a thread always owns the lock by the
//! time it is woken — and §3.2 defines GOLL as that lock with the lockword
//! replaced by a C-SNZI: same turnstile, same hand-off. So there is one
//! turnstile here, and `oll_core::GollLock` and
//! `oll_baselines::SolarisLikeRwLock` both hold a [`Turnstile`]; what they
//! do to their lockword around it is theirs.
//!
//! A [`Turnstile`] is a [`SpinMutex`] over the queue's two ends plus, in one
//! allocation made when the lock is built, `2 × capacity` wait cells, each
//! on a cache line of its own: cell `i < capacity` is the writer cell of the
//! handle on [`SlotRegistry`](crate::SlotRegistry) slot `i`, the other
//! `capacity` are a pool of reader-group cells. The queue is an intrusive
//! list of cell indices, so enqueue, hand-off, wake-up and timeout excision
//! relink cells and allocate nothing. With the mutex held
//! ([`Turnstile::lock`]) a waiter enqueues itself
//! ([`enqueue_writer`](LockedQueue::enqueue_writer),
//! [`join_readers`](LockedQueue::join_readers) — consecutive readers
//! coalesce into one group at the tail) and a releaser picks its successors
//! by [`FairnessPolicy`]
//! ([`dequeue_for_writer_release`](LockedQueue::dequeue_for_writer_release),
//! [`dequeue_for_reader_release`](LockedQueue::dequeue_for_reader_release));
//! it moves the lockword to their state, drops the mutex and only then wakes
//! them ([`Turnstile::grant`]). A waiter polls its cell's [`Event`]
//! ([`Turnstile::wait_until`]); one that gives up — a deadline, an unwind —
//! takes the mutex again and [`excise`](LockedQueue::excise)s its cell:
//! still queued means it is out and holds nothing, already dequeued means
//! the hand-off has counted it, so it waits for the flag and releases
//! normally. A granted reader [`acknowledge`](Turnstile::acknowledge)s, and
//! the last member to do so frees the group's cell for the next group.

use crate::backoff::Deadline;
use crate::event::{Event, WaitStrategy};
use crate::sync::{AtomicBool, AtomicU32, Ordering};
use crate::{CachePadded, SpinMutex, SpinMutexGuard};

/// Queuing policy for conflicting lock requests.
///
/// The paper's evaluation (§5.1) uses the Solaris policy: "readers hand
/// the lock over to writers, and writers hand the lock over to readers" —
/// [`Alternating`](FairnessPolicy::Alternating). The queue mutex makes the
/// policy pluggable ("allows a sophisticated queuing policy", §1); strict
/// [`Fifo`](FairnessPolicy::Fifo) is also provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessPolicy {
    /// Releases hand the lock to the group at the head of the queue.
    Fifo,
    /// Writers hand over to *all* waiting readers; readers hand over to
    /// the first waiting writer (the Solaris/paper evaluation policy).
    #[default]
    Alternating,
    /// Every release prefers waiting readers; writers advance only when
    /// no readers wait. Maximizes read throughput; writers may starve
    /// under a sustained reader stream (compare ROLL, §4.3).
    ReaderPreference,
    /// Every release prefers the first waiting writer; readers advance
    /// only when no writers wait. Keeps data maximally fresh; readers may
    /// starve under a sustained writer stream.
    WriterPreference,
}

/// "No cell": ends a list, and what a handle that waits on nothing holds.
pub const NIL: u32 = u32::MAX;

/// One place in the wait queue — a writer's, or a group of readers' — with
/// the event its waiters poll, on a cache line of its own. The turnstile
/// owns every cell, allocated once in [`Turnstile::new`]: cells
/// `0..capacity` are the writer cells (the handle on slot `i` waits on cell
/// `i`) and cells `capacity..2 * capacity` are a pool of group cells, so an
/// index also tells a cell's kind and the queue is a list of indices through
/// the cells.
///
/// The links, the mark and the priority are read and written with the
/// queue mutex held — its acquire/release orders them, hence `Relaxed` —
/// with one exception: the `next` of a cell a releaser has *dequeued*,
/// which that releaser alone walks after it drops the mutex.
struct WaitCell {
    /// Set by the granter as its last access to the cell, cleared by
    /// whoever links the cell into the queue. Nothing else on this line is
    /// written while a waiter polls it, except by a reader joining or
    /// leaving the group or a neighbour being linked or unlinked.
    event: Event,
    next: AtomicU32,
    prev: AtomicU32,
    /// Linked into the queue. What a waiter that gives up reads, under the
    /// mutex, to learn whether a releaser has already taken it out.
    queued: AtomicBool,
    /// The writer's priority, or the highest among the group's members.
    priority: AtomicU32,
    /// Group cells: members that have joined and have neither left nor
    /// acknowledged the wake-up. The first member claims a cell that reads
    /// 0, under the mutex; the last to subtract itself frees it. Joining
    /// and leaving happen under the mutex while the group is queued,
    /// acknowledging outside it once the group is granted — and a group is
    /// never both.
    members: AtomicU32,
}

impl WaitCell {
    fn new(strategy: WaitStrategy) -> Self {
        Self {
            event: Event::new(strategy),
            next: AtomicU32::new(NIL),
            prev: AtomicU32::new(NIL),
            queued: AtomicBool::new(false),
            priority: AtomicU32::new(0),
            members: AtomicU32::new(0),
        }
    }

    fn next(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }

    fn priority(&self) -> u32 {
        self.priority.load(Ordering::Relaxed)
    }
}

/// Whether cell `i` of `cells` — writer cells, then as many group cells —
/// is a group cell.
fn is_group(cells: &[CachePadded<WaitCell>], i: u32) -> bool {
    i as usize >= cells.len() / 2
}

/// What a releasing thread hands the lock to: cells it has taken out of
/// the queue and will [`grant`](Turnstile::grant) once the queue mutex is
/// dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum Handoff {
    /// Nobody waiting: actually release.
    None,
    /// A single writer: the lock is already in (or stays in) the
    /// write-acquired state; just wake it.
    Writer(u32),
    /// One or more groups of readers, `total` threads in all, chained
    /// through their cells' `next` from `first`.
    Readers {
        /// The first group's cell.
        first: u32,
        /// How many readers the releaser must count into the lockword.
        total: u64,
        /// Whether writers remain queued (the reopened lockword must then
        /// keep new readers queuing behind them).
        writers_remain: bool,
    },
}

/// The ends of the wait queue and what is in it. This is what the queue
/// mutex guards directly, so it shares the mutex's cache line: a releaser
/// that finds one waiter learns which cell to grant, and of which kind,
/// from the line it already owns.
struct WaitQueue {
    head: u32,
    tail: u32,
    num_writers: u32,
    num_groups: u32,
}

/// A lock's wait queue and the cells its handles wait on; see the
/// [module docs](self).
pub struct Turnstile {
    queue: CachePadded<SpinMutex<WaitQueue>>,
    /// `capacity` writer cells, then `capacity` group cells.
    cells: Box<[CachePadded<WaitCell>]>,
}

impl Turnstile {
    /// An empty turnstile for the handles of a lock with `capacity` slots,
    /// whose waiters wait by `strategy`.
    pub fn new(capacity: usize, strategy: WaitStrategy) -> Self {
        Self {
            queue: CachePadded::new(SpinMutex::new(WaitQueue {
                head: NIL,
                tail: NIL,
                num_writers: 0,
                num_groups: 0,
            })),
            cells: (0..2 * capacity)
                .map(|_| CachePadded::new(WaitCell::new(strategy)))
                .collect(),
        }
    }

    /// Takes the queue mutex.
    #[inline]
    pub fn lock(&self) -> LockedQueue<'_> {
        LockedQueue {
            ends: self.queue.lock(),
            cells: &self.cells,
        }
    }

    /// Whether cell `i` is a readers group's (else a writer's).
    #[inline]
    pub fn is_group(&self, i: u32) -> bool {
        is_group(&self.cells, i)
    }

    /// Waits on cell `i` until it is granted (`true`) or `deadline` passes
    /// (`false`: the caller must then [`excise`](LockedQueue::excise) it).
    #[inline]
    pub fn wait_until<D: Deadline>(&self, i: u32, deadline: D) -> bool {
        self.cells[i as usize].event.wait_until(deadline)
    }

    /// One granted member is through with group cell `i`. `Release`, so
    /// that the next claimant's `Acquire` read of 0 orders its clearing of
    /// the event after every old member's last look at it.
    #[inline]
    pub fn acknowledge(&self, i: u32) {
        self.cells[i as usize]
            .members
            .fetch_sub(1, Ordering::Release);
    }

    /// Delivers a hand-off — wakes the waiters on its cells, which already
    /// own the lock; called once the queue mutex is dropped. `granting`
    /// sees each cell's index just before its waiters are woken: the index
    /// is the one value the granting and the woken thread share, so it is
    /// what a lock stamps on both ends of a traced hand-off.
    #[inline]
    pub fn grant(&self, handoff: Handoff, mut granting: impl FnMut(u32)) {
        let mut grant = |i: u32| {
            granting(i);
            self.cells[i as usize].event.signal();
        };
        match handoff {
            Handoff::None => {}
            Handoff::Writer(w) => grant(w),
            Handoff::Readers { first, .. } => {
                let mut g = first;
                while g != NIL {
                    // Before the grant: a woken group may free its cell,
                    // and the next group to claim it relinks it, at once.
                    let next = self.cells[g as usize].next();
                    grant(g);
                    g = next;
                }
            }
        }
    }
}

/// The wait queue with its mutex held.
pub struct LockedQueue<'a> {
    ends: SpinMutexGuard<'a, WaitQueue>,
    cells: &'a [CachePadded<WaitCell>],
}

impl LockedQueue<'_> {
    #[inline]
    fn cell(&self, i: u32) -> &WaitCell {
        &self.cells[i as usize]
    }

    #[inline]
    fn is_group(&self, i: u32) -> bool {
        is_group(self.cells, i)
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.head == NIL
    }

    /// Whether a writer is queued.
    #[inline]
    pub fn has_writers(&self) -> bool {
        self.ends.num_writers > 0
    }

    /// Whether the queue's first entry is a readers group.
    #[inline]
    fn head_is_group(&self) -> bool {
        !self.is_empty() && self.is_group(self.ends.head)
    }

    /// Links cell `i` in at the tail, re-armed for its next grant.
    #[inline]
    fn push_back(&mut self, i: u32) {
        let tail = self.ends.tail;
        let cell = self.cell(i);
        cell.event.reset();
        cell.next.store(NIL, Ordering::Relaxed);
        cell.prev.store(tail, Ordering::Relaxed);
        cell.queued.store(true, Ordering::Relaxed);
        if tail == NIL {
            self.ends.head = i;
        } else {
            self.cell(tail).next.store(i, Ordering::Relaxed);
        }
        self.ends.tail = i;
        if self.is_group(i) {
            self.ends.num_groups += 1;
        } else {
            self.ends.num_writers += 1;
        }
    }

    /// Takes the queued cell `i` out, wherever it is. Its own `next` is
    /// left as it was.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let cell = self.cell(i);
        cell.queued.store(false, Ordering::Relaxed);
        // A lone entry's links are known without a look at its cell, so the
        // first thing a releaser does to its one waiter's line is write it:
        // one transfer of the line, where a read first would make it two.
        let (prev, next) = if self.ends.head == i && self.ends.tail == i {
            (NIL, NIL)
        } else {
            (cell.prev.load(Ordering::Relaxed), cell.next())
        };
        if prev == NIL {
            self.ends.head = next;
        } else {
            self.cell(prev).next.store(next, Ordering::Relaxed);
        }
        if next == NIL {
            self.ends.tail = prev;
        } else {
            self.cell(next).prev.store(prev, Ordering::Relaxed);
        }
        if self.is_group(i) {
            self.ends.num_groups -= 1;
        } else {
            self.ends.num_writers -= 1;
        }
    }

    /// Queues the writer on `slot`; returns its cell.
    #[inline]
    pub fn enqueue_writer(&mut self, slot: usize, priority: u8) -> u32 {
        let w = slot as u32;
        self.cell(w)
            .priority
            .store(u32::from(priority), Ordering::Relaxed);
        self.push_back(w);
        w
    }

    /// Joins the readers group at the tail, or starts a new one; returns
    /// the group's cell. Reader groups only coalesce at the tail.
    #[inline]
    pub fn join_readers(&mut self, slot: usize, priority: u8) -> u32 {
        let priority = u32::from(priority);
        let tail = self.ends.tail;
        if tail != NIL && self.is_group(tail) {
            let group = self.cell(tail);
            group
                .priority
                .store(group.priority().max(priority), Ordering::Relaxed);
            group.members.fetch_add(1, Ordering::Relaxed);
            return tail;
        }
        // A handle is a member of at most one group from joining it to
        // acknowledging its wake-up, and this one is in none: the other
        // `capacity - 1` cannot keep `capacity` cells busy. The search
        // starts at the cell this slot used last (the discipline of FOLL's
        // reader-node ring, §4.2.1).
        let n = self.cells.len() / 2;
        let g = (0..n)
            .map(|off| (n + (slot + off) % n) as u32)
            .find(|&g| self.cell(g).members.load(Ordering::Acquire) == 0)
            .expect("every group cell is in use by another handle");
        let group = self.cell(g);
        group.priority.store(priority, Ordering::Relaxed);
        group.members.store(1, Ordering::Relaxed);
        self.push_back(g);
        g
    }

    /// Highest priority among queued reader groups and among queued
    /// writers (0 for a class that has none queued).
    fn max_priorities(&self) -> (u32, u32) {
        let (mut readers, mut writers) = (0, 0);
        let mut i = self.ends.head;
        while i != NIL {
            let cell = self.cell(i);
            let class = if self.is_group(i) {
                &mut readers
            } else {
                &mut writers
            };
            *class = cell.priority().max(*class);
            i = cell.next();
        }
        (readers, writers)
    }

    /// Takes the queued group `g` out as the last cell of a dequeued chain;
    /// returns how many members the releaser must pre-arrive for.
    #[inline]
    fn take_group(&mut self, g: u32) -> u64 {
        let members = self.cell(g).members.load(Ordering::Relaxed);
        self.unlink(g);
        self.cell(g).next.store(NIL, Ordering::Relaxed);
        u64::from(members)
    }

    /// Removes whatever is at the head (the [`Fifo`](FairnessPolicy::Fifo)
    /// release).
    #[inline]
    fn pop_front(&mut self) -> Handoff {
        let head = self.ends.head;
        if head == NIL {
            Handoff::None
        } else if self.is_group(head) {
            Handoff::Readers {
                first: head,
                total: self.take_group(head),
                writers_remain: self.ends.num_writers > 0,
            }
        } else {
            self.unlink(head);
            Handoff::Writer(head)
        }
    }

    /// Removes *every* readers group (Alternating writer-release), chained
    /// in queue order.
    #[inline]
    fn drain_all_readers(&mut self) -> Handoff {
        let (mut first, mut last, mut total) = (NIL, NIL, 0u64);
        let mut i = self.ends.head;
        while self.ends.num_groups > 0 {
            let next = self.cell(i).next();
            if self.is_group(i) {
                total += self.take_group(i);
                if last == NIL {
                    first = i;
                } else {
                    self.cell(last).next.store(i, Ordering::Relaxed);
                }
                last = i;
            }
            i = next;
        }
        if first == NIL {
            Handoff::None
        } else {
            Handoff::Readers {
                first,
                total,
                writers_remain: self.ends.num_writers > 0,
            }
        }
    }

    /// The first writer at or after cell `i`.
    #[inline]
    fn skip_groups(&self, mut i: u32) -> u32 {
        while i != NIL && self.is_group(i) {
            i = self.cell(i).next();
        }
        i
    }

    /// Removes the highest-priority writer (earliest among ties —
    /// turnstiles order by priority, then FIFO).
    #[inline]
    fn take_first_writer(&mut self) -> Handoff {
        if self.ends.num_writers == 0 {
            return Handoff::None;
        }
        let mut best = self.skip_groups(self.ends.head);
        // A lone writer has nobody to be compared with (and, at the head,
        // is granted without a read of its cell: see `unlink`).
        if self.ends.num_writers > 1 {
            let mut i = best;
            loop {
                i = self.skip_groups(self.cell(i).next());
                if i == NIL {
                    break;
                }
                if self.cell(i).priority() > self.cell(best).priority() {
                    best = i;
                }
            }
        }
        self.unlink(best);
        Handoff::Writer(best)
    }

    /// Prefer readers: wake every waiting reader if any exist, else the
    /// first writer.
    #[inline]
    fn readers_first(&mut self) -> Handoff {
        if self.ends.num_groups > 0 {
            self.drain_all_readers()
        } else {
            self.take_first_writer()
        }
    }

    /// The §5.1 policy with priorities: "writers hand the lock over to
    /// readers (unless a higher-priority writer is waiting)".
    #[inline]
    fn readers_first_unless_higher_priority_writer(&mut self) -> Handoff {
        // Priorities decide only when both classes wait.
        if self.ends.num_groups > 0 && self.ends.num_writers > 0 {
            let (readers, writers) = self.max_priorities();
            if writers > readers {
                return self.take_first_writer();
            }
        }
        self.readers_first()
    }

    /// Prefer writers: wake the first writer if any exists, else every
    /// waiting reader.
    #[inline]
    fn writers_first(&mut self) -> Handoff {
        if self.ends.num_writers > 0 {
            self.take_first_writer()
        } else {
            self.drain_all_readers()
        }
    }

    /// Chooses the hand-off target for a releasing *writer*.
    #[inline]
    pub fn dequeue_for_writer_release(&mut self, policy: FairnessPolicy) -> Handoff {
        match policy {
            FairnessPolicy::Fifo => self.pop_front(),
            FairnessPolicy::Alternating => self.readers_first_unless_higher_priority_writer(),
            FairnessPolicy::ReaderPreference => self.readers_first(),
            FairnessPolicy::WriterPreference => self.writers_first(),
        }
    }

    /// Chooses the hand-off target for a releasing *reader*.
    #[inline]
    pub fn dequeue_for_reader_release(&mut self, policy: FairnessPolicy) -> Handoff {
        match policy {
            FairnessPolicy::Fifo => self.pop_front(),
            FairnessPolicy::Alternating | FairnessPolicy::WriterPreference => self.writers_first(),
            FairnessPolicy::ReaderPreference => self.readers_first(),
        }
    }

    /// Chooses who comes along when the write holder *downgrades*: readers
    /// only, since they can all share the read hold it keeps — every
    /// waiting one, or under [`Fifo`](FairnessPolicy::Fifo) the group at
    /// the head, if that is what is there.
    #[inline]
    pub fn dequeue_for_downgrade(&mut self, policy: FairnessPolicy) -> Handoff {
        match policy {
            FairnessPolicy::Fifo if self.head_is_group() => self.pop_front(),
            FairnessPolicy::Fifo => Handoff::None,
            FairnessPolicy::Alternating
            | FairnessPolicy::ReaderPreference
            | FairnessPolicy::WriterPreference => self.drain_all_readers(),
        }
    }

    /// A waiter gives up on cell `i`. Returns `true` if the cell was still
    /// queued: a writer's is taken out, a reader leaves its group (and the
    /// last member out takes the group's cell out, so that no releaser
    /// wakes, and counts into the lockword, a group nobody belongs to).
    /// `false` means a releaser already dequeued the cell — the lock is
    /// being (or has been) handed to this waiter, a reader is counted in
    /// the lockword — so the caller must accept ownership and release it.
    #[inline]
    pub fn excise(&mut self, i: u32) -> bool {
        let cell = self.cell(i);
        if !cell.queued.load(Ordering::Relaxed) {
            return false;
        }
        // `Release` for the same reason as in `acknowledge`: leaving may
        // free the cell.
        if !self.is_group(i) || cell.members.fetch_sub(1, Ordering::Release) == 1 {
            self.unlink(i);
        }
        true
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::FairnessPolicy::{Alternating, Fifo, ReaderPreference, WriterPreference};
    use super::*;

    fn turnstile(capacity: usize) -> Turnstile {
        Turnstile::new(capacity, WaitStrategy::SpinThenYield)
    }

    /// Grants `handoff`; returns its cells in the order they were woken.
    fn granted(t: &Turnstile, handoff: Handoff) -> Vec<u32> {
        let mut cells = Vec::new();
        t.grant(handoff, |i| cells.push(i));
        assert!(cells.iter().all(|&i| t.cells[i as usize].event.is_set()));
        cells
    }

    #[test]
    fn wait_cells_are_one_padded_line_and_the_queue_ends_share_the_mutex_line() {
        // A lock's `new_bytes` carries 2 x capacity x 128 B for these, in
        // one allocation.
        assert_eq!(std::mem::size_of::<CachePadded<WaitCell>>(), 128);
        assert!(std::mem::size_of::<WaitCell>() <= 64);
        assert!(std::mem::size_of::<SpinMutex<WaitQueue>>() <= 64);
        assert_eq!(turnstile(3).cells.len(), 6);
    }

    #[test]
    fn reader_groups_coalesce_only_at_the_tail() {
        let t = turnstile(4);
        let mut q = t.lock();
        let front = q.join_readers(0, 0);
        assert!(t.is_group(front));
        assert_eq!(q.join_readers(1, 0), front);
        let w = q.enqueue_writer(2, 0);
        assert_eq!((w, t.is_group(w)), (2, false));
        // The tail is a writer now: a new group, behind it.
        let back = q.join_readers(3, 0);
        assert_ne!(back, front);
        assert!(q.head_is_group() && q.has_writers());

        assert_eq!(
            q.pop_front(),
            Handoff::Readers {
                first: front,
                total: 2,
                writers_remain: true
            }
        );
        assert_eq!(q.pop_front(), Handoff::Writer(w));
        assert!(!q.has_writers());
        assert_eq!(
            q.pop_front(),
            Handoff::Readers {
                first: back,
                total: 1,
                writers_remain: false
            }
        );
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), Handoff::None);
    }

    /// What a release under `policy` takes from a queue of a readers group,
    /// a writer (on slot 1) and a second readers group, as the cells it
    /// wakes, in order: `[1]` is the writer, `[front]` the head group,
    /// `[front, back]` every reader.
    fn release(policy: FairnessPolicy, from_reader: bool) -> (Vec<u32>, [u32; 2]) {
        let t = turnstile(3);
        let mut q = t.lock();
        let front = q.join_readers(0, 0);
        q.enqueue_writer(1, 0);
        let back = q.join_readers(2, 0);
        let handoff = if from_reader {
            q.dequeue_for_reader_release(policy)
        } else {
            q.dequeue_for_writer_release(policy)
        };
        // One member to a group, and the writer stays behind them.
        let readers = match handoff {
            Handoff::Readers {
                total,
                writers_remain,
                ..
            } => Some((total as usize, writers_remain)),
            _ => None,
        };
        drop(q);
        let woken = granted(&t, handoff);
        assert!(readers.is_none() || readers == Some((woken.len(), true)));
        (woken, [front, back])
    }

    #[test]
    fn each_policy_and_release_kind_picks_its_documented_target() {
        for from_reader in [false, true] {
            let (woken, [front, _]) = release(Fifo, from_reader);
            assert_eq!(woken, [front], "Fifo: the head, whatever it is");
            let (woken, [front, back]) = release(ReaderPreference, from_reader);
            assert_eq!(woken, [front, back], "every reader, in queue order");
            let (woken, _) = release(WriterPreference, from_reader);
            assert_eq!(woken, [1], "the writer, over the group ahead of it");
        }
        // The Solaris policy: writers hand to all readers, readers to the
        // first writer.
        let (woken, [front, back]) = release(Alternating, false);
        assert_eq!(woken, [front, back]);
        let (woken, _) = release(Alternating, true);
        assert_eq!(woken, [1]);
    }

    #[test]
    fn only_the_class_that_waits_is_picked_when_the_preferred_one_is_absent() {
        for policy in [Fifo, Alternating, ReaderPreference, WriterPreference] {
            let t = turnstile(2);
            let mut q = t.lock();
            q.enqueue_writer(1, 0);
            assert_eq!(q.dequeue_for_writer_release(policy), Handoff::Writer(1));
            let g = q.join_readers(0, 0);
            let readers = Handoff::Readers {
                first: g,
                total: 1,
                writers_remain: false,
            };
            assert_eq!(q.dequeue_for_reader_release(policy), readers);
            assert_eq!(q.dequeue_for_reader_release(policy), Handoff::None);
            assert_eq!(q.dequeue_for_writer_release(policy), Handoff::None);
        }
    }

    #[test]
    fn alternating_writer_release_yields_to_a_strictly_higher_priority_writer() {
        let t = turnstile(4);
        let mut q = t.lock();
        let readers = q.join_readers(0, 1);
        q.join_readers(1, 3); // the group's priority is its highest member's
        q.enqueue_writer(2, 3);
        // Equal is not higher: the readers go.
        assert_eq!(
            q.dequeue_for_writer_release(Alternating),
            Handoff::Readers {
                first: readers,
                total: 2,
                writers_remain: true
            }
        );
        let readers = q.join_readers(0, 3);
        q.enqueue_writer(3, 4);
        q.enqueue_writer(1, 4);
        // Strictly higher: the first of the highest-priority writers goes,
        // past the earlier, lower one; the other policies do not look.
        assert_eq!(
            q.dequeue_for_writer_release(Alternating),
            Handoff::Writer(3)
        );
        assert_eq!(
            q.dequeue_for_reader_release(Alternating),
            Handoff::Writer(1)
        );
        assert_eq!(
            q.dequeue_for_writer_release(ReaderPreference),
            Handoff::Readers {
                first: readers,
                total: 1,
                writers_remain: true
            }
        );
        assert_eq!(
            q.dequeue_for_writer_release(Alternating),
            Handoff::Writer(2)
        );
        assert!(q.is_empty());
    }

    #[test]
    fn a_downgrade_brings_readers_along_and_never_a_writer() {
        for policy in [Fifo, Alternating, ReaderPreference, WriterPreference] {
            let t = turnstile(3);
            let mut q = t.lock();
            q.enqueue_writer(0, 0);
            assert!(policy != Fifo || q.dequeue_for_downgrade(policy) == Handoff::None);
            let behind = q.join_readers(1, 0);
            // Fifo takes a group only from the head; the rest, from anywhere.
            let writer_stays = if policy == Fifo {
                assert_eq!(q.pop_front(), Handoff::Writer(0));
                false
            } else {
                true
            };
            assert_eq!(
                q.dequeue_for_downgrade(policy),
                Handoff::Readers {
                    first: behind,
                    total: 1,
                    writers_remain: writer_stays
                }
            );
            assert_eq!(q.dequeue_for_downgrade(policy), Handoff::None);
            assert_eq!(q.has_writers(), writer_stays);
        }
    }

    #[test]
    fn excise_takes_out_what_is_queued_and_refuses_what_is_dequeued() {
        let t = turnstile(3);
        let mut q = t.lock();
        // A reader leaves its group; the last one out unlinks the cell.
        let g = q.join_readers(0, 0);
        q.join_readers(1, 0);
        assert!(q.excise(g));
        assert!(q.head_is_group());
        assert!(q.excise(g));
        assert!(q.is_empty());
        // A writer comes out of the middle.
        for slot in 0..3 {
            q.enqueue_writer(slot, 0);
        }
        assert!(q.excise(1));
        assert_eq!(q.pop_front(), Handoff::Writer(0));
        // Dequeued: the hand-off is this waiter's to accept.
        assert!(!q.excise(0));
        assert_eq!(q.pop_front(), Handoff::Writer(2));
        assert!(q.is_empty() && !q.has_writers());
        let g = q.join_readers(0, 0);
        assert!(matches!(q.drain_all_readers(), Handoff::Readers { .. }));
        assert!(!q.excise(g));
    }

    #[test]
    fn a_group_cell_is_reclaimed_only_after_its_last_acknowledge() {
        let t = turnstile(2);
        let g = t.lock().join_readers(0, 0);
        assert_eq!(t.lock().join_readers(1, 0), g);
        let handoff = t.lock().pop_front();
        assert_eq!(granted(&t, handoff), [g]);
        // One member is still looking at the cell: slot 0's next group
        // starts its search there and must pass it over.
        t.acknowledge(g);
        let other = t.lock().join_readers(0, 0);
        assert_ne!(other, g);
        assert!(t.lock().excise(other));
        // Both are through: the cell is claimed again, and re-armed.
        t.acknowledge(g);
        assert_eq!(t.lock().join_readers(0, 0), g);
        assert!(!t.cells[g as usize].event.is_set());
        assert!(!t.wait_until(g, std::time::Instant::now()));
        assert!(t.lock().excise(g));
        assert!(t.lock().is_empty());
    }
}
