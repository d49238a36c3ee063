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
//! The hand-off rule is the Solaris one the paper evaluates (§5.1):
//! "readers hand the lock over to writers, and writers hand the lock over
//! to readers". A releasing writer takes every waiting reader, or else the
//! first writer; a releasing reader takes the first writer, or else every
//! waiting reader; a downgrading writer takes every waiting reader. Under
//! that rule where a reader waits relative to the writers never decides a
//! hand-off, so the queue is a FIFO of writers plus at most one waiting
//! readers group, which every new reader joins.
//!
//! A [`Turnstile`] is a [`SpinMutex`] over that queue's state plus, in one
//! allocation made when the lock is built, `2 × capacity` wait cells, each
//! on a cache line of its own: cell `i < capacity` is the writer cell of the
//! handle on [`SlotRegistry`](crate::SlotRegistry) slot `i`, the other
//! `capacity` are a pool of reader-group cells. The writers are an
//! intrusive list of cell indices, so enqueue, hand-off, wake-up and
//! timeout excision relink cells and allocate nothing. With the mutex held
//! ([`Turnstile::lock`]) a waiter enqueues itself
//! ([`enqueue_writer`](LockedQueue::enqueue_writer),
//! [`join_readers`](LockedQueue::join_readers)) and a releaser picks its
//! successors
//! ([`dequeue_for_writer_release`](LockedQueue::dequeue_for_writer_release),
//! [`dequeue_for_reader_release`](LockedQueue::dequeue_for_reader_release),
//! [`dequeue_for_downgrade`](LockedQueue::dequeue_for_downgrade)); it moves
//! the lockword to their state, drops the mutex and only then wakes them
//! ([`Turnstile::grant`]). A waiter polls its cell's [`Event`]
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

/// "No cell": ends a list, and what a handle that waits on nothing holds.
pub const NIL: u32 = u32::MAX;

/// One place in the wait queue — a writer's, or a group of readers' — with
/// the event its waiters poll, on a cache line of its own. The turnstile
/// owns every cell, allocated once in [`Turnstile::new`]: cells
/// `0..capacity` are the writer cells (the handle on slot `i` waits on cell
/// `i`) and cells `capacity..2 * capacity` are a pool of group cells, so an
/// index also tells a cell's kind.
///
/// The links and the mark are read and written with the queue mutex held —
/// its acquire/release orders them, hence `Relaxed`.
struct WaitCell {
    /// Set by the granter as its last access to the cell, cleared by
    /// whoever queues the cell. Nothing else on this line is written while
    /// a waiter polls it, except by a reader joining or leaving the group
    /// or a neighbouring writer being linked or unlinked.
    event: Event,
    /// Writer cells: the neighbours in the writer list.
    next: AtomicU32,
    prev: AtomicU32,
    /// Queued. What a waiter that gives up reads, under the mutex, to learn
    /// whether a releaser has already taken it out.
    queued: AtomicBool,
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
            members: AtomicU32::new(0),
        }
    }
}

/// Whether cell `i` of `cells` — writer cells, then as many group cells —
/// is a group cell.
fn is_group(cells: &[CachePadded<WaitCell>], i: u32) -> bool {
    i as usize >= cells.len() / 2
}

/// What a releasing thread hands the lock to: a cell it has taken out of
/// the queue and will [`grant`](Turnstile::grant) once the queue mutex is
/// dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum Handoff {
    /// Nobody waiting: actually release.
    None,
    /// A single writer: the lock is already in (or stays in) the
    /// write-acquired state; just wake it.
    Writer(u32),
    /// The waiting readers group, `total` threads.
    Readers {
        /// The group's cell.
        group: u32,
        /// How many readers the releaser must count into the lockword.
        total: u64,
        /// Whether writers remain queued (the reopened lockword must then
        /// keep new readers queuing behind them).
        writers_remain: bool,
    },
}

/// The writer list's ends and the waiting readers group. This is what the
/// queue mutex guards directly, so it shares the mutex's cache line: a
/// releaser that finds one waiter learns which cell to grant, and of which
/// kind, from the line it already owns.
struct WaitQueue {
    head: u32,
    tail: u32,
    num_writers: u32,
    /// The waiting readers group's cell, or [`NIL`].
    readers: u32,
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
                readers: NIL,
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

    /// Delivers a hand-off — wakes the waiters on its cell, which already
    /// own the lock; called once the queue mutex is dropped. `granting`
    /// sees the cell's index just before its waiters are woken: the index
    /// is the one value the granting and the woken thread share, so it is
    /// what a lock stamps on both ends of a traced hand-off.
    #[inline]
    pub fn grant(&self, handoff: Handoff, granting: impl FnOnce(u32)) {
        let cell = match handoff {
            Handoff::None => return,
            Handoff::Writer(w) => w,
            Handoff::Readers { group, .. } => group,
        };
        granting(cell);
        self.cells[cell as usize].event.signal();
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
        self.ends.head == NIL && self.ends.readers == NIL
    }

    /// Whether a writer is queued.
    #[inline]
    pub fn has_writers(&self) -> bool {
        self.ends.num_writers > 0
    }

    /// Queues the writer on `slot` at the tail of the writer list; returns
    /// its cell.
    #[inline]
    pub fn enqueue_writer(&mut self, slot: usize) -> u32 {
        let w = slot as u32;
        let tail = self.ends.tail;
        let cell = self.cell(w);
        cell.event.reset();
        cell.next.store(NIL, Ordering::Relaxed);
        cell.prev.store(tail, Ordering::Relaxed);
        cell.queued.store(true, Ordering::Relaxed);
        if tail == NIL {
            self.ends.head = w;
        } else {
            self.cell(tail).next.store(w, Ordering::Relaxed);
        }
        self.ends.tail = w;
        self.ends.num_writers += 1;
        w
    }

    /// Joins the waiting readers group, or starts it; returns the group's
    /// cell.
    #[inline]
    pub fn join_readers(&mut self, slot: usize) -> u32 {
        let readers = self.ends.readers;
        if readers != NIL {
            self.cell(readers).members.fetch_add(1, Ordering::Relaxed);
            return readers;
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
        group.event.reset();
        group.members.store(1, Ordering::Relaxed);
        group.queued.store(true, Ordering::Relaxed);
        self.ends.readers = g;
        g
    }

    /// Takes the queued writer `w` out, wherever it is in the list. Its own
    /// links are left as they were.
    #[inline]
    fn unlink_writer(&mut self, w: u32) {
        let cell = self.cell(w);
        cell.queued.store(false, Ordering::Relaxed);
        // A lone writer's links are known without a look at its cell, so the
        // first thing a releaser does to its one waiter's line is write it:
        // one transfer of the line, where a read first would make it two.
        let (prev, next) = if self.ends.head == w && self.ends.tail == w {
            (NIL, NIL)
        } else {
            (
                cell.prev.load(Ordering::Relaxed),
                cell.next.load(Ordering::Relaxed),
            )
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
        self.ends.num_writers -= 1;
    }

    /// Removes the first writer.
    #[inline]
    fn take_first_writer(&mut self) -> Handoff {
        let head = self.ends.head;
        if head == NIL {
            return Handoff::None;
        }
        self.unlink_writer(head);
        Handoff::Writer(head)
    }

    /// Removes the waiting readers group.
    #[inline]
    fn take_readers(&mut self) -> Handoff {
        let group = std::mem::replace(&mut self.ends.readers, NIL);
        if group == NIL {
            return Handoff::None;
        }
        let cell = self.cell(group);
        cell.queued.store(false, Ordering::Relaxed);
        Handoff::Readers {
            group,
            total: u64::from(cell.members.load(Ordering::Relaxed)),
            writers_remain: self.ends.num_writers > 0,
        }
    }

    /// Chooses the hand-off target for a releasing *writer*: every waiting
    /// reader, or else the first writer.
    #[inline]
    pub fn dequeue_for_writer_release(&mut self) -> Handoff {
        if self.ends.readers != NIL {
            self.take_readers()
        } else {
            self.take_first_writer()
        }
    }

    /// Chooses the hand-off target for a releasing *reader*: the first
    /// writer, or else every waiting reader.
    #[inline]
    pub fn dequeue_for_reader_release(&mut self) -> Handoff {
        if self.ends.num_writers > 0 {
            self.take_first_writer()
        } else {
            self.take_readers()
        }
    }

    /// Chooses who comes along when the write holder *downgrades*: every
    /// waiting reader, since they can all share the read hold it keeps.
    #[inline]
    pub fn dequeue_for_downgrade(&mut self) -> Handoff {
        self.take_readers()
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
        // `Release` for the same reason as in `acknowledge`: a reader's
        // leaving may free the cell.
        if !self.is_group(i) {
            self.unlink_writer(i);
        } else if cell.members.fetch_sub(1, Ordering::Release) == 1 {
            cell.queued.store(false, Ordering::Relaxed);
            self.ends.readers = NIL;
        }
        true
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::XorShift64;
    use std::collections::{BTreeSet, VecDeque};

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
    fn readers_join_one_group_past_queued_writers() {
        let t = turnstile(3);
        let mut q = t.lock();
        let group = q.join_readers(0);
        assert!(t.is_group(group));
        let w = q.enqueue_writer(1);
        assert_eq!((w, t.is_group(w)), (1, false));
        // A writer behind the group does not start a second one.
        assert_eq!(q.join_readers(2), group);
        let handoff = q.dequeue_for_writer_release();
        assert_eq!(
            handoff,
            Handoff::Readers {
                group,
                total: 2,
                writers_remain: true
            }
        );
        drop(q);
        assert_eq!(granted(&t, handoff), [group]);
        assert_eq!(t.lock().dequeue_for_reader_release(), Handoff::Writer(w));
        assert!(t.lock().is_empty());
    }

    /// What a release takes from a queue of a reader (slot 0), a writer
    /// (slot 1) and a second reader (slot 2), as the cells it wakes: `[1]`
    /// is the writer, `[group]` both readers.
    fn release(from_reader: bool) -> (Vec<u32>, u32) {
        let t = turnstile(3);
        let mut q = t.lock();
        let group = q.join_readers(0);
        q.enqueue_writer(1);
        q.join_readers(2);
        let handoff = if from_reader {
            q.dequeue_for_reader_release()
        } else {
            q.dequeue_for_writer_release()
        };
        // Both readers, and the writer stays behind them.
        if let Handoff::Readers {
            total,
            writers_remain,
            ..
        } = handoff
        {
            assert_eq!((total, writers_remain), (2, true));
        }
        drop(q);
        (granted(&t, handoff), group)
    }

    #[test]
    fn each_policy_and_release_kind_picks_its_documented_target() {
        // The Solaris policy: writers hand to all readers, readers to the
        // first writer.
        let (woken, group) = release(false);
        assert_eq!(woken, [group]);
        let (woken, _) = release(true);
        assert_eq!(woken, [1]);
    }

    #[test]
    fn only_the_class_that_waits_is_picked_when_the_preferred_one_is_absent() {
        let t = turnstile(2);
        let mut q = t.lock();
        q.enqueue_writer(1);
        assert_eq!(q.dequeue_for_writer_release(), Handoff::Writer(1));
        let group = q.join_readers(0);
        let readers = Handoff::Readers {
            group,
            total: 1,
            writers_remain: false,
        };
        assert_eq!(q.dequeue_for_reader_release(), readers);
        assert_eq!(q.dequeue_for_reader_release(), Handoff::None);
        assert_eq!(q.dequeue_for_writer_release(), Handoff::None);
    }

    #[test]
    fn a_downgrade_brings_readers_along_and_never_a_writer() {
        let t = turnstile(3);
        let mut q = t.lock();
        q.enqueue_writer(0);
        assert_eq!(q.dequeue_for_downgrade(), Handoff::None);
        let behind = q.join_readers(1);
        assert_eq!(
            q.dequeue_for_downgrade(),
            Handoff::Readers {
                group: behind,
                total: 1,
                writers_remain: true
            }
        );
        assert_eq!(q.dequeue_for_downgrade(), Handoff::None);
        assert!(q.has_writers());
    }

    #[test]
    fn excise_takes_out_what_is_queued_and_refuses_what_is_dequeued() {
        let t = turnstile(3);
        let mut q = t.lock();
        // A reader leaves its group; the last one out takes the cell out.
        let g = q.join_readers(0);
        q.join_readers(1);
        assert!(q.excise(g));
        assert!(!q.is_empty());
        assert!(q.excise(g));
        assert!(q.is_empty());
        // A writer comes out of the middle.
        for slot in 0..3 {
            q.enqueue_writer(slot);
        }
        assert!(q.excise(1));
        assert_eq!(q.dequeue_for_reader_release(), Handoff::Writer(0));
        // Dequeued: the hand-off is this waiter's to accept.
        assert!(!q.excise(0));
        assert_eq!(q.dequeue_for_reader_release(), Handoff::Writer(2));
        assert!(q.is_empty() && !q.has_writers());
        let g = q.join_readers(0);
        assert!(matches!(q.dequeue_for_downgrade(), Handoff::Readers { .. }));
        assert!(!q.excise(g));
    }

    #[test]
    fn a_group_cell_is_reclaimed_only_after_its_last_acknowledge() {
        let t = turnstile(2);
        let g = t.lock().join_readers(0);
        assert_eq!(t.lock().join_readers(1), g);
        let handoff = t.lock().dequeue_for_writer_release();
        assert_eq!(granted(&t, handoff), [g]);
        // One member is still looking at the cell: slot 0's next group
        // starts its search there and must pass it over.
        t.acknowledge(g);
        let other = t.lock().join_readers(0);
        assert_ne!(other, g);
        assert!(t.lock().excise(other));
        // Both are through: the cell is claimed again, and re-armed.
        t.acknowledge(g);
        assert_eq!(t.lock().join_readers(0), g);
        assert!(!t.cells[g as usize].event.is_set());
        assert!(!t.wait_until(g, std::time::Instant::now()));
        assert!(t.lock().excise(g));
        assert!(t.lock().is_empty());
    }

    /// A hand-off as the slots it wakes.
    #[derive(Debug, PartialEq)]
    enum Woken {
        None,
        Writer(usize),
        /// The readers, and whether writers remain queued.
        Readers(BTreeSet<usize>, bool),
    }

    /// The reference: the writers in arrival order and the set of waiting
    /// readers, under the §5.1 rule.
    #[derive(Default)]
    struct Model {
        writers: VecDeque<usize>,
        readers: BTreeSet<usize>,
    }

    impl Model {
        fn first_writer(&mut self) -> Woken {
            self.writers.pop_front().map_or(Woken::None, Woken::Writer)
        }

        fn every_reader(&mut self) -> Woken {
            if self.readers.is_empty() {
                return Woken::None;
            }
            let readers = std::mem::take(&mut self.readers);
            Woken::Readers(readers, !self.writers.is_empty())
        }

        fn writer_release(&mut self) -> Woken {
            if self.readers.is_empty() {
                self.first_writer()
            } else {
                self.every_reader()
            }
        }

        fn reader_release(&mut self) -> Woken {
            if self.writers.is_empty() {
                self.every_reader()
            } else {
                self.first_writer()
            }
        }

        fn leave(&mut self, slot: usize) {
            self.writers.retain(|&w| w != slot);
            self.readers.remove(&slot);
        }
    }

    #[test]
    fn hand_offs_match_a_writer_fifo_and_a_reader_set() {
        const SLOTS: usize = 6;
        let mut rng = XorShift64::new(0x7475_726e_7374_696c);
        for _ in 0..10_000 {
            let t = turnstile(SLOTS);
            let mut model = Model::default();
            // The cell each slot waits on, or NIL.
            let mut waiting = [NIL; SLOTS];
            for _ in 0..1 + rng.next_below(40) {
                let slot = rng.next_below(SLOTS as u64) as usize;
                let mut q = t.lock();
                let (handoff, expected) = match rng.next_below(6) {
                    0 if waiting[slot] == NIL => {
                        model.writers.push_back(slot);
                        waiting[slot] = q.enqueue_writer(slot);
                        continue;
                    }
                    1 if waiting[slot] == NIL => {
                        model.readers.insert(slot);
                        waiting[slot] = q.join_readers(slot);
                        continue;
                    }
                    2 if waiting[slot] != NIL => {
                        assert!(q.excise(waiting[slot]));
                        model.leave(slot);
                        waiting[slot] = NIL;
                        continue;
                    }
                    3 => (q.dequeue_for_writer_release(), model.writer_release()),
                    4 => (q.dequeue_for_reader_release(), model.reader_release()),
                    5 => (q.dequeue_for_downgrade(), model.every_reader()),
                    _ => continue,
                };
                assert_eq!(q.has_writers(), !model.writers.is_empty());
                assert_eq!(
                    q.is_empty(),
                    model.writers.is_empty() && model.readers.is_empty()
                );
                drop(q);
                let readers = match handoff {
                    Handoff::Readers {
                        total,
                        writers_remain,
                        ..
                    } => Some((total, writers_remain)),
                    _ => None,
                };
                let cells = granted(&t, handoff);
                let slots: BTreeSet<usize> = (0..SLOTS)
                    .filter(|&s| cells.contains(&waiting[s]))
                    .collect();
                let woken = match readers {
                    _ if cells.is_empty() => Woken::None,
                    None => Woken::Writer(cells[0] as usize),
                    Some((total, writers_remain)) => {
                        assert_eq!(total, slots.len() as u64);
                        Woken::Readers(slots.clone(), writers_remain)
                    }
                };
                assert_eq!(woken, expected);
                for s in slots {
                    // A waiter that gave up too late still owns the grant.
                    if rng.percent(50) {
                        assert!(!t.lock().excise(waiting[s]));
                    }
                    if t.is_group(waiting[s]) {
                        t.acknowledge(waiting[s]);
                    }
                    waiting[s] = NIL;
                }
            }
        }
    }
}
