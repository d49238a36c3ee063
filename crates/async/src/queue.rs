//! The async wait queue: GOLL's group-coalescing turnstile with `Arc`'d
//! waiter nodes in place of wait events.
//!
//! The blocking locks' queue (`oll_util::turnstile`, GOLL's and the
//! Solaris-like baseline's) parks *threads* on the `Event`s of lock-owned
//! wait cells and arbitrates timed cancellation under the queue mutex (a
//! cancelling waiter excises its cell, so a hand-off never targets an
//! abandoned waiter). A future's drop handler must not take the queue mutex — drops
//! run in arbitrary contexts, including inside an executor that is also
//! polling a task that holds it two frames up — so the async queue uses
//! the FOLL arbitration instead: cancellation is a **lock-free tombstone**
//! (a `WAITING → ABANDONED` CAS on the waiter's four-state node word) and
//! the *granter* cascades over abandoned nodes, undoing their pre-arrivals
//! through the C-SNZI (`GrantCascade`). Tombstoned members therefore stay
//! in their group until a release dequeues the group.

use crate::waker::WakerSlot;
use oll_core::node_state::WAITING;
use oll_core::FairnessPolicy;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// One queued acquisition: the four-state node word (`GRANTED` /
/// `WAITING` / `ABANDONED` / `RELEASED`, see `oll_core::node_state`) and
/// the task-waker slot the grant fires.
///
/// The `Arc` replaces FOLL's node-pool lifecycle: the granter and the
/// future each hold a reference, so a tombstoned node stays valid until
/// the cascade has released on its behalf.
pub(crate) struct Waiter {
    /// `node_state` word; the grant CAS (`WAITING → GRANTED`, `Release`)
    /// happens-before the slot wake, so a woken task reads `GRANTED`.
    pub(crate) word: AtomicU32,
    /// Where the pending future parks its task waker.
    pub(crate) slot: WakerSlot,
}

impl Waiter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            word: AtomicU32::new(WAITING),
            slot: WakerSlot::new(),
        })
    }

    /// Trace causality token: the node address is the one value the
    /// granter and the woken task share (joins `granted` to `enqueued`).
    pub(crate) fn token(self: &Arc<Self>) -> u64 {
        Arc::as_ptr(self) as u64
    }
}

pub(crate) enum Group {
    Readers { members: Vec<Arc<Waiter>> },
    Writer { waiter: Arc<Waiter> },
}

/// What a releasing task hands the lock to.
pub(crate) enum Handoff {
    /// Nobody waiting: actually release.
    None,
    /// A single writer: the lock stays in the closed-empty state.
    Writer(Arc<Waiter>),
    /// One or more groups of readers.
    Readers {
        members: Vec<Arc<Waiter>>,
        /// Whether writers remain queued (the reopened C-SNZI must then
        /// stay closed so new readers keep queuing behind them).
        writers_remain: bool,
    },
}

pub(crate) struct WaitQueue {
    groups: VecDeque<Group>,
    num_writers: usize,
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        Self {
            groups: VecDeque::new(),
            num_writers: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Queued acquisitions, tombstones included (they leave the count
    /// only when a release dequeues their group).
    pub(crate) fn waiter_count(&self) -> usize {
        self.groups
            .iter()
            .map(|g| match g {
                Group::Readers { members } => members.len(),
                Group::Writer { .. } => 1,
            })
            .sum()
    }

    pub(crate) fn enqueue_writer(&mut self) -> Arc<Waiter> {
        let w = Waiter::new();
        self.groups.push_back(Group::Writer {
            waiter: Arc::clone(&w),
        });
        self.num_writers += 1;
        w
    }

    /// Joins the readers group at the tail, or starts a new one. Reader
    /// groups only coalesce at the tail, so two reader groups are never
    /// adjacent in the queue.
    pub(crate) fn join_readers(&mut self) -> Arc<Waiter> {
        let w = Waiter::new();
        if let Some(Group::Readers { members }) = self.groups.back_mut() {
            members.push(Arc::clone(&w));
            return w;
        }
        self.groups.push_back(Group::Readers {
            members: vec![Arc::clone(&w)],
        });
        w
    }

    fn pop_front(&mut self) -> Handoff {
        match self.groups.pop_front() {
            None => Handoff::None,
            Some(Group::Writer { waiter }) => {
                self.num_writers -= 1;
                Handoff::Writer(waiter)
            }
            Some(Group::Readers { members }) => Handoff::Readers {
                members,
                writers_remain: self.num_writers > 0,
            },
        }
    }

    /// Removes *every* readers group (Alternating writer-release).
    fn drain_all_readers(&mut self) -> Handoff {
        let mut members = Vec::new();
        self.groups.retain_mut(|g| match g {
            Group::Readers { members: m } => {
                members.append(m);
                false
            }
            Group::Writer { .. } => true,
        });
        if members.is_empty() {
            Handoff::None
        } else {
            Handoff::Readers {
                members,
                writers_remain: self.num_writers > 0,
            }
        }
    }

    /// Removes the first queued writer (FIFO among writers — the async
    /// queue carries no priorities).
    fn take_first_writer(&mut self) -> Handoff {
        let Some(idx) = self
            .groups
            .iter()
            .position(|g| matches!(g, Group::Writer { .. }))
        else {
            return Handoff::None;
        };
        match self.groups.remove(idx) {
            Some(Group::Writer { waiter }) => {
                self.num_writers -= 1;
                Handoff::Writer(waiter)
            }
            _ => unreachable!("index located a writer"),
        }
    }

    fn has_waiting_readers(&self) -> bool {
        self.num_writers < self.groups.len()
    }

    fn readers_first(&mut self) -> Handoff {
        if self.has_waiting_readers() {
            self.drain_all_readers()
        } else {
            self.take_first_writer()
        }
    }

    fn writers_first(&mut self) -> Handoff {
        if self.num_writers > 0 {
            self.take_first_writer()
        } else {
            self.drain_all_readers()
        }
    }

    /// Chooses the hand-off target for a releasing *writer*.
    pub(crate) fn dequeue_for_writer_release(&mut self, policy: FairnessPolicy) -> Handoff {
        match policy {
            FairnessPolicy::Fifo => self.pop_front(),
            // No priorities in the async queue, so "readers first unless a
            // higher-priority writer waits" reduces to readers-first.
            FairnessPolicy::Alternating | FairnessPolicy::ReaderPreference => self.readers_first(),
            FairnessPolicy::WriterPreference => self.writers_first(),
        }
    }

    /// Chooses the hand-off target for a releasing *reader*.
    pub(crate) fn dequeue_for_reader_release(&mut self, policy: FairnessPolicy) -> Handoff {
        match policy {
            FairnessPolicy::Fifo => self.pop_front(),
            FairnessPolicy::Alternating | FairnessPolicy::WriterPreference => self.writers_first(),
            FairnessPolicy::ReaderPreference => self.readers_first(),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn members_of(h: Handoff) -> usize {
        match h {
            Handoff::Readers { members, .. } => members.len(),
            Handoff::Writer(_) => panic!("expected readers"),
            Handoff::None => 0,
        }
    }

    #[test]
    fn readers_coalesce_only_at_the_tail() {
        let mut q = WaitQueue::new();
        q.join_readers();
        q.join_readers();
        let _w = q.enqueue_writer();
        q.join_readers();
        assert_eq!(q.waiter_count(), 4);
        // Front group has the two pre-writer readers.
        assert_eq!(members_of(q.pop_front()), 2);
        assert!(matches!(q.pop_front(), Handoff::Writer(_)));
        assert_eq!(members_of(q.pop_front()), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn alternating_writer_release_drains_all_reader_groups() {
        let mut q = WaitQueue::new();
        q.join_readers();
        q.enqueue_writer();
        q.join_readers();
        let h = q.dequeue_for_writer_release(FairnessPolicy::Alternating);
        match h {
            Handoff::Readers {
                members,
                writers_remain,
            } => {
                assert_eq!(members.len(), 2);
                assert!(writers_remain);
            }
            _ => panic!("expected readers"),
        }
        assert!(matches!(
            q.dequeue_for_writer_release(FairnessPolicy::Alternating),
            Handoff::Writer(_)
        ));
        assert!(q.is_empty());
    }

    #[test]
    fn alternating_reader_release_prefers_writers() {
        let mut q = WaitQueue::new();
        q.join_readers();
        q.enqueue_writer();
        assert!(matches!(
            q.dequeue_for_reader_release(FairnessPolicy::Alternating),
            Handoff::Writer(_)
        ));
        assert_eq!(
            members_of(q.dequeue_for_reader_release(FairnessPolicy::Alternating)),
            1
        );
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = WaitQueue::new();
        q.enqueue_writer();
        q.join_readers();
        assert!(matches!(
            q.dequeue_for_writer_release(FairnessPolicy::Fifo),
            Handoff::Writer(_)
        ));
        assert_eq!(
            members_of(q.dequeue_for_writer_release(FairnessPolicy::Fifo)),
            1
        );
        assert!(matches!(
            q.dequeue_for_writer_release(FairnessPolicy::Fifo),
            Handoff::None
        ));
    }
}
