//! The async wait queue: GOLL's turnstile — a FIFO of writers plus one
//! waiting readers group, under the same hand-off rule — with `Arc`'d
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
//! queued until a release dequeues them.

use crate::waker::WakerSlot;
use oll_core::node_state::WAITING;
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

/// What a releasing task hands the lock to.
pub(crate) enum Handoff {
    /// Nobody waiting: actually release.
    None,
    /// A single writer: the lock stays in the closed-empty state.
    Writer(Arc<Waiter>),
    /// Every waiting reader.
    Readers {
        members: Vec<Arc<Waiter>>,
        /// Whether writers remain queued (the reopened C-SNZI must then
        /// stay closed so new readers keep queuing behind them).
        writers_remain: bool,
    },
}

/// The waiting writers in arrival order, and the one waiting readers
/// group every new reader joins.
pub(crate) struct WaitQueue {
    writers: VecDeque<Arc<Waiter>>,
    readers: Vec<Arc<Waiter>>,
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        Self {
            writers: VecDeque::new(),
            readers: Vec::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.writers.is_empty() && self.readers.is_empty()
    }

    /// Queued acquisitions, tombstones included (they leave the count
    /// only when a release dequeues them).
    pub(crate) fn waiter_count(&self) -> usize {
        self.writers.len() + self.readers.len()
    }

    pub(crate) fn enqueue_writer(&mut self) -> Arc<Waiter> {
        let w = Waiter::new();
        self.writers.push_back(Arc::clone(&w));
        w
    }

    /// Joins the waiting readers group.
    pub(crate) fn join_readers(&mut self) -> Arc<Waiter> {
        let w = Waiter::new();
        self.readers.push(Arc::clone(&w));
        w
    }

    fn first_writer(&mut self) -> Handoff {
        self.writers
            .pop_front()
            .map_or(Handoff::None, Handoff::Writer)
    }

    fn every_reader(&mut self) -> Handoff {
        if self.readers.is_empty() {
            return Handoff::None;
        }
        Handoff::Readers {
            members: std::mem::take(&mut self.readers),
            writers_remain: !self.writers.is_empty(),
        }
    }

    /// Chooses the hand-off target for a releasing *writer*: every waiting
    /// reader, or else the first writer (§5.1).
    pub(crate) fn dequeue_for_writer_release(&mut self) -> Handoff {
        if self.readers.is_empty() {
            self.first_writer()
        } else {
            self.every_reader()
        }
    }

    /// Chooses the hand-off target for a releasing *reader*: the first
    /// writer, or else every waiting reader.
    pub(crate) fn dequeue_for_reader_release(&mut self) -> Handoff {
        if self.writers.is_empty() {
            self.every_reader()
        } else {
            self.first_writer()
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
    fn readers_join_one_group_past_queued_writers() {
        let mut q = WaitQueue::new();
        q.join_readers();
        let _w = q.enqueue_writer();
        q.join_readers();
        assert_eq!(q.waiter_count(), 3);
        // One readers group of two, and the writer.
        assert_eq!((q.readers.len(), q.writers.len()), (2, 1));
    }

    #[test]
    fn alternating_writer_release_drains_all_reader_groups() {
        let mut q = WaitQueue::new();
        q.join_readers();
        q.enqueue_writer();
        q.join_readers();
        let h = q.dequeue_for_writer_release();
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
        assert!(matches!(q.dequeue_for_writer_release(), Handoff::Writer(_)));
        assert!(q.is_empty());
    }

    #[test]
    fn alternating_reader_release_prefers_writers() {
        let mut q = WaitQueue::new();
        q.join_readers();
        q.enqueue_writer();
        assert!(matches!(q.dequeue_for_reader_release(), Handoff::Writer(_)));
        assert_eq!(members_of(q.dequeue_for_reader_release()), 1);
    }
}
