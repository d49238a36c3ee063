//! The process-global wait-for graph behind online deadlock detection.
//!
//! Every watched blocker publishes one edge — *thread → lock it waits
//! on* — and every hold on a [`Watched`](crate::Watched) lock records the
//! reverse ownership mapping — *lock → holder thread(s)*. A cycle check
//! walks `waits ∘ owners` from the calling thread; finding the caller
//! again proves a deadlock that no amount of waiting will resolve.
//!
//! Threads are named by the id the flight recorder
//! (`oll_telemetry::trace`) stamps on its ring records,
//! `oll_util::topology::dense_thread_id() + 1`. Locks are named by their
//! `Watched` wrapper's process-unique id.
//!
//! The graph mutex is taken on every acquisition and release of a
//! `Watched` lock and each time a watched blocker gives up a wait slice;
//! a lock that is not wrapped never touches it.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// One lock's ownership record: at most one writer, any number of readers.
#[derive(Debug, Default)]
struct Owners {
    writer: Option<u64>,
    readers: Vec<u64>,
}

impl Owners {
    fn is_empty(&self) -> bool {
        self.writer.is_none() && self.readers.is_empty()
    }

    fn for_each(&self, mut f: impl FnMut(u64)) {
        if let Some(w) = self.writer {
            f(w);
        }
        for &r in &self.readers {
            f(r);
        }
    }
}

#[derive(Debug, Default)]
struct WaitGraph {
    /// thread → the lock it is blocked on (one outstanding wait per
    /// thread, exactly like the paper's one-acquisition-per-handle rule).
    waits: HashMap<u64, u64>,
    /// lock → its current tracked holder(s).
    owners: HashMap<u64, Owners>,
}

fn graph() -> &'static Mutex<WaitGraph> {
    static GRAPH: OnceLock<Mutex<WaitGraph>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(WaitGraph::default()))
}

/// The calling thread's id: its `dense_thread_id() + 1`, the tid its
/// flight-recorder (`oll_telemetry::trace`) records carry, so the two
/// correlate in reports.
pub fn dense_tid() -> u64 {
    oll_util::topology::dense_thread_id() as u64 + 1
}

/// Publishes the calling thread's wait edge onto `lock_id`.
pub fn begin_wait(lock_id: u64) {
    graph().lock().unwrap().waits.insert(dense_tid(), lock_id);
}

/// Withdraws the calling thread's wait edge (wait over, for any reason).
pub fn end_wait() {
    graph().lock().unwrap().waits.remove(&dense_tid());
}

/// Records the calling thread as a holder of `lock_id` and clears its
/// wait edge in the same critical section (the wait became a hold).
pub fn acquired(lock_id: u64, write: bool) {
    let tid = dense_tid();
    let mut g = graph().lock().unwrap();
    g.waits.remove(&tid);
    let owners = g.owners.entry(lock_id).or_default();
    if write {
        owners.writer = Some(tid);
    } else {
        owners.readers.push(tid);
    }
}

/// Removes the calling thread from `lock_id`'s holder set.
pub fn released(lock_id: u64, write: bool) {
    let tid = dense_tid();
    let mut g = graph().lock().unwrap();
    if let Some(owners) = g.owners.get_mut(&lock_id) {
        if write {
            if owners.writer == Some(tid) {
                owners.writer = None;
            }
        } else if let Some(pos) = owners.readers.iter().rposition(|&t| t == tid) {
            owners.readers.remove(pos);
        }
        if owners.is_empty() {
            g.owners.remove(&lock_id);
        }
    }
}

/// Depth-first cycle check from the calling thread: does following
/// *waits-on → held-by → waits-on → …* lead back here? Run by a blocker
/// each time a watched wait slice expires; a positive answer is stable
/// (every edge on the cycle is a thread that cannot proceed), so acting
/// on it — returning `DeadlockDetected` — is sound.
pub fn deadlocked() -> bool {
    let me = dense_tid();
    let g = graph().lock().unwrap();
    let Some(&start_lock) = g.waits.get(&me) else {
        return false;
    };
    // Iterative DFS over threads reachable from the lock we wait on.
    let mut stack: Vec<u64> = Vec::new();
    let mut visited: Vec<u64> = Vec::new();
    if let Some(owners) = g.owners.get(&start_lock) {
        owners.for_each(|t| stack.push(t));
    }
    while let Some(t) = stack.pop() {
        if t == me {
            return true;
        }
        if visited.contains(&t) {
            continue;
        }
        visited.push(t);
        if let Some(&l) = g.waits.get(&t) {
            if let Some(owners) = g.owners.get(&l) {
                owners.for_each(|n| stack.push(n));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_edges_no_deadlock() {
        assert!(!deadlocked());
        begin_wait(0xfffe);
        assert!(!deadlocked(), "waiting on an unheld lock is not a cycle");
        end_wait();
    }

    #[test]
    fn self_edge_via_two_threads() {
        // Build an ABBA cycle by hand: this thread owns A and waits on B;
        // a helper owns B and waits on A.
        const A: u64 = 0xa11a;
        const B: u64 = 0xb22b;
        acquired(A, true);
        let helper = std::thread::spawn(|| {
            acquired(B, true);
            begin_wait(A);
        });
        helper.join().unwrap();
        begin_wait(B);
        assert!(deadlocked(), "ABBA cycle must be found");
        end_wait();
        released(A, true);
        // The helper thread's edges are torn down manually (it exited).
        let mut g = graph().lock().unwrap();
        g.waits.retain(|_, &mut l| l != A);
        g.owners.remove(&B);
    }

    #[test]
    fn reader_owners_block_writers_into_cycles() {
        const C: u64 = 0xc33c;
        const D: u64 = 0xd44d;
        acquired(C, false); // we hold C for reading
        let helper = std::thread::spawn(|| {
            acquired(D, true);
            begin_wait(C); // helper's writer blocked by our read hold
        });
        helper.join().unwrap();
        begin_wait(D);
        assert!(deadlocked(), "cycle through a reader hold must be found");
        end_wait();
        released(C, false);
        let mut g = graph().lock().unwrap();
        g.waits.retain(|_, &mut l| l != C);
        g.owners.remove(&D);
    }
}
