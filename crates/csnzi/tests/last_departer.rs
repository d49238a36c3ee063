//! Last-departer exactness with `fetch_sub` departs: whatever mix of
//! direct and tree tickets is outstanding when a closer arrives, and
//! however the departs interleave with each other and with the close,
//! exactly one party learns it owns the object — one `depart` returns
//! `false`, or (when every reader left first) the `close` returns `true`
//! — and the root ends CLOSED with zero surplus. In debug builds the
//! `with_*_departure` assertions run on the word each `fetch_sub`
//! returned, so a counter underflow panics the departing thread.
//!
//! Interleavings are forced with barriers, never clocks.

#![cfg(not(loom))]

use oll_csnzi::{ArrivalPolicy, CSnzi, LeafCursor, RootWord, TreeShape};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const READERS: usize = 4;
const ROUNDS: usize = 1_500;

#[test]
fn exactly_one_owner_per_close_under_concurrent_departs() {
    // Two leaves for four readers: tree tickets both share a leaf (hits,
    // departs that stop at the leaf) and drain one (departs that carry on
    // to the root).
    let c = Arc::new(CSnzi::new(TreeShape::flat(2)));
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let handed_off = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|tid| {
            let (c, barrier, handed_off) = (c.clone(), barrier.clone(), handed_off.clone());
            std::thread::spawn(move || {
                let mut direct = ArrivalPolicy::always_direct();
                let mut tree = ArrivalPolicy::always_tree();
                let mut cursor = LeafCursor::pinned(tid);
                for round in 0..ROUNDS {
                    // The mix rotates, so every reader departs both ways
                    // and rounds see 1..=3 tree tickets.
                    let policy = if (tid + round) % READERS < 1 + round % 3 {
                        &mut tree
                    } else {
                        &mut direct
                    };
                    let ticket = c.arrive_cached(policy, &mut cursor);
                    assert!(ticket.arrived(), "round {round}: object is open");
                    barrier.wait(); // all hold
                    if round % 2 == 0 {
                        barrier.wait(); // even rounds: closed before any depart
                    }
                    if !c.depart(ticket) {
                        handed_off.fetch_add(1, Ordering::Relaxed);
                    }
                    barrier.wait(); // all departed, close returned
                    barrier.wait(); // checked and reopened
                }
            })
        })
        .collect();

    for round in 0..ROUNDS {
        barrier.wait();
        // Odd rounds: the close races the departs.
        let acquired = c.close();
        if round % 2 == 0 {
            assert!(!acquired, "round {round}: {READERS} readers hold");
            barrier.wait();
        }
        barrier.wait();
        let owners = handed_off.swap(0, Ordering::Relaxed) + usize::from(acquired);
        assert_eq!(owners, 1, "round {round}: owners of the closed object");
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY, "round {round}");
        c.open();
        barrier.wait();
    }
    for r in readers {
        r.join().expect("a reader panicked: see its assertion");
    }
}
