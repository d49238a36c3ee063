//! Last-departer exactness with `fetch_sub` departs and `fetch_add`
//! arrivals: whatever mix of direct and tree tickets is outstanding when a
//! closer arrives, however the departs interleave with each other and with
//! the close, and however many *failed* arrivals land on the closed word
//! and take themselves back meanwhile, exactly one party learns it owns
//! the object — one `depart` returns `false`, or one failed arrival comes
//! back `FAILED_MUST_HAND_OFF`, or (when every reader left first) the
//! `close` returns `true` — and the root ends owned with zero surplus. In
//! debug builds `RootWord::after_decrement` asserts on the word each
//! `fetch_sub` returned, so a counter underflow panics the decrementing
//! thread.
//!
//! Interleavings are forced with barriers, never clocks.

#![cfg(not(loom))]

use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, LeafCursor, RootWord, TreeShape};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const READERS: usize = 4;
/// Threads that never hold: they arrive at the word all round long,
/// mostly finding it closed.
const STALE_ARRIVERS: usize = 2;
const ROUNDS: usize = 500;

#[test]
fn exactly_one_owner_per_close_under_concurrent_departs() {
    // Two leaves for four readers: tree tickets both share a leaf (hits,
    // departs that stop at the leaf) and drain one (departs that carry on
    // to the root).
    let c = Arc::new(CSnzi::new(TreeShape::flat(2)));
    let everyone = Arc::new(Barrier::new(READERS + STALE_ARRIVERS + 1));
    let readers_and_closer = Arc::new(Barrier::new(READERS + 1));
    let hammering = Arc::new(AtomicBool::new(false));
    let handed_off = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|tid| {
            let (c, handed_off) = (c.clone(), handed_off.clone());
            let (everyone, readers_and_closer) = (everyone.clone(), readers_and_closer.clone());
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
                    everyone.wait(); // all hold; the stale arrivers start
                    if round % 2 == 0 {
                        readers_and_closer.wait(); // even rounds: closed before any depart
                    }
                    if !c.depart(ticket) {
                        handed_off.fetch_add(1, Ordering::Relaxed);
                    }
                    readers_and_closer.wait(); // all departed, close returned
                    everyone.wait(); // the stale arrivers have stopped
                    everyone.wait(); // checked and reopened
                }
            })
        })
        .collect();

    let stale_arrivers: Vec<_> = (0..STALE_ARRIVERS)
        .map(|_| {
            let (c, handed_off) = (c.clone(), handed_off.clone());
            let (everyone, hammering) = (everyone.clone(), hammering.clone());
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    everyone.wait();
                    while hammering.load(Ordering::Acquire) {
                        let ticket = c.arrive_direct();
                        let owns = match ticket.failure() {
                            // Got in before the close: a reader like any
                            // other, for a moment.
                            None => !c.depart(ticket),
                            Some(CancelOutcome::Undone) => false,
                            // Its undo drained the word (on this box, in a
                            // fifth to a half of the rounds).
                            Some(CancelOutcome::MustHandOff) => true,
                        };
                        if owns {
                            handed_off.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    everyone.wait();
                    everyone.wait();
                }
            })
        })
        .collect();

    for round in 0..ROUNDS {
        hammering.store(true, Ordering::Release);
        everyone.wait();
        // Odd rounds: the close races the departs.
        let acquired = c.close();
        if round % 2 == 0 {
            assert!(!acquired, "round {round}: {READERS} readers hold");
            readers_and_closer.wait();
        }
        readers_and_closer.wait();
        hammering.store(false, Ordering::Release);
        everyone.wait();
        let owners = handed_off.swap(0, Ordering::Relaxed) + usize::from(acquired);
        assert_eq!(owners, 1, "round {round}: owners of the closed object");
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY, "round {round}");
        c.open();
        everyone.wait();
    }
    for t in readers.into_iter().chain(stale_arrivers) {
        t.join().expect("a thread panicked: see its assertion");
    }
}
