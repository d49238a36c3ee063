//! Loom model checks for the C-SNZI.
//!
//! Run with:
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p oll-csnzi --test loom_csnzi --release
//! ```
//!
//! Each model is deliberately tiny (2–3 threads, flat trees) so loom can
//! exhaust the interleaving space; together they cover the linearizability
//! corners §2.2 calls out: the arrive/close race, the last-departure
//! hand-off, and parent-arrival cleanup (`arrivedAtParent && x != 0`) —
//! and the one the unconditional arrival adds: an arrival that lands on a
//! closed word takes itself back, and that undo may be the decrement that
//! drains the object (`Ticket::FAILED_MUST_HAND_OFF`).
//!
//! These run only where loom resolves (network); the root-word protocol
//! they exercise is checked offline, in tier-1, by
//! `root_protocol_model.rs`.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use oll_csnzi::{ArrivalPolicy, CSnzi, CancelOutcome, RootWord, Ticket, TreeShape};

/// One direct arrival and, if it arrived, its departure. Returns whether
/// this thread came out owning the closed object: its departure was the
/// last one, or its failed arrival's undo was.
fn arrive_and_leave(c: &CSnzi) -> bool {
    let t = c.arrive_direct();
    match t.failure() {
        None => !c.depart(t),
        Some(CancelOutcome::Undone) => false,
        Some(CancelOutcome::MustHandOff) => true,
    }
}

/// Two tree arrivals + departures at the same leaf: the surplus must be
/// visible at the root whenever any thread is "inside", and must be exactly
/// zero at the end (checks the duplicate-parent-arrival cleanup path).
#[test]
fn loom_two_tree_arrivals_same_leaf() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(1)));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                let t = c.arrive_tree(0);
                assert!(t.arrived());
                assert!(c.query().nonzero);
                assert!(c.depart(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let w = c.root_snapshot();
        assert_eq!(w.surplus(), 0);
        assert!(w.open);
    });
}

/// Tree arrival at one leaf racing a direct arrival: both must succeed and
/// both counters drain to zero.
#[test]
fn loom_tree_vs_direct_arrival() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(2)));
        let c2 = Arc::clone(&c);
        let t1 = thread::spawn(move || {
            let t = c2.arrive_tree(0);
            assert!(t.arrived());
            assert!(c2.depart(t));
        });
        let t = c.arrive_direct();
        assert!(t.arrived());
        assert!(c.depart(t));
        t1.join().unwrap();
        assert_eq!(c.root_snapshot().surplus(), 0);
    });
}

/// The reader/writer handshake: a closer racing two arrivers. Whichever
/// way each arrival lands — on the open word (a reader, which departs), or
/// on the closed one (a failed arrival, which takes itself back, possibly
/// after the real reader has left) — exactly one party learns it owns the
/// object (this is the FOLL WriterLock/ReaderUnlock protocol in
/// miniature), and nothing is left on the word.
#[test]
fn loom_close_vs_arrive_handoff() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(1)));
        let arrivers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || arrive_and_leave(&c))
            })
            .collect();

        // Writer: close; `true` means closed empty (writer-acquired without
        // waiting), `false` means somebody was on the word and the last
        // decrement to leave it hands off.
        let closed_empty = c.close();

        let handed_off = arrivers
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&owns| owns)
            .count();
        assert_eq!(
            handed_off + usize::from(closed_empty),
            1,
            "exactly one owner of the closed object"
        );
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
    });
}

/// Policy-driven arrivals from two threads: whatever path each takes
/// (direct or tree), the surplus drains to zero and the object ends open.
#[test]
fn loom_policy_arrivals_drain() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(2)));
        let mut handles = Vec::new();
        for tid in 0..2 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                let mut p = ArrivalPolicy::new(1);
                let t = c.arrive(&mut p, tid);
                assert!(t.arrived());
                assert!(c.query().nonzero);
                assert!(c.depart(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let w = c.root_snapshot();
        assert_eq!((w.direct, w.tree, w.open), (0, 0, true));
    });
}

/// Trade-to-direct racing another reader's departure: the surplus is never
/// lost and sole-reader detection is never falsely positive while the other
/// reader is still inside.
#[test]
fn loom_trade_to_direct_race() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(1)));
        let t_mine = c.arrive_tree(0);
        assert!(t_mine.arrived());

        let c2 = Arc::clone(&c);
        let other = thread::spawn(move || {
            let t = c2.arrive_tree(0);
            assert!(t.arrived(), "object stays open in this model");
            assert!(c2.depart(t));
        });

        let t_mine = c.trade_to_direct(t_mine);
        assert!(t_mine.is_root());
        assert!(c.query().nonzero, "our arrival is still outstanding");
        other.join().unwrap();
        assert!(c.is_sole_direct());
        assert!(c.depart(t_mine));
        assert_eq!(c.root_snapshot().surplus(), 0);
    });
}

/// The GOLL hand-off primitive: a writer (owning the closed object)
/// performs `OpenWithArrivals` for two readers, who then depart with root
/// tickets concurrently — while a late arrival lands on the word, before
/// or after the open (which must keep its increment) and before or after
/// either departure. The arrival never gets in (the word goes from owned
/// to draining), and exactly one of the three decrements is the last.
#[test]
fn loom_open_with_arrivals_handoff() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(2)));
        assert!(c.close()); // writer acquires (owned, empty)

        let late = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let t = c.arrive_direct();
                assert!(!t.arrived(), "the word is never open in this model");
                t.failure() == Some(CancelOutcome::MustHandOff)
            })
        };

        // Hand over to two readers with a writer still "queued"
        // (close = true).
        c.open_with_arrivals(2, true);

        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || !c2.depart(Ticket::ROOT));
        let mine = !c.depart(Ticket::ROOT);
        let theirs = t.join().unwrap();
        let late = late.join().unwrap();

        assert_eq!(
            [mine, theirs, late].iter().filter(|owns| **owns).count(),
            1,
            "exactly one decrement hands the lock to the waiting writer"
        );
        assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
    });
}

/// CloseIfEmpty (writer fast path) racing a reader arrival: if the close
/// wins the reader's arrival lands on the owned word and is taken back,
/// owing nothing; if the arrival wins the close fails and the object stays
/// read-held.
#[test]
fn loom_close_if_empty_vs_arrive() {
    loom::model(|| {
        let c = Arc::new(CSnzi::new(TreeShape::flat(1)));
        let c2 = Arc::clone(&c);
        let reader = thread::spawn(move || {
            let t = c2.arrive_direct();
            match t.failure() {
                None => {
                    assert!(c2.depart(t), "object open: no hand-off duty");
                    true
                }
                Some(outcome) => {
                    assert_eq!(outcome, CancelOutcome::Undone, "the closer owns it");
                    false
                }
            }
        });
        let closed = c.close_if_empty();
        let read_won = reader.join().unwrap();
        if closed {
            // Writer acquired; the reader may have squeezed its whole
            // arrive/depart in before the close, or failed after it —
            // leaving the word exactly as the close made it.
            assert_eq!(c.root_snapshot(), RootWord::CLOSED_EMPTY);
        } else {
            // Close failed: the reader must have been (or still be) the
            // reason; by join time it departed, leaving the object open.
            assert!(read_won);
            assert_eq!(c.root_snapshot(), RootWord::OPEN_EMPTY);
        }
    });
}
