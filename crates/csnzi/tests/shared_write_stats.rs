//! The mechanism behind Figure 5, made countable (requires
//! `--features telemetry`): under the tree policy, N arrivals and
//! departures at an already-nonzero leaf perform **zero** additional
//! root-word writes, while a centralized counter (or the direct policy)
//! pays two shared writes per acquisition. This is the property that
//! lets the OLL locks scale under read contention regardless of machine
//! size.
//!
//! ```sh
//! cargo test -p oll-csnzi --features telemetry --test shared_write_stats
//! ```

#![cfg(feature = "telemetry")]

use oll_csnzi::{CSnzi, TreeShape};
use oll_telemetry::LockEvent::{
    CsnziArriveUndone, CsnziNodeWrite, CsnziRootCasFail, CsnziRootWrite,
};
use oll_telemetry::Telemetry;

/// A C-SNZI counting its shared writes into the returned handle.
fn counted(shape: TreeShape) -> (CSnzi, Telemetry) {
    let telemetry = Telemetry::register("CSNZI");
    let mut c = CSnzi::new(shape);
    c.attach_telemetry(telemetry.clone());
    (c, telemetry)
}

/// `(root writes, node writes, root CAS failures)` since the last
/// `reset()`.
fn writes(telemetry: &Telemetry) -> (u64, u64, u64) {
    let t = telemetry.snapshot().expect("registered handle records");
    (
        t.get(CsnziRootWrite),
        t.get(CsnziNodeWrite),
        t.get(CsnziRootCasFail),
    )
}

#[test]
fn direct_policy_pays_two_root_writes_per_acquisition() {
    let (c, telemetry) = counted(TreeShape::flat(4));
    const N: u64 = 1_000;
    for _ in 0..N {
        let t = c.arrive_direct();
        c.depart(t);
    }
    assert_eq!(
        writes(&telemetry),
        (2 * N, 0, 0),
        "arrive is one fetch_add, depart one fetch_sub: two root writes, nothing conditional"
    );
}

#[test]
fn a_failed_arrival_costs_two_root_writes_and_is_counted() {
    let (c, telemetry) = counted(TreeShape::flat(4));
    assert!(c.close());
    telemetry.reset();
    const N: u64 = 100;
    for _ in 0..N {
        assert!(!c.arrive_direct().arrived());
    }
    assert_eq!(writes(&telemetry), (2 * N, 0, 0), "landed and taken back");
    let undone = telemetry.snapshot().unwrap().get(CsnziArriveUndone);
    assert_eq!(undone, N);
    // The tree path checks the root first and writes nothing.
    telemetry.reset();
    assert!(!c.arrive_tree(0).arrived());
    assert_eq!(writes(&telemetry), (0, 0, 0));
    c.open();
}

#[test]
fn the_last_departer_of_a_closed_object_pays_for_its_claim() {
    let (c, telemetry) = counted(TreeShape::flat(2));
    let t = c.arrive_direct();
    assert!(!c.close());
    telemetry.reset();
    assert!(!c.depart(t), "last departer");
    assert_eq!(
        writes(&telemetry),
        (2, 0, 0),
        "fetch_sub, then the claim CAS"
    );
    telemetry.reset();
    c.open();
    assert_eq!(writes(&telemetry), (1, 0, 0), "open is one fetch_add");
}

#[test]
fn tree_policy_keeps_root_quiet_while_surplus_is_nonzero() {
    let (c, telemetry) = counted(TreeShape::flat(4));
    // Pin the surplus above zero so inner arrivals never cross zero.
    let hold = c.arrive_tree(0);
    telemetry.reset();

    const N: u64 = 1_000;
    for _ in 0..N {
        let t = c.arrive_tree(0);
        c.depart(t);
    }
    let (root_writes, node_writes, _) = writes(&telemetry);
    assert_eq!(
        root_writes, 0,
        "no root traffic while the leaf surplus stays nonzero"
    );
    assert_eq!(node_writes, 2 * N, "all writes land on the leaf line");

    c.depart(hold);
    let (root_writes, _, _) = writes(&telemetry);
    assert_eq!(root_writes, 1, "only the final 1->0 crossing propagates");
}

#[test]
fn each_depart_is_one_write_per_word_it_touches_and_never_a_cas() {
    let (c, telemetry) = counted(TreeShape::flat(2));
    let since_last = || {
        let w = writes(&telemetry);
        telemetry.reset();
        w
    };

    let direct = c.arrive_direct();
    let first = c.arrive_tree(0);
    let second = c.arrive_tree(0);
    since_last();

    c.depart(direct);
    assert_eq!(since_last(), (1, 0, 0), "direct: one root write");
    c.depart(second);
    assert_eq!(since_last(), (0, 1, 0), "leaf 2 -> 1 stops there");
    c.depart(first);
    assert_eq!(since_last(), (1, 1, 0), "leaf 1 -> 0 goes on up");
}

#[test]
fn distinct_leaves_distribute_writes() {
    let (c, telemetry) = counted(TreeShape::flat(4));
    // One holder per leaf keeps every leaf nonzero.
    let holders: Vec<_> = (0..4).map(|i| c.arrive_tree(i)).collect();
    telemetry.reset();

    const N: u64 = 500;
    for _ in 0..N {
        for leaf in 0..4 {
            let t = c.arrive_tree(leaf);
            c.depart(t);
        }
    }
    let (root_writes, node_writes, _) = writes(&telemetry);
    assert_eq!(root_writes, 0);
    assert_eq!(node_writes, 2 * N * 4);

    for h in holders {
        c.depart(h);
    }
}

#[test]
fn root_writes_scale_with_zero_crossings_not_acquisitions() {
    // Alternating empty<->nonzero: every acquisition crosses zero, so the
    // tree cannot help — root writes match the centralized cost. The win
    // exists exactly when readers overlap (the paper's read contention).
    let (c, telemetry) = counted(TreeShape::flat(2));
    const N: u64 = 300;
    for _ in 0..N {
        let t = c.arrive_tree(0);
        c.depart(t);
    }
    let (root_writes, _, _) = writes(&telemetry);
    assert_eq!(root_writes, 2 * N, "every op crosses zero: no savings");
}

#[test]
fn concurrent_readers_produce_sublinear_root_traffic() {
    const THREADS: usize = 4;
    const PER: u64 = 2_000;
    let (c, telemetry) = counted(TreeShape::flat(THREADS));
    // One base holder per leaf keeps every leaf's surplus nonzero,
    // modeling the steady state of a read-heavy lock where readers
    // overlap (§5's read contention). Without overlap each op crosses
    // zero and must propagate — see the zero-crossings test above.
    let holders: Vec<_> = (0..THREADS).map(|i| c.arrive_tree(i)).collect();
    telemetry.reset();

    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let c = &c;
            scope.spawn(move || {
                for _ in 0..PER {
                    let t = c.arrive_tree(tid);
                    assert!(t.arrived());
                    c.depart(t);
                }
            });
        }
    });
    let (root_writes, node_writes, _) = writes(&telemetry);
    let total_ops = THREADS as u64 * PER;
    assert_eq!(
        root_writes, 0,
        "no root traffic: every leaf surplus stays nonzero throughout"
    );
    assert!(node_writes >= 2 * total_ops);
    for h in holders {
        c.depart(h);
    }
}
