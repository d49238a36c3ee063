//! Property tests: the tree-based C-SNZI implementation must agree with
//! the sequential specification (Figure 1 of the paper) on *every*
//! operation's return value, for arbitrary operation sequences and tree
//! shapes, when driven single-threaded.

use oll_csnzi::{ArrivalPolicy, CSnzi, SpecCsnzi, Ticket, TreeShape};
use proptest::prelude::*;

/// The operations a test sequence may perform. Arrivals carry a leaf hint
/// and a flavor (direct / tree / policy-driven); departures pick one of the
/// currently outstanding tickets.
#[derive(Debug, Clone)]
enum Op {
    ArrivePolicy { hint: usize },
    ArriveDirect,
    ArriveTree { hint: usize },
    Depart { pick: usize },
    Query,
    Close,
    CloseIfEmpty,
    Open,
    OpenWithArrivals { cnt: u8, close: bool },
    TradeToDirect { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(|hint| Op::ArrivePolicy { hint }),
        Just(Op::ArriveDirect),
        (0usize..64).prop_map(|hint| Op::ArriveTree { hint }),
        (0usize..16).prop_map(|pick| Op::Depart { pick }),
        Just(Op::Query),
        Just(Op::Close),
        Just(Op::CloseIfEmpty),
        Just(Op::Open),
        (0u8..5, any::<bool>()).prop_map(|(cnt, close)| Op::OpenWithArrivals { cnt, close }),
        (0usize..16).prop_map(|pick| Op::TradeToDirect { pick }),
    ]
}

fn shape_strategy() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::ROOT_ONLY),
        (1usize..9).prop_map(TreeShape::flat),
        Just(TreeShape {
            fanout: 2,
            depth: 2
        }),
        Just(TreeShape {
            fanout: 3,
            depth: 2
        }),
        Just(TreeShape {
            fanout: 2,
            depth: 3
        }),
    ]
}

fn run_sequence_with(real: CSnzi, ops: Vec<Op>) {
    let mut spec = SpecCsnzi::new();
    debug_assert!(real.query().open);
    let mut policy = ArrivalPolicy::default();
    // Outstanding tickets; the spec side just counts them.
    let mut tickets: Vec<Ticket> = Vec::new();
    // Whether a tree arrival has landed yet: exactly what allocates the
    // tree, driven single-threaded.
    let mut tree_used = real.is_tree_allocated();

    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::ArrivePolicy { hint } => {
                let t = real.arrive(&mut policy, hint);
                let expected = spec.arrive();
                assert_eq!(t.arrived(), expected, "step {step}: arrive mismatch");
                if expected {
                    // keep spec/real surplus aligned
                    tickets.push(t);
                } else {
                    spec_unchanged(&spec, &real);
                }
            }
            Op::ArriveDirect => {
                let t = real.arrive_direct();
                let expected = spec.arrive();
                assert_eq!(t.arrived(), expected, "step {step}: direct arrive mismatch");
                if expected {
                    tickets.push(t);
                }
            }
            Op::ArriveTree { hint } => {
                let t = real.arrive_tree(hint);
                let expected = spec.arrive();
                assert_eq!(t.arrived(), expected, "step {step}: tree arrive mismatch");
                if expected {
                    tickets.push(t);
                }
            }
            Op::Depart { pick } => {
                if tickets.is_empty() {
                    continue; // Depart requires a surplus (spec precondition)
                }
                let t = tickets.swap_remove(pick % tickets.len());
                let got = real.depart(t);
                let expected = spec.depart();
                assert_eq!(got, expected, "step {step}: depart mismatch");
            }
            Op::Query => {
                let q = real.query();
                let (nonzero, open) = spec.query();
                assert_eq!(
                    (q.nonzero, q.open),
                    (nonzero, open),
                    "step {step}: query mismatch"
                );
            }
            Op::Close => {
                assert_eq!(real.close(), spec.close(), "step {step}: close mismatch");
            }
            Op::CloseIfEmpty => {
                assert_eq!(
                    real.close_if_empty(),
                    spec.close_if_empty(),
                    "step {step}: close_if_empty mismatch"
                );
            }
            Op::Open => {
                let (nonzero, open) = spec.query();
                if open || nonzero {
                    continue; // precondition: CLOSED with zero surplus
                }
                real.open();
                spec.open();
            }
            Op::OpenWithArrivals { cnt, close } => {
                let (nonzero, open) = spec.query();
                if open || nonzero {
                    continue;
                }
                real.open_with_arrivals(cnt as u64, close);
                spec.open_with_arrivals(cnt as u64, close);
                for _ in 0..cnt {
                    tickets.push(Ticket::ROOT);
                }
            }
            Op::TradeToDirect { pick } => {
                if tickets.is_empty() {
                    continue;
                }
                let i = pick % tickets.len();
                let t = real.trade_to_direct(tickets[i]);
                assert!(t.is_root(), "step {step}: trade must yield root ticket");
                tickets[i] = t;
                // No spec-visible change: surplus and state are untouched.
            }
        }
        tree_used |= tickets.iter().any(|t| !t.is_root());
        assert_eq!(
            real.is_tree_allocated(),
            tree_used,
            "step {step}: the tree is allocated by the first tree arrival"
        );
        // Global invariant after every step: query agrees with spec.
        let q = real.query();
        let (nonzero, open) = spec.query();
        assert_eq!(
            (q.nonzero, q.open),
            (nonzero, open),
            "step {step}: invariant"
        );
        // The root word is an *indicator*, not a counter: arrivals at an
        // already-nonzero leaf do not propagate, so only the zero/nonzero
        // property is specified.
        assert_eq!(
            real.root_snapshot().surplus() > 0,
            spec.surplus() > 0,
            "step {step}: root surplus must be nonzero iff spec surplus is"
        );
    }
}

fn spec_unchanged(spec: &SpecCsnzi, real: &CSnzi) {
    let q = real.query();
    assert_eq!((q.nonzero, q.open), spec.query());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tree_implementation_matches_spec(
        shape in shape_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        run_sequence_with(CSnzi::new(shape), ops);
    }

    /// Same sequences on an object whose first tree arrival happened
    /// before them: when the tree was allocated must be invisible.
    #[test]
    fn preallocated_tree_matches_spec(
        shape in shape_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let real = CSnzi::new(shape);
        assert!(real.depart(real.arrive_tree(0)));
        run_sequence_with(real, ops);
    }

    /// Heavier weighting on arrivals/departures to exercise deep propagation.
    #[test]
    fn heavy_arrival_sequences_match_spec(
        shape in shape_strategy(),
        hints in proptest::collection::vec(0usize..64, 1..100),
    ) {
        let mut ops = Vec::new();
        for (i, h) in hints.iter().enumerate() {
            ops.push(Op::ArriveTree { hint: *h });
            if i % 3 == 2 {
                ops.push(Op::Depart { pick: *h });
            }
            if i % 11 == 10 {
                ops.push(Op::Close);
                ops.push(Op::Depart { pick: 0 });
                ops.push(Op::Depart { pick: 1 });
            }
            if i % 13 == 12 {
                ops.push(Op::Open);
                ops.push(Op::OpenWithArrivals { cnt: 3, close: false });
            }
        }
        run_sequence_with(CSnzi::new(shape), ops);
    }
}
