//! The C-SNZI root word: a single CAS-able 64-bit value.
//!
//! Figure 2 of the paper packs the root node into "a single CASable word"
//! holding a count and an OPEN/CLOSED state. The evaluation section (§5.1)
//! refines this into **two** counters — one for arrivals that propagated up
//! from the tree and one for *direct* arrivals at the root — which both
//! enables the `ShouldArriveAtTree` heuristic ("favor direct arrivals until
//! it ... sees that other threads have arrived using the tree") and is the
//! basis of write-upgrade support (§3.2.1). We implement the dual-counter
//! word; the single-counter root of Figure 2 is the special case where the
//! tree count is always zero (a root-only C-SNZI).
//!
//! Bit layout of the packed word:
//!
//! ```text
//!  63    62..32          31..1           0
//! [owned][tree count 31b][direct cnt 31b][open flag]
//! ```
//!
//! 31-bit counters bound the surplus at ~2.1 billion concurrent holders per
//! counter, far beyond any plausible thread count.
//!
//! # The four states, and the five rules that move between them
//!
//! Figure 2's `Arrive` is conditional (load, check OPEN, CAS). Ours is one
//! unconditional `fetch_add`, which can land on a *closed* word and must
//! then be undone — so a closed word can carry a *transient* surplus, and
//! "closed with zero surplus" no longer says by itself whether somebody
//! holds the object. The OWNED flag says it:
//!
//! | state      | open | owned | surplus | meaning                                    |
//! |------------|------|-------|---------|--------------------------------------------|
//! | *open(s)*  | yes  | no    | any     | free (`s = 0`) or read-held                |
//! | *draining* | no   | no    | `> 0`   | read-held, a closer waits                  |
//! | *drained*  | no   | no    | `0`     | the last holder left, nobody has claimed   |
//! | *owned*    | no   | yes   | any     | one thread owns it; surplus is transient   |
//!
//! *Drained* is reached only by a decrement and left only by the claim.
//! Each rule is one RMW, and each decision below is a pure function of the
//! word that RMW returned — `csnzi.rs` applies them with atomics,
//! `tests/root_protocol_model.rs` to a simulated word over every
//! interleaving:
//!
//! 1. a direct arrival is `fetch_add(ONE_DIRECT)`; it arrived iff the old
//!    word was open ([`after_arrive`](RootWord::after_arrive)), else the
//!    arriver undoes it with an ordinary decrement;
//! 2. every decrement is a `fetch_sub`, and only one that leaves the word
//!    exactly *drained* ([`after_decrement`](RootWord::after_decrement))
//!    tries the **claim**, `CAS(DRAINED → CLOSED_EMPTY)`; the winner, and
//!    nobody else, is the last departer;
//! 3. the closes are CASes from an open word to *owned*-empty or
//!    *draining* ([`close_if_empty_target`](RootWord::close_if_empty_target),
//!    [`close_target`](RootWord::close_target),
//!    [`upgrade_target`](RootWord::upgrade_target)) and may fail
//!    spuriously on a transient surplus;
//! 4. the opens require *owned* and are one `fetch_add` of
//!    [`open_delta`](RootWord::open_delta), which keeps whatever transient
//!    surplus is there;
//! 5. a tree arrival at the root stays a CAS, allowed on *open* and
//!    *draining* only ([`tree_arrive_ok`](RootWord::tree_arrive_ok)).

use core::fmt;

/// Number of bits per counter.
const COUNT_BITS: u32 = 31;
/// Maximum value of each counter.
pub const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;

const OPEN_BIT: u64 = 1;
const OWNED_BIT: u64 = 1 << 63;
const DIRECT_SHIFT: u32 = 1;
const TREE_SHIFT: u32 = 1 + COUNT_BITS;
const COUNT_MASK: u64 = COUNT_MAX;

/// A decoded root word: `(direct, tree, open, owned)`.
///
/// `surplus() == direct + tree` is the abstract C-SNZI surplus of Figure 1
/// — plus, on a closed word, whatever failed arrivals have landed and not
/// yet undone themselves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RootWord {
    /// Surplus of arrivals made directly at the root.
    pub direct: u64,
    /// Surplus of arrivals that propagated up from the tree.
    pub tree: u64,
    /// Whether the C-SNZI is open.
    pub open: bool,
    /// Whether one thread owns the closed C-SNZI: it closed an empty
    /// object, or won the claim after the last holder left. Never set on
    /// an open word.
    pub owned: bool,
}

/// What the thread whose `fetch_sub` returned a word owes (rule 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decrement {
    /// Someone still holds the object (a surplus, an owner) or it is
    /// open: the decrementer owes nothing.
    Held,
    /// The decrement left the word exactly *drained*: the decrementer
    /// tries the claim, and owes the hand-off iff it wins.
    TryClaim,
}

impl RootWord {
    /// The word for a freshly created, open, empty C-SNZI.
    pub const OPEN_EMPTY: Self = Self {
        direct: 0,
        tree: 0,
        open: true,
        owned: false,
    };

    /// The word for a closed, empty, *owned* C-SNZI (write-locked, in lock
    /// terms; also how a pooled FOLL/ROLL reader node rests).
    pub const CLOSED_EMPTY: Self = Self {
        direct: 0,
        tree: 0,
        open: false,
        owned: true,
    };

    /// The word the last decrement of a closed C-SNZI leaves: closed,
    /// empty and *unowned*, until one thread claims it.
    pub const DRAINED: Self = Self {
        direct: 0,
        tree: 0,
        open: false,
        owned: false,
    };

    /// The packed word's unit of one direct arrival: what a direct
    /// arrival `fetch_add`s to the root and a departure `fetch_sub`s.
    pub const ONE_DIRECT: u64 = 1 << DIRECT_SHIFT;

    /// The packed word's unit of one propagated tree arrival.
    pub const ONE_TREE: u64 = 1 << TREE_SHIFT;

    /// Total surplus (Figure 1's abstract `surplus`).
    #[inline]
    pub fn surplus(self) -> u64 {
        self.direct + self.tree
    }

    /// Packs into the 64-bit representation.
    #[inline]
    pub const fn pack(self) -> u64 {
        debug_assert!(self.direct <= COUNT_MAX, "direct counter overflow");
        debug_assert!(self.tree <= COUNT_MAX, "tree counter overflow");
        debug_assert!(!(self.open && self.owned), "an open word has no owner");
        (self.tree << TREE_SHIFT)
            | (self.direct << DIRECT_SHIFT)
            | if self.open { OPEN_BIT } else { 0 }
            | if self.owned { OWNED_BIT } else { 0 }
    }

    /// Unpacks from the 64-bit representation.
    #[inline]
    pub fn unpack(raw: u64) -> Self {
        Self {
            direct: (raw >> DIRECT_SHIFT) & COUNT_MASK,
            tree: (raw >> TREE_SHIFT) & COUNT_MASK,
            open: raw & OPEN_BIT != 0,
            owned: raw & OWNED_BIT != 0,
        }
    }
}

/// The root-word protocol's decisions (see the module docs), each a pure
/// function of the *packed* word an RMW returned — the form the atomics
/// hand back, so the hot paths decide on one compare.
impl RootWord {
    /// Rule 1: whether the `fetch_add(ONE_DIRECT)` that returned `old`
    /// arrived. If not, the arriver undoes it with a direct decrement.
    #[inline]
    pub fn after_arrive(old: u64) -> bool {
        old & OPEN_BIT != 0
    }

    /// Rule 2: what the `fetch_sub(unit)` that returned `old` owes.
    #[inline]
    pub fn after_decrement(old: u64, unit: u64) -> Decrement {
        debug_assert!(
            if unit == Self::ONE_DIRECT {
                Self::unpack(old).direct > 0
            } else {
                Self::unpack(old).tree > 0
            },
            "decrement with no surplus: {:?}",
            Self::unpack(old)
        );
        if old.wrapping_sub(unit) == Self::DRAINED.pack() {
            Decrement::TryClaim
        } else {
            Decrement::Held
        }
    }

    /// Rule 3, `CloseIfEmpty`: the word to CAS `old` to, if any — only
    /// open-empty closes, into *owned*-empty.
    #[inline]
    pub fn close_if_empty_target(old: u64) -> Option<u64> {
        (old == Self::OPEN_EMPTY.pack()).then_some(Self::CLOSED_EMPTY.pack())
    }

    /// Rule 3, `Close`: the word to CAS `old` to, if any — an open word
    /// closes into *owned*-empty (the closer acquired it) when it has no
    /// surplus and into *draining* when it has. `None`: already closed.
    #[inline]
    pub fn close_target(old: u64) -> Option<u64> {
        if old == Self::OPEN_EMPTY.pack() {
            Some(Self::CLOSED_EMPTY.pack())
        } else if old & OPEN_BIT != 0 {
            Some(old & !OPEN_BIT)
        } else {
            None
        }
    }

    /// Rule 3, the write-upgrade commit: the word to CAS `old` to, if any
    /// — only an open word whose whole surplus is one direct arrival (the
    /// upgrader's own, consumed by the CAS).
    #[inline]
    pub fn upgrade_target(old: u64) -> Option<u64> {
        (old == Self::OPEN_EMPTY.pack() + Self::ONE_DIRECT).then_some(Self::CLOSED_EMPTY.pack())
    }

    /// Rule 4: what `Open` / `OpenWithArrivals(cnt, close)` `fetch_add`s
    /// to an *owned* word. The wrapping add carries the OWNED flag out of
    /// the word, sets OPEN unless `close`, adds the `cnt` root arrivals —
    /// and leaves any transient surplus in place for its owner to undo.
    /// Opening for nobody and closing again changes nothing: the owner
    /// keeps the object, since nobody else is there to claim it.
    #[inline]
    pub fn open_delta(cnt: u64, close: bool) -> u64 {
        debug_assert!(cnt <= COUNT_MAX, "direct counter overflow");
        if cnt == 0 && close {
            return 0;
        }
        OWNED_BIT
            .wrapping_add(cnt << DIRECT_SHIFT)
            .wrapping_add(if close { 0 } else { OPEN_BIT })
    }

    /// Rule 5: whether a tree arrival may be CASed onto `old` — on an
    /// open word, or beside the holders of a *draining* one (it
    /// linearizes at the openness check its leaf arriver made earlier,
    /// §2.2); never on a word with an owner or waiting for one.
    #[inline]
    pub fn tree_arrive_ok(old: u64) -> bool {
        old & OWNED_BIT == 0 && old != Self::DRAINED.pack()
    }
}

impl fmt::Debug for RootWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RootWord {{ direct: {}, tree: {}, {} }}",
            self.direct,
            self.tree,
            match (self.open, self.owned) {
                (true, _) => "OPEN",
                (false, true) => "OWNED",
                (false, false) => "CLOSED",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for direct in [0u64, 1, 2, 1000, COUNT_MAX] {
            for tree in [0u64, 1, 7, COUNT_MAX] {
                for (open, owned) in [(false, false), (false, true), (true, false)] {
                    let w = RootWord {
                        direct,
                        tree,
                        open,
                        owned,
                    };
                    assert_eq!(RootWord::unpack(w.pack()), w);
                }
            }
        }
    }

    #[test]
    fn constants_pack_as_expected() {
        assert_eq!(RootWord::OPEN_EMPTY.pack(), OPEN_BIT);
        assert_eq!(RootWord::CLOSED_EMPTY.pack(), OWNED_BIT);
        assert_eq!(RootWord::DRAINED.pack(), 0);
        assert_eq!(RootWord::OPEN_EMPTY.surplus(), 0);
    }

    #[test]
    fn open_delta_leaves_the_owned_state_and_keeps_a_transient_surplus() {
        let owned = RootWord::CLOSED_EMPTY.pack();
        let open = |word: u64, cnt, close| {
            RootWord::unpack(word.wrapping_add(RootWord::open_delta(cnt, close)))
        };
        assert_eq!(open(owned, 0, false), RootWord::OPEN_EMPTY);
        let transient = owned + RootWord::ONE_DIRECT;
        let w = open(transient, 0, false);
        assert_eq!((w.direct, w.tree, w.open, w.owned), (1, 0, true, false));
        let w = open(transient, 3, true);
        assert_eq!((w.direct, w.tree, w.open, w.owned), (4, 0, false, false));
        assert_eq!(open(owned, 0, true), RootWord::CLOSED_EMPTY);
    }

    #[test]
    fn only_a_decrement_to_exactly_drained_tries_the_claim() {
        let one = RootWord::ONE_DIRECT;
        let after = |w: RootWord| RootWord::after_decrement(w.pack(), one);
        let held = |open, owned, direct, tree| RootWord {
            direct,
            tree,
            open,
            owned,
        };
        assert_eq!(after(held(false, false, 1, 0)), Decrement::TryClaim);
        assert_eq!(after(held(false, false, 2, 0)), Decrement::Held);
        assert_eq!(after(held(false, false, 1, 1)), Decrement::Held);
        assert_eq!(after(held(false, true, 1, 0)), Decrement::Held, "owned");
        assert_eq!(after(held(true, false, 1, 0)), Decrement::Held, "open");
        let tree_only = held(false, false, 0, 1).pack();
        assert_eq!(
            RootWord::after_decrement(tree_only, RootWord::ONE_TREE),
            Decrement::TryClaim
        );
    }

    #[test]
    fn close_targets_and_tree_arrivals_by_state() {
        let open_empty = RootWord::OPEN_EMPTY.pack();
        let owned_empty = RootWord::CLOSED_EMPTY.pack();
        let drained = RootWord::DRAINED.pack();
        let one = RootWord::ONE_DIRECT;
        assert_eq!(RootWord::close_target(open_empty), Some(owned_empty));
        assert_eq!(RootWord::close_target(open_empty + one), Some(one));
        for closed in [owned_empty, owned_empty + one, drained, one] {
            assert_eq!(RootWord::close_target(closed), None);
            assert_eq!(RootWord::close_if_empty_target(closed), None);
            assert_eq!(RootWord::upgrade_target(closed), None);
            assert!(!RootWord::after_arrive(closed));
        }
        assert_eq!(
            RootWord::close_if_empty_target(open_empty),
            Some(owned_empty)
        );
        assert_eq!(RootWord::close_if_empty_target(open_empty + one), None);
        assert_eq!(
            RootWord::upgrade_target(open_empty + one),
            Some(owned_empty)
        );
        assert_eq!(RootWord::upgrade_target(open_empty + 2 * one), None);
        assert_eq!(RootWord::upgrade_target(open_empty), None);

        assert!(RootWord::tree_arrive_ok(open_empty));
        assert!(RootWord::tree_arrive_ok(one), "draining");
        assert!(!RootWord::tree_arrive_ok(drained));
        assert!(!RootWord::tree_arrive_ok(owned_empty));
        assert!(!RootWord::tree_arrive_ok(owned_empty + one));
    }

    #[test]
    fn counters_are_independent() {
        // The units the atomics add and subtract move one field each.
        let raw = RootWord::OPEN_EMPTY.pack() + RootWord::ONE_DIRECT + 2 * RootWord::ONE_TREE;
        let w = RootWord::unpack(raw);
        assert_eq!((w.direct, w.tree, w.surplus()), (1, 2, 3));
        let w = RootWord::unpack(raw - RootWord::ONE_TREE - RootWord::ONE_DIRECT);
        assert_eq!((w.direct, w.tree, w.surplus()), (0, 1, 1));
        assert!(w.open && !w.owned);
    }

    #[test]
    fn max_counts_do_not_collide() {
        let w = RootWord {
            direct: COUNT_MAX,
            tree: COUNT_MAX,
            open: true,
            owned: false,
        };
        let u = RootWord::unpack(w.pack());
        assert_eq!(u.direct, COUNT_MAX);
        assert_eq!(u.tree, COUNT_MAX);
        assert!(u.open);
    }
}
