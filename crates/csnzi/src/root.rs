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
//! [spare][tree count 31b][direct cnt 31b][open flag]
//! ```
//!
//! 31-bit counters bound the surplus at ~2.1 billion concurrent holders per
//! counter, far beyond any plausible thread count.

use core::fmt;

/// Number of bits per counter.
const COUNT_BITS: u32 = 31;
/// Maximum value of each counter.
pub const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;

const OPEN_BIT: u64 = 1;
const DIRECT_SHIFT: u32 = 1;
const TREE_SHIFT: u32 = 1 + COUNT_BITS;
const COUNT_MASK: u64 = COUNT_MAX;

/// A decoded root word: `(direct, tree, open)`.
///
/// `surplus() == direct + tree` is the abstract C-SNZI surplus of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RootWord {
    /// Surplus of arrivals made directly at the root.
    pub direct: u64,
    /// Surplus of arrivals that propagated up from the tree.
    pub tree: u64,
    /// Whether the C-SNZI is open.
    pub open: bool,
}

impl RootWord {
    /// The word for a freshly created, open, empty C-SNZI.
    pub const OPEN_EMPTY: Self = Self {
        direct: 0,
        tree: 0,
        open: true,
    };

    /// The word for a closed, empty C-SNZI (write-locked, in lock terms).
    pub const CLOSED_EMPTY: Self = Self {
        direct: 0,
        tree: 0,
        open: false,
    };

    /// The packed word's unit of one direct arrival: what a direct
    /// departure `fetch_sub`s from the root.
    pub(crate) const ONE_DIRECT: u64 = 1 << DIRECT_SHIFT;

    /// The packed word's unit of one propagated tree arrival.
    pub(crate) const ONE_TREE: u64 = 1 << TREE_SHIFT;

    /// Total surplus (Figure 1's abstract `surplus`).
    #[inline]
    pub fn surplus(self) -> u64 {
        self.direct + self.tree
    }

    /// Packs into the 64-bit representation.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(self.direct <= COUNT_MAX, "direct counter overflow");
        debug_assert!(self.tree <= COUNT_MAX, "tree counter overflow");
        (self.tree << TREE_SHIFT)
            | (self.direct << DIRECT_SHIFT)
            | if self.open { OPEN_BIT } else { 0 }
    }

    /// Unpacks from the 64-bit representation.
    #[inline]
    pub fn unpack(raw: u64) -> Self {
        Self {
            direct: (raw >> DIRECT_SHIFT) & COUNT_MASK,
            tree: (raw >> TREE_SHIFT) & COUNT_MASK,
            open: raw & OPEN_BIT != 0,
        }
    }

    /// Returns a copy with one more direct arrival.
    #[inline]
    pub fn with_direct_arrival(self) -> Self {
        Self {
            direct: self.direct + 1,
            ..self
        }
    }

    /// Returns a copy with one fewer direct arrival.
    #[inline]
    pub fn with_direct_departure(self) -> Self {
        debug_assert!(self.direct > 0, "direct departure with no direct surplus");
        Self {
            direct: self.direct - 1,
            ..self
        }
    }

    /// Returns a copy with one more tree arrival.
    #[inline]
    pub fn with_tree_arrival(self) -> Self {
        Self {
            tree: self.tree + 1,
            ..self
        }
    }

    /// Returns a copy with one fewer tree arrival.
    #[inline]
    pub fn with_tree_departure(self) -> Self {
        debug_assert!(self.tree > 0, "tree departure with no tree surplus");
        Self {
            tree: self.tree - 1,
            ..self
        }
    }

    /// Returns a copy that is closed.
    #[inline]
    pub fn closed(self) -> Self {
        Self {
            open: false,
            ..self
        }
    }
}

impl fmt::Debug for RootWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RootWord {{ direct: {}, tree: {}, {} }}",
            self.direct,
            self.tree,
            if self.open { "OPEN" } else { "CLOSED" }
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
                for open in [false, true] {
                    let w = RootWord { direct, tree, open };
                    assert_eq!(RootWord::unpack(w.pack()), w);
                }
            }
        }
    }

    #[test]
    fn constants_pack_as_expected() {
        assert_eq!(RootWord::OPEN_EMPTY.pack(), OPEN_BIT);
        assert_eq!(RootWord::CLOSED_EMPTY.pack(), 0);
        assert_eq!(RootWord::OPEN_EMPTY.surplus(), 0);
    }

    #[test]
    fn counters_are_independent() {
        let w = RootWord::OPEN_EMPTY
            .with_direct_arrival()
            .with_tree_arrival()
            .with_tree_arrival();
        assert_eq!(w.direct, 1);
        assert_eq!(w.tree, 2);
        assert_eq!(w.surplus(), 3);
        let w = w.with_tree_departure().with_direct_departure();
        assert_eq!(w.surplus(), 1);
        assert!(w.open);
        assert!(!w.closed().open);
    }

    #[test]
    fn max_counts_do_not_collide() {
        let w = RootWord {
            direct: COUNT_MAX,
            tree: COUNT_MAX,
            open: true,
        };
        let u = RootWord::unpack(w.pack());
        assert_eq!(u.direct, COUNT_MAX);
        assert_eq!(u.tree, COUNT_MAX);
        assert!(u.open);
    }
}
