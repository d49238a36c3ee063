//! SNZI tree nodes and tree geometry.

use oll_util::sync::AtomicU64;
use oll_util::CachePadded;

/// A non-root SNZI node: just a counter (Figure 2's `SnziNode.cnt`).
///
/// Each node is cache-padded: the whole point of arriving at the tree is
/// that concurrent readers hit *different* cache lines.
#[derive(Debug)]
pub struct SnziNode {
    /// Surplus of arrivals at this node (including propagated ones).
    pub(crate) cnt: AtomicU64,
}

impl SnziNode {
    pub(crate) fn new() -> Self {
        Self {
            cnt: AtomicU64::new(0),
        }
    }
}

/// Geometry of the C-SNZI tree below the root.
///
/// The tree has `depth` levels of internal/leaf nodes; level `k`
/// (1-indexed) holds `fanout^k` nodes, and threads arrive at the leaves
/// (level `depth`). `depth = 0` means a root-only C-SNZI with no tree —
/// the cheap configuration for uncontended objects. `depth = 1` (root plus
/// a flat array of leaves) is the shape in the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Children per node.
    pub fanout: usize,
    /// Number of node levels below the root.
    pub depth: usize,
}

/// Where a node's propagation goes: another node, or the root word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Parent {
    Root,
    Node(usize),
}

impl TreeShape {
    /// Root-only: all arrivals go directly to the root word.
    pub const ROOT_ONLY: Self = Self {
        fanout: 1,
        depth: 0,
    };

    /// The paper's shape: a flat array of `leaves` leaf nodes under the
    /// root (Figure 2's `leafs[]`).
    pub fn flat(leaves: usize) -> Self {
        assert!(leaves > 0, "flat tree needs at least one leaf");
        Self {
            fanout: leaves,
            depth: 1,
        }
    }

    /// A shape sized for `threads` concurrent threads: one leaf per thread
    /// (so distinct threads default to distinct cache lines), flat under
    /// the root. A leaf only one thread uses is empty whenever that thread
    /// arrives, so it never absorbs an arrival: every tree arrival there
    /// goes on to the root (a *miss*, costlier than arriving directly).
    /// The tree pays only where threads share a leaf — more threads than
    /// leaves, or cursors migrated together — which is why
    /// [`ArrivalPolicy`](crate::ArrivalPolicy) retreats to the root after
    /// a miss.
    pub fn for_threads(threads: usize) -> Self {
        Self::flat(threads.max(1))
    }

    /// Total number of non-root nodes.
    pub fn node_count(&self) -> usize {
        let mut total = 0usize;
        let mut level = 1usize;
        for _ in 0..self.depth {
            level = level.saturating_mul(self.fanout);
            total = total.saturating_add(level);
        }
        total
    }

    /// Number of leaves (nodes in the deepest level).
    pub fn leaf_count(&self) -> usize {
        if self.depth == 0 {
            0
        } else {
            self.fanout.saturating_pow(self.depth as u32)
        }
    }

    /// Index of the first leaf in the flat node array.
    pub fn first_leaf(&self) -> usize {
        self.node_count() - self.leaf_count()
    }

    /// The leaf index (into the flat node array) a thread with identity
    /// `hint` arrives at — Figure 2's `GetLeafForThread`.
    pub(crate) fn leaf_for(&self, hint: usize) -> usize {
        debug_assert!(self.depth > 0);
        self.first_leaf() + hint % self.leaf_count()
    }

    /// The parent of node `idx` in the flat node array.
    ///
    /// Closed form, O(1): level `k` (1-indexed) occupies indices
    /// `[(f^k - f)/(f - 1), (f^(k+1) - f)/(f - 1))`, so the level of
    /// `idx` is recovered as `k = ilog_f(idx·(f-1) + f)` and the parent
    /// is the node `(idx - level_start) / f` positions into level `k-1`.
    pub(crate) fn parent_of(&self, idx: usize) -> Parent {
        debug_assert!(idx < self.node_count());
        let f = self.fanout;
        if idx < f {
            // Level 1 propagates to the root word.
            return Parent::Root;
        }
        if f == 1 {
            // Unary chain: one node per level.
            return Parent::Node(idx - 1);
        }
        let k = (idx * (f - 1) + f).ilog(f);
        let level_start = (f.pow(k) - f) / (f - 1);
        let parent_level_start = (f.pow(k - 1) - f) / (f - 1);
        Parent::Node(parent_level_start + (idx - level_start) / f)
    }

    /// Allocates the node array for this shape.
    pub(crate) fn alloc_nodes(&self) -> Box<[CachePadded<SnziNode>]> {
        (0..self.node_count())
            .map(|_| CachePadded::new(SnziNode::new()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_only_has_no_nodes() {
        let s = TreeShape::ROOT_ONLY;
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.leaf_count(), 0);
    }

    #[test]
    fn flat_shape_counts() {
        let s = TreeShape::flat(8);
        assert_eq!(s.node_count(), 8);
        assert_eq!(s.leaf_count(), 8);
        assert_eq!(s.first_leaf(), 0);
        for i in 0..8 {
            assert_eq!(s.parent_of(i), Parent::Root);
        }
    }

    #[test]
    fn leaf_for_distributes_by_hint() {
        let s = TreeShape::flat(4);
        assert_eq!(s.leaf_for(0), 0);
        assert_eq!(s.leaf_for(1), 1);
        assert_eq!(s.leaf_for(5), 1);
        assert_eq!(s.leaf_for(7), 3);
    }

    #[test]
    fn two_level_tree_geometry() {
        // fanout 2, depth 2: level 1 = nodes 0..2, level 2 (leaves) = 2..6.
        let s = TreeShape {
            fanout: 2,
            depth: 2,
        };
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.leaf_count(), 4);
        assert_eq!(s.first_leaf(), 2);
        assert_eq!(s.parent_of(0), Parent::Root);
        assert_eq!(s.parent_of(1), Parent::Root);
        assert_eq!(s.parent_of(2), Parent::Node(0));
        assert_eq!(s.parent_of(3), Parent::Node(0));
        assert_eq!(s.parent_of(4), Parent::Node(1));
        assert_eq!(s.parent_of(5), Parent::Node(1));
    }

    #[test]
    fn three_level_tree_geometry() {
        // fanout 3, depth 3: levels of 3, 9, 27.
        let s = TreeShape {
            fanout: 3,
            depth: 3,
        };
        assert_eq!(s.node_count(), 3 + 9 + 27);
        assert_eq!(s.leaf_count(), 27);
        assert_eq!(s.first_leaf(), 12);
        // First node of level 3 maps to first node of level 2.
        assert_eq!(s.parent_of(12), Parent::Node(3));
        // Last node of level 3 maps to last node of level 2.
        assert_eq!(s.parent_of(38), Parent::Node(11));
        // Level 2 maps into level 1.
        assert_eq!(s.parent_of(3), Parent::Node(0));
        assert_eq!(s.parent_of(11), Parent::Node(2));
    }

    #[test]
    fn for_threads_never_zero() {
        assert_eq!(TreeShape::for_threads(0).leaf_count(), 1);
        assert_eq!(TreeShape::for_threads(16).leaf_count(), 16);
    }

    /// The original O(depth) level walk, kept as the oracle for the
    /// closed-form `parent_of`.
    fn parent_of_by_walk(s: &TreeShape, idx: usize) -> Parent {
        if idx < s.fanout {
            return Parent::Root;
        }
        let mut level_start = 0usize;
        let mut level_size = s.fanout;
        loop {
            let next_start = level_start + level_size;
            if idx < next_start {
                let pos = idx - level_start;
                let parent_level_start = level_start - level_size / s.fanout;
                return Parent::Node(parent_level_start + pos / s.fanout);
            }
            level_start = next_start;
            level_size *= s.fanout;
        }
    }

    #[test]
    fn closed_form_parent_matches_walk_exhaustively() {
        for fanout in 1..=9 {
            for depth in 1..=4 {
                let s = TreeShape { fanout, depth };
                for idx in 0..s.node_count() {
                    assert_eq!(
                        s.parent_of(idx),
                        parent_of_by_walk(&s, idx),
                        "fanout={fanout} depth={depth} idx={idx}"
                    );
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn closed_form_parent_matches_walk(
                fanout in 1usize..65,
                depth in 1usize..5,
                idx_seed in 0usize..usize::MAX,
            ) {
                // Cap the node count so deep wide shapes stay cheap.
                let depth = if fanout > 8 { depth.min(2) } else { depth };
                let s = TreeShape { fanout, depth };
                let idx = idx_seed % s.node_count();
                assert_eq!(s.parent_of(idx), parent_of_by_walk(&s, idx));
            }
        }
    }
}
