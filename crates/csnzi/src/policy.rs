//! The `ShouldArriveAtTree` heuristic.
//!
//! §2.2: "we adopt the simple policy of arriving at the root unless
//! attempting to do so has failed several times, or if there is already
//! some surplus due to arrivals at leaves." §5.1 adds that with the
//! dual-counter root this "favor\[s\] direct arrivals until it encounters
//! contention or until it sees that other threads have arrived using the
//! tree, indicating that contention was recently observed by another
//! thread."
//!
//! "Unless attempting to do so has failed" has to be re-learned: the tree
//! helps only when the entry leaf already holds surplus and absorbs the
//! arrival. A tree arrival that finds its leaf empty (a *miss*) pays the
//! leaf *and* the root, so it clears the failure streak and the next
//! arrival tries the root again. Nothing else on the tree path lowers
//! the streak, so this is what ends a tree excursion once the contention
//! that started it has passed.
//!
//! The policy is *per-thread* state (a failure counter); lock handles own
//! one per C-SNZI they use. Pinned policies (always root, always tree)
//! are explicit [`ArrivalMode`] variants rather than sentinel thresholds:
//! an earlier encoding used `threshold == u32::MAX` to mean "pinned to
//! root" and had to special-case the tree-surplus clause so a saturated
//! failure counter could not defeat the pin — the variant makes both
//! impossible by construction.

use crate::root::RootWord;

/// How a policy decides between root and tree arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Paper policy: arrive at the root until `threshold` consecutive
    /// root CASes fail or the root shows tree surplus.
    Threshold(u32),
    /// Every arrival goes directly to the root, even when other threads
    /// use the tree (root arrival stays correct regardless, so this
    /// truly pins to the root).
    PinnedRoot,
    /// Every arrival goes to the tree.
    PinnedTree,
}

/// Per-thread decision state for [`CSnzi::arrive`](crate::CSnzi::arrive).
#[derive(Debug, Clone)]
pub struct ArrivalPolicy {
    failures: u32,
    mode: ArrivalMode,
}

impl Default for ArrivalPolicy {
    fn default() -> Self {
        Self::new(Self::DEFAULT_THRESHOLD)
    }
}

impl ArrivalPolicy {
    /// Default number of consecutive root-CAS failures before switching to
    /// tree arrivals.
    pub const DEFAULT_THRESHOLD: u32 = 2;

    /// Creates a policy that tolerates `threshold` consecutive failed root
    /// CASes before moving to the tree. The legacy sentinel values still
    /// map to the pinned modes (`u32::MAX` pins arrivals to the root, `0`
    /// pins them to the tree) so stored thresholds keep their meaning.
    pub fn new(threshold: u32) -> Self {
        let mode = match threshold {
            0 => ArrivalMode::PinnedTree,
            u32::MAX => ArrivalMode::PinnedRoot,
            t => ArrivalMode::Threshold(t),
        };
        Self::with_mode(mode)
    }

    /// Creates a policy with an explicit decision mode.
    pub fn with_mode(mode: ArrivalMode) -> Self {
        Self { failures: 0, mode }
    }

    /// A policy that always arrives directly at the root.
    pub fn always_direct() -> Self {
        Self::with_mode(ArrivalMode::PinnedRoot)
    }

    /// A policy that always arrives at the tree.
    pub fn always_tree() -> Self {
        Self::with_mode(ArrivalMode::PinnedTree)
    }

    /// The decision mode this policy runs.
    pub fn mode(&self) -> ArrivalMode {
        self.mode
    }

    /// Current consecutive-failure credit (contention evidence an
    /// adaptive C-SNZI consults when deciding to inflate).
    pub fn failure_streak(&self) -> u32 {
        self.failures
    }

    /// Decides where the next arrival should go, given the freshly loaded
    /// root word.
    pub fn should_arrive_at_tree(&self, root: RootWord) -> bool {
        match self.mode {
            ArrivalMode::PinnedRoot => false,
            ArrivalMode::PinnedTree => true,
            ArrivalMode::Threshold(t) => self.failures >= t || root.tree > 0,
        }
    }

    /// Records a failed CAS on the root (contention evidence).
    pub fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
    }

    /// Records a successful direct arrival (contention is subsiding).
    pub fn record_success(&mut self) {
        self.failures = self.failures.saturating_sub(1);
    }

    /// Records a tree arrival whose entry leaf was empty, so it had to go
    /// through to the root as well — strictly costlier than arriving
    /// directly. Clears the failure streak: the next arrival tries the
    /// root again (unless the root shows tree surplus). A tree *hit* — the
    /// leaf already had surplus and absorbed the arrival — records nothing
    /// and so keeps the handle on the tree.
    pub fn record_tree_miss(&mut self) {
        self.failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_root() -> RootWord {
        RootWord::OPEN_EMPTY
    }

    fn tree_busy_root() -> RootWord {
        RootWord {
            direct: 0,
            tree: 3,
            open: true,
        }
    }

    #[test]
    fn fresh_policy_prefers_direct() {
        let p = ArrivalPolicy::default();
        assert!(!p.should_arrive_at_tree(quiet_root()));
    }

    #[test]
    fn failures_push_to_tree_and_successes_pull_back() {
        let mut p = ArrivalPolicy::new(2);
        p.record_failure();
        assert!(!p.should_arrive_at_tree(quiet_root()));
        p.record_failure();
        assert!(p.should_arrive_at_tree(quiet_root()));
        p.record_success();
        assert!(!p.should_arrive_at_tree(quiet_root()));
    }

    #[test]
    fn tree_miss_clears_the_streak_but_not_the_tree_surplus_clause() {
        let mut p = ArrivalPolicy::new(2);
        p.record_failure();
        p.record_failure();
        p.record_failure();
        p.record_tree_miss();
        assert_eq!(p.failure_streak(), 0);
        assert!(!p.should_arrive_at_tree(quiet_root()));
        assert!(p.should_arrive_at_tree(tree_busy_root()));
    }

    #[test]
    fn tree_surplus_from_others_pushes_to_tree() {
        let p = ArrivalPolicy::default();
        assert!(p.should_arrive_at_tree(tree_busy_root()));
    }

    #[test]
    fn pinned_policies() {
        let p = ArrivalPolicy::always_direct();
        assert!(!p.should_arrive_at_tree(tree_busy_root()));
        let p = ArrivalPolicy::always_tree();
        assert!(p.should_arrive_at_tree(quiet_root()));
    }

    #[test]
    fn sentinel_thresholds_map_to_pinned_modes() {
        assert_eq!(ArrivalPolicy::new(u32::MAX).mode(), ArrivalMode::PinnedRoot);
        assert_eq!(ArrivalPolicy::new(0).mode(), ArrivalMode::PinnedTree);
        assert_eq!(ArrivalPolicy::new(3).mode(), ArrivalMode::Threshold(3));
    }

    #[test]
    fn pinned_root_survives_saturated_failures() {
        let mut p = ArrivalPolicy::always_direct();
        for _ in 0..100 {
            p.record_failure();
        }
        // Pinned means pinned: no failure streak or tree surplus moves it.
        assert!(!p.should_arrive_at_tree(tree_busy_root()));
    }

    #[test]
    fn failure_streak_is_observable() {
        let mut p = ArrivalPolicy::default();
        assert_eq!(p.failure_streak(), 0);
        p.record_failure();
        p.record_failure();
        assert_eq!(p.failure_streak(), 2);
        p.record_success();
        assert_eq!(p.failure_streak(), 1);
    }

    #[test]
    fn failure_counter_saturates() {
        let mut p = ArrivalPolicy::with_mode(ArrivalMode::Threshold(u32::MAX - 1));
        for _ in 0..10 {
            p.record_failure();
        }
        // Saturating, no overflow; still short of the huge threshold.
        assert!(!p.should_arrive_at_tree(quiet_root()));
    }
}
