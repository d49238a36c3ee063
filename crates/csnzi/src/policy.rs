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
//! A direct arrival is one unconditional `fetch_add` and cannot fail, so
//! "attempting to do so has failed" is read off the word that `fetch_add`
//! returned ([`ArrivalPolicy::record_arrival`]): an arrival that finds at
//! least `threshold` *other* direct arrivals in flight met a crowded root
//! and counts as a failed CAS did, any other one as a success. One other
//! arrival in flight is the normal state of two readers sharing a lock and
//! must not count — a tree whose leaves nobody shares costs two RMWs where
//! the root costs one. Tree surplus seen in the same word sends the *next*
//! arrival to look at the tree; that one starts with a root load, as every
//! arrival used to, and the direct fast path never does.
//!
//! The evidence has to be re-learned: the tree helps only when the entry
//! leaf already holds surplus and absorbs the arrival. A tree arrival that
//! finds its leaf empty (a *miss*) pays the leaf *and* the root, so it
//! clears the streak and the next arrival tries the root again. Nothing
//! else on the tree path lowers the streak, so this is what ends a tree
//! excursion once the contention that started it has passed.
//!
//! The policy is *per-thread* state (a streak counter and the last word's
//! tree bit); lock handles own one per C-SNZI they use. Pinned policies (always root, always tree)
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
    /// arrivals each find `threshold` or more other direct arrivals in
    /// flight, or the root shows tree surplus.
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
    /// The word the last direct arrival's `fetch_add` returned showed
    /// tree surplus.
    tree_seen: bool,
    mode: ArrivalMode,
}

impl Default for ArrivalPolicy {
    fn default() -> Self {
        Self::new(Self::DEFAULT_THRESHOLD)
    }
}

impl ArrivalPolicy {
    /// Default `threshold`: both how many other direct arrivals in flight
    /// make a root arrival a crowded one, and how many crowded arrivals in
    /// a row send the handle to the tree.
    pub const DEFAULT_THRESHOLD: u32 = 2;

    /// Creates a policy that tolerates `threshold` consecutive crowded
    /// root arrivals before moving to the tree. The legacy sentinel values still
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
        Self {
            failures: 0,
            tree_seen: false,
            mode,
        }
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

    /// Current crowded-arrival credit (the contention evidence that
    /// sends the handle's arrivals to the tree).
    pub fn failure_streak(&self) -> u32 {
        self.failures
    }

    /// Whether the handle's own evidence says the next arrival should
    /// look at the tree — and so start with a root load, which the direct
    /// fast path does without.
    #[inline]
    pub fn wants_tree(&self) -> bool {
        match self.mode {
            ArrivalMode::PinnedRoot => false,
            ArrivalMode::PinnedTree => true,
            ArrivalMode::Threshold(t) => self.failures >= t || self.tree_seen,
        }
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

    /// Observes `old`, the word a direct arrival's `fetch_add` returned:
    /// its tree surplus routes the next arrival past the tree, and its
    /// direct count says whether this arrival met a crowded root
    /// (`threshold` or more others in flight — contention evidence) or
    /// not (contention is subsiding).
    #[inline]
    pub fn record_arrival(&mut self, old: RootWord) {
        self.tree_seen = old.tree > 0;
        match self.mode {
            ArrivalMode::Threshold(t) if old.direct >= u64::from(t) => {
                self.failures = self.failures.saturating_add(1);
            }
            _ => self.record_success(),
        }
    }

    /// Records an uncrowded direct arrival (contention is subsiding).
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
            tree: 3,
            ..RootWord::OPEN_EMPTY
        }
    }

    /// The word an arrival's `fetch_add` returns when `others` direct
    /// arrivals are in flight.
    fn crowded_root(others: u64) -> RootWord {
        RootWord {
            direct: others,
            ..RootWord::OPEN_EMPTY
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
        p.record_arrival(crowded_root(2));
        assert!(!p.wants_tree());
        p.record_arrival(crowded_root(5));
        assert!(p.wants_tree());
        assert!(p.should_arrive_at_tree(quiet_root()));
        p.record_arrival(quiet_root());
        assert!(!p.wants_tree());
        assert!(!p.should_arrive_at_tree(quiet_root()));
    }

    #[test]
    fn one_other_arrival_in_flight_is_not_contention() {
        // Two readers sharing a lock see each other most of the time; a
        // tree nobody shares a leaf of would cost both of them.
        let mut p = ArrivalPolicy::default();
        for _ in 0..100 {
            p.record_arrival(crowded_root(1));
        }
        assert_eq!(p.failure_streak(), 0);
        assert!(!p.wants_tree());
    }

    #[test]
    fn tree_surplus_in_the_returned_word_routes_the_next_arrival() {
        let mut p = ArrivalPolicy::default();
        p.record_arrival(tree_busy_root());
        assert!(p.wants_tree(), "the next arrival looks at the tree");
        assert_eq!(p.failure_streak(), 0, "and that is all it says");
        // The look is a fresh root load: the tree may have drained since.
        assert!(!p.should_arrive_at_tree(quiet_root()));
        p.record_arrival(quiet_root());
        assert!(!p.wants_tree());
    }

    #[test]
    fn tree_miss_clears_the_streak_but_not_the_tree_surplus_clause() {
        let mut p = ArrivalPolicy::new(2);
        for _ in 0..3 {
            p.record_arrival(crowded_root(2));
        }
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
        assert!(!p.wants_tree());
        assert!(!p.should_arrive_at_tree(tree_busy_root()));
        let p = ArrivalPolicy::always_tree();
        assert!(p.wants_tree());
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
            p.record_arrival(RootWord {
                direct: 100,
                ..tree_busy_root()
            });
        }
        // Pinned means pinned: no crowd or tree surplus moves it.
        assert!(!p.wants_tree());
        assert!(!p.should_arrive_at_tree(tree_busy_root()));
    }

    #[test]
    fn failure_streak_is_observable() {
        let mut p = ArrivalPolicy::default();
        assert_eq!(p.failure_streak(), 0);
        p.record_arrival(crowded_root(2));
        p.record_arrival(crowded_root(2));
        assert_eq!(p.failure_streak(), 2);
        p.record_arrival(quiet_root());
        assert_eq!(p.failure_streak(), 1);
    }

    #[test]
    fn failure_counter_saturates() {
        let mut p = ArrivalPolicy::with_mode(ArrivalMode::Threshold(u32::MAX - 1));
        for _ in 0..10 {
            p.record_arrival(crowded_root(crate::root::COUNT_MAX));
        }
        // No count can reach the huge threshold, so nothing was recorded.
        assert_eq!(p.failure_streak(), 0);
        assert!(!p.should_arrive_at_tree(quiet_root()));
    }
}
