//! The event taxonomy: every countable thing a lock slow path can do.
//!
//! The list itself — variant, `snake_case` name, doc line — lives once,
//! in [`oll_trace::lock_events!`], which also generates the leading
//! `TraceKind`s from it: a counted event and its trace record cannot
//! drift apart. The C-SNZI's shared-write counts (root writes, node
//! writes, failed root CASes) are first-class events, so one snapshot
//! carries the whole contention picture.

oll_trace::lock_events! {
    /// One countable lock event. `repr(usize)` so an event doubles as an
    /// index into the per-shard counter array.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[repr(usize)]
    pub enum LockEvent {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order_and_complete() {
        assert_eq!(LockEvent::ALL.len(), LockEvent::COUNT);
        for (i, e) in LockEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{}", e.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = LockEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LockEvent::COUNT);
    }
}
