//! Sequential reference model of the C-SNZI specification (Figure 1).
//!
//! This is a direct transliteration of the paper's specification, plus the
//! §2.1 variations (`OpenWithArrivals`, `CloseIfEmpty`). It exists so that
//! property tests can check the tree-based implementation against the spec
//! on arbitrary operation sequences, and so the documentation has an
//! executable statement of what a C-SNZI *is*.
//!
//! # Where the implementation is weaker than this object, and only there
//!
//! Sequentially the implementation and this object agree on every return
//! value (`tests/spec_equivalence.rs`). Concurrently, one operation has a
//! wider set of linearizations than Figure 1 gives it: a *failed* `Arrive`.
//! The implementation's direct arrival is an unconditional `fetch_add`
//! that, finding the word closed, takes itself back with the ordinary
//! departure (`crate::root`, rules 1 and 2). Such an arrival may be
//! linearized as either
//!
//! * **nothing** — Figure 1's failed arrive: no state change — or
//! * **an `arrive` immediately followed by its own `depart`**, both inside
//!   the operation's interval, on an object that was closed throughout.
//!   This object has no such transition (`arrive` refuses a closed state);
//!   read it as `surplus += 1` at the `fetch_add` and [`depart`] at the
//!   undo.
//!
//! The second reading is what other operations can observe. It is why
//! [`close`] and [`close_if_empty`] may report a surplus that no
//! *successful* arrival made (they fail spuriously, and the closer takes
//! its slow path), and why the `depart` half can be the one that returns
//! `false`: if every real holder leaves while the failed arrival is on the
//! word, its undo is the last departure of a closed object, and the failed
//! arriver — not a reader — owes the hand-off
//! (`Ticket::FAILED_MUST_HAND_OFF`). What it can never do is what the spec
//! forbids outright: be counted as a holder by an owner. An arrival that
//! lands on an *owned* word (`close` returned `true`, `close_if_empty`
//! closed, or the last departer claimed it) is outside the abstract
//! surplus altogether — `open` requires ownership, not `surplus = 0` — and
//! its undo never signals. A lone failed arrival (nothing concurrent) is
//! add + undo = nothing under either reading, which is why the sequential
//! equivalence holds unchanged.
//!
//! [`depart`]: SpecCsnzi::depart
//! [`close`]: SpecCsnzi::close
//! [`close_if_empty`]: SpecCsnzi::close_if_empty

/// The abstract state of Figure 1: a surplus and an OPEN/CLOSED flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecCsnzi {
    surplus: u64,
    open: bool,
}

impl Default for SpecCsnzi {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecCsnzi {
    /// A C-SNZI is initially open with no surplus.
    pub fn new() -> Self {
        Self {
            surplus: 0,
            open: true,
        }
    }

    /// `Arrive`: if open, increments the surplus and returns `true`;
    /// otherwise fails with no state change.
    pub fn arrive(&mut self) -> bool {
        if self.open {
            self.surplus += 1;
            true
        } else {
            false
        }
    }

    /// `Depart`: decrements the surplus (requires a surplus); returns
    /// `false` iff this was the last departure from a *closed* C-SNZI.
    ///
    /// # Panics
    /// Panics if called with no surplus (the spec's precondition).
    #[allow(clippy::nonminimal_bool)] // mirrors Figure 1 verbatim
    pub fn depart(&mut self) -> bool {
        assert!(self.surplus > 0, "Depart requires surplus > 0");
        self.surplus -= 1;
        !(self.surplus == 0 && !self.open)
    }

    /// `Query`: returns `(surplus > 0, state = OPEN)`.
    pub fn query(&self) -> (bool, bool) {
        (self.surplus > 0, self.open)
    }

    /// `Close`: closes an open C-SNZI; returns `true` iff it was open and
    /// the surplus was (and remains) zero.
    pub fn close(&mut self) -> bool {
        if self.open {
            self.open = false;
            self.surplus == 0
        } else {
            false
        }
    }

    /// `Open`: requires the C-SNZI to be closed with zero surplus.
    ///
    /// # Panics
    /// Panics if the precondition is violated.
    pub fn open(&mut self) {
        assert!(
            !self.open && self.surplus == 0,
            "Open requires state = CLOSED and surplus = 0"
        );
        self.open = true;
    }

    /// `CloseIfEmpty` (§2.1): like `Close` but does nothing when there is a
    /// surplus. Returns `true` iff the state changed from OPEN to CLOSED.
    pub fn close_if_empty(&mut self) -> bool {
        if self.open && self.surplus == 0 {
            self.open = false;
            true
        } else {
            false
        }
    }

    /// `OpenWithArrivals` (§2.1): atomically opens, performs `cnt` arrivals,
    /// and optionally closes again. Requires closed with zero surplus.
    ///
    /// # Panics
    /// Panics if the precondition is violated.
    pub fn open_with_arrivals(&mut self, cnt: u64, close: bool) {
        assert!(
            !self.open && self.surplus == 0,
            "OpenWithArrivals requires state = CLOSED and surplus = 0"
        );
        self.surplus = cnt;
        self.open = !close;
    }

    /// Current surplus (test observability; not part of the C-SNZI API).
    pub fn surplus(&self) -> u64 {
        self.surplus
    }

    /// Current open flag (test observability).
    pub fn is_open(&self) -> bool {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initially_open_and_empty() {
        let s = SpecCsnzi::new();
        assert_eq!(s.query(), (false, true));
    }

    #[test]
    fn arrive_depart_cycle() {
        let mut s = SpecCsnzi::new();
        assert!(s.arrive());
        assert_eq!(s.query(), (true, true));
        assert!(s.depart()); // open ⇒ depart returns true even when last
        assert_eq!(s.query(), (false, true));
    }

    #[test]
    fn arrivals_fail_while_closed() {
        let mut s = SpecCsnzi::new();
        assert!(s.close());
        assert!(!s.arrive());
        assert_eq!(s.query(), (false, false));
        s.open();
        assert!(s.arrive());
    }

    #[test]
    fn close_with_surplus_returns_false_and_still_closes() {
        let mut s = SpecCsnzi::new();
        assert!(s.arrive());
        assert!(!s.close());
        assert_eq!(s.query(), (true, false)); // read-locked, writer waiting
                                              // Last departure from a closed C-SNZI reports false.
        assert!(!s.depart());
        assert_eq!(s.query(), (false, false));
    }

    #[test]
    fn last_departure_signal_only_when_closed() {
        let mut s = SpecCsnzi::new();
        s.arrive();
        s.arrive();
        s.close();
        assert!(s.depart()); // not last
        assert!(!s.depart()); // last + closed
    }

    #[test]
    fn close_if_empty_noop_with_surplus() {
        let mut s = SpecCsnzi::new();
        s.arrive();
        assert!(!s.close_if_empty());
        assert!(s.is_open());
        s.depart();
        assert!(s.close_if_empty());
        assert!(!s.is_open());
        assert!(!s.close_if_empty()); // already closed
    }

    #[test]
    fn open_with_arrivals_sets_surplus_and_state() {
        let mut s = SpecCsnzi::new();
        s.close();
        s.open_with_arrivals(3, false);
        assert_eq!(s.surplus(), 3);
        assert!(s.is_open());

        let mut s = SpecCsnzi::new();
        s.close();
        s.open_with_arrivals(2, true);
        assert_eq!(s.query(), (true, false));
        assert!(s.depart());
        assert!(!s.depart()); // last departure from closed
    }

    #[test]
    #[should_panic(expected = "surplus > 0")]
    fn depart_without_surplus_panics() {
        let mut s = SpecCsnzi::new();
        s.depart();
    }

    #[test]
    #[should_panic(expected = "CLOSED")]
    fn open_when_open_panics() {
        let mut s = SpecCsnzi::new();
        s.open();
    }

    #[test]
    fn closed_with_no_surplus_stays_empty_until_open() {
        let mut s = SpecCsnzi::new();
        s.close();
        // arrivals fail, so surplus can only stay zero
        for _ in 0..5 {
            assert!(!s.arrive());
        }
        assert_eq!(s.surplus(), 0);
        s.open();
        assert!(s.arrive());
    }
}
