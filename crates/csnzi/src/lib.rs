//! SNZI and closable SNZI (C-SNZI) — the scalable nonzero indicators at
//! the heart of the OLL reader-writer locks (*Scalable Reader-Writer
//! Locks*, SPAA 2009, §2).
//!
//! A C-SNZI lets threads **arrive** and **depart**, answers whether there
//! is a **surplus** of arrivals with a single load, and can be **closed**
//! so that further arrivals fail. In reader-writer-lock terms: readers
//! arrive and depart; writers close and open. The surplus is maintained in
//! a tree so that concurrent arrivals and departures at different leaves
//! touch different cache lines — the property that makes the OLL locks
//! scale under read contention.
//!
//! # Quick example
//!
//! ```
//! use oll_csnzi::{ArrivalPolicy, CSnzi, TreeShape};
//!
//! let c = CSnzi::new(TreeShape::for_threads(8));
//! let mut policy = ArrivalPolicy::default();
//!
//! // A reader arrives (succeeds while open) ...
//! let ticket = c.arrive(&mut policy, /* thread id */ 0);
//! assert!(ticket.arrived());
//!
//! // ... a writer trying to close sees the surplus ...
//! assert!(!c.close()); // closed, but readers still inside
//!
//! // ... and the last departing reader learns it must hand over.
//! assert!(!c.depart(ticket)); // false: closed and now empty
//! c.open();
//! ```
//!
//! The crate also ships the sequential specification object
//! ([`SpecCsnzi`], Figure 1 of the paper) used by the property tests.

#![warn(missing_docs)]

mod csnzi;
pub mod node;
pub mod policy;
pub mod root;
pub mod spec;

pub use crate::csnzi::{CSnzi, CancelOutcome, LeafCursor, Query, Ticket};
pub use node::TreeShape;
pub use policy::{ArrivalMode, ArrivalPolicy};
pub use root::RootWord;
pub use spec::SpecCsnzi;
