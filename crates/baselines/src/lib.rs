//! Baseline reader-writer locks the paper compares against
//! (*Scalable Reader-Writer Locks*, SPAA 2009).
//!
//! Every lock here implements [`oll_core::RwLockFamily`], so the Figure 5
//! harness and the integration test suite drive them interchangeably with
//! the OLL locks:
//!
//! * [`CentralizedRwLock`] — one CAS word; the strawman of §1.
//! * [`SolarisLikeRwLock`] — central lockword + turnstile hand-off (§3.1);
//!   the lock GOLL improves on, benchmarked in Figure 5 as "Solaris Like".
//! * [`KsuhLock`] — Krieger et al.'s doubly-linked-queue RW lock \[8\],
//!   the paper's fastest MCS-style competitor, benchmarked in Figure 5.
//! * [`StdRwLock`] — `std::sync::RwLock` for a platform sanity line.
//!
//! The locks the paper only cites — the MCS mutex (FOLL/ROLL's own queue
//! is one), MCS-RW \[11\] and Hsieh & Weihl \[7\] — are not built here
//! (DESIGN.md §1, rows S8, S9 and S13).

#![warn(missing_docs)]

pub mod centralized;
pub mod ksuh;
pub mod solaris_like;
pub mod std_rw;

pub use centralized::CentralizedRwLock;
pub use ksuh::KsuhLock;
pub use solaris_like::SolarisLikeRwLock;
pub use std_rw::StdRwLock;
