//! Reference implementations the shipped engines are checked against.
//!
//! Each item here computes something a shipped crate also computes, by a
//! simpler or independent route, and is kept only so tests and benches can
//! compare the two:
//!
//! * [`try_best_no_cartesian_dpsize`] — size-stratified pair merging
//!   (`DPsize`), the independent reference for the product-free DP;
//! * [`try_best_no_cartesian_ccp_rescan`] — the DPccp that re-enumerates
//!   the connected subsets of every target under a SipHash memo, the old
//!   arm of the `dp_enumeration` bench and the plan-identity baseline of
//!   the streaming DPccp;
//! * [`sort_merge_join`] and [`nested_loop_join`] — the natural join by
//!   two other algorithms than the shipped hash join; the paper measures a
//!   strategy by `τ` alone, never by how each join is executed, and these
//!   show the measure does not depend on it;
//! * [`all_join_trees`] and [`connected_in_some_join_tree`] — every join
//!   tree of a small α-acyclic scheme, and Section 5's connectivity
//!   quantified over them.
//!
//! Nothing here is linked into the CLI or the daemon: only test suites and
//! `mjoin-bench` depend on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dp;
mod join;
mod jointree;

pub use dp::{try_best_no_cartesian_ccp_rescan, try_best_no_cartesian_dpsize};
pub use join::{nested_loop_join, sort_merge_join};
pub use jointree::{all_join_trees, connected_in_some_join_tree};
