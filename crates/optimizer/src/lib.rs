//! Optimizers searching the strategy subspaces of the paper.
//!
//! The paper's motivating question is about query optimizers that restrict
//! their search "to strategies that are linear (e.g., of the form
//! `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄`), or that avoid Cartesian products, or both",
//! naming the policies of System R, INGRES, GAMMA, Starburst and
//! Office-by-Example. This crate implements those search policies as
//! [`SearchSpace`] variants and finds the `τ`-cheapest strategy in each:
//!
//! * [`SearchSpace::All`] — every strategy (bushy, products allowed), by
//!   dynamic programming over subsets (`O(3ⁿ)`);
//! * [`SearchSpace::Linear`] — linear strategies (GAMMA), by prefix-set DP
//!   (`O(2ⁿ·n)`);
//! * [`SearchSpace::NoCartesian`] — product-free strategies (INGRES,
//!   Starburst), by the streaming csg–cmp DP ([`best_no_cartesian`]);
//!   size-stratified pair merging (`DPsize`), the independent reference
//!   it is checked against, lives in `mjoin-reference`;
//! * [`SearchSpace::LinearNoCartesian`] — both restrictions (System R,
//!   Office-by-Example);
//! * [`SearchSpace::AvoidCartesian`] — the paper's extension of
//!   product-avoidance to unconnected schemes: each component evaluated
//!   individually and product-free, components then multiplied in the
//!   cheapest order.
//!
//! Between the exact DPs and the greedy heuristics ([`greedy_bushy`],
//! [`greedy_linear`]) sit two polynomial rungs for the paper's ~100-join
//! regime: [`try_lindp`] (IKKBZ-linearized interval DP — bushy plans whose
//! subtrees are contiguous in a precedence order) and
//! [`try_partitioned_dp`] (exact DPccp inside ≤ k-relation blocks, greedy
//! recombination across the cuts).
//!
//! Costs are always the paper's `τ` (total tuples generated), supplied by a
//! [`CardinalityOracle`](mjoin_cost::CardinalityOracle). Every search runs
//! on the calling thread; an oracle may use worker threads to compute a
//! `τ`, which changes no plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bottleneck;
mod complexity;
mod dp;
mod explain;
mod greedy;
mod ikkbz;
mod lindp;
mod monotone;
mod partdp;
mod plan;

pub use bottleneck::{best_bottleneck, bottleneck_of};
pub use complexity::{enumeration_stats, EnumerationStats};
pub use dp::{
    best_avoid_cartesian, best_bushy, best_linear, best_no_cartesian, try_best_avoid_cartesian,
    try_best_bushy, try_best_linear, try_best_no_cartesian,
};
pub use explain::{ExplainStep, Explanation};
pub use greedy::{greedy_bushy, greedy_linear, try_greedy_bushy, try_greedy_linear};
pub use ikkbz::{ikkbz, try_ikkbz};
pub use lindp::{lindp, try_lindp};
pub use monotone::{best_monotone, exists_monotone, Monotonicity};
pub use partdp::{partitioned_dp, try_partitioned_dp, try_partitioned_dp_with, DEFAULT_BLOCK_MAX};
pub use plan::{optimize, try_optimize, Plan, SearchSpace};
