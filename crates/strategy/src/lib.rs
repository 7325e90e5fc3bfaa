//! Join strategies: the paper's rooted binary trees over a database scheme.
//!
//! A *strategy* for a database `𝒟 = (𝐃, D)` (Section 2 of the paper) is a
//! rooted binary tree whose nodes are pairs `[𝐃′, R_{D′}]` with
//!
//! * (S1) `𝐃′ ⊆ 𝐃`,
//! * (S2) the root carrying `𝐃` itself,
//! * (S3) every internal node's children partitioning its subset, and
//! * (S4) leaves being single relations.
//!
//! Because the relation state of a node is determined by its scheme subset
//! (`R_{D′} = ⋈_{R∈D′} R`), this crate represents a strategy purely
//! structurally — a binary tree over relation indices — and obtains every
//! `τ` through a [`CardinalityOracle`](mjoin_cost::CardinalityOracle).
//!
//! Provided here:
//!
//! * [`Strategy`] construction, validation and queries (linearity,
//!   Cartesian-product usage, component evaluation, monotonicity);
//! * the paper's **pluck** and **graft** tree surgeries (Figures 1–2), from
//!   which every rewrite in the proofs of Theorems 1–3 is assembled;
//! * exhaustive enumeration of the strategy spaces optimizers search —
//!   all strategies, linear strategies, strategies avoiding Cartesian
//!   products — together with closed-form counts ((2n−3)!! and n!/2,
//!   matching the "15 orderings" of the paper's opening paragraph).
//!
//! ```
//! use mjoin_cost::{Database, ExactOracle};
//! use mjoin_strategy::Strategy;
//!
//! let db = Database::from_specs(&[
//!     ("AB", vec![vec![1, 10], vec![2, 20]]),
//!     ("BC", vec![vec![10, 5]]),
//!     ("CD", vec![vec![5, 7]]),
//! ]).unwrap();
//!
//! // ((AB ⋈ BC) ⋈ CD) — a linear strategy.
//! let s = Strategy::left_deep(&[0, 1, 2]);
//! assert!(s.is_linear());
//! assert!(!s.uses_cartesian(db.scheme()));
//!
//! let oracle = ExactOracle::new(&db);
//! assert_eq!(s.cost(&oracle), 1 + 1); // two steps, one tuple each
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod cost;
mod enumerate;
mod execute;
mod node;
mod parse;
mod shape;
mod transform;

pub use enumerate::{
    count_all_strategies, count_linear_strategies, enumerate_all, enumerate_avoiding_cartesian,
    enumerate_linear, enumerate_no_cartesian, for_each_strategy, try_best_strategy,
    try_for_each_strategy,
};
pub use execute::StepTrace;
pub use node::{Path, Step, Strategy, StrategyError};
pub use parse::ParseError;
pub use shape::LinearShape;
