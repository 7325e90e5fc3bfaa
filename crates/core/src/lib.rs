//! # mjoin — On the Optimality of Strategies for Multiple Joins
//!
//! A faithful, executable reproduction of **Y. C. Tay, "On the Optimality
//! of Strategies for Multiple Joins"** (PODS 1990; JACM 40(5), 1993).
//!
//! The paper asks: when a query optimizer restricts its search to *linear*
//! strategies, to strategies *avoiding Cartesian products*, or both, under
//! what conditions does the restricted search still find a τ-optimum
//! strategy (τ = total tuples generated)? Its answers:
//!
//! * **Theorem 1** — under `C1'` (joins with linked subsets are *strictly*
//!   cheaper than Cartesian products), a linear strategy that is τ-optimum
//!   uses no Cartesian products.
//! * **Theorem 2** — under `C1 ∧ C2`, some τ-optimum strategy uses no
//!   Cartesian products.
//! * **Theorem 3** — under `C3` (joins never exceed either operand), some
//!   τ-optimum strategy is linear *and* product-free.
//!
//! This crate provides:
//!
//! * [`conditions`] — exhaustive, oracle-driven checkers for `C1`, `C1'`,
//!   `C2`, `C3` and the Section-5 condition `C4`;
//! * [`rewrites`] — the proof's tree surgeries (Figures 3–6) as executable
//!   strategy rewrites, so the theorems can be *demonstrated*, not just
//!   asserted;
//! * [`theorems`] — verifiers that check, for a concrete database, both
//!   each theorem's preconditions and its conclusion;
//! * [`Analysis`]/[`analyze`] — a one-call façade combining condition
//!   checking, theorem verification and subspace optimization.
//!
//! ```
//! use mjoin::{analyze, SearchSpace};
//! use mjoin_cost::Database;
//!
//! // A foreign-key chain: every join is on a key ⇒ C3 holds ⇒ a linear,
//! // product-free strategy is globally τ-optimum (Theorem 3).
//! let db = Database::from_specs(&[
//!     ("AB", vec![vec![1, 10], vec![2, 20]]),
//!     ("BC", vec![vec![10, 5], vec![20, 6]]),
//! ]).unwrap();
//! let analysis = analyze(&db).unwrap();
//! assert!(analysis.conditions.c3);
//! assert!(analysis.theorem3.preconditions_hold);
//! assert!(analysis.theorem3.conclusion_holds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod derived;
pub mod report;
pub mod rewrites;
pub mod robust;
pub mod store_io;
pub mod theorems;

mod facade;

pub use conditions::{
    condition_report, first_violation, satisfies, Condition, ConditionReport, Violation,
};
pub use derived::{derive_database, DerivedDatabase, DerivedLeaf};
pub use facade::{
    analyze, analyze_guarded, optimize_database, optimize_database_guarded, Analysis,
};
pub use report::{degradation_section, render_run_report};
pub use robust::{
    optimize_database_robust_threaded, optimize_robust, BrownoutLevel, DegradationReport,
    RobustPlan, Rung, RungAttempt, RungStats,
};
pub use theorems::{
    lemma1_check, lemma4_conclusion, lemma5_check, lemma6_check, theorem1, theorem2, theorem3,
    TheoremReport, FULL_SPACE_DP_MAX_RELS, THEOREM1_MAX_RELS,
};

// One-stop re-exports of the workspace's public surface.
pub use mjoin_cost::{CardinalityOracle, Database, ExactOracle, NoisyOracle, SyntheticOracle};
pub use mjoin_guard::{failpoints, Budget, CancelToken, Guard, MjoinError, Resource};
pub use mjoin_hypergraph::{Acyclicity, DbScheme, JoinTree, RelSet};
pub use mjoin_optimizer::{
    best_bottleneck, best_monotone, bottleneck_of, exists_monotone, ikkbz, lindp, optimize,
    partitioned_dp, try_greedy_bushy, try_greedy_linear, try_ikkbz, try_lindp, try_optimize,
    try_partitioned_dp, try_partitioned_dp_with, Monotonicity, Plan, SearchSpace,
    DEFAULT_BLOCK_MAX,
};
pub use mjoin_query::{lower, parse_query, JoinEdge, LoweredQuery, Query};
pub use mjoin_relation::{AttrSet, Attribute, Catalog, Relation, Value};
pub use mjoin_store::{fingerprint128, LoadedStore, StoreEntry};
pub use mjoin_strategy::{try_best_strategy, Strategy};
pub use store_io::{optimize_fingerprint, save_optimize_entry};
