//! Search spaces and the optimizer entry point.

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{Guard, MjoinError};
use mjoin_hypergraph::RelSet;
use mjoin_strategy::Strategy;

use crate::dp;

/// A strategy subspace an optimizer may restrict itself to — the policies
/// the paper attributes to real systems.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchSpace {
    /// Every strategy. (The full space; `(2n−3)!!` members.)
    All,
    /// Linear strategies only (GAMMA).
    Linear,
    /// Strategies using no Cartesian products (INGRES, Starburst). Empty
    /// for unconnected subsets.
    NoCartesian,
    /// Linear strategies using no Cartesian products (System R,
    /// Office-by-Example). Empty for unconnected subsets.
    LinearNoCartesian,
    /// Strategies *avoiding* Cartesian products in the paper's sense:
    /// components evaluated individually and product-free, multiplied
    /// together in exactly `comp − 1` product steps. Coincides with
    /// `NoCartesian` on connected subsets.
    AvoidCartesian,
}

/// An optimized strategy with its τ cost.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Its cost `τ(S)`.
    pub cost: u64,
}

/// Finds the τ-cheapest strategy for `subset` within `space`; the
/// product-free spaces run the streaming csg–cmp DP
/// ([`best_no_cartesian`](crate::best_no_cartesian)).
///
/// Returns `None` iff the space is empty — product-free spaces over
/// unconnected subsets.
pub fn optimize<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    space: SearchSpace,
) -> Option<Plan> {
    assert!(!subset.is_empty(), "cannot optimize the empty database");
    try_optimize(oracle, subset, space, &Guard::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// [`optimize`] under a budget: propagates deadline/cap trips and injected
/// faults as typed errors instead of hanging or panicking.
pub fn try_optimize<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    space: SearchSpace,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot optimize the empty database".into(),
        ));
    }
    if subset.is_singleton() {
        let Some(first) = subset.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Some(Plan {
            strategy: Strategy::leaf(first),
            cost: 0,
        }));
    }
    match space {
        SearchSpace::All => dp::try_best_bushy(oracle, subset, guard).map(Some),
        SearchSpace::Linear => dp::try_best_linear(oracle, subset, false, guard).map(Some),
        SearchSpace::NoCartesian => dp::try_best_no_cartesian(oracle, subset, guard),
        SearchSpace::LinearNoCartesian => {
            if oracle.scheme().connected(subset) {
                dp::try_best_linear(oracle, subset, true, guard).map(Some)
            } else {
                Ok(None)
            }
        }
        SearchSpace::AvoidCartesian => dp::try_best_avoid_cartesian(oracle, subset, guard),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};

    /// Example 1 of the paper (states for R3/R4 are arbitrary 7-tuple
    /// relations; they only participate in Cartesian products).
    fn example1() -> Database {
        let r1 = vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]];
        let r2 = vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]];
        let seven: Vec<Vec<i64>> = (0..7).map(|i| vec![i, i]).collect();
        Database::from_specs(&[("AB", r1), ("BC", r2), ("DE", seven.clone()), ("FG", seven)])
            .unwrap()
    }

    #[test]
    fn example1_subspace_optima() {
        let db = example1();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();

        // Best overall: 546 ((R1 ⋈ R3) ⋈ (R2 ⋈ R4)) — uses products.
        let best = optimize(&o, full, SearchSpace::All).unwrap();
        assert_eq!(best.cost, 546);
        assert!(best.strategy.uses_cartesian(db.scheme()));

        // Best avoiding products: 549 ((R1 ⋈ R2) ⋈ (R3 ⋈ R4)).
        let avoid = optimize(&o, full, SearchSpace::AvoidCartesian).unwrap();
        assert_eq!(avoid.cost, 549);
        assert!(avoid.strategy.avoids_cartesian(db.scheme()));

        // Scheme is unconnected: strictly product-free spaces are empty.
        assert!(optimize(&o, full, SearchSpace::NoCartesian).is_none());
        assert!(optimize(&o, full, SearchSpace::LinearNoCartesian).is_none());

        // Best linear: 570 (the two linear CP-avoiding orders tie; linear
        // strategies with products do no better here... in fact S4's shape
        // is bushy, and the cheapest linear costs 564).
        let lin = optimize(&o, full, SearchSpace::Linear).unwrap();
        assert!(lin.strategy.is_linear());
        assert!(lin.cost <= 570);
        // Exhaustive check below pins the exact value.
    }

    #[test]
    fn dp_matches_exhaustive_enumeration() {
        let db = example1();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();

        let mut best_all = u64::MAX;
        let mut best_linear = u64::MAX;
        for s in mjoin_strategy::enumerate_all(full) {
            let c = s.cost(&o);
            best_all = best_all.min(c);
            if s.is_linear() {
                best_linear = best_linear.min(c);
            }
        }
        assert_eq!(optimize(&o, full, SearchSpace::All).unwrap().cost, best_all);
        assert_eq!(
            optimize(&o, full, SearchSpace::Linear).unwrap().cost,
            best_linear
        );
    }

    #[test]
    fn connected_chain_all_spaces_agree_on_validity() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1], vec![7, 2]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        for space in [
            SearchSpace::All,
            SearchSpace::Linear,
            SearchSpace::NoCartesian,
            SearchSpace::LinearNoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            let plan = optimize(&o, full, space).unwrap();
            assert!(plan.strategy.validate(db.scheme()), "{space:?}");
            assert_eq!(plan.strategy.set(), full, "{space:?}");
            assert_eq!(plan.cost, plan.strategy.cost(&o), "{space:?}");
            match space {
                SearchSpace::Linear | SearchSpace::LinearNoCartesian => {
                    assert!(plan.strategy.is_linear())
                }
                SearchSpace::NoCartesian | SearchSpace::AvoidCartesian => {
                    assert!(!plan.strategy.uses_cartesian(db.scheme()))
                }
                SearchSpace::All => {}
            }
        }
    }

    #[test]
    fn singleton_is_free_everywhere() {
        let db = Database::from_specs(&[("AB", vec![vec![1, 2]])]).unwrap();
        let o = ExactOracle::new(&db);
        for space in [
            SearchSpace::All,
            SearchSpace::Linear,
            SearchSpace::NoCartesian,
            SearchSpace::LinearNoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            let plan = optimize(&o, RelSet::singleton(0), space).unwrap();
            assert_eq!(plan.cost, 0);
            assert!(plan.strategy.is_trivial());
        }
    }

    #[test]
    fn space_inclusion_costs_are_ordered() {
        // All ≤ NoCartesian ≤ LinearNoCartesian and All ≤ Linear, on a
        // connected database.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DA", vec![vec![0, 1], vec![1, 2], vec![2, 3]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let all = optimize(&o, full, SearchSpace::All).unwrap().cost;
        let nc = optimize(&o, full, SearchSpace::NoCartesian).unwrap().cost;
        let lin = optimize(&o, full, SearchSpace::Linear).unwrap().cost;
        let lnc = optimize(&o, full, SearchSpace::LinearNoCartesian)
            .unwrap()
            .cost;
        assert!(all <= nc);
        assert!(all <= lin);
        assert!(nc <= lnc);
        assert!(lin <= lnc);
    }
}
