//! Greedy heuristics for queries beyond exact-DP reach.
//!
//! The paper's Section 1 cites the expectation that "nontraditional
//! database systems may have to evaluate expressions containing hundreds of
//! joins" — far beyond `O(3ⁿ)` or even `O(2ⁿ)` exact search. These two
//! heuristics cover that regime in the large-n experiments:
//!
//! * [`greedy_bushy`] — repeatedly joins the pair of current sub-results
//!   with the smallest output (smallest-intermediate-first);
//! * [`greedy_linear`] — grows one left-deep chain, always adding the
//!   relation that keeps the running intermediate smallest.

use std::collections::HashMap;

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::RelSet;
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// Greedy bushy planner: maintain a forest of sub-strategies, repeatedly
/// merge the pair whose join output is smallest (ties: prefer linked pairs,
/// then lower indices).
pub fn greedy_bushy<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Plan {
    try_greedy_bushy(oracle, subset, &Guard::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// [`greedy_bushy`] under a budget: each merge round is checkpointed and
/// every pair cardinality goes through the fallible oracle surface.
pub fn try_greedy_bushy<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::greedy")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot plan the empty database".into(),
        ));
    }
    let mut forest: Vec<(RelSet, Strategy)> = subset
        .iter()
        .map(|i| (RelSet::singleton(i), Strategy::leaf(i)))
        .collect();
    // Pair cardinalities survive across merge rounds, keyed by the two
    // trees' relation sets (which uniquely identify them): a merge only
    // changes the pairs touching the merged trees, so each round consults
    // the oracle O(k) times instead of O(k²) — O(n²) total, not O(n³).
    let mut pair_cache: HashMap<(RelSet, RelSet), (bool, u64)> = HashMap::new();
    let mut cost = 0u64;
    while forest.len() > 1 {
        guard.checkpoint()?;
        let mut best: Option<(u64, bool, usize, usize)> = None;
        for i in 0..forest.len() {
            for j in (i + 1)..forest.len() {
                let (a, b) = (forest[i].0, forest[j].0);
                // linked/τ are symmetric in the pair, so canonicalize the
                // key — swap_remove reorders the forest between rounds.
                let key_sets = if a.0 <= b.0 { (a, b) } else { (b, a) };
                let (linked, out) = match pair_cache.get(&key_sets) {
                    Some(&cached) => cached,
                    None => {
                        let linked = oracle.scheme().linked(a, b);
                        incr(Counter::GreedyOracleCalls, 1);
                        let out = oracle.try_tau_join(a, b)?;
                        pair_cache.insert(key_sets, (linked, out));
                        (linked, out)
                    }
                };
                // Smaller output wins; linked breaks ties.
                let key = (out, !linked, i, j);
                if best.is_none_or(|(bo, bnl, bi, bj)| key < (bo, bnl, bi, bj)) {
                    best = Some(key);
                }
            }
        }
        let Some((out, _, i, j)) = best else {
            return Err(MjoinError::Internal("≥ 2 trees must remain".into()));
        };
        cost = cost.saturating_add(out);
        // i < j, so removing j first leaves index i pointing at the same
        // tree (swap_remove only disturbs positions ≥ j).
        let (sj_set, sj) = forest.swap_remove(j);
        let (si_set, si) = forest.swap_remove(i);
        // Drop the merged trees' rows/columns; every other pair stays valid.
        pair_cache.retain(|&(a, b), _| a != si_set && a != sj_set && b != si_set && b != sj_set);
        incr(Counter::GreedyMerges, 1);
        let merged = Strategy::join(si, sj)
            .map_err(|e| MjoinError::Internal(format!("forest trees must be disjoint: {e}")))?;
        forest.push((si_set.union(sj_set), merged));
    }
    let Some((_, strategy)) = forest.pop() else {
        return Err(MjoinError::Internal("one tree must remain".into()));
    };
    Ok(Plan { strategy, cost })
}

/// Greedy linear planner: start from the smallest relation, then repeatedly
/// append the relation minimizing the next intermediate (ties: prefer
/// linked extensions, then lower indices — the same cost-first order as
/// [`greedy_bushy`]).
pub fn greedy_linear<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Plan {
    try_greedy_linear(oracle, subset, &Guard::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// [`greedy_linear`] under a budget.
pub fn try_greedy_linear<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::greedy")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot plan the empty database".into(),
        ));
    }
    let mut start = None;
    for i in subset.iter() {
        let t = oracle.try_tau(RelSet::singleton(i))?;
        if start.is_none_or(|(bt, bi)| (t, i) < (bt, bi)) {
            start = Some((t, i));
        }
    }
    let Some((_, start)) = start else {
        return Err(MjoinError::Internal("nonempty subset has a minimum".into()));
    };
    let mut prefix = RelSet::singleton(start);
    let mut order = vec![start];
    let mut cost = 0u64;
    while prefix != subset {
        guard.checkpoint()?;
        let mut next = None;
        for i in subset.difference(prefix).iter() {
            let linked = oracle.scheme().linked(prefix, RelSet::singleton(i));
            incr(Counter::GreedyOracleCalls, 1);
            let out = oracle.try_tau_join(prefix, RelSet::singleton(i))?;
            // Smallest intermediate wins; linked breaks ties — the same
            // cost-first order as the bushy heuristic. (Ranking any linked
            // extension above a cheaper unlinked one contradicted the
            // module doc and could pick a strictly worse plan.)
            let key = (out, !linked, i);
            if next.is_none_or(|k| key < k) {
                next = Some(key);
            }
        }
        let Some((out, _, next)) = next else {
            return Err(MjoinError::Internal("prefix must be proper".into()));
        };
        incr(Counter::GreedyMerges, 1);
        cost = cost.saturating_add(out);
        prefix.insert(next);
        order.push(next);
    }
    Ok(Plan {
        strategy: Strategy::left_deep(&order),
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use mjoin_cost::{Database, ExactOracle};

    fn chain4() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DE", vec![vec![0, 7], vec![1, 8], vec![2, 9]]),
        ])
        .unwrap()
    }

    #[test]
    fn greedy_plans_are_valid_and_costed_correctly() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();

        let gb = greedy_bushy(&o, full);
        assert_eq!(gb.strategy.set(), full);
        assert!(gb.strategy.validate(db.scheme()));
        assert_eq!(gb.cost, gb.strategy.cost(&o));

        let gl = greedy_linear(&o, full);
        assert!(gl.strategy.is_linear());
        assert_eq!(gl.cost, gl.strategy.cost(&o));
    }

    #[test]
    fn greedy_is_bounded_below_by_optimum() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let opt = dp::best_bushy(&o, full).cost;
        assert!(greedy_bushy(&o, full).cost >= opt);
        assert!(greedy_linear(&o, full).cost >= opt);
    }

    #[test]
    fn greedy_linear_bounded_by_linear_optimum() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let opt_lin = dp::best_linear(&o, full, false).cost;
        assert!(greedy_linear(&o, full).cost >= opt_lin);
    }

    #[test]
    fn greedy_on_singleton() {
        let db = Database::from_specs(&[("AB", vec![vec![1, 2]])]).unwrap();
        let o = ExactOracle::new(&db);
        let s = RelSet::singleton(0);
        assert_eq!(greedy_bushy(&o, s).cost, 0);
        assert_eq!(greedy_linear(&o, s).cost, 0);
    }

    /// Forwards to an inner oracle, counting every τ consultation — the
    /// instrument for the pair-cache regression test.
    struct CountingOracle<'a, O: CardinalityOracle> {
        inner: &'a O,
        calls: std::cell::Cell<usize>,
    }

    impl<O: CardinalityOracle> CardinalityOracle for CountingOracle<'_, O> {
        fn scheme(&self) -> &mjoin_hypergraph::DbScheme {
            self.inner.scheme()
        }

        fn tau(&self, subset: RelSet) -> u64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.tau(subset)
        }

        fn try_tau(&self, subset: RelSet) -> Result<u64, MjoinError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.try_tau(subset)
        }

        fn try_tau_join(&self, d1: RelSet, d2: RelSet) -> Result<u64, MjoinError> {
            self.calls.set(self.calls.get() + 1);
            self.inner.try_tau_join(d1, d2)
        }
    }

    #[test]
    fn greedy_linear_prefers_cheapest_extension_over_linked() {
        // Regression: the linear heuristic used to rank any linked
        // extension above a cheaper unlinked one — key (!linked, out, i) —
        // while the bushy heuristic and the module doc are cost-first.
        // From prefix AB (1 tuple), the 2-tuple product with DE is cheaper
        // than the 3-tuple linked join with BC; the old order joined BC
        // first for a total of 3 + 6 = 9 with plan [0, 1, 2].
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 1]]),
            ("BC", vec![vec![1, 10], vec![1, 11], vec![1, 12]]),
            ("DE", vec![vec![7, 7], vec![8, 8]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let plan = greedy_linear(&o, db.scheme().full_set());
        assert_eq!(plan.strategy, Strategy::left_deep(&[0, 2, 1]));
        assert_eq!(plan.cost, 2 + 6);
    }

    #[test]
    fn greedy_bushy_pair_cache_cuts_oracle_calls() {
        // Regression: every merge round used to recompute all O(k²) pair
        // cardinalities — Σ C(k,2) = 35 oracle calls for a 6-chain. With
        // pairs cached across rounds only the merged tree's row/column is
        // refreshed: C(6,2) for the first round plus C(5,2) thereafter.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DE", vec![vec![0, 7], vec![1, 8], vec![2, 9]]),
            ("EF", vec![vec![7, 4], vec![8, 4]]),
            ("FG", vec![vec![4, 1], vec![4, 2]]),
        ])
        .unwrap();
        let inner = ExactOracle::new(&db);
        let o = CountingOracle {
            inner: &inner,
            calls: Default::default(),
        };
        let full = db.scheme().full_set();
        let plan = greedy_bushy(&o, full);
        let planning_calls = o.calls.get();
        assert_eq!(plan.cost, plan.strategy.cost(&o));
        let n = 6;
        let uncached: usize = (2..=n).map(|k| k * (k - 1) / 2).sum();
        let cached = n * (n - 1) / 2 + (n - 1) * (n - 2) / 2;
        assert_eq!(uncached, 35);
        assert_eq!(planning_calls, cached);
        assert!(planning_calls < uncached);
    }

    #[test]
    fn greedy_handles_unconnected_schemes() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 2], vec![3, 4]]),
            ("CD", vec![vec![5, 6]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = greedy_bushy(&o, full);
        assert_eq!(plan.cost, 2); // the unavoidable product
        let lin = greedy_linear(&o, full);
        assert_eq!(lin.cost, 2);
    }
}
