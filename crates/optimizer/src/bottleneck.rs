//! An alternative objective: minimize the **largest** intermediate.
//!
//! The paper chooses τ = *total* tuples generated partly "to provide
//! results that are robust with respect to technological innovation" —
//! on parallel machines or with large main memories (its refs \[16\], \[6\]),
//! the binding constraint is often the biggest intermediate rather than
//! the sum. The bottleneck objective `β(S) = maxᵢ τ(sᵢ)` decomposes over
//! subtrees exactly like τ (max instead of sum), so the same subset DP
//! applies; comparing the two objectives' optima quantifies how robust
//! the paper's conditions are to this change of measure.

use std::collections::HashMap;

use mjoin_cost::CardinalityOracle;
use mjoin_hypergraph::RelSet;
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// Memo entry: (bottleneck, τ tie-break, winning split).
type BottleneckMemo = HashMap<RelSet, (u64, u64, Option<(RelSet, RelSet)>)>;

/// The strategy minimizing the largest step output (ties broken towards
/// smaller τ, so the result is also reasonable under the paper's
/// measure). The returned [`Plan::cost`] is the **bottleneck** value
/// `β(S)`, not τ.
pub fn best_bottleneck<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Plan {
    assert!(!subset.is_empty(), "cannot optimize the empty database");
    // memo: subset → (bottleneck, tau_tiebreak, split)
    let mut memo: BottleneckMemo = HashMap::new();
    let (bottleneck, _) = rec(oracle, subset, &mut memo);
    Plan {
        strategy: rebuild(subset, &memo),
        cost: bottleneck,
    }
}

/// `β(S)` of a given strategy: the largest step output.
pub fn bottleneck_of<O: CardinalityOracle>(oracle: &O, strategy: &Strategy) -> u64 {
    strategy
        .steps()
        .iter()
        .map(|s| oracle.tau(s.set))
        .max()
        .unwrap_or(0)
}

fn rec<O: CardinalityOracle>(oracle: &O, s: RelSet, memo: &mut BottleneckMemo) -> (u64, u64) {
    if s.is_singleton() {
        return (0, 0);
    }
    if let Some(&(b, t, _)) = memo.get(&s) {
        return (b, t);
    }
    let own = oracle.tau(s);
    let mut best = (u64::MAX, u64::MAX);
    let mut best_split = None;
    for (s1, s2) in s.proper_splits() {
        let (b1, t1) = rec(oracle, s1, memo);
        let (b2, t2) = rec(oracle, s2, memo);
        let candidate = (
            own.max(b1).max(b2),
            own.saturating_add(t1).saturating_add(t2),
        );
        if candidate < best {
            best = candidate;
            best_split = Some((s1, s2));
        }
    }
    memo.insert(s, (best.0, best.1, best_split));
    best
}

fn rebuild(s: RelSet, memo: &BottleneckMemo) -> Strategy {
    if s.is_singleton() {
        return Strategy::leaf(s.first().expect("singleton"));
    }
    let (_, _, split) = memo[&s];
    let (s1, s2) = split.expect("solved non-singletons record their split");
    Strategy::join(rebuild(s1, memo), rebuild(s2, memo)).expect("splits are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use mjoin_cost::{Database, ExactOracle};

    fn example1() -> Database {
        let seven: Vec<Vec<i64>> = (0..7).map(|i| vec![i, i]).collect();
        Database::from_specs(&[
            (
                "AB",
                vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]],
            ),
            (
                "BC",
                vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]],
            ),
            ("DE", seven.clone()),
            ("FG", seven),
        ])
        .unwrap()
    }

    #[test]
    fn bottleneck_matches_enumeration() {
        let db = example1();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = best_bottleneck(&o, full);
        let brute = mjoin_strategy::enumerate_all(full)
            .into_iter()
            .map(|s| bottleneck_of(&o, &s))
            .min()
            .unwrap();
        assert_eq!(plan.cost, brute);
        assert_eq!(bottleneck_of(&o, &plan.strategy), plan.cost);
    }

    #[test]
    fn objectives_can_disagree_but_bound_each_other() {
        // On Example 1 the final join (490 tuples) dominates both
        // objectives; the bottleneck optimum must have τ at least the τ
        // optimum, and the τ optimum's bottleneck at least the bottleneck
        // optimum.
        let db = example1();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let tau_opt = dp::best_bushy(&o, full);
        let b_opt = best_bottleneck(&o, full);
        assert!(bottleneck_of(&o, &tau_opt.strategy) >= b_opt.cost);
        assert!(b_opt.strategy.cost(&o) >= tau_opt.cost);
        // Here the final result is the unavoidable bottleneck.
        assert_eq!(b_opt.cost, 490);
    }

    #[test]
    fn bottleneck_on_random_databases_matches_enumeration() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(404);
        for n in 2..=4 {
            let (cat, scheme) = schemes::random_tree(n, &mut rng);
            let cfg = DataConfig {
                tuples_per_relation: 3,
                domain: 4,
                ensure_nonempty: true,
            };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            let plan = best_bottleneck(&o, full);
            let brute = mjoin_strategy::enumerate_all(full)
                .into_iter()
                .map(|s| bottleneck_of(&o, &s))
                .min()
                .unwrap();
            assert_eq!(plan.cost, brute, "n={n}");
        }
    }

    #[test]
    fn singleton_bottleneck_is_zero() {
        let db = example1();
        let o = ExactOracle::new(&db);
        assert_eq!(best_bottleneck(&o, RelSet::singleton(0)).cost, 0);
    }
}
