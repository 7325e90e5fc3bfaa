//! Monotone strategies — Section 5 of the paper.
//!
//! A strategy is *monotone decreasing* if every step produces no more
//! tuples than either child, and *monotone increasing* if every step
//! produces no fewer. The paper observes:
//!
//! * under `C3`, Theorem 3's linear product-free optimum is monotone
//!   decreasing (each step joins linked subsets, and `C3` bounds it by
//!   both children);
//! * γ-acyclic pairwise-consistent databases satisfy `C4`, making *every*
//!   product-free strategy monotone increasing — and the paper asks
//!   whether a τ-optimal monotone increasing strategy always exists.
//!
//! Monotonicity is a per-step predicate on subset cardinalities, so it
//! composes with the same subset DP as everything else.

use mjoin_cost::CardinalityOracle;
use mjoin_hypergraph::RelSet;
use mjoin_strategy::Strategy;

use crate::dp::SplitMemo;
use crate::plan::Plan;

/// Which way every step must move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Monotonicity {
    /// Every step's output ≤ both children (sizes only shrink).
    Decreasing,
    /// Every step's output ≥ both children (sizes only grow).
    Increasing,
}

/// The τ-cheapest strategy all of whose steps are monotone in the given
/// direction, or `None` if no such strategy exists for `subset`.
pub fn best_monotone<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    direction: Monotonicity,
) -> Option<Plan> {
    assert!(!subset.is_empty(), "cannot optimize the empty database");
    let mut memo = SplitMemo::default();
    let cost = mono_rec(oracle, subset, direction, &mut memo)?;
    Some(Plan {
        strategy: rebuild(subset, &memo),
        cost,
    })
}

/// Does any strategy for `subset` have every step monotone in the given
/// direction?
pub fn exists_monotone<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    direction: Monotonicity,
) -> bool {
    best_monotone(oracle, subset, direction).is_some()
}

fn mono_rec<O: CardinalityOracle>(
    oracle: &O,
    s: RelSet,
    direction: Monotonicity,
    memo: &mut SplitMemo,
) -> Option<u64> {
    if s.is_singleton() {
        return Some(0);
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return if c == u64::MAX { None } else { Some(c) };
    }
    let own = oracle.tau(s);
    let mut best = u64::MAX;
    let mut best_split = None;
    for (s1, s2) in s.proper_splits() {
        let ok = match direction {
            Monotonicity::Decreasing => own <= oracle.tau(s1) && own <= oracle.tau(s2),
            Monotonicity::Increasing => own >= oracle.tau(s1) && own >= oracle.tau(s2),
        };
        if !ok {
            continue;
        }
        let (Some(c1), Some(c2)) = (
            mono_rec(oracle, s1, direction, memo),
            mono_rec(oracle, s2, direction, memo),
        ) else {
            continue;
        };
        let c = c1.saturating_add(c2);
        if c < best {
            best = c;
            best_split = Some((s1, s2));
        }
    }
    if best == u64::MAX {
        memo.insert(s, (u64::MAX, None));
        None
    } else {
        let total = own.saturating_add(best);
        memo.insert(s, (total, best_split));
        Some(total)
    }
}

fn rebuild(s: RelSet, memo: &SplitMemo) -> Strategy {
    if s.is_singleton() {
        return Strategy::leaf(s.first().expect("singleton"));
    }
    let (_, split) = memo[&s];
    let (s1, s2) = split.expect("solved non-singletons record their split");
    Strategy::join(rebuild(s1, memo), rebuild(s2, memo)).expect("splits are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};

    #[test]
    fn decreasing_on_key_chain() {
        // Keys on both sides of every join: all joins shrink.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1], vec![7, 2]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = best_monotone(&o, full, Monotonicity::Decreasing).unwrap();
        assert!(plan.strategy.is_monotone_decreasing(&o));
        // The monotone optimum matches the global optimum here (C3 world).
        let best = crate::dp::best_bushy(&o, full).cost;
        assert_eq!(plan.cost, best);
        // No monotone increasing strategy exists (sizes strictly shrink).
        assert!(!exists_monotone(&o, full, Monotonicity::Increasing));
    }

    #[test]
    fn increasing_on_consistent_fanout() {
        // Pairwise-consistent fan-out: joins only grow.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 0], vec![2, 0]]),
            ("BC", vec![vec![0, 5], vec![0, 6], vec![0, 7]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = best_monotone(&o, full, Monotonicity::Increasing).unwrap();
        assert!(plan.strategy.is_monotone_increasing(&o));
        assert!(!exists_monotone(&o, full, Monotonicity::Decreasing));
    }

    #[test]
    fn no_monotone_strategy_on_zigzag() {
        // Oscillating sizes: some step must grow and some must shrink.
        let db = Database::from_specs(&[
            ("AB", vec![vec![0, 0], vec![1, 0], vec![2, 0]]), // B hot
            ("BC", vec![vec![0, 0], vec![0, 1], vec![0, 2]]), // grows ×3
            ("CD", vec![vec![0, 9]]),                         // shrinks to ⅓
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        // AB⋈BC = 9 (up), then ⋈CD = 3 (down): not decreasing from the
        // start, and the final result 3 is bigger than CD (1) but smaller
        // than AB⋈BC — check both directions against the DP's verdict and
        // brute force.
        let brute_dec = mjoin_strategy::enumerate_all(full)
            .into_iter()
            .any(|s| s.is_monotone_decreasing(&o));
        let brute_inc = mjoin_strategy::enumerate_all(full)
            .into_iter()
            .any(|s| s.is_monotone_increasing(&o));
        assert_eq!(
            exists_monotone(&o, full, Monotonicity::Decreasing),
            brute_dec
        );
        assert_eq!(
            exists_monotone(&o, full, Monotonicity::Increasing),
            brute_inc
        );
    }

    #[test]
    fn monotone_dp_matches_enumeration() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
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
            for dir in [Monotonicity::Decreasing, Monotonicity::Increasing] {
                let mut brute: Option<u64> = None;
                for s in mjoin_strategy::enumerate_all(full) {
                    let monotone = match dir {
                        Monotonicity::Decreasing => s.is_monotone_decreasing(&o),
                        Monotonicity::Increasing => s.is_monotone_increasing(&o),
                    };
                    if monotone {
                        let c = s.cost(&o);
                        brute = Some(brute.map_or(c, |b: u64| b.min(c)));
                    }
                }
                let dp = best_monotone(&o, full, dir).map(|p| p.cost);
                assert_eq!(dp, brute, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn singleton_is_vacuously_monotone() {
        let db = Database::from_specs(&[("AB", vec![vec![1, 2]])]).unwrap();
        let o = ExactOracle::new(&db);
        for dir in [Monotonicity::Decreasing, Monotonicity::Increasing] {
            let plan = best_monotone(&o, RelSet::singleton(0), dir).unwrap();
            assert_eq!(plan.cost, 0);
        }
    }
}
