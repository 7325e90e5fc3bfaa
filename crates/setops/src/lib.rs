//! Union and intersection strategies — Section 5 of the paper.
//!
//! The paper's closing section re-reads its results over set operations:
//!
//! * **Intersection.** "Consider the relation schemes to be completely
//!   connected, and define ⋈ to be ∩. Then `C3` is satisfied, so by
//!   Theorem 3, there is a τ-optimal linear strategy" — i.e. to minimize
//!   the number of elements generated when intersecting sets
//!   `X₁, …, X_n`, a left-deep order
//!   `(((X_{θ(1)} ∩ X_{θ(2)}) ∩ X_{θ(3)}) ∩ …)` suffices.
//! * **Union.** With ⋈ read as ∪ (the duplicate-elimination problem of
//!   Sagiv's representative-instance semantics), condition `C4` holds —
//!   unions never shrink — and the paper leaves optimality open.
//!
//! Both operations are exposed as [`CardinalityOracle`]s over a *complete*
//! database scheme (every pair of "relations" shares the one attribute), so
//! every strategy, condition checker and optimizer in the workspace applies
//! verbatim: a strategy tree over set indices is costed by the sizes of the
//! intermediate intersections/unions it creates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

use mjoin_cost::CardinalityOracle;
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_optimizer::{optimize, SearchSpace};
use mjoin_relation::{AttrSet, Attribute};

/// Which set operation a [`SetOracle`] interprets ⋈ as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SetOp {
    /// ⋈ = ∩ (satisfies the paper's `C3`).
    Intersection,
    /// ⋈ = ∪ (satisfies the paper's `C4`).
    Union,
}

/// A cardinality oracle over a family of integer sets, interpreting ⋈ as
/// ∩ or ∪. The underlying scheme gives every set the same single
/// attribute, making the family *completely connected* exactly as the
/// paper prescribes.
#[derive(Clone, Debug)]
pub struct SetOracle {
    scheme: DbScheme,
    sets: Vec<BTreeSet<i64>>,
    op: SetOp,
    memo: RefCell<HashMap<RelSet, u64>>,
}

impl SetOracle {
    /// Builds an oracle for `sets` under `op`.
    ///
    /// # Panics
    /// Panics on an empty family or more than 64 sets.
    pub fn new(sets: &[Vec<i64>], op: SetOp) -> Self {
        assert!(!sets.is_empty(), "need at least one set");
        let attr = AttrSet::singleton(Attribute::from_index(0));
        let scheme = DbScheme::new(vec![attr; sets.len()]).expect("singleton schemes are nonempty");
        SetOracle {
            scheme,
            sets: sets.iter().map(|s| s.iter().copied().collect()).collect(),
            op,
            memo: RefCell::default(),
        }
    }

    /// The family size.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Never empty (constructor enforces it).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The combined set over `subset` (the "relation state" of that node).
    pub fn combine(&self, subset: RelSet) -> BTreeSet<i64> {
        let mut it = subset.iter();
        let first = it.next().expect("nonempty subset");
        let mut acc = self.sets[first].clone();
        for i in it {
            match self.op {
                SetOp::Intersection => acc = acc.intersection(&self.sets[i]).copied().collect(),
                SetOp::Union => acc.extend(self.sets[i].iter().copied()),
            }
        }
        acc
    }
}

impl CardinalityOracle for SetOracle {
    fn scheme(&self) -> &DbScheme {
        &self.scheme
    }

    fn tau(&self, subset: RelSet) -> u64 {
        assert!(!subset.is_empty(), "τ is defined for nonempty subsets");
        if let Some(&t) = self.memo.borrow().get(&subset) {
            return t;
        }
        let t = self.combine(subset).len() as u64;
        self.memo.borrow_mut().insert(subset, t);
        t
    }
}

/// The τ-cheapest *linear* intersection order for `sets`, as
/// `(order, cost)`. By the paper's Theorem 3 applied to ⋈ = ∩, this is
/// τ-optimal among **all** strategies, bushy included (asserted by the
/// `linear_intersection_is_globally_optimal` tests and property tests).
pub fn best_linear_intersection(sets: &[Vec<i64>]) -> (Vec<usize>, u64) {
    let oracle = SetOracle::new(sets, SetOp::Intersection);
    let full = RelSet::full(sets.len());
    let plan = optimize(&oracle, full, SearchSpace::Linear).expect("linear space is never empty");
    let order = left_deep_order(&plan.strategy);
    (order, plan.cost)
}

/// The τ-optimum over all strategies (bushy allowed) for the family under
/// `op` — the comparison baseline for the intersection theorem and the
/// union open problem.
pub fn best_any(sets: &[Vec<i64>], op: SetOp) -> u64 {
    let oracle = SetOracle::new(sets, op);
    let full = RelSet::full(sets.len());
    optimize(&oracle, full, SearchSpace::All)
        .expect("full space is never empty")
        .cost
}

/// The τ-cheapest *linear* union order, as `(order, cost)`.
///
/// Unions satisfy `C4`, not `C3`, so — unlike intersections — the paper
/// gives no guarantee that this matches [`best_any`]; experiment
/// `A4-intersection` measures how often it does. (For duplicate-heavy
/// families, merging overlapping sets first keeps intermediates small, a
/// structure linear orders cannot always express.)
pub fn best_linear_union(sets: &[Vec<i64>]) -> (Vec<usize>, u64) {
    let oracle = SetOracle::new(sets, SetOp::Union);
    let full = RelSet::full(sets.len());
    let plan = optimize(&oracle, full, SearchSpace::Linear).expect("linear space is never empty");
    let order = left_deep_order(&plan.strategy);
    (order, plan.cost)
}

/// Extracts the leaf order of a linear strategy.
fn left_deep_order(s: &mjoin_strategy::Strategy) -> Vec<usize> {
    // A linear strategy's leaves, read innermost-first.
    fn leaves(s: &mjoin_strategy::Strategy, path: &mut Vec<usize>) {
        let steps = s.steps();
        if steps.is_empty() {
            path.push(s.set().first().expect("leaf"));
            return;
        }
        // Recurse into the non-leaf child first; push the leaf child after.
        let root = steps[0];
        // When both children are leaves either orientation works; otherwise
        // recurse into the non-leaf child.
        let (inner, leaf) = if root.right.is_singleton() {
            (root.left, root.right)
        } else {
            (root.right, root.left)
        };
        let sub = s
            .substrategy(&s.find_node(inner).expect("child exists"))
            .expect("path valid");
        leaves(&sub, path);
        path.push(leaf.first().expect("leaf child"));
    }
    let mut path = Vec::new();
    leaves(s, &mut path);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_strategy::{enumerate_all, Strategy};

    fn families() -> Vec<Vec<Vec<i64>>> {
        vec![
            vec![vec![1, 2, 3, 4], vec![2, 3, 4, 5], vec![3, 4, 5, 6]],
            vec![
                vec![1, 2],
                vec![1, 2, 3, 4, 5, 6],
                vec![2, 3],
                vec![1, 2, 9],
            ],
            vec![vec![7], vec![7, 8], vec![7, 9], vec![7, 10, 11]],
            vec![(0..50).collect(), (25..75).collect(), (40..90).collect()],
        ]
    }

    #[test]
    fn oracle_counts_intersections() {
        let o = SetOracle::new(&[vec![1, 2, 3], vec![2, 3, 4]], SetOp::Intersection);
        assert_eq!(o.tau(RelSet::singleton(0)), 3);
        assert_eq!(o.tau(RelSet::full(2)), 2);
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn oracle_counts_unions() {
        let o = SetOracle::new(&[vec![1, 2, 3], vec![2, 3, 4]], SetOp::Union);
        assert_eq!(o.tau(RelSet::full(2)), 4);
    }

    #[test]
    fn scheme_is_completely_connected() {
        let o = SetOracle::new(&[vec![1], vec![2], vec![3]], SetOp::Intersection);
        let s = o.scheme();
        assert!(s.connected(s.full_set()));
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(s.linked(RelSet::singleton(i), RelSet::singleton(j)));
                }
            }
        }
    }

    #[test]
    fn linear_intersection_is_globally_optimal() {
        // Theorem 3 via C3: the best linear order ties the best bushy
        // strategy.
        for sets in families() {
            let (order, lin_cost) = best_linear_intersection(&sets);
            assert_eq!(order.len(), sets.len());
            let all_cost = best_any(&sets, SetOp::Intersection);
            assert_eq!(lin_cost, all_cost, "{sets:?}");
        }
    }

    #[test]
    fn reported_order_reproduces_reported_cost() {
        for sets in families() {
            let (order, cost) = best_linear_intersection(&sets);
            let o = SetOracle::new(&sets, SetOp::Intersection);
            let s = Strategy::left_deep(&order);
            assert_eq!(s.cost(&o), cost, "{sets:?}");
        }
    }

    #[test]
    fn intersection_satisfies_c3_shape() {
        // Directly check the C3 inequalities: |X ∩ Y| ≤ min(|X|, |Y|) for
        // the combined sets of any two disjoint subsets.
        let sets = families().remove(1);
        let o = SetOracle::new(&sets, SetOp::Intersection);
        let full = RelSet::full(sets.len());
        for e1 in full.subsets() {
            for e2 in full.subsets() {
                if e1.is_empty() || e2.is_empty() || !e1.is_disjoint(e2) {
                    continue;
                }
                let joined = o.tau(e1.union(e2));
                assert!(joined <= o.tau(e1));
                assert!(joined <= o.tau(e2));
            }
        }
    }

    #[test]
    fn union_satisfies_c4_shape() {
        let sets = families().remove(0);
        let o = SetOracle::new(&sets, SetOp::Union);
        let full = RelSet::full(sets.len());
        for e1 in full.subsets() {
            for e2 in full.subsets() {
                if e1.is_empty() || e2.is_empty() || !e1.is_disjoint(e2) {
                    continue;
                }
                let joined = o.tau(e1.union(e2));
                assert!(joined >= o.tau(e1));
                assert!(joined >= o.tau(e2));
            }
        }
    }

    #[test]
    fn union_strategies_all_cost_at_least_final_size() {
        let sets = families().remove(2);
        let o = SetOracle::new(&sets, SetOp::Union);
        let full = RelSet::full(sets.len());
        let final_size = o.tau(full);
        for s in enumerate_all(full) {
            assert!(s.cost(&o) >= final_size);
        }
    }

    #[test]
    fn single_set_family() {
        let (order, cost) = best_linear_intersection(&[vec![1, 2, 3]]);
        assert_eq!(order, vec![0]);
        assert_eq!(cost, 0);
    }

    #[test]
    fn linear_union_can_be_suboptimal() {
        // Two identical pairs: merging duplicates first keeps both
        // intermediates at size k; any linear order must hold a 2k-sized
        // union after its second step. This witnesses why the paper's
        // union question does NOT reduce to Theorem 3.
        let a: Vec<i64> = (0..10).collect();
        let b: Vec<i64> = (10..20).collect();
        let sets = vec![a.clone(), b.clone(), a, b];
        let (order, lin) = best_linear_union(&sets);
        assert_eq!(order.len(), 4);
        let bushy = best_any(&sets, SetOp::Union);
        assert!(bushy < lin, "bushy {bushy} vs linear {lin}");
        // (A ∪ A) ∪ (B ∪ B): 10 + 10 + 20 = 40; linear best: 10 + 20 + 20 = 50.
        assert_eq!(bushy, 40);
        assert_eq!(lin, 50);
    }

    #[test]
    fn linear_union_cost_is_reproducible() {
        let sets = vec![vec![1, 2], vec![2, 3], vec![3, 4]];
        let (order, cost) = best_linear_union(&sets);
        let o = SetOracle::new(&sets, SetOp::Union);
        assert_eq!(Strategy::left_deep(&order).cost(&o), cost);
    }
}
