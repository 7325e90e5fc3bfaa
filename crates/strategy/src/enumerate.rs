//! Exhaustive enumeration of strategy subspaces, and their closed-form
//! counts.
//!
//! The paper opens by counting the strategies for four relations: "there
//! are 3 orderings … of the form `(R₁ ⋈ R₂) ⋈ (R₃ ⋈ R₄)` and 12 orderings
//! of the form `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄`. Among these 15 possible orderings
//! which is optimum?" — i.e. strategies are *unordered* trees: `(2n−3)!!`
//! in total, of which `n!/2` are linear. These functions regenerate both
//! the spaces and the counts (experiment `E0-counting`).

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_obs::{incr, Counter};

use crate::node::Strategy;

/// Enumerates every strategy for `subset` (unordered trees, one
/// representative per equivalence class), invoking `f` on each.
///
/// The number of invocations is `(2k−3)!!` for `k = |subset|`; keep
/// `k ≲ 10`.
pub fn for_each_strategy<F: FnMut(&Strategy)>(subset: RelSet, f: &mut F) {
    for s in enumerate_all(subset) {
        f(&s);
    }
}

/// Lazy, interruptible strategy enumeration: visits the same `(2k−3)!!`
/// trees as [`for_each_strategy`] but *without materializing the space*,
/// checking `guard` at every recursion step so a deadline or cancellation
/// stops the walk promptly even when the space is astronomically large.
/// The visitor can also abort by returning an error.
pub fn try_for_each_strategy(
    subset: RelSet,
    guard: &Guard,
    f: &mut dyn FnMut(&Strategy) -> Result<(), MjoinError>,
) -> Result<(), MjoinError> {
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "strategies need at least one relation".into(),
        ));
    }
    each_rec(subset, guard, f)
}

fn each_rec(
    subset: RelSet,
    guard: &Guard,
    f: &mut dyn FnMut(&Strategy) -> Result<(), MjoinError>,
) -> Result<(), MjoinError> {
    guard.checkpoint()?;
    if subset.is_singleton() {
        let Some(i) = subset.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return f(&Strategy::leaf(i));
    }
    for (s1, s2) in subset.proper_splits() {
        each_rec(s1, guard, &mut |left: &Strategy| {
            let left = left.clone();
            each_rec(s2, guard, &mut |right: &Strategy| {
                let joined = Strategy::join(left.clone(), right.clone()).map_err(|e| {
                    MjoinError::Internal(format!("proper splits must be disjoint: {e}"))
                })?;
                f(&joined)
            })
        })?;
    }
    Ok(())
}

/// The τ-cheapest strategy for `subset` among those passing `accept`,
/// found by exhaustive enumeration in [`try_for_each_strategy`]'s order.
/// The winner is the *first* strategy of minimum cost in that order.
///
/// Returns `Ok(None)` when `accept` rejects every strategy (an empty
/// subspace, e.g. product-free over an unconnected subset).
pub fn try_best_strategy<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
    accept: &dyn Fn(&Strategy) -> bool,
) -> Result<Option<(Strategy, u64)>, MjoinError> {
    let mut best: Option<(Strategy, u64)> = None;
    try_for_each_strategy(subset, guard, &mut |s| {
        incr(Counter::ExhaustiveStrategies, 1);
        if !accept(s) {
            return Ok(());
        }
        let cost = s.try_cost(oracle)?;
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((s.clone(), cost));
        }
        Ok(())
    })?;
    Ok(best)
}

/// All strategies for `subset` (unordered trees, one representative per
/// class, the lower-indexed side first at every step).
pub fn enumerate_all(subset: RelSet) -> Vec<Strategy> {
    assert!(!subset.is_empty(), "strategies need at least one relation");
    if subset.is_singleton() {
        return vec![Strategy::leaf(subset.first().expect("singleton"))];
    }
    let mut out = Vec::new();
    for (s1, s2) in subset.proper_splits() {
        for left in enumerate_all(s1) {
            for right in enumerate_all(s2) {
                out.push(Strategy::join(left.clone(), right).expect("proper splits are disjoint"));
            }
        }
    }
    out
}

/// All *linear* strategies for `subset`: one per permutation of its
/// members with the first two in canonical (ascending) order — `k!/2`
/// strategies for `k ≥ 2`.
pub fn enumerate_linear(subset: RelSet) -> Vec<Strategy> {
    assert!(!subset.is_empty(), "strategies need at least one relation");
    let members: Vec<usize> = subset.iter().collect();
    if members.len() == 1 {
        return vec![Strategy::leaf(members[0])];
    }
    let mut out = Vec::new();
    let mut perm = members;
    let len = perm.len();
    permute(&mut perm, 0, len, &mut |p| {
        if p[0] < p[1] {
            out.push(Strategy::left_deep(p));
        }
    });
    out
}

fn permute<F: FnMut(&[usize])>(items: &mut Vec<usize>, k: usize, n: usize, f: &mut F) {
    if k == n {
        f(items);
        return;
    }
    for i in k..n {
        items.swap(k, i);
        permute(items, k + 1, n, f);
        items.swap(k, i);
    }
}

/// All strategies for `subset` that use **no** Cartesian products —
/// the *connected strategies* of Lemma 6. Empty iff `subset` is
/// unconnected (then every strategy needs at least one product).
pub fn enumerate_no_cartesian(scheme: &DbScheme, subset: RelSet) -> Vec<Strategy> {
    assert!(!subset.is_empty(), "strategies need at least one relation");
    if subset.is_singleton() {
        return vec![Strategy::leaf(subset.first().expect("singleton"))];
    }
    let mut out = Vec::new();
    for (s1, s2) in subset.proper_splits() {
        if !scheme.linked(s1, s2) {
            continue;
        }
        for left in enumerate_no_cartesian(scheme, s1) {
            for right in enumerate_no_cartesian(scheme, s2) {
                out.push(Strategy::join(left.clone(), right).expect("proper splits are disjoint"));
            }
        }
    }
    out
}

/// All strategies for `subset` that *avoid* Cartesian products in the
/// paper's sense: each component is evaluated individually with a
/// product-free substrategy, and the components are then multiplied
/// together (exactly `comp − 1` unavoidable product steps).
pub fn enumerate_avoiding_cartesian(scheme: &DbScheme, subset: RelSet) -> Vec<Strategy> {
    let comps = scheme.components(subset);
    // Product-free strategies per component.
    let per_comp: Vec<Vec<Strategy>> = comps
        .iter()
        .map(|&c| enumerate_no_cartesian(scheme, c))
        .collect();
    // Tree shapes over the component indices.
    let shapes = enumerate_all(RelSet::full(comps.len()));
    let mut out = Vec::new();
    for shape in shapes {
        // Substitute each component's strategies into the shape's leaves,
        // over the cartesian product of choices.
        let mut partial: Vec<Strategy> = vec![];
        substitute(&shape, &per_comp, &mut Vec::new(), &mut partial);
        out.extend(partial);
    }
    out
}

/// Expands a component-level tree `shape` into relation-level strategies by
/// choosing, for every component, one of its product-free strategies.
fn substitute(
    shape: &Strategy,
    per_comp: &[Vec<Strategy>],
    chosen: &mut Vec<Strategy>,
    out: &mut Vec<Strategy>,
) {
    let k = chosen.len();
    if k == per_comp.len() {
        out.push(instantiate(shape, chosen));
        return;
    }
    for s in &per_comp[k] {
        chosen.push(s.clone());
        substitute(shape, per_comp, chosen, out);
        chosen.pop();
    }
}

fn instantiate(shape: &Strategy, chosen: &[Strategy]) -> Strategy {
    use crate::node::Node;
    fn go(node: &Node, chosen: &[Strategy]) -> Strategy {
        match node {
            Node::Leaf(i) => chosen[*i].clone(),
            Node::Join(l, r) => {
                Strategy::join(go(l, chosen), go(r, chosen)).expect("components are disjoint")
            }
        }
    }
    go(&shape.root, chosen)
}

/// `(2n−3)!!` — the number of strategies (unordered binary trees with `n`
/// labelled leaves). `count_all_strategies(4) == 15`, matching the paper's
/// opening count.
pub fn count_all_strategies(n: usize) -> u64 {
    assert!(n >= 1);
    if n == 1 {
        return 1;
    }
    // Product of the odd numbers 1·3·…·(2n−3).
    (1..=2 * n as u64 - 3)
        .step_by(2)
        .fold(1u64, |acc, odd| acc.saturating_mul(odd))
}

/// `n!/2` — the number of linear strategies (`1` when `n = 1`).
pub fn count_linear_strategies(n: usize) -> u64 {
    assert!(n >= 1);
    if n == 1 {
        return 1;
    }
    let mut f: u64 = 1;
    for i in 2..=n as u64 {
        f = f.saturating_mul(i);
    }
    f / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn scheme(specs: &[&str]) -> DbScheme {
        let mut cat = Catalog::new();
        DbScheme::parse(&mut cat, specs).unwrap()
    }

    #[test]
    fn paper_counts_for_four_relations() {
        // "3 orderings of the form (R1 ⋈ R2) ⋈ (R3 ⋈ R4) and 12 orderings
        //  of the form ((R1 ⋈ R2) ⋈ R3) ⋈ R4 … 15 possible orderings."
        let all = enumerate_all(RelSet::full(4));
        assert_eq!(all.len(), 15);
        let linear = all.iter().filter(|s| s.is_linear()).count();
        assert_eq!(linear, 12);
        assert_eq!(all.len() - linear, 3);
    }

    #[test]
    fn closed_form_counts_match_enumeration() {
        for n in 1..=7 {
            let all = enumerate_all(RelSet::full(n));
            assert_eq!(all.len() as u64, count_all_strategies(n), "n={n}");
            let linear = enumerate_linear(RelSet::full(n));
            assert_eq!(linear.len() as u64, count_linear_strategies(n), "n={n}");
            assert_eq!(
                all.iter().filter(|s| s.is_linear()).count(),
                linear.len(),
                "n={n}"
            );
        }
    }

    #[test]
    fn enumeration_yields_distinct_canonical_strategies() {
        let all = enumerate_all(RelSet::full(5));
        let mut canon: Vec<_> = all.iter().map(|s| format!("{:?}", s.canonical())).collect();
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len(), all.len());
    }

    #[test]
    fn enumeration_over_sparse_subsets() {
        let subset = RelSet::from_indices([1, 4, 7]);
        let all = enumerate_all(subset);
        assert_eq!(all.len(), 3);
        for s in &all {
            assert_eq!(s.set(), subset);
        }
    }

    #[test]
    fn linear_enumeration_is_all_linear() {
        for s in enumerate_linear(RelSet::full(5)) {
            assert!(s.is_linear());
            assert_eq!(s.set(), RelSet::full(5));
        }
    }

    #[test]
    fn no_cartesian_enumeration_chain() {
        // Chain of 4: product-free strategies are those joining contiguous
        // ranges. Count for a path query with n relations is known to be
        // the number of ways to parenthesize adjacent merges: Catalan-like.
        let d = scheme(&["AB", "BC", "CD", "DE"]);
        let free = enumerate_no_cartesian(&d, d.full_set());
        assert!(!free.is_empty());
        for s in &free {
            assert!(!s.uses_cartesian(&d));
        }
        // Cross-check against filtering the full space.
        let filtered = enumerate_all(d.full_set())
            .into_iter()
            .filter(|s| !s.uses_cartesian(&d))
            .count();
        assert_eq!(free.len(), filtered);
    }

    #[test]
    fn no_cartesian_empty_for_unconnected() {
        let d = scheme(&["AB", "CD"]);
        assert!(enumerate_no_cartesian(&d, d.full_set()).is_empty());
    }

    #[test]
    fn avoiding_cartesian_from_paper_example() {
        // Example 1: {AB, BC, DE, FG} — three strategies avoid Cartesian
        // products.
        let d = scheme(&["AB", "BC", "DE", "FG"]);
        let avoiding = enumerate_avoiding_cartesian(&d, d.full_set());
        assert_eq!(avoiding.len(), 3);
        for s in &avoiding {
            assert!(s.avoids_cartesian(&d));
        }
        // Cross-check against filtering.
        let filtered = enumerate_all(d.full_set())
            .into_iter()
            .filter(|s| s.avoids_cartesian(&d))
            .count();
        assert_eq!(avoiding.len(), filtered);
    }

    #[test]
    fn avoiding_equals_no_cartesian_for_connected() {
        let d = scheme(&["AB", "BC", "CD"]);
        let a = enumerate_avoiding_cartesian(&d, d.full_set());
        let b = enumerate_no_cartesian(&d, d.full_set());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn for_each_matches_enumerate() {
        let mut n = 0usize;
        for_each_strategy(RelSet::full(5), &mut |_| n += 1);
        assert_eq!(n as u64, count_all_strategies(5));
    }

    #[test]
    fn best_strategy_respects_the_accept_filter() {
        use mjoin_cost::SyntheticOracle;
        let d = scheme(&["AB", "BC", "CD", "DE", "EA"]);
        let o = SyntheticOracle::new(d.clone(), vec![9, 25, 4, 16, 36], 3);
        let guard = Guard::unlimited();
        let (s, c) = try_best_strategy(&o, d.full_set(), &guard, &|s| s.is_linear())
            .unwrap()
            .expect("linear space is never empty");
        assert!(s.is_linear());
        let seq = o.clone();
        let expected = enumerate_linear(d.full_set())
            .iter()
            .map(|s| s.cost(&seq))
            .min()
            .unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn best_strategy_reports_an_empty_subspace() {
        use mjoin_cost::SyntheticOracle;
        let d = scheme(&["AB", "CD"]);
        let o = SyntheticOracle::new(d.clone(), vec![5, 5], 2);
        let guard = Guard::unlimited();
        let best = try_best_strategy(&o, d.full_set(), &guard, &|s| !s.uses_cartesian(&d)).unwrap();
        assert!(best.is_none());
    }

    #[test]
    fn count_edge_cases() {
        assert_eq!(count_all_strategies(1), 1);
        assert_eq!(count_all_strategies(2), 1);
        assert_eq!(count_all_strategies(3), 3);
        assert_eq!(count_all_strategies(5), 105);
        assert_eq!(count_all_strategies(6), 945);
        assert_eq!(count_linear_strategies(1), 1);
        assert_eq!(count_linear_strategies(2), 1);
        assert_eq!(count_linear_strategies(3), 3);
        assert_eq!(count_linear_strategies(4), 12);
    }
}
