//! The proof's strategy rewrites, made executable (Figures 3–6).
//!
//! Each theorem in the paper is proved by *surgically improving* a
//! hypothetical strategy. These functions perform those surgeries on real
//! strategies, so the experiments can replay the proofs step by step:
//!
//! * [`figure3_rewrite`] — Theorem 1's `T₁`/`T₂` moves: given a linear
//!   strategy that uses a Cartesian product, produce the alternative the
//!   proof compares against. Under `C1'` the alternative is strictly
//!   cheaper; under `C1`, no more expensive.
//! * [`lemma2_rewrite`] — Figure 4: merge a component of an unconnected
//!   root child into the connected sibling (never increases τ under `C1`,
//!   strictly decreases the root children's component count).
//! * [`lemma3_rewrite`] — Figure 5: same when both root children are
//!   unconnected, orientation chosen by the `C2` inequality.

use mjoin_cost::CardinalityOracle;
use mjoin_hypergraph::DbScheme;
use mjoin_strategy::Strategy;

/// Theorem 1's rewrite (Figure 3). For a **linear** strategy that uses a
/// Cartesian product over a **connected** scheme, locate the *last* step
/// `s = [E] ⋈ [R′]` using one (no ancestor of `s` uses a product), and
/// return:
///
/// * `T₁` — if `{R′}` is linked to the parent's leaf `{R″}`: pluck the
///   trivial strategy for `R′` and graft it above `R″`;
/// * `T₂` — otherwise (`E` must be linked to `{R″}`): exchange `R′` and
///   `R″`.
///
/// Returns `None` when the strategy is not linear or uses no product.
pub fn figure3_rewrite(scheme: &DbScheme, s: &Strategy) -> Option<Strategy> {
    if !s.is_linear() || !s.uses_cartesian(scheme) {
        return None;
    }
    // Steps are pre-order, so the first CP step we meet scanning from the
    // root is the one all of whose ancestors are product-free.
    let steps = s.steps();
    let cp = steps.iter().find(|st| st.uses_cartesian(scheme))?;
    // The CP step cannot be the root of a connected scheme's strategy; its
    // parent is the step whose child set equals cp.set.
    let parent = steps
        .iter()
        .find(|st| st.left == cp.set || st.right == cp.set)?;
    // Linear shape: the CP step joins [E] with a leaf [R'], and the
    // parent's other child is a leaf [R''].
    let (e, r_prime) = if cp.right.is_singleton() {
        (cp.left, cp.right)
    } else {
        (cp.right, cp.left)
    };
    let r_dprime = if parent.left == cp.set {
        parent.right
    } else {
        parent.left
    };
    debug_assert!(r_dprime.is_singleton(), "linear strategies join leaves");

    if scheme.linked(r_prime, r_dprime) {
        // T1: pluck R' and graft it above R''.
        let (rest, removed) = s.pluck(r_prime).ok()?;
        rest.graft(r_dprime, removed).ok()
    } else {
        // The paper's case analysis: R'' is linked to E ∪ {R'}; if not to
        // {R'}, then to E. T2: exchange R' and R''.
        debug_assert!(scheme.linked(e, r_dprime));
        s.swap(r_prime, r_dprime).ok()
    }
}

/// Lemma 2's rewrite (Figure 4). Requires `root(S) = [D₁] ⋈ [D₂]` with
/// `D₁` connected, `D₂` unconnected and linked to `D₁`, and the `D₂`
/// substrategy evaluating its components individually. Plucks a component
/// `E` of `D₂` linked to `D₁` and grafts it above `S_{D₁}`.
///
/// Returns `None` if the root shape doesn't match.
pub fn lemma2_rewrite(scheme: &DbScheme, s: &Strategy) -> Option<Strategy> {
    let steps = s.steps();
    let root = steps.first()?;
    // Identify which child is the connected one.
    let (d1, d2) = if scheme.connected(root.left) && !scheme.connected(root.right) {
        (root.left, root.right)
    } else if scheme.connected(root.right) && !scheme.connected(root.left) {
        (root.right, root.left)
    } else {
        return None;
    };
    if !scheme.linked(d1, d2) {
        return None;
    }
    let sub2 = s.substrategy(&s.find_node(d2)?).ok()?;
    if !sub2.evaluates_components_individually(scheme) {
        return None;
    }
    // A component of D2 linked to D1 exists because D1 is linked to D2.
    let e = scheme
        .components(d2)
        .into_iter()
        .find(|&c| scheme.linked(d1, c))?;
    let (rest, removed) = s.pluck(e).ok()?;
    rest.graft(d1, removed).ok()
}

/// Lemma 3's rewrite (Figure 5). Requires both root children unconnected,
/// linked, each substrategy evaluating components individually. Finds
/// linked components `E₁ ⊆ D₁`, `E₂ ⊆ D₂` and — oriented by the `C2`
/// inequality, as in the proof — plucks one and grafts it above the other.
pub fn lemma3_rewrite<O: CardinalityOracle>(oracle: &O, s: &Strategy) -> Option<Strategy> {
    let scheme = oracle.scheme().clone();
    let steps = s.steps();
    let root = steps.first()?;
    let (d1, d2) = (root.left, root.right);
    if scheme.connected(d1) || scheme.connected(d2) || !scheme.linked(d1, d2) {
        return None;
    }
    for sub in [d1, d2] {
        let subst = s.substrategy(&s.find_node(sub)?).ok()?;
        if !subst.evaluates_components_individually(&scheme) {
            return None;
        }
    }
    // Linked component pair.
    let (e1, e2) = scheme.components(d1).into_iter().find_map(|c1| {
        scheme
            .components(d2)
            .into_iter()
            .find(|&c2| scheme.linked(c1, c2))
            .map(|c2| (c1, c2))
    })?;
    // Orient by C2: pluck the component whose removal the inequality
    // licenses — if τ(E1 ⋈ E2) ≤ τ(E1), graft E2 above E1 (the proof's
    // "we may assume" branch); otherwise the symmetric move.
    let joined = oracle.tau_join(e1, e2);
    let (anchor, moved) = if joined <= oracle.tau(e1) {
        (e1, e2)
    } else {
        (e2, e1)
    };
    let (rest, removed) = s.pluck(moved).ok()?;
    rest.graft(anchor, removed).ok()
}

/// Lemma 6's transfers (Figure 6). For a product-free strategy whose root
/// joins two non-trivial substrategies `S_{D₁} = S_{D₁'} ⋈ S_{D₁''}` and
/// `S_{D₂} = S_{D₂'} ⋈ S_{D₂''}` with `D₁'` linked to `D₂'`, returns the
/// proof's two alternatives:
///
/// * `T₁` — pluck `S_{D₁'}` and graft it above `S_{D₂}`;
/// * `T₂` — pluck `S_{D₂'}` and graft it above `S_{D₁}`.
///
/// Under `C3`, if the input is τ-optimum among product-free strategies,
/// both transfers tie its cost — repeating them linearizes the strategy.
/// Returns `None` if the root shape doesn't match (a child is trivial, or
/// no linked grandchild pair exists).
pub fn lemma6_transfers(scheme: &DbScheme, s: &Strategy) -> Option<(Strategy, Strategy)> {
    let steps = s.steps();
    let root = steps.first()?;
    let (d1, d2) = (root.left, root.right);
    if d1.is_singleton() || d2.is_singleton() {
        return None;
    }
    // Children of D1 and D2.
    let kid = |d: mjoin_hypergraph::RelSet| -> Option<(mjoin_hypergraph::RelSet, mjoin_hypergraph::RelSet)> {
        let st = steps.iter().find(|st| st.set == d)?;
        Some((st.left, st.right))
    };
    let (d1a, d1b) = kid(d1)?;
    let (d2a, d2b) = kid(d2)?;
    // Pick a linked grandchild pair (the proof's "we may assume D1' is
    // linked to D2'").
    let (d1p, d2p) = [(d1a, d2a), (d1a, d2b), (d1b, d2a), (d1b, d2b)]
        .into_iter()
        .find(|&(x, y)| scheme.linked(x, y))?;
    let (rest1, moved1) = s.pluck(d1p).ok()?;
    let t1 = rest1.graft(d2, moved1).ok()?;
    let (rest2, moved2) = s.pluck(d2p).ok()?;
    let t2 = rest2.graft(d1, moved2).ok()?;
    Some((t1, t2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_gen::data;
    use mjoin_strategy::enumerate_linear;

    #[test]
    fn figure3_rewrite_never_increases_cost_under_c1() {
        // Example 3's database satisfies C1 (not C1'): rewrites are
        // τ-nonincreasing.
        let db = data::paper_example3();
        let o = ExactOracle::new(&db);
        for s in enumerate_linear(db.scheme().full_set()) {
            if !s.uses_cartesian(db.scheme()) {
                assert!(figure3_rewrite(db.scheme(), &s).is_none());
                continue;
            }
            let t = figure3_rewrite(db.scheme(), &s).expect("CP linear strategy rewrites");
            assert!(t.validate(db.scheme()));
            assert_eq!(t.set(), s.set());
            assert!(
                t.cost(&o) <= s.cost(&o),
                "{}",
                s.render(db.catalog(), db.scheme())
            );
        }
    }

    #[test]
    fn figure3_rewrite_strictly_decreases_under_c1_strict() {
        // A superkey-join database satisfies C3 ⊂ C1; build one that also
        // satisfies C1' (strictness) — distinct key columns with different
        // sizes give strict inequalities.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1], vec![7, 2], vec![8, 3]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        assert!(crate::satisfies(&o, crate::Condition::C1Strict));
        for s in enumerate_linear(db.scheme().full_set()) {
            if let Some(t) = figure3_rewrite(db.scheme(), &s) {
                assert!(
                    t.cost(&o) < s.cost(&o),
                    "{}",
                    s.render(db.catalog(), db.scheme())
                );
            }
        }
    }

    #[test]
    fn figure3_returns_none_on_clean_strategies() {
        let db = data::paper_example3();
        let clean = Strategy::left_deep(&[0, 1, 2]); // GS ⋈ SC ⋈ CL
        assert!(!clean.uses_cartesian(db.scheme()));
        assert!(figure3_rewrite(db.scheme(), &clean).is_none());
        // Bushy strategies are rejected too.
        let bushy = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap();
        assert!(bushy.is_linear()); // 3 relations: still linear actually
    }

    #[test]
    fn lemma2_rewrite_reduces_components_without_cost_increase() {
        // Example 1's scheme: {AB, BC, DE, FG}. Take root = [D1] ⋈ [D2]
        // with D1 = {AB} (connected) and D2 = {BC, DE, FG} — D2 is
        // unconnected with components {BC}, {DE}, {FG}, each a node of any
        // strategy that evaluates them individually.
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        let d2_strategy = Strategy::join(
            Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
            Strategy::leaf(3),
        )
        .unwrap();
        let s = Strategy::join(Strategy::leaf(0), d2_strategy).unwrap();
        let t = lemma2_rewrite(db.scheme(), &s).expect("shape matches Lemma 2");
        assert!(t.validate(db.scheme()));
        assert!(t.cost(&o) <= s.cost(&o));
        // Component count at the root decreased.
        let root_comps = |st: &Strategy| {
            let r = st.steps()[0];
            db.scheme().comp(r.left) + db.scheme().comp(r.right)
        };
        assert!(root_comps(&t) < root_comps(&s));
    }

    #[test]
    fn lemma3_rewrite_merges_across_unconnected_children() {
        // Scheme {AB, BC, DE, FG} again; root = [{AB, DE}] ⋈ [{BC, FG}]:
        // both children unconnected, linked through AB–BC.
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        let left = Strategy::join(Strategy::leaf(0), Strategy::leaf(2)).unwrap();
        let right = Strategy::join(Strategy::leaf(1), Strategy::leaf(3)).unwrap();
        let s = Strategy::join(left, right).unwrap();
        let t = lemma3_rewrite(&o, &s).expect("shape matches Lemma 3");
        assert!(t.validate(db.scheme()));
        let root_comps = |st: &Strategy| {
            let r = st.steps()[0];
            db.scheme().comp(r.left) + db.scheme().comp(r.right)
        };
        assert!(root_comps(&t) < root_comps(&s));
    }

    #[test]
    fn lemma_rewrites_return_none_on_mismatched_shapes() {
        let db = data::paper_example3(); // connected scheme
        let o = ExactOracle::new(&db);
        let s = Strategy::left_deep(&[0, 1, 2]);
        assert!(lemma2_rewrite(db.scheme(), &s).is_none());
        assert!(lemma3_rewrite(&o, &s).is_none());
        // Lemma 6 needs both root children non-trivial.
        assert!(lemma6_transfers(db.scheme(), &s).is_none());
    }

    #[test]
    fn lemma6_transfers_preserve_optimal_cost_under_c3() {
        // A superkey chain of 4: C3 holds; the product-free optimum found
        // by DP may be bushy — both transfers must tie its cost, and
        // repeating transfers reaches a linear strategy of the same cost.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1], vec![7, 2], vec![8, 3]]),
            ("DE", vec![vec![0, 4], vec![1, 5]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        assert!(crate::satisfies(&o, crate::Condition::C3));
        // Build the bushy product-free strategy (AB ⋈ BC) ⋈ (CD ⋈ DE) and
        // compare it against DP: under C3 it ties the linear optimum only
        // if it is itself optimal among product-free strategies; either
        // way the transfers must not *undercut* a τ-optimum.
        let bushy =
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
        let (t1, t2) = lemma6_transfers(db.scheme(), &bushy).expect("shape matches");
        for t in [&t1, &t2] {
            assert!(t.validate(db.scheme()));
            assert_eq!(t.set(), bushy.set());
            assert!(
                !t.uses_cartesian(db.scheme()),
                "transfers stay product-free"
            );
        }
        // If bushy is optimal among product-free strategies, the transfers
        // tie it exactly (the Lemma 6 argument).
        let opt = mjoin_optimizer::optimize(
            &o,
            db.scheme().full_set(),
            mjoin_optimizer::SearchSpace::NoCartesian,
        )
        .unwrap()
        .cost;
        let bc = bushy.cost(&o);
        if bc == opt {
            assert_eq!(t1.cost(&o), bc);
            assert_eq!(t2.cost(&o), bc);
        } else {
            // Not optimal: transfers can only do as well or better or worse,
            // but they never break validity — already asserted above.
            assert!(t1.cost(&o) >= opt);
            assert!(t2.cost(&o) >= opt);
        }
    }
}
