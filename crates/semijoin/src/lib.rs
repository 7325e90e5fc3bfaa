//! Semijoin reduction and Yannakakis evaluation (paper Section 5).
//!
//! The paper's Section 5 connects condition `C4` (joins never shrink) to
//! *pairwise consistency*: a γ-acyclic pairwise-consistent database
//! satisfies `C4`, and for α-acyclic schemes the same holds under join-tree
//! connectivity. Pairwise consistency is established by **semijoin
//! reduction**; this crate provides:
//!
//! * [`is_pairwise_consistent`] — Beeri et al.'s consistency check over all
//!   linked pairs;
//! * [`full_reduce`] — the Bernstein–Chiu full reducer: an up-then-down
//!   pass of semijoins along a join tree, which makes an α-acyclic database
//!   pairwise consistent (and globally consistent);
//! * [`pairwise_consistent_fixpoint`] — the fallback for cyclic schemes:
//!   iterate pairwise semijoins to fixpoint;
//! * [`yannakakis`] — Yannakakis' algorithm: full reduction followed by a
//!   leaves-to-root linear join order. The paper asks whether this
//!   strategy is τ-optimal; the experiments measure it against the DP
//!   optimum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mjoin_cost::{Database, ExactOracle};
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::JoinTree;
use mjoin_relation::Relation;
use mjoin_strategy::Strategy;

/// Is every linked pair of relation states consistent
/// (`R[𝐑 ∩ 𝐑′] = R′[𝐑 ∩ 𝐑′]`)?
pub fn is_pairwise_consistent(db: &Database) -> bool {
    let n = db.len();
    for i in 0..n {
        for j in (i + 1)..n {
            if db.scheme().scheme(i).intersects(db.scheme().scheme(j))
                && !db.state(i).consistent_with(db.state(j))
            {
                return false;
            }
        }
    }
    true
}

/// Cost accounting for a semijoin program (full reducer run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Semijoin operations executed (`2·(n − 1)` for a full reducer).
    pub semijoins: usize,
    /// Tuples deleted across all relations.
    pub tuples_removed: u64,
    /// Tuples examined (the sum of the reduced side's sizes before each
    /// semijoin) — the reducer's I/O-style cost.
    pub tuples_scanned: u64,
}

/// Bernstein–Chiu full reducer: semijoin every relation with its join-tree
/// children (leaves upward), then with its parent (root downward).
///
/// For an α-acyclic database this produces the canonical *reduced*
/// database: every relation equals the projection of the full join onto its
/// scheme, and the database is pairwise consistent.
pub fn full_reduce(db: &Database, tree: &JoinTree, root: usize) -> Database {
    full_reduce_with_stats(db, tree, root).0
}

/// [`full_reduce`] with cost accounting.
pub fn full_reduce_with_stats(
    db: &Database,
    tree: &JoinTree,
    root: usize,
) -> (Database, ReductionStats) {
    try_full_reduce_with_stats(db, tree, root, &Guard::unlimited())
        .expect("unlimited-guard reduction cannot fail")
}

/// [`full_reduce_with_stats`] under a budget: each semijoin is
/// checkpointed and its scanned tuples are charged to `guard`.
pub fn try_full_reduce_with_stats(
    db: &Database,
    tree: &JoinTree,
    root: usize,
    guard: &Guard,
) -> Result<(Database, ReductionStats), MjoinError> {
    failpoints::hit("semijoin::reduce")?;
    let mut out = db.clone();
    let mut stats = ReductionStats::default();
    let order = tree.reduction_order(root);
    let apply = |out: &mut Database,
                 target: usize,
                 with: usize,
                 stats: &mut ReductionStats|
     -> Result<(), MjoinError> {
        guard.checkpoint()?;
        let before = out.state(target).tau();
        guard.charge_tuples(before)?;
        let reduced = out.state(target).semijoin(out.state(with));
        stats.semijoins += 1;
        stats.tuples_scanned += before;
        stats.tuples_removed += before - reduced.tau();
        out.replace_state(target, reduced);
        Ok(())
    };
    // Upward: parent ⋉ child, children first.
    for &(child, parent) in &order {
        apply(&mut out, parent, child, &mut stats)?;
    }
    // Downward: child ⋉ parent, from the root back out.
    for &(child, parent) in order.iter().rev() {
        apply(&mut out, child, parent, &mut stats)?;
    }
    Ok((out, stats))
}

/// Iterates pairwise semijoins over all linked pairs until no relation
/// shrinks. Terminates (sizes are non-increasing); establishes pairwise
/// consistency on any scheme, cyclic or not — but unlike [`full_reduce`]
/// may leave globally dangling tuples on cyclic schemes.
pub fn pairwise_consistent_fixpoint(db: &Database) -> Database {
    try_pairwise_consistent_fixpoint(db, &Guard::unlimited())
        .expect("unlimited-guard reduction cannot fail")
}

/// [`pairwise_consistent_fixpoint`] under a budget: every pairwise
/// semijoin round is checkpointed, so a deadline interrupts even
/// slowly-converging fixpoints.
pub fn try_pairwise_consistent_fixpoint(
    db: &Database,
    guard: &Guard,
) -> Result<Database, MjoinError> {
    failpoints::hit("semijoin::reduce")?;
    let mut out = db.clone();
    let n = out.len();
    loop {
        let mut changed = false;
        for i in 0..n {
            guard.checkpoint()?;
            for j in 0..n {
                if i == j || !out.scheme().scheme(i).intersects(out.scheme().scheme(j)) {
                    continue;
                }
                let reduced = out.state(i).semijoin(out.state(j));
                if reduced.tau() < out.state(i).tau() {
                    out.replace_state(i, reduced);
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(out);
        }
    }
}

/// The output of [`yannakakis`].
#[derive(Clone, Debug)]
pub struct YannakakisOutput {
    /// The fully reduced database.
    pub reduced: Database,
    /// The linear leaves-to-root strategy executed on the reduced database.
    pub strategy: Strategy,
    /// The final join result (equal to evaluating the original database).
    pub result: Relation,
    /// τ of the strategy *measured on the reduced database*.
    pub cost: u64,
}

/// Yannakakis' algorithm for α-acyclic connected databases: full
/// reduction, then a leaves-to-root linear join. Returns `None` when the
/// scheme is cyclic or disconnected (no join tree).
pub fn yannakakis(db: &Database) -> Option<YannakakisOutput> {
    try_yannakakis(db, &Guard::unlimited()).expect("unlimited-guard evaluation cannot fail")
}

/// [`yannakakis`] under a budget: the reduction pass, the cost probe and
/// the final join pipeline all charge the same guard, so a deadline or
/// tuple cap interrupts the evaluation at the next kernel batch.
pub fn try_yannakakis(
    db: &Database,
    guard: &Guard,
) -> Result<Option<YannakakisOutput>, MjoinError> {
    let Some(tree) = JoinTree::build(db.scheme()) else {
        return Ok(None);
    };
    let root = 0;
    let (reduced, _) = try_full_reduce_with_stats(db, &tree, root, guard)?;
    // Join in reverse reduction order (root outward ⇒ each new relation is
    // tree-adjacent to the prefix, so the strategy is product-free).
    let mut order: Vec<usize> = vec![root];
    for &(child, _parent) in reduced_order_root_out(&tree, root).iter() {
        order.push(child);
    }
    let strategy = Strategy::left_deep(&order);
    let oracle = ExactOracle::with_guard(&reduced, guard.clone());
    let cost = strategy.try_cost(&oracle)?;
    let mut result = reduced.state(order[0]).clone();
    for &i in &order[1..] {
        result = result.natural_join_guarded(reduced.state(i), guard)?;
    }
    Ok(Some(YannakakisOutput {
        reduced,
        strategy,
        result,
        cost,
    }))
}

/// Root-outward edge order: reverse of the leaves-to-root reduction order.
fn reduced_order_root_out(tree: &JoinTree, root: usize) -> Vec<(usize, usize)> {
    let mut order = tree.reduction_order(root);
    order.reverse();
    order
}

/// Yannakakis' algorithm with **output projection**: computes
/// `π_output(⋈D)` for an α-acyclic connected database, projecting every
/// intermediate onto the attributes still needed (the output attributes
/// plus those shared with unjoined relations). This is the form whose
/// intermediates are polynomial in input + output size.
///
/// Returns `None` when the scheme has no join tree, or when `output` is
/// not a subset of the database's attributes.
pub fn yannakakis_project(
    db: &Database,
    output: mjoin_relation::AttrSet,
) -> Option<mjoin_relation::Relation> {
    let scheme = db.scheme();
    if !output.is_subset_of(scheme.attrs_of(scheme.full_set())) {
        return None;
    }
    let tree = JoinTree::build(scheme)?;
    let root = 0;
    let reduced = full_reduce(db, &tree, root);

    let mut acc = reduced.state(root).clone();
    let mut joined = mjoin_hypergraph::RelSet::singleton(root);
    let full = scheme.full_set();
    for (child, _parent) in reduced_order_root_out(&tree, root) {
        acc = acc.natural_join(reduced.state(child));
        joined.insert(child);
        // Project away attributes neither in the output nor shared with
        // any relation still to come.
        let pending = scheme.attrs_of(full.difference(joined));
        let keep = acc.scheme().intersect(output.union(pending));
        if !keep.is_empty() && keep != acc.scheme() {
            acc = acc.project(keep).expect("keep ⊆ scheme");
        }
    }
    Some(
        acc.project(output.intersect(acc.scheme()))
            .expect("output ⊆ final scheme after acyclic join"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_db() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![9, 99]]), // (9,99) dangles
            ("BC", vec![vec![10, 5], vec![20, 6], vec![77, 7]]), // (77,7) dangles
            ("CD", vec![vec![5, 0], vec![6, 1]]),
        ])
        .unwrap()
    }

    #[test]
    fn consistency_detection() {
        let db = chain_db();
        assert!(!is_pairwise_consistent(&db));
        let consistent =
            Database::from_specs(&[("AB", vec![vec![1, 10]]), ("BC", vec![vec![10, 5]])]).unwrap();
        assert!(is_pairwise_consistent(&consistent));
    }

    #[test]
    fn full_reducer_establishes_consistency() {
        let db = chain_db();
        let tree = JoinTree::build(db.scheme()).unwrap();
        let reduced = full_reduce(&db, &tree, 0);
        assert!(is_pairwise_consistent(&reduced));
        // Dangling tuples removed, result preserved.
        assert_eq!(reduced.state(0).tau(), 2);
        assert_eq!(reduced.state(1).tau(), 2);
        assert_eq!(reduced.evaluate(), db.evaluate());
    }

    #[test]
    fn reduced_states_are_projections_of_the_result() {
        let db = chain_db();
        let tree = JoinTree::build(db.scheme()).unwrap();
        let reduced = full_reduce(&db, &tree, 0);
        let full = db.evaluate();
        for i in 0..db.len() {
            let proj = full.project(db.scheme().scheme(i)).unwrap();
            assert_eq!(reduced.state(i), &proj, "relation {i}");
        }
    }

    #[test]
    fn fixpoint_reduction_matches_full_reducer_on_acyclic() {
        let db = chain_db();
        let tree = JoinTree::build(db.scheme()).unwrap();
        let a = full_reduce(&db, &tree, 0);
        let b = pairwise_consistent_fixpoint(&db);
        for i in 0..db.len() {
            assert_eq!(a.state(i), b.state(i), "relation {i}");
        }
    }

    #[test]
    fn fixpoint_reduction_on_cyclic_scheme_terminates() {
        // Triangle with a globally dangling cycle of tuples.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 2], vec![5, 6]]),
            ("BC", vec![vec![2, 3], vec![6, 7]]),
            ("CA", vec![vec![3, 1], vec![7, 9]]), // (7,9) breaks the 5-6-7 cycle
        ])
        .unwrap();
        let r = pairwise_consistent_fixpoint(&db);
        assert!(is_pairwise_consistent(&r));
        assert_eq!(r.evaluate(), db.evaluate());
    }

    #[test]
    fn yannakakis_produces_correct_result() {
        let db = chain_db();
        let out = yannakakis(&db).unwrap();
        assert_eq!(out.result, db.evaluate());
        assert!(out.strategy.is_linear());
        assert!(!out.strategy.uses_cartesian(db.scheme()));
        assert!(is_pairwise_consistent(&out.reduced));
    }

    #[test]
    fn yannakakis_none_for_cyclic() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 2]]),
            ("BC", vec![vec![2, 3]]),
            ("CA", vec![vec![3, 1]]),
        ])
        .unwrap();
        assert!(yannakakis(&db).is_none());
    }

    #[test]
    fn yannakakis_is_monotone_increasing_on_reduced_database() {
        // Section 5: after reduction, every step of a leaves-to-root join
        // over a consistent acyclic database only grows (each tuple extends).
        let db = chain_db();
        let out = yannakakis(&db).unwrap();
        let oracle = ExactOracle::new(&out.reduced);
        assert!(out.strategy.is_monotone_increasing(&oracle));
    }

    #[test]
    fn reduction_stats_account_for_every_semijoin() {
        let db = chain_db();
        let tree = JoinTree::build(db.scheme()).unwrap();
        let (reduced, stats) = full_reduce_with_stats(&db, &tree, 0);
        assert_eq!(stats.semijoins, 2 * (db.len() - 1));
        let before: u64 = db.states().iter().map(|r| r.tau()).sum();
        let after: u64 = reduced.states().iter().map(|r| r.tau()).sum();
        assert_eq!(stats.tuples_removed, before - after);
        assert!(stats.tuples_scanned >= before - stats.tuples_removed);
        // Already-reduced databases remove nothing.
        let (_, stats2) = full_reduce_with_stats(&reduced, &tree, 0);
        assert_eq!(stats2.tuples_removed, 0);
    }

    #[test]
    fn yannakakis_project_matches_direct_projection() {
        use mjoin_relation::AttrSet;
        let db = chain_db();
        let full_join = db.evaluate();
        // Project onto each single attribute and onto a cross-relation pair.
        let all_attrs = db.scheme().attrs_of(db.scheme().full_set());
        for a in all_attrs.iter() {
            let target = AttrSet::singleton(a);
            let got = yannakakis_project(&db, target).unwrap();
            assert_eq!(got, full_join.project(target).unwrap());
        }
        let attrs: Vec<_> = all_attrs.iter().collect();
        let pair = AttrSet::from_iter([attrs[0], *attrs.last().unwrap()]);
        let got = yannakakis_project(&db, pair).unwrap();
        assert_eq!(got, full_join.project(pair).unwrap());
    }

    #[test]
    fn yannakakis_project_rejects_foreign_attributes() {
        use mjoin_relation::{AttrSet, Attribute};
        let db = chain_db();
        let foreign = AttrSet::singleton(Attribute::from_index(200));
        assert!(yannakakis_project(&db, foreign).is_none());
    }

    #[test]
    fn yannakakis_on_star() {
        let db = Database::from_specs(&[
            ("XY", vec![vec![0, 1], vec![2, 3]]),
            ("XA", vec![vec![0, 10], vec![0, 11]]),
            ("XB", vec![vec![0, 20], vec![2, 21]]),
        ])
        .unwrap();
        let out = yannakakis(&db).unwrap();
        assert_eq!(out.result, db.evaluate());
    }
}
