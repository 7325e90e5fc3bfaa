//! Derived schemes: a partially-executed query as a fresh database.
//!
//! When the adaptive executor has already materialized some intermediates
//! and decides to re-plan, the remaining work is itself a multi-join query:
//! its "base relations" are the live intermediates plus the original
//! relations not yet consumed. This module builds that query as a first-
//! class [`Database`] — same catalog, scheme entries that are unions of the
//! covered originals — so the full planning stack (ladder, DP, the
//! partitioned joins) applies to mid-query re-optimization unchanged.
//!
//! The mapping back is kept alongside: each derived leaf remembers which
//! original relations it covers, so plans found over the derived scheme can
//! be reported (and traced) in terms of the original query.

use mjoin_cost::Database;
use mjoin_guard::MjoinError;
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::Relation;

/// One base relation of a derived scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DerivedLeaf {
    /// An original relation, untouched so far.
    Base(usize),
    /// A materialized intermediate covering this set of original relations.
    Materialized(RelSet),
}

impl DerivedLeaf {
    /// The original relations this leaf covers.
    pub fn original_set(&self) -> RelSet {
        match self {
            DerivedLeaf::Base(i) => RelSet::singleton(*i),
            DerivedLeaf::Materialized(set) => *set,
        }
    }
}

/// A derived database plus the mapping from its leaves back to the
/// original query's relations.
#[derive(Clone, Debug)]
pub struct DerivedDatabase {
    /// The derived query: live intermediates and untouched originals as
    /// base relations, under the original catalog.
    pub db: Database,
    leaves: Vec<DerivedLeaf>,
}

impl DerivedDatabase {
    /// The derived leaves, index-aligned with `db`'s scheme.
    pub fn leaves(&self) -> &[DerivedLeaf] {
        &self.leaves
    }

    /// Original relations covered by derived leaf `i`.
    pub fn leaf_set(&self, i: usize) -> RelSet {
        self.leaves[i].original_set()
    }

    /// Maps a subset of derived leaves to the original relations it covers.
    pub fn original_set(&self, derived: RelSet) -> RelSet {
        let mut out = RelSet::empty();
        for i in derived.iter() {
            out = out.union(self.leaf_set(i));
        }
        out
    }
}

/// Builds the derived database for the rest of a partially-executed query.
///
/// `materialized` lists the live intermediates as `(covered originals,
/// state)` pairs; every original relation not covered stays a base leaf.
/// Leaf order is canonical — ascending by each leaf's lowest original
/// index — so re-planning is deterministic regardless of materialization
/// order.
///
/// Errors with [`MjoinError::InvalidScheme`] when the sets are empty,
/// overlap, or fall outside the scheme, and [`MjoinError::Internal`] when
/// a state's attributes disagree with the originals it claims to cover
/// (an executor bug, not a caller error).
pub fn derive_database(
    original: &Database,
    materialized: Vec<(RelSet, Relation)>,
) -> Result<DerivedDatabase, MjoinError> {
    let scheme = original.scheme();
    let full = scheme.full_set();
    let mut covered = RelSet::empty();
    for (set, rel) in &materialized {
        if set.is_empty() {
            return Err(MjoinError::InvalidScheme(
                "a materialized intermediate must cover at least one relation".into(),
            ));
        }
        if !set.is_subset_of(full) {
            return Err(MjoinError::InvalidScheme(format!(
                "materialized set {set:?} mentions relations outside the scheme"
            )));
        }
        if !covered.is_disjoint(*set) {
            return Err(MjoinError::InvalidScheme(format!(
                "materialized sets overlap at {:?}",
                covered.intersect(*set)
            )));
        }
        covered = covered.union(*set);
        if rel.scheme() != scheme.attrs_of(*set) {
            return Err(MjoinError::Internal(format!(
                "materialized state for {set:?} has the wrong attribute set"
            )));
        }
    }

    // Canonical leaf order: walk original indices ascending, emitting each
    // materialized leaf at its lowest member.
    let mut by_lowest: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (k, (set, _)) in materialized.iter().enumerate() {
        let lowest = set.first().expect("validated nonempty");
        by_lowest.insert(lowest, k);
    }
    let mut leaves = Vec::new();
    let mut schemes = Vec::new();
    let mut states = Vec::new();
    let mut slots: Vec<Option<(RelSet, Relation)>> = materialized.into_iter().map(Some).collect();
    for i in full.iter() {
        if let Some(&k) = by_lowest.get(&i) {
            let (set, rel) = slots[k].take().expect("each lowest index is unique");
            leaves.push(DerivedLeaf::Materialized(set));
            schemes.push(rel.scheme());
            states.push(rel);
        } else if !covered.contains(i) {
            leaves.push(DerivedLeaf::Base(i));
            schemes.push(scheme.scheme(i));
            states.push(original.state(i).clone());
        }
    }
    let derived_scheme = DbScheme::new(schemes)
        .map_err(|e| MjoinError::InvalidScheme(format!("derived scheme: {e}")))?;
    Ok(DerivedDatabase {
        db: Database::new(original.catalog().clone(), derived_scheme, states),
        leaves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{CardinalityOracle, ExactOracle};

    fn chain4() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 7], vec![6, 8]]),
            ("DE", vec![vec![7, 9], vec![8, 9]]),
        ])
        .unwrap()
    }

    #[test]
    fn derived_database_joins_to_the_same_result() {
        let db = chain4();
        let pair = RelSet::from_indices([1, 2]);
        let mid = db.evaluate_subset(pair);
        let derived = derive_database(&db, vec![(pair, mid)]).unwrap();
        // Leaves: AB, (BC ⋈ CD) at index of its lowest member, DE.
        assert_eq!(
            derived.leaves(),
            &[
                DerivedLeaf::Base(0),
                DerivedLeaf::Materialized(pair),
                DerivedLeaf::Base(3)
            ]
        );
        assert_eq!(
            derived.original_set(RelSet::from_indices([1, 2])),
            pair.union(RelSet::singleton(3))
        );
        // The derived query's full join equals the original's.
        assert_eq!(derived.db.evaluate(), db.evaluate());
        let o = ExactOracle::new(&derived.db);
        assert_eq!(o.tau(derived.db.scheme().full_set()), db.evaluate().tau());
    }

    #[test]
    fn canonical_leaf_order_ignores_materialization_order() {
        let db = chain4();
        let a = RelSet::from_indices([2, 3]);
        let b = RelSet::from_indices([0, 1]);
        let ra = db.evaluate_subset(a);
        let rb = db.evaluate_subset(b);
        let d1 = derive_database(&db, vec![(a, ra.clone()), (b, rb.clone())]).unwrap();
        let d2 = derive_database(&db, vec![(b, rb), (a, ra)]).unwrap();
        assert_eq!(d1.leaves(), d2.leaves());
        assert_eq!(d1.db.scheme().schemes(), d2.db.scheme().schemes());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let db = chain4();
        let pair = RelSet::from_indices([1, 2]);
        let mid = db.evaluate_subset(pair);
        // Overlapping sets.
        let overlap = RelSet::from_indices([2, 3]);
        let r2 = db.evaluate_subset(overlap);
        let err = derive_database(&db, vec![(pair, mid.clone()), (overlap, r2)]).unwrap_err();
        assert!(matches!(err, MjoinError::InvalidScheme(_)), "{err:?}");
        // Wrong state for the claimed set.
        let err = derive_database(&db, vec![(RelSet::from_indices([0, 1]), mid)]).unwrap_err();
        assert!(matches!(err, MjoinError::Internal(_)), "{err:?}");
        // Empty set.
        let err = derive_database(&db, vec![(RelSet::empty(), db.state(0).clone())]).unwrap_err();
        assert!(matches!(err, MjoinError::InvalidScheme(_)), "{err:?}");
    }
}
