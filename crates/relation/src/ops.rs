//! Unary and set-level relational operators.
//!
//! These back the paper's later sections: projection (`t[X]`), semijoins
//! (Bernstein–Chiu reduction, Section 5), consistency, and the set
//! operations that Section 5 re-interprets ⋈ over.

use std::collections::HashSet;

use crate::attr::AttrSet;
use crate::error::RelationError;
use crate::relation::{Key, Relation};
use crate::value::Value;

impl Relation {
    /// Projection `π_X(R)`: restriction of every tuple to `X`, deduplicated.
    /// Projecting onto the empty scheme gives the relation holding the
    /// empty tuple, or no tuple if `R` is empty.
    ///
    /// # Errors
    /// [`RelationError::NotASubscheme`] if `X ⊄ scheme`.
    pub fn project(&self, target: AttrSet) -> Result<Relation, RelationError> {
        if !target.is_subset_of(self.scheme()) {
            return Err(RelationError::NotASubscheme);
        }
        let cols = self.columns(target);
        let mut values = Vec::with_capacity(self.rows().len() * cols.len());
        for row in self.rows() {
            values.extend(cols.iter().map(|&c| row[c].clone()));
        }
        Ok(Relation::from_row_major(target, self.rows().len(), values))
    }

    /// Selection: keeps the tuples satisfying `predicate`, in this
    /// relation's order.
    ///
    /// The predicate sees a row's values in canonical (ascending-attribute)
    /// order.
    pub fn select<F: FnMut(&[Value]) -> bool>(&self, mut predicate: F) -> Relation {
        let (mut values, mut len) = (Vec::new(), 0);
        for row in self.rows() {
            if predicate(row) {
                values.extend_from_slice(row);
                len += 1;
            }
        }
        self.subset(values, len)
    }

    /// Semijoin `R ⋉ S`: the tuples of `R` that join with at least one tuple
    /// of `S`. When the schemes are disjoint this keeps all of `R` iff `S`
    /// is nonempty.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        self.semi(other, true)
    }

    /// Antijoin `R ▷ S`: the tuples of `R` that join with *no* tuple of `S`.
    pub fn antijoin(&self, other: &Relation) -> Relation {
        self.semi(other, false)
    }

    /// The tuples of `self` whose shared-attribute [`Key`] some tuple of
    /// `other` has (`matching`) or none has (`!matching`).
    fn semi(&self, other: &Relation, matching: bool) -> Relation {
        let shared = self.scheme().intersect(other.scheme());
        let (cols, other_cols) = (self.columns(shared), other.columns(shared));
        let keys: HashSet<Key> = other.rows().map(|t| Key::of(t, &other_cols)).collect();
        self.select(|t| keys.contains(&Key::of(t, &cols)) == matching)
    }

    /// Set union (schemes must match).
    ///
    /// # Panics
    /// Panics if the schemes differ — union of unlike schemes is a type
    /// error in the caller, not a data condition.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.scheme(),
            other.scheme(),
            "union requires equal schemes"
        );
        let len = self.rows().len() + other.rows().len();
        let mut values = Vec::with_capacity(len * self.arity());
        for row in self.rows().chain(other.rows()) {
            values.extend_from_slice(row);
        }
        Relation::from_row_major(self.scheme(), len, values)
    }

    /// Set intersection (schemes must match; see [`Relation::union`]).
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.scheme(),
            other.scheme(),
            "intersection requires equal schemes"
        );
        let other = other.sorted_rows();
        self.select(|t| other.binary_search(&t).is_ok())
    }

    /// Set difference `R − S` (schemes must match; see [`Relation::union`]).
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.scheme(),
            other.scheme(),
            "difference requires equal schemes"
        );
        let other = other.sorted_rows();
        self.select(|t| other.binary_search(&t).is_err())
    }

    /// Are `self` and `other` *consistent* in the sense of Beeri et al.:
    /// `R[R ∩ R'] = R'[R ∩ R']`?
    ///
    /// Pairwise consistency across a database is the precondition of the
    /// paper's Section 5 results (`C4` via acyclicity).
    pub fn consistent_with(&self, other: &Relation) -> bool {
        // Over disjoint schemes both sides project onto the empty scheme:
        // the relation holding the empty tuple, or none if that side is
        // empty.
        let shared = self.scheme().intersect(other.scheme());
        let a = self.project(shared).expect("shared ⊆ self");
        let b = other.project(shared).expect("shared ⊆ other");
        a == b
    }

    /// All values appearing in column `col` (deduplicated, sorted).
    pub fn column_values(&self, col: usize) -> Vec<Value> {
        let mut vs: Vec<Value> = self.rows().map(|t| t[col].clone()).collect();
        vs.sort();
        vs.dedup();
        vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;

    fn rel(spec: &str, rows: Vec<Vec<i64>>) -> Relation {
        let s = Catalog::with_letters().scheme(spec).unwrap();
        Relation::from_int_rows(s, rows).unwrap()
    }

    #[test]
    fn projection_dedups() {
        let r = rel("AB", vec![vec![1, 10], vec![1, 20], vec![2, 10]]);
        let a = Catalog::with_letters().scheme("A").unwrap();
        let p = r.project(a).unwrap();
        assert_eq!(p.tau(), 2);
    }

    #[test]
    fn projection_requires_subscheme() {
        let r = rel("AB", vec![vec![1, 2]]);
        let c = Catalog::with_letters().scheme("C").unwrap();
        assert_eq!(r.project(c).unwrap_err(), RelationError::NotASubscheme);
    }

    #[test]
    fn projection_to_full_scheme_is_identity() {
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(r.project(r.scheme()).unwrap(), r);
    }

    #[test]
    fn selection_filters() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let s = r.select(|t| t[0].as_int().unwrap() >= 2);
        assert_eq!(s.tau(), 2);
    }

    #[test]
    fn semijoin_keeps_matching() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let s = rel("BC", vec![vec![10, 0], vec![30, 0]]);
        let sj = r.semijoin(&s);
        assert_eq!(sj.tau(), 2);
        assert_eq!(sj.scheme(), r.scheme());
    }

    #[test]
    fn semijoin_disjoint_schemes() {
        let r = rel("AB", vec![vec![1, 2]]);
        let nonempty = rel("CD", vec![vec![1, 1]]);
        let empty = Relation::empty(Catalog::with_letters().scheme("CD").unwrap());
        assert_eq!(r.semijoin(&nonempty), r);
        assert!(r.semijoin(&empty).is_empty());
    }

    #[test]
    fn antijoin_complements_semijoin() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let s = rel("BC", vec![vec![10, 0]]);
        let sj = r.semijoin(&s);
        let aj = r.antijoin(&s);
        assert_eq!(sj.tau() + aj.tau(), r.tau());
        assert!(sj.rows().all(|t| !aj.contains(t)));
    }

    #[test]
    fn set_operations() {
        let r = rel("A", vec![vec![1], vec![2]]);
        let s = rel("A", vec![vec![2], vec![3]]);
        assert_eq!(r.union(&s).tau(), 3);
        assert_eq!(r.intersection(&s).tau(), 1);
        assert_eq!(r.difference(&s).tau(), 1);
    }

    #[test]
    #[should_panic(expected = "union requires equal schemes")]
    fn union_rejects_mismatched_schemes() {
        let r = rel("A", vec![vec![1]]);
        let s = rel("B", vec![vec![1]]);
        let _ = r.union(&s);
    }

    #[test]
    fn consistency() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20]]);
        let s_consistent = rel("BC", vec![vec![10, 0], vec![20, 1]]);
        let s_inconsistent = rel("BC", vec![vec![10, 0], vec![99, 1]]);
        assert!(r.consistent_with(&s_consistent));
        assert!(!r.consistent_with(&s_inconsistent));
    }

    #[test]
    fn consistency_semijoin_reduction_fixpoint() {
        // After mutual semijoin reduction, two relations are consistent.
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let s = rel("BC", vec![vec![10, 0], vec![40, 1]]);
        let r2 = r.semijoin(&s);
        let s2 = s.semijoin(&r2);
        assert!(r2.consistent_with(&s2));
    }

    #[test]
    fn column_values_sorted_dedup() {
        let r = rel("AB", vec![vec![3, 0], vec![1, 0], vec![3, 1]]);
        assert_eq!(r.column_values(0), vec![Value::Int(1), Value::Int(3)]);
    }
}
