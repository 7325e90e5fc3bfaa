//! The natural join by sort-merge and by nested loops.
//!
//! Both return the same canonical [`Relation`] as the shipped hash join
//! (`Relation::natural_join`): the output rows are laid end to end and
//! built with [`Relation::from_row_major`], which sorts and deduplicates.

use std::cmp::Ordering;

use mjoin_relation::{AttrSet, Relation, Value};

/// Column plan for assembling an output row from a pair of matching
/// input rows, and the output rows assembled so far.
struct Columns {
    scheme: AttrSet,
    /// Shared attribute columns in `left`, ascending by attribute.
    left_key: Vec<usize>,
    /// Shared attribute columns in `right`, in `left_key`'s attribute order.
    right_key: Vec<usize>,
    /// For each output column: (from_left, source column index).
    sources: Vec<(bool, usize)>,
    /// The output rows' values, row-major.
    out: Vec<Value>,
    /// The number of output rows.
    len: usize,
}

impl Columns {
    fn new(left: &Relation, right: &Relation) -> Columns {
        let shared = left.scheme().intersect(right.scheme());
        let scheme = left.scheme().union(right.scheme());
        let column = |r: &Relation, a| r.column_of(a).expect("attribute of the scheme");
        Columns {
            scheme,
            left_key: shared.iter().map(|a| column(left, a)).collect(),
            right_key: shared.iter().map(|a| column(right, a)).collect(),
            sources: scheme
                .iter()
                .map(|a| match left.column_of(a) {
                    Some(c) => (true, c),
                    None => (false, column(right, a)),
                })
                .collect(),
            out: Vec::new(),
            len: 0,
        }
    }

    fn key<'a>(&self, t: &'a [Value], left: bool) -> Vec<&'a Value> {
        let cols = if left {
            &self.left_key
        } else {
            &self.right_key
        };
        cols.iter().map(|&c| &t[c]).collect()
    }

    /// `r`'s rows paired with their keys, sorted by key.
    fn sorted<'a>(&self, r: &'a Relation, left: bool) -> Vec<(Vec<&'a Value>, &'a [Value])> {
        let mut v: Vec<_> = r.rows().map(|t| (self.key(t, left), t)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn emit(&mut self, l: &[Value], r: &[Value]) {
        self.out.extend(
            self.sources
                .iter()
                .map(|&(from_left, c)| (if from_left { l } else { r })[c].clone()),
        );
        self.len += 1;
    }

    fn finish(self) -> Relation {
        Relation::from_row_major(self.scheme, self.len, self.out)
    }
}

/// Natural join by sort-merge: both sides sorted by their shared-attribute
/// key, then merged group by group.
pub fn sort_merge_join(left: &Relation, right: &Relation) -> Relation {
    let mut cols = Columns::new(left, right);
    // Extract each side's key once, then sort the (key, row) pairs; the
    // merge compares the precomputed keys.
    let (ls, rs) = (cols.sorted(left, true), cols.sorted(right, false));
    let (mut i, mut j) = (0, 0);
    while i < ls.len() && j < rs.len() {
        match ls[i].0.cmp(&rs[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find the group boundaries on both sides, emit the product.
                let i_end = (i..ls.len())
                    .find(|&k| ls[k].0 != ls[i].0)
                    .unwrap_or(ls.len());
                let j_end = (j..rs.len())
                    .find(|&k| rs[k].0 != rs[j].0)
                    .unwrap_or(rs.len());
                for (_, l) in &ls[i..i_end] {
                    for (_, r) in &rs[j..j_end] {
                        cols.emit(l, r);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    cols.finish()
}

/// Natural join by nested loops: every pair of rows compared, `O(|R|·|S|)`.
pub fn nested_loop_join(left: &Relation, right: &Relation) -> Relation {
    let mut cols = Columns::new(left, right);
    for l in left.rows() {
        let lk = cols.key(l, true);
        for r in right.rows() {
            if lk == cols.key(r, false) {
                cols.emit(l, r);
            }
        }
    }
    cols.finish()
}

/// The shipped hash join against both joins here on fixed cases: all
/// three must return the same canonical relation.
#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn rel(spec: &str, rows: Vec<Vec<i64>>) -> Relation {
        let s = Catalog::with_letters().scheme(spec).unwrap();
        Relation::from_int_rows(s, rows).unwrap()
    }

    /// A join algorithm by name, for assertion messages.
    type Join = (&'static str, fn(&Relation, &Relation) -> Relation);

    const ALGOS: [Join; 3] = [
        ("hash", Relation::natural_join),
        ("sort_merge", sort_merge_join),
        ("nested_loop", nested_loop_join),
    ];

    #[test]
    fn join_on_shared_attribute() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]);
        let s = rel("BC", vec![vec![10, 100], vec![20, 200], vec![20, 201]]);
        for (alg, join) in ALGOS {
            let j = join(&r, &s);
            // B=10: 1 pair. B=20: 2 left × 2 right = 4 pairs.
            assert_eq!(j.tau(), 5, "{alg}");
            assert_eq!(j.scheme().len(), 3);
        }
    }

    #[test]
    fn disjoint_schemes_give_cartesian_product() {
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        let s = rel("CD", vec![vec![5, 6], vec![7, 8], vec![9, 10]]);
        for (alg, join) in ALGOS {
            let j = join(&r, &s);
            assert_eq!(j.tau(), r.tau() * s.tau(), "{alg}");
        }
    }

    #[test]
    fn join_with_empty_relation_is_empty() {
        let r = rel("AB", vec![vec![1, 2]]);
        let s = Relation::empty(Catalog::with_letters().scheme("BC").unwrap());
        for (alg, join) in ALGOS {
            assert!(join(&r, &s).is_empty(), "{alg}");
            assert!(join(&s, &r).is_empty(), "{alg}");
        }
    }

    #[test]
    fn join_over_full_overlap_is_intersection() {
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        let s = rel("AB", vec![vec![3, 4], vec![5, 6]]);
        for (alg, join) in ALGOS {
            let j = join(&r, &s);
            assert_eq!(j.tau(), 1, "{alg}");
            assert_eq!(j.row(0)[0], Value::Int(3));
        }
    }

    #[test]
    fn join_is_commutative() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20]]);
        let s = rel("BC", vec![vec![10, 5], vec![10, 6]]);
        for (alg, join) in ALGOS {
            assert_eq!(join(&r, &s), join(&s, &r), "{alg}");
        }
    }

    #[test]
    fn algorithms_agree_on_paper_example_1() {
        // Example 1 of the paper: τ(R1 ⋈ R2) = 10.
        let r1 = rel(
            "AB",
            vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]],
        );
        let r2 = rel(
            "BC",
            vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]],
        );
        for (alg, join) in ALGOS {
            assert_eq!(join(&r1, &r2).tau(), 10, "{alg}");
        }
    }

    #[test]
    fn sort_merge_handles_duplicate_key_runs() {
        // Heavy duplicate keys exercise the group-boundary scan, including
        // groups that run to the end of both sides.
        let r = rel("AB", (0..20).map(|i| vec![i, 0]).collect());
        let s = rel("BC", (0..15).map(|i| vec![0, i]).collect());
        let hash = r.natural_join(&s);
        let sm = sort_merge_join(&r, &s);
        assert_eq!(hash, sm);
        assert_eq!(sm.tau(), 300);
    }
}
