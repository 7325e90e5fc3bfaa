//! The tableau chase and lossless-join predicates.

use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::AttrSet;

use crate::fdset::FdSet;

impl FdSet {
    /// Is the decomposition of `⋃schemes` into `schemes` a **lossless
    /// join** under this FD set? — the classic tableau chase
    /// [Aho–Beeri–Ullman 1979].
    ///
    /// Only dependencies embedded in `⋃schemes` (both sides inside it)
    /// participate; the workspace's generators produce embedded FDs, per
    /// Osborn's condition (1) in the paper's Section 5.
    pub fn is_lossless(&self, schemes: &[AttrSet]) -> bool {
        if schemes.len() <= 1 {
            return true;
        }
        let universe: AttrSet = schemes
            .iter()
            .fold(AttrSet::empty(), |acc, &s| acc.union(s));
        let cols: Vec<_> = universe.iter().collect();
        let col_of =
            |a: mjoin_relation::Attribute| cols.binary_search(&a).expect("attr in universe");

        // Symbols: 0 = distinguished; k > 0 = the k-th subscripted variable.
        // (Distinct columns never interact, so one distinguished symbol per
        // column suffices.)
        let mut next_var = 1u32;
        let mut tab: Vec<Vec<u32>> = schemes
            .iter()
            .map(|&s| {
                cols.iter()
                    .map(|&a| {
                        if s.contains(a) {
                            0
                        } else {
                            next_var += 1;
                            next_var - 1
                        }
                    })
                    .collect()
            })
            .collect();

        let fds: Vec<_> = self
            .fds()
            .iter()
            .filter(|fd| fd.lhs.union(fd.rhs).is_subset_of(universe))
            .copied()
            .collect();

        // Chase to fixpoint.
        loop {
            let mut changed = false;
            for fd in &fds {
                let lhs_cols: Vec<usize> = fd.lhs.iter().map(col_of).collect();
                let rhs_cols: Vec<usize> = fd.rhs.iter().map(col_of).collect();
                for i in 0..tab.len() {
                    for j in (i + 1)..tab.len() {
                        if lhs_cols.iter().all(|&c| tab[i][c] == tab[j][c]) {
                            for &c in &rhs_cols {
                                let (a, b) = (tab[i][c], tab[j][c]);
                                if a == b {
                                    continue;
                                }
                                // Equate: rename the larger symbol to the
                                // smaller, within this column.
                                let (keep, drop) = if a < b { (a, b) } else { (b, a) };
                                for row in tab.iter_mut() {
                                    if row[c] == drop {
                                        row[c] = keep;
                                    }
                                }
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        tab.iter().any(|row| row.iter().all(|&v| v == 0))
    }
}

impl FdSet {
    /// Like [`FdSet::is_lossless`], but first *projects* the dependencies
    /// onto the decomposition's universe, so dependencies flowing through
    /// external attributes (e.g. `A → W, W → B` with `W` outside) are
    /// honoured. Strictly more complete than the embedded-only chase;
    /// exponential in the universe size.
    pub fn is_lossless_projected(&self, schemes: &[mjoin_relation::AttrSet]) -> bool {
        if schemes.len() <= 1 {
            return true;
        }
        let universe = schemes
            .iter()
            .fold(mjoin_relation::AttrSet::empty(), |acc, &s| acc.union(s));
        self.project(universe).is_lossless(schemes)
    }
}

/// Does the database scheme have **no nontrivial lossy joins** under
/// `fds` — is every connected subset of two or more relation schemes a
/// lossless join?
///
/// This is the hypothesis of the paper's first Section-4 application: it
/// implies (via Rissanen) that the database satisfies `C2`. The paper cites
/// a polynomial algorithm; we use the direct exponential definition, which
/// doubles as its specification and is ample for experiment-sized schemes.
pub fn no_nontrivial_lossy_joins(scheme: &DbScheme, fds: &FdSet) -> bool {
    scheme
        .connected_subsets(scheme.full_set())
        .into_iter()
        .filter(|s| s.len() >= 2)
        .all(|s| {
            let schemes: Vec<AttrSet> = s.iter().map(|i| scheme.scheme(i)).collect();
            fds.is_lossless(&schemes)
        })
}

/// Are **all joins on superkeys** — for every pair of linked relation
/// schemes, is their intersection a superkey of *both*?
///
/// This is the hypothesis of the paper's second Section-4 application: it
/// implies the database satisfies `C3` (and hence `C1` and `C2`).
pub fn all_joins_on_superkeys(scheme: &DbScheme, fds: &FdSet) -> bool {
    let n = scheme.len();
    for i in 0..n {
        for j in (i + 1)..n {
            let shared = scheme.scheme(i).intersect(scheme.scheme(j));
            if shared.is_empty() {
                continue;
            }
            if !fds.is_superkey(shared, scheme.scheme(i))
                || !fds.is_superkey(shared, scheme.scheme(j))
            {
                return false;
            }
        }
    }
    true
}

/// A subset `E` is linked to `F` through shared attributes and the union is
/// connected — helper re-exported for condition derivations: if a
/// connected subset's schemes pairwise join on superkeys, any superkey of a
/// member relation is a superkey of the subset's full attribute union.
///
/// (Paper, Section 4: "if **K** is a superkey of **R₁**, and
/// **R₁ ∩ R₂ ≠ φ**, then **K** is a superkey of **R₁ ∪ R₂**" — under the
/// all-joins-on-superkeys hypothesis; by induction it extends to connected
/// subsets.)
pub fn member_key_extends_to_subset(
    scheme: &DbScheme,
    fds: &FdSet,
    subset: RelSet,
    member: usize,
) -> bool {
    debug_assert!(subset.contains(member));
    let keys = fds.candidate_keys(scheme.scheme(member));
    let union = scheme.attrs_of(subset);
    keys.into_iter().any(|k| fds.is_superkey(k, union))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn attrs(cat: &Catalog, s: &str) -> AttrSet {
        AttrSet::from_iter(s.chars().map(|c| cat.lookup(&c.to_string()).unwrap()))
    }

    #[test]
    fn textbook_lossless_decomposition() {
        // R(A,B,C) with A -> B decomposed into AB, AC: lossless.
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["A -> B"]);
        assert!(fds.is_lossless(&[attrs(&cat, "AB"), attrs(&cat, "AC")]));
    }

    #[test]
    fn textbook_lossy_decomposition() {
        // R(A,B,C) with no FDs decomposed into AB, BC: lossy.
        let cat = Catalog::with_letters();
        let fds = FdSet::new();
        assert!(!fds.is_lossless(&[attrs(&cat, "AB"), attrs(&cat, "BC")]));
    }

    #[test]
    fn lossless_with_key_on_shared() {
        // AB, BC with B -> C: lossless (B is a key of BC).
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["B -> C"]);
        assert!(fds.is_lossless(&[attrs(&cat, "AB"), attrs(&cat, "BC")]));
        // And with B -> A it is too (key of the other side).
        let mut cat2 = Catalog::with_letters();
        let fds2 = FdSet::parse(&mut cat2, &["B -> A"]);
        assert!(fds2.is_lossless(&[attrs(&cat2, "AB"), attrs(&cat2, "BC")]));
    }

    #[test]
    fn three_way_lossless_chain() {
        // AB, BC, CD with B -> C, C -> D: chase succeeds.
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["B -> C", "C -> D"]);
        assert!(fds.is_lossless(&[attrs(&cat, "AB"), attrs(&cat, "BC"), attrs(&cat, "CD")]));
    }

    #[test]
    fn single_scheme_always_lossless() {
        let cat = Catalog::with_letters();
        let fds = FdSet::new();
        assert!(fds.is_lossless(&[attrs(&cat, "ABC")]));
        assert!(fds.is_lossless(&[]));
    }

    #[test]
    fn projection_recovers_transitive_dependencies() {
        // A → W, W → B with W outside the universe {A, B, C}: the
        // embedded chase cannot use either FD, but the projected one
        // recovers A → B.
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["A -> W", "W -> B"]);
        let schemes = [attrs(&cat, "AB"), attrs(&cat, "AC")];
        assert!(!fds.is_lossless(&schemes), "embedded chase misses A → B");
        assert!(
            fds.is_lossless_projected(&schemes),
            "projected chase finds it"
        );
        // Projection contents: A → B over {A, B, C}.
        let projected = fds.project(attrs(&cat, "ABC"));
        assert!(projected.implies(crate::Fd::new(attrs(&cat, "A"), attrs(&cat, "B"))));
        assert!(!projected.implies(crate::Fd::new(attrs(&cat, "B"), attrs(&cat, "A"))));
    }

    #[test]
    fn projected_agrees_with_embedded_when_fds_are_embedded() {
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["B -> C", "C -> D"]);
        for schemes in [
            vec![attrs(&cat, "AB"), attrs(&cat, "BC")],
            vec![attrs(&cat, "AB"), attrs(&cat, "BC"), attrs(&cat, "CD")],
            vec![attrs(&cat, "AB"), attrs(&cat, "CD")],
        ] {
            assert_eq!(
                fds.is_lossless(&schemes),
                fds.is_lossless_projected(&schemes),
                "{schemes:?}"
            );
        }
    }

    #[test]
    fn no_nontrivial_lossy_joins_predicate() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let good = FdSet::parse(&mut cat, &["B -> C", "C -> D"]);
        assert!(no_nontrivial_lossy_joins(&scheme, &good));
        let bad = FdSet::new();
        assert!(!no_nontrivial_lossy_joins(&scheme, &bad));
    }

    #[test]
    fn superkey_joins_predicate() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        // B -> A and B -> C: the shared attribute B is a key of both sides.
        let both = FdSet::parse(&mut cat, &["B -> A", "B -> C"]);
        assert!(all_joins_on_superkeys(&scheme, &both));
        // Only one side: fails.
        let one = FdSet::parse(&mut cat, &["B -> C"]);
        assert!(!all_joins_on_superkeys(&scheme, &one));
        // Disjoint schemes are vacuously fine.
        let scheme2 = DbScheme::parse(&mut cat, &["AB", "XY"]).unwrap();
        assert!(all_joins_on_superkeys(&scheme2, &FdSet::new()));
    }

    #[test]
    fn member_keys_extend_over_connected_subsets() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let fds = FdSet::parse(&mut cat, &["B -> A", "B -> C"]);
        assert!(all_joins_on_superkeys(&scheme, &fds));
        assert!(member_key_extends_to_subset(
            &scheme,
            &fds,
            RelSet::full(2),
            0
        ));
        assert!(member_key_extends_to_subset(
            &scheme,
            &fds,
            RelSet::full(2),
            1
        ));
    }
}
