//! Osborn sequences and extension joins (Section 5 of the paper).
//!
//! * An **Osborn step** `[E₁] ⋈ [E₂]` has `𝐑_{E₁} ∩ 𝐑_{E₂}` a superkey of
//!   `𝐑_{E₁}` or of `𝐑_{E₂}`; Osborn showed such linear strategies exist
//!   under her normal-form conditions, and each step then satisfies
//!   `τ(R_{E₁} ⋈ R_{E₂}) ≤ τ(R_{E₁})` or `… ≤ τ(R_{E₂})` — the shape of
//!   condition `C2`.
//! * An **extension join** (Honeyman) joins `R_{E}` with `R′` when the
//!   shared attributes `X = 𝐑_E ∩ 𝐑′` functionally determine a nonempty
//!   `Y ⊆ 𝐑′ − 𝐑_E`. We implement the canonical case `Y = 𝐑′ − 𝐑_E`
//!   (i.e. `X → 𝐑′`), which is the case Sagiv's representative-instance
//!   semantics uses; the general `Y ⊊ 𝐑′ − 𝐑_E` variant additionally
//!   projects `R′`, which changes the scheme and falls outside the paper's
//!   strategy formalism.
//!
//! Both searches are backtracking over linear orders with a visited-set
//! memo, exact for the workspace's scheme sizes.

use std::collections::HashMap;

use mjoin_hypergraph::{DbScheme, RelSet};

use crate::fdset::FdSet;

/// Finds a linear order `o` such that every prefix join is an Osborn step:
/// `attrs(prefix) ∩ 𝐑_{oᵢ}` is nonempty and a superkey of `attrs(prefix)`
/// or of `𝐑_{oᵢ}`. Returns `None` if no such order exists.
pub fn osborn_sequence(scheme: &DbScheme, fds: &FdSet) -> Option<Vec<usize>> {
    linear_sequence(scheme, |prefix, next| {
        let shared = scheme.attrs_of(prefix).intersect(scheme.scheme(next));
        !shared.is_empty()
            && (fds.is_superkey(shared, scheme.scheme(next))
                || fds.is_superkey(shared, scheme.attrs_of(prefix)))
    })
}

/// Finds a linear order where every step is an extension join:
/// `X = attrs(prefix) ∩ 𝐑_{oᵢ}` is nonempty and `X → 𝐑_{oᵢ}` (so the new
/// attributes are functionally determined by the shared ones). Returns
/// `None` if no such order exists.
pub fn extension_join_sequence(scheme: &DbScheme, fds: &FdSet) -> Option<Vec<usize>> {
    linear_sequence(scheme, |prefix, next| {
        let shared = scheme.attrs_of(prefix).intersect(scheme.scheme(next));
        !shared.is_empty() && fds.is_superkey(shared, scheme.scheme(next))
    })
}

/// Backtracking search for a linear order whose every step satisfies
/// `ok(prefix_set, next_index)`. Memoized on the prefix set: whether a
/// completion exists depends only on *which* relations are joined, not the
/// order they were joined in.
fn linear_sequence<F>(scheme: &DbScheme, ok: F) -> Option<Vec<usize>>
where
    F: Fn(RelSet, usize) -> bool,
{
    let n = scheme.len();
    let full = scheme.full_set();
    let mut memo: HashMap<RelSet, bool> = HashMap::new();
    let mut order = Vec::with_capacity(n);

    fn dfs<F: Fn(RelSet, usize) -> bool>(
        full: RelSet,
        prefix: RelSet,
        ok: &F,
        memo: &mut HashMap<RelSet, bool>,
        order: &mut Vec<usize>,
    ) -> bool {
        if prefix == full {
            return true;
        }
        if let Some(&false) = memo.get(&prefix) {
            return false;
        }
        for next in full.difference(prefix).iter() {
            if ok(prefix, next) {
                order.push(next);
                if dfs(full, prefix.union(RelSet::singleton(next)), ok, memo, order) {
                    return true;
                }
                order.pop();
            }
        }
        memo.insert(prefix, false);
        false
    }

    for start in 0..n {
        order.clear();
        order.push(start);
        if dfs(full, RelSet::singleton(start), &ok, &mut memo, &mut order) {
            return Some(order);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    #[test]
    fn osborn_sequence_for_key_chain() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let fds = FdSet::parse(&mut cat, &["B -> A", "C -> B", "D -> C"]);
        let seq = osborn_sequence(&scheme, &fds).unwrap();
        assert_eq!(seq.len(), 3);
        // Verify the Osborn property along the returned order.
        let mut prefix = RelSet::singleton(seq[0]);
        for &i in &seq[1..] {
            let shared = scheme.attrs_of(prefix).intersect(scheme.scheme(i));
            assert!(
                fds.is_superkey(shared, scheme.scheme(i))
                    || fds.is_superkey(shared, scheme.attrs_of(prefix))
            );
            prefix.insert(i);
        }
    }

    #[test]
    fn osborn_sequence_absent_without_keys() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let fds = FdSet::new();
        assert!(osborn_sequence(&scheme, &fds).is_none());
    }

    #[test]
    fn extension_sequence_follows_fk_direction() {
        // student(S,C) then course(C,L): C -> L makes CL an extension of SC,
        // but not vice versa (S,C determine nothing about the other side).
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["SC", "CL"]).unwrap();
        let fds = FdSet::parse(&mut cat, &["C -> L"]);
        let seq = extension_join_sequence(&scheme, &fds).unwrap();
        assert_eq!(seq, vec![0, 1]); // must start at SC and extend to CL
    }

    #[test]
    fn extension_sequence_none_when_no_direction_works() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let fds = FdSet::new();
        assert!(extension_join_sequence(&scheme, &fds).is_none());
    }

    #[test]
    fn extension_requires_linkage() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "CD"]).unwrap();
        let fds = FdSet::parse(&mut cat, &["A -> B", "C -> D"]);
        assert!(extension_join_sequence(&scheme, &fds).is_none());
    }

    #[test]
    fn superkey_joins_admit_osborn_sequences() {
        // When all joins are on superkeys (the C3 hypothesis), every order
        // starting anywhere works; in particular a sequence exists.
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let fds = FdSet::parse(&mut cat, &["B -> AC", "C -> BD"]);
        assert!(crate::chase::all_joins_on_superkeys(&scheme, &fds));
        assert!(osborn_sequence(&scheme, &fds).is_some());
    }

    #[test]
    fn single_relation_sequences() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB"]).unwrap();
        let fds = FdSet::new();
        assert_eq!(osborn_sequence(&scheme, &fds), Some(vec![0]));
        assert_eq!(extension_join_sequence(&scheme, &fds), Some(vec![0]));
    }
}
