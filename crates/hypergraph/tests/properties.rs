//! Property tests for the scheme-hypergraph invariants every higher layer
//! assumes.

use mjoin_hypergraph::{DbScheme, JoinTree, RelSet};
use mjoin_relation::{AttrSet, Attribute, Catalog};
use proptest::prelude::*;

/// A random database scheme: `n` relations, each a random nonempty subset
/// of a small attribute pool (collisions guarantee interesting linkage).
fn arb_scheme() -> impl Strategy<Value = DbScheme> {
    (2usize..7, proptest::collection::vec(1u8..255, 2..7)).prop_map(|(pool, masks)| {
        let schemes: Vec<AttrSet> = masks
            .iter()
            .map(|&m| {
                let mut s = AttrSet::empty();
                for b in 0..8 {
                    if m & (1 << b) != 0 {
                        s.insert(Attribute::from_index(b % pool.max(1)));
                    }
                }
                if s.is_empty() {
                    s.insert(Attribute::from_index(0));
                }
                s
            })
            .collect();
        DbScheme::new(schemes).expect("nonempty schemes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Components partition the subset, each is connected, and no two are
    /// linked.
    #[test]
    fn components_partition(scheme in arb_scheme(), mask: u64) {
        let subset = RelSet(u128::from(mask)).intersect(scheme.full_set());
        let comps = scheme.components(subset);
        let mut union = RelSet::empty();
        for (i, &c) in comps.iter().enumerate() {
            prop_assert!(!c.is_empty());
            prop_assert!(scheme.connected(c));
            prop_assert!(union.is_disjoint(c));
            union = union.union(c);
            for &d in &comps[i + 1..] {
                prop_assert!(!scheme.linked(c, d), "components must not be linked");
            }
        }
        prop_assert_eq!(union, subset);
        prop_assert_eq!(comps.len(), scheme.comp(subset));
    }

    /// `connected` agrees with `components`: connected iff ≤ 1 component.
    #[test]
    fn connected_iff_one_component(scheme in arb_scheme(), mask: u64) {
        let subset = RelSet(u128::from(mask)).intersect(scheme.full_set());
        prop_assert_eq!(
            scheme.connected(subset),
            scheme.components(subset).len() <= 1
        );
    }

    /// The output-sensitive connected-subset enumeration matches the 2ⁿ
    /// filter on arbitrary schemes and restrictions.
    #[test]
    fn connected_subsets_match_filter(scheme in arb_scheme(), mask: u64) {
        let within = RelSet(u128::from(mask)).intersect(scheme.full_set());
        let mut fast = scheme.connected_subsets(within);
        let mut brute: Vec<RelSet> = within
            .subsets()
            .filter(|s| !s.is_empty() && scheme.connected(*s))
            .collect();
        fast.sort_unstable();
        brute.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    /// `linked` is symmetric and monotone under union.
    #[test]
    fn linked_laws(scheme in arb_scheme(), a: u64, b: u64, c: u64) {
        let full = scheme.full_set();
        let (a, b, c) = (
            RelSet(u128::from(a)).intersect(full),
            RelSet(u128::from(b)).intersect(full),
            RelSet(u128::from(c)).intersect(full),
        );
        prop_assert_eq!(scheme.linked(a, b), scheme.linked(b, a));
        if scheme.linked(a, b) && !a.is_empty() {
            prop_assert!(scheme.linked(a, b.union(c)));
        }
    }

    /// Acyclicity hierarchy is monotone: Berge ⊆ γ ⊆ β ⊆ α.
    #[test]
    fn acyclicity_hierarchy(scheme in arb_scheme()) {
        if scheme.is_berge_acyclic() {
            prop_assert!(scheme.is_gamma_acyclic());
        }
        if scheme.is_gamma_acyclic() {
            prop_assert!(scheme.is_beta_acyclic());
        }
        if scheme.is_beta_acyclic() {
            prop_assert!(scheme.is_alpha_acyclic());
        }
    }

    /// A join tree exists iff the scheme is connected and α-acyclic; when
    /// it does, every attribute's holders induce a subtree.
    #[test]
    fn join_tree_existence_and_coherence(scheme in arb_scheme()) {
        let connected = scheme.connected(scheme.full_set());
        match JoinTree::build(&scheme) {
            Some(tree) => {
                prop_assert!(connected && scheme.is_alpha_acyclic());
                prop_assert_eq!(tree.edges().len() + 1, scheme.len());
                let all = scheme.attrs_of(scheme.full_set());
                for a in all.iter() {
                    let holders = RelSet::from_indices(
                        (0..scheme.len()).filter(|&i| scheme.scheme(i).contains(a)),
                    );
                    prop_assert!(tree.induces_subtree(holders));
                }
            }
            None => prop_assert!(!connected || !scheme.is_alpha_acyclic()),
        }
    }

    /// `attrs_of` distributes over union.
    #[test]
    fn attrs_of_union(scheme in arb_scheme(), a: u64, b: u64) {
        let full = scheme.full_set();
        let (a, b) = (RelSet(u128::from(a)).intersect(full), RelSet(u128::from(b)).intersect(full));
        prop_assert_eq!(
            scheme.attrs_of(a.union(b)),
            scheme.attrs_of(a).union(scheme.attrs_of(b))
        );
    }
}

mod ccp {
    //! The csg–cmp-pair enumerator and the adjacency linkage fast path
    //! against their brute-force definitions.

    use mjoin_hypergraph::{DbScheme, RelSet};
    use mjoin_relation::{AttrSet, Attribute};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scheme_from_edges(n: usize, edges: &[(usize, usize)]) -> DbScheme {
        // One fresh attribute per edge; relation i holds the attributes of
        // its incident edges (plus a private one so no scheme is empty).
        let mut attrs = vec![AttrSet::empty(); n];
        let mut next = 0usize;
        for &(i, j) in edges {
            let a = Attribute::from_index(next);
            next += 1;
            attrs[i].insert(a);
            attrs[j].insert(a);
        }
        for s in attrs.iter_mut() {
            if s.is_empty() {
                s.insert(Attribute::from_index(next));
                next += 1;
            }
        }
        DbScheme::new(attrs).expect("valid scheme")
    }

    fn chain(n: usize) -> DbScheme {
        scheme_from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    fn star(n: usize) -> DbScheme {
        scheme_from_edges(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>())
    }

    fn cycle(n: usize) -> DbScheme {
        scheme_from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    fn clique(n: usize) -> DbScheme {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        scheme_from_edges(n, &edges)
    }

    /// A random connected scheme: a random spanning tree plus `extra`
    /// random edges, each edge carrying its own attribute.
    fn random_connected(rng: &mut StdRng, n: usize, extra: usize) -> DbScheme {
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.gen_range(0..i), i));
        }
        for _ in 0..extra {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                edges.push((i.min(j), i.max(j)));
            }
        }
        scheme_from_edges(n, &edges)
    }

    /// The paper-definition filter the streaming enumerator must match:
    /// every proper split of every connected subset whose halves are each
    /// connected and linked to each other.
    fn brute_ccp(scheme: &DbScheme, within: RelSet) -> Vec<(RelSet, RelSet)> {
        let mut out = Vec::new();
        for t in scheme.connected_subsets(within) {
            if t.len() < 2 {
                continue;
            }
            for (s1, s2) in t.proper_splits() {
                if scheme.connected(s1) && scheme.connected(s2) && scheme.linked(s1, s2) {
                    out.push(normalize(s1, s2));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn normalize(a: RelSet, b: RelSet) -> (RelSet, RelSet) {
        // Unordered pair, side containing the lowest member first.
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn assert_ccp_matches_brute(scheme: &DbScheme, within: RelSet) {
        let emitted = scheme.ccp_pairs(within);
        let mut normalized: Vec<(RelSet, RelSet)> = emitted
            .iter()
            .map(|&(csg, cmp)| normalize(csg, cmp))
            .collect();
        normalized.sort_unstable();
        // Exactly once: no unordered pair appears twice.
        for w in normalized.windows(2) {
            assert_ne!(w[0], w[1], "csg–cmp pair emitted more than once");
        }
        assert_eq!(normalized, brute_ccp(scheme, within));
    }

    #[test]
    fn ccp_pairs_match_brute_force_on_named_topologies() {
        for n in 2..=10 {
            for scheme in [chain(n), star(n), cycle(n), clique(n)] {
                assert_ccp_matches_brute(&scheme, scheme.full_set());
            }
        }
    }

    #[test]
    fn ccp_pairs_match_brute_force_on_seeded_random_schemes() {
        let mut rng = StdRng::seed_from_u64(0x5EEDCC9);
        for trial in 0..60 {
            let n = 2 + trial % 9; // n ∈ [2, 10]
            let extra = rng.gen_range(0..=n);
            let scheme = random_connected(&mut rng, n, extra);
            assert_ccp_matches_brute(&scheme, scheme.full_set());
            // Also on a restricted (possibly disconnected) `within`.
            let within =
                RelSet(u128::from(rng.gen_range(1..u64::MAX))).intersect(scheme.full_set());
            assert_ccp_matches_brute(&scheme, within);
        }
    }

    #[test]
    fn ccp_pair_count_on_chain_has_closed_form() {
        // A chain's csg–cmp pairs are its (start, split, end) choices:
        // n(n−1)(n+1)/6.
        for n in 2..=12 {
            let scheme = chain(n);
            let expect = n * (n - 1) * (n + 1) / 6;
            assert_eq!(scheme.ccp_pairs(scheme.full_set()).len(), expect);
        }
    }

    #[test]
    fn linked_disjoint_agrees_with_attribute_linked_on_all_disjoint_pairs() {
        let mut rng = StdRng::seed_from_u64(0x11_4D15);
        let mut schemes = vec![chain(7), star(7), cycle(7), clique(6)];
        for trial in 0..24 {
            let n = 2 + trial % 9; // n ∈ [2, 10]
            let extra = rng.gen_range(0..=n);
            schemes.push(random_connected(&mut rng, n, extra));
        }
        for scheme in &schemes {
            let full = scheme.full_set();
            for d1 in full.subsets() {
                for d2 in full.difference(d1).subsets() {
                    assert_eq!(
                        scheme.linked_disjoint(d1, d2),
                        scheme.linked(d1, d2),
                        "linked_disjoint diverged on {d1:?} vs {d2:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn catalog_round_trip_render() {
    // Sanity outside proptest: render is stable for a known scheme.
    let mut cat = Catalog::new();
    let d = DbScheme::parse(&mut cat, &["ABC", "BE", "DF"]).unwrap();
    assert_eq!(d.render(&cat, d.full_set()), "{ABC, BE, DF}");
}
