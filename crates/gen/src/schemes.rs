//! Database-scheme topology generators.
//!
//! Attributes are named `a0`, `a1`, …; relation schemes are built from
//! them. All functions return the catalog together with the scheme so the
//! result is self-describing.

use mjoin_hypergraph::DbScheme;
use mjoin_relation::{AttrSet, Catalog};
use rand::seq::SliceRandom;
use rand::Rng;

fn fresh(catalog: &mut Catalog, n: usize) -> Vec<AttrSet> {
    (0..n)
        .map(|i| {
            AttrSet::singleton(
                catalog
                    .intern(&format!("a{i}"))
                    .expect("generator schemes stay under the catalog limit"),
            )
        })
        .collect()
}

/// Chain query: `R₀ = a₀a₁, R₁ = a₁a₂, …` — Berge-acyclic, the classic
/// pipeline shape.
pub fn chain(n: usize) -> (Catalog, DbScheme) {
    assert!(n >= 1);
    let mut cat = Catalog::new();
    let attrs = fresh(&mut cat, n + 1);
    let schemes = (0..n).map(|i| attrs[i].union(attrs[i + 1])).collect();
    let d = DbScheme::new(schemes).expect("chain schemes are nonempty");
    (cat, d)
}

/// Star query: a hub `R₀ = a₀…a_{n−1}` joined by `Rᵢ = a_{i−1} b_{i−1}`
/// spokes — the snowflake/fact-table shape.
pub fn star(n: usize) -> (Catalog, DbScheme) {
    assert!(n >= 1);
    let mut cat = Catalog::new();
    let hub_attrs = fresh(&mut cat, n.saturating_sub(1).max(1));
    let hub = hub_attrs
        .iter()
        .fold(AttrSet::empty(), |acc, &a| acc.union(a));
    let mut schemes = vec![hub];
    for (i, &a) in hub_attrs.iter().enumerate().take(n - 1) {
        let leaf_attr = AttrSet::singleton(
            cat.intern(&format!("b{i}"))
                .expect("generator schemes stay under the catalog limit"),
        );
        schemes.push(a.union(leaf_attr));
    }
    let d = DbScheme::new(schemes).expect("star schemes are nonempty");
    (cat, d)
}

/// Cycle query: a chain whose last relation closes back on the first
/// attribute — the smallest α-cyclic family (for `n ≥ 3`).
pub fn cycle(n: usize) -> (Catalog, DbScheme) {
    assert!(n >= 2);
    let mut cat = Catalog::new();
    let attrs = fresh(&mut cat, n);
    let schemes = (0..n).map(|i| attrs[i].union(attrs[(i + 1) % n])).collect();
    let d = DbScheme::new(schemes).expect("cycle schemes are nonempty");
    (cat, d)
}

/// Clique query: every pair of relations shares a dedicated attribute —
/// the densest join graph.
pub fn clique(n: usize) -> (Catalog, DbScheme) {
    assert!(n >= 1);
    let mut cat = Catalog::new();
    // Attribute e_{i}_{j} shared by relations i and j.
    let mut schemes = vec![AttrSet::empty(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let a = cat
                .intern(&format!("e{i}_{j}"))
                .expect("generator schemes stay under the catalog limit");
            schemes[i].insert(a);
            schemes[j].insert(a);
        }
    }
    if n == 1 {
        schemes[0].insert(cat.intern("a0").expect("catalog has room"));
    }
    let d = DbScheme::new(schemes).expect("clique schemes are nonempty");
    (cat, d)
}

/// Random tree query: relation `i > 0` shares one fresh attribute with a
/// uniformly chosen earlier relation — always Berge-acyclic and connected.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> (Catalog, DbScheme) {
    assert!(n >= 1);
    let mut cat = Catalog::new();
    let mut schemes: Vec<AttrSet> = vec![AttrSet::singleton(
        cat.intern("a0").expect("catalog has room"),
    )];
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        let shared = cat
            .intern(&format!("t{i}"))
            .expect("generator schemes stay under the catalog limit");
        schemes[parent].insert(shared);
        let own = cat
            .intern(&format!("a{i}"))
            .expect("generator schemes stay under the catalog limit");
        schemes.push(AttrSet::from_iter([shared, own]));
    }
    let d = DbScheme::new(schemes).expect("tree schemes are nonempty");
    (cat, d)
}

/// Random connected query: a random tree plus `extra_edges` additional
/// shared attributes between random relation pairs.
pub fn random_connected<R: Rng>(n: usize, extra_edges: usize, rng: &mut R) -> (Catalog, DbScheme) {
    let (mut cat, tree) = random_tree(n, rng);
    let mut schemes: Vec<AttrSet> = tree.schemes().to_vec();
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    pairs.shuffle(rng);
    for (k, (i, j)) in pairs.into_iter().take(extra_edges).enumerate() {
        let a = cat
            .intern(&format!("x{k}"))
            .expect("generator schemes stay under the catalog limit");
        schemes[i].insert(a);
        schemes[j].insert(a);
    }
    let d = DbScheme::new(schemes).expect("schemes are nonempty");
    (cat, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_hypergraph::Acyclicity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let (_, d) = chain(5);
        assert_eq!(d.len(), 5);
        assert!(d.connected(d.full_set()));
        assert_eq!(d.acyclicity(), Acyclicity::Berge);
    }

    #[test]
    fn star_shape() {
        let (_, d) = star(4);
        assert_eq!(d.len(), 4);
        assert!(d.connected(d.full_set()));
        assert!(d.is_alpha_acyclic());
    }

    #[test]
    fn cycle_is_cyclic_from_three() {
        let (_, d) = cycle(3);
        assert!(!d.is_alpha_acyclic());
        let (_, d2) = cycle(2);
        assert!(d2.is_alpha_acyclic()); // a 2-cycle is just two linked relations
    }

    #[test]
    fn clique_is_connected_and_cyclic() {
        let (_, d) = clique(4);
        assert!(d.connected(d.full_set()));
        assert!(!d.is_alpha_acyclic());
        // Each relation shares exactly one attribute with each other one.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(d.scheme(i).intersect(d.scheme(j)).len(), 1);
            }
        }
    }

    #[test]
    fn random_tree_is_acyclic_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..12 {
            let (_, d) = random_tree(n, &mut rng);
            assert_eq!(d.len(), n);
            assert!(d.connected(d.full_set()), "n={n}");
            assert!(d.is_alpha_acyclic(), "n={n}");
        }
    }

    #[test]
    fn random_connected_stays_connected() {
        let mut rng = StdRng::seed_from_u64(11);
        for extra in 0..4 {
            let (_, d) = random_connected(6, extra, &mut rng);
            assert!(d.connected(d.full_set()));
        }
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let (_, d1) = random_connected(7, 3, &mut a);
        let (_, d2) = random_connected(7, 3, &mut b);
        assert_eq!(d1, d2);
    }

    #[test]
    fn single_relation_edge_cases() {
        assert_eq!(chain(1).1.len(), 1);
        assert_eq!(star(1).1.len(), 1);
        assert_eq!(clique(1).1.len(), 1);
    }
}
