//! Every join tree of a scheme, and Section 5's connectivity over them.

use mjoin_hypergraph::{DbScheme, JoinTree, RelSet};

/// Enumerates **every** join tree of `scheme` — all coherent spanning
/// trees of its link graph. Exponential; intended for the small schemes of
/// Section-5 experiments (`n ≲ 7`).
pub fn all_join_trees(scheme: &DbScheme) -> Vec<JoinTree> {
    let n = scheme.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return JoinTree::build(scheme).into_iter().collect();
    }
    // Candidate edges: linked pairs.
    let candidates: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter(|&(i, j)| scheme.scheme(i).intersects(scheme.scheme(j)))
        .collect();
    let mut out = Vec::new();
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(n - 1);
    // Union-find over relations for cycle pruning.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    fn rec(
        scheme: &DbScheme,
        candidates: &[(usize, usize)],
        index: usize,
        chosen: &mut Vec<(usize, usize)>,
        parent: Vec<usize>,
        out: &mut Vec<JoinTree>,
    ) {
        let n = scheme.len();
        if chosen.len() == n - 1 {
            if let Some(tree) = JoinTree::from_edges(scheme, chosen) {
                out.push(tree);
            }
            return;
        }
        if index >= candidates.len() || candidates.len() - index < (n - 1) - chosen.len() {
            return; // not enough edges left
        }
        // Include candidates[index] if it doesn't close a cycle.
        let (a, b) = candidates[index];
        let mut p = parent.clone();
        let (ra, rb) = (find(&mut p, a), find(&mut p, b));
        if ra != rb {
            p[ra] = rb;
            chosen.push((a, b));
            rec(scheme, candidates, index + 1, chosen, p, out);
            chosen.pop();
        }
        // Exclude it.
        rec(scheme, candidates, index + 1, chosen, parent, out);
    }
    rec(
        scheme,
        &candidates,
        0,
        &mut chosen,
        (0..n).collect(),
        &mut out,
    );
    out
}

/// Section 5's re-defined *connected* for α-acyclic schemes: is there
/// **some** join tree of `scheme` in which `subset` induces a subtree?
///
/// (The fixed-tree variant is [`JoinTree::induces_subtree`]; this
/// quantifies over all join trees, as the paper's definition does.)
pub fn connected_in_some_join_tree(scheme: &DbScheme, subset: RelSet) -> bool {
    all_join_trees(scheme)
        .iter()
        .any(|t| t.induces_subtree(subset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn parse(specs: &[&str]) -> DbScheme {
        let mut cat = Catalog::new();
        DbScheme::parse(&mut cat, specs).unwrap()
    }

    #[test]
    fn all_join_trees_of_a_chain_is_unique() {
        let d = parse(&["AB", "BC", "CD"]);
        let trees = all_join_trees(&d);
        assert_eq!(trees.len(), 1);
        assert!(trees[0].induces_subtree(RelSet::from_indices([0, 1])));
    }

    #[test]
    fn all_join_trees_of_a_hub_scheme_has_many() {
        // {ABC, A, B, C}-style: leaves AX/BY/CZ hang off hub ABC; exactly
        // one join tree (each leaf only links to the hub). Now a scheme
        // with a tie: {AB, AB, AB} — any spanning tree of the triangle of
        // identical schemes is coherent: 3 join trees.
        let d = parse(&["AB", "AB", "AB"]);
        let trees = all_join_trees(&d);
        assert_eq!(trees.len(), 3);
    }

    #[test]
    fn all_join_trees_empty_for_cyclic() {
        let d = parse(&["AB", "BC", "CA"]);
        assert!(all_join_trees(&d).is_empty());
    }

    #[test]
    fn section5_connectivity_quantifies_over_trees() {
        // {AB, AB, AB}: the pair {0, 2} is NOT adjacent in the path tree
        // 0-1-2 but IS connected in the tree 1-0-2; the quantified
        // predicate must accept it.
        let d = parse(&["AB", "AB", "AB"]);
        let pair = RelSet::from_indices([0, 2]);
        let path_tree = JoinTree::from_edges(&d, &[(0, 1), (1, 2)]).unwrap();
        assert!(!path_tree.induces_subtree(pair));
        assert!(connected_in_some_join_tree(&d, pair));
        // On a chain, {first, last} is connected in no join tree.
        let chain = parse(&["AB", "BC", "CD"]);
        assert!(!connected_in_some_join_tree(
            &chain,
            RelSet::from_indices([0, 2])
        ));
        assert!(connected_in_some_join_tree(
            &chain,
            RelSet::from_indices([1, 2])
        ));
    }

    #[test]
    fn every_enumerated_tree_matches_build_quality() {
        // On acyclic connected schemes, build() returns one of the
        // enumerated trees (up to edge orientation).
        for specs in [
            vec!["AB", "BC", "CD"],
            vec!["AX", "BX", "CX"],
            vec!["ABC", "BCD", "CDE"],
        ] {
            let d = parse(&specs);
            let trees = all_join_trees(&d);
            assert!(!trees.is_empty(), "{specs:?}");
            let built = JoinTree::build(&d).unwrap();
            let canon = |t: &JoinTree| {
                let mut es: Vec<(usize, usize)> = t
                    .edges()
                    .iter()
                    .map(|&(a, b)| (a.min(b), a.max(b)))
                    .collect();
                es.sort_unstable();
                es
            };
            assert!(trees.iter().any(|t| canon(t) == canon(&built)), "{specs:?}");
        }
    }
}
