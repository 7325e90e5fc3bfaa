//! Join trees (qual trees) for α-acyclic database schemes.
//!
//! A *join tree* for a database scheme **D** is a tree whose nodes are the
//! relation schemes of **D** such that, for every attribute `A`, the nodes
//! whose schemes contain `A` induce a subtree (the *coherence* or
//! *connectedness* property). A scheme has a join tree iff it is α-acyclic
//! [Beeri–Fagin–Maier–Yannakakis 1983].
//!
//! Construction uses Maier's maximum-weight-spanning-tree theorem: any
//! maximal spanning tree of the intersection graph (edge weight
//! `|Rᵢ ∩ Rⱼ|`) is a join tree iff the scheme is α-acyclic. We build one by
//! Prim's algorithm and verify coherence, which doubles as an independent
//! α-acyclicity test cross-checked against GYO in the tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::relset::RelSet;
use crate::scheme::DbScheme;

/// A join tree over a connected, α-acyclic database scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTree {
    n: usize,
    /// Tree edges as (child, parent) pairs in construction order.
    edges: Vec<(usize, usize)>,
    /// `neighbors[i]` = tree-adjacent relation indices.
    neighbors: Vec<RelSet>,
}

impl JoinTree {
    /// Builds a join tree for `scheme`, or `None` if the scheme is
    /// disconnected or not α-acyclic.
    pub fn build(scheme: &DbScheme) -> Option<JoinTree> {
        let full = scheme.full_set();
        if !scheme.connected(full) {
            return None;
        }
        let n = scheme.len();
        if n == 1 {
            return Some(JoinTree {
                n,
                edges: Vec::new(),
                neighbors: vec![RelSet::empty()],
            });
        }
        // Prim: grow a maximum-weight spanning tree from relation 0. Each
        // step takes the heaviest edge leaving the tree, ties to the lowest
        // parent, then the lowest child. Only linked pairs weigh anything,
        // so the heap holds adjacency edges alone; entries whose child
        // joined the tree meanwhile are skipped when popped.
        let weight = |p: usize, c: usize| scheme.scheme(p).intersect(scheme.scheme(c)).len();
        let mut in_tree = RelSet::singleton(0);
        let mut edges = Vec::with_capacity(n - 1);
        let mut neighbors = vec![RelSet::empty(); n];
        let mut heap: BinaryHeap<(usize, Reverse<usize>, Reverse<usize>)> = BinaryHeap::new();
        let mut tree_weight = 0;
        let grow = |p: usize, in_tree: RelSet, heap: &mut BinaryHeap<_>| {
            for c in scheme.adjacent_to(p).difference(in_tree).iter() {
                heap.push((weight(p, c), Reverse(p), Reverse(c)));
            }
        };
        grow(0, in_tree, &mut heap);
        while let Some((w, Reverse(p), Reverse(c))) = heap.pop() {
            if in_tree.contains(c) {
                continue;
            }
            edges.push((c, p));
            neighbors[c].insert(p);
            neighbors[p].insert(c);
            in_tree.insert(c);
            tree_weight += w;
            grow(c, in_tree, &mut heap);
        }
        // Coherence without a walk per attribute: the tree edges whose
        // ends both hold attribute `a` form a forest on `a`'s holders, so
        // they number at most `holders(a) − 1`, with equality iff the
        // holders induce a subtree. Summed over attributes, the tree is
        // coherent iff its weight is `Σ|Rᵢ| − |⋃Rᵢ|`.
        let holdings: usize = scheme.schemes().iter().map(|s| s.len()).sum();
        let coherent = tree_weight + scheme.attrs_of(full).len() == holdings;
        coherent.then_some(JoinTree {
            n,
            edges,
            neighbors,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the tree trivial (a single node)?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The tree edges as (child, parent) pairs, in the order Prim added
    /// them (children appear after their parents were connected).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Tree neighbors of node `i`.
    pub fn neighbors(&self, i: usize) -> RelSet {
        self.neighbors[i]
    }

    /// Builds a join tree from an explicit edge list, validating that the
    /// edges form a spanning tree and satisfy coherence. Returns `None`
    /// otherwise.
    pub fn from_edges(scheme: &DbScheme, edges: &[(usize, usize)]) -> Option<JoinTree> {
        let n = scheme.len();
        if edges.len() + 1 != n {
            return None;
        }
        let mut neighbors = vec![RelSet::empty(); n];
        for &(a, b) in edges {
            if a >= n || b >= n || a == b || neighbors[a].contains(b) {
                return None;
            }
            neighbors[a].insert(b);
            neighbors[b].insert(a);
        }
        // Spanning: BFS from 0 reaches everything; orient edges by BFS.
        let mut visited = RelSet::singleton(0);
        let mut oriented = Vec::with_capacity(edges.len());
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(p) = queue.pop_front() {
            for c in neighbors[p].difference(visited).iter() {
                visited.insert(c);
                oriented.push((c, p));
                queue.push_back(c);
            }
        }
        if visited != RelSet::full(n) {
            return None;
        }
        let tree = JoinTree {
            n,
            edges: oriented,
            neighbors,
        };
        tree.is_coherent(scheme).then_some(tree)
    }

    /// Coherence: for every attribute, the nodes containing it induce a
    /// subtree.
    fn is_coherent(&self, scheme: &DbScheme) -> bool {
        let all_attrs = scheme.attrs_of(scheme.full_set());
        all_attrs.iter().all(|a| {
            let holders =
                RelSet::from_indices((0..self.n).filter(|&i| scheme.scheme(i).contains(a)));
            self.induces_subtree(holders)
        })
    }

    /// Does `subset` induce a (connected) subtree of this join tree?
    ///
    /// This is Section 5's re-definition of *connected* for α-acyclic
    /// schemes: `E ⊆ D` is connected iff it induces a subtree of a join
    /// tree for `D`.
    pub fn induces_subtree(&self, subset: RelSet) -> bool {
        let Some(start) = subset.first() else {
            return true;
        };
        let mut visited = RelSet::singleton(start);
        let mut frontier = RelSet::singleton(start);
        while !frontier.is_empty() {
            let mut next = RelSet::empty();
            for i in frontier.iter() {
                next = next.union(self.neighbors[i].intersect(subset));
            }
            frontier = next.difference(visited);
            visited = visited.union(frontier);
        }
        visited == subset
    }

    /// A leaves-to-root semijoin schedule rooted at `root`: pairs
    /// (child, parent) such that processing them in order reduces every
    /// parent after all its descendants — the upward pass of the
    /// Bernstein–Chiu full reducer and of Yannakakis' algorithm.
    pub fn reduction_order(&self, root: usize) -> Vec<(usize, usize)> {
        assert!(root < self.n, "root out of range");
        // BFS from root, then reverse the discovery edges.
        let mut order = Vec::with_capacity(self.n.saturating_sub(1));
        let mut visited = RelSet::singleton(root);
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(p) = queue.pop_front() {
            for c in self.neighbors[p].difference(visited).iter() {
                visited.insert(c);
                order.push((c, p));
                queue.push_back(c);
            }
        }
        order.reverse();
        order
    }
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
    fn chain_join_tree() {
        let d = parse(&["AB", "BC", "CD"]);
        let t = JoinTree::build(&d).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.edges().len(), 2);
        // The chain's only join tree is the path 0-1-2.
        assert_eq!(t.neighbors(0), RelSet::singleton(1));
        assert_eq!(t.neighbors(1), RelSet::from_indices([0, 2]));
        assert_eq!(t.neighbors(2), RelSet::singleton(1));
    }

    #[test]
    fn triangle_has_no_join_tree() {
        let d = parse(&["AB", "BC", "CA"]);
        assert!(JoinTree::build(&d).is_none());
    }

    #[test]
    fn disconnected_has_no_join_tree() {
        let d = parse(&["AB", "CD"]);
        assert!(JoinTree::build(&d).is_none());
    }

    #[test]
    fn single_relation_tree() {
        let d = parse(&["ABC"]);
        let t = JoinTree::build(&d).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.edges().is_empty());
        assert!(t.induces_subtree(RelSet::singleton(0)));
        assert!(t.reduction_order(0).is_empty());
    }

    #[test]
    fn join_tree_exists_iff_alpha_acyclic() {
        for specs in [
            vec!["AB", "BC", "CD"],
            vec!["AB", "BC", "CA"],
            vec!["ABC", "AB", "BC", "CA"],
            vec!["AX", "BX", "CX"],
            vec!["ABC", "BCD", "CDE"],
            vec!["AB", "BC", "ABC"],
        ] {
            let d = parse(&specs);
            let connected = d.connected(d.full_set());
            let has_tree = JoinTree::build(&d).is_some();
            if connected {
                assert_eq!(has_tree, d.is_alpha_acyclic(), "{specs:?}");
            } else {
                assert!(!has_tree, "{specs:?}");
            }
        }
    }

    #[test]
    fn induced_subtrees_of_chain() {
        let d = parse(&["AB", "BC", "CD"]);
        let t = JoinTree::build(&d).unwrap();
        assert!(t.induces_subtree(RelSet::from_indices([0, 1])));
        assert!(t.induces_subtree(RelSet::from_indices([1, 2])));
        assert!(!t.induces_subtree(RelSet::from_indices([0, 2])));
        assert!(t.induces_subtree(RelSet::full(3)));
        assert!(t.induces_subtree(RelSet::empty()));
    }

    #[test]
    fn reduction_order_visits_children_before_parents() {
        let d = parse(&["AX", "BX", "CX", "XY"]);
        let t = JoinTree::build(&d).unwrap();
        let order = t.reduction_order(3);
        assert_eq!(order.len(), 3);
        // Every pair's parent must be closer to the root; with root 3 and a
        // star through X, each (child, parent) either ends at 3 or at an
        // inner node processed later.
        let mut processed = RelSet::empty();
        for (c, _p) in &order {
            assert!(!processed.contains(*c), "child reduced twice");
            processed.insert(*c);
        }
        assert!(!processed.contains(3), "root is never a child");
    }

    #[test]
    fn from_edges_validates() {
        let d = parse(&["AB", "BC", "CD"]);
        assert!(JoinTree::from_edges(&d, &[(0, 1), (1, 2)]).is_some());
        // Non-spanning, cyclic, or incoherent edge sets are rejected.
        assert!(JoinTree::from_edges(&d, &[(0, 1)]).is_none());
        assert!(JoinTree::from_edges(&d, &[(0, 1), (0, 1)]).is_none());
        assert!(JoinTree::from_edges(&d, &[(0, 2), (1, 2)]).is_none()); // AB-CD edge breaks B's subtree
    }

    #[test]
    fn build_agrees_with_gyo_and_the_coherence_walk() {
        // `build` tests coherence by tree weight; the walk per attribute
        // (`is_coherent`) and GYO reduction are two independent checks.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let letters = ["A", "B", "C", "D", "E", "F", "G"];
        let (mut trees, mut cyclic) = (0, 0);
        for _ in 0..2000 {
            let specs: Vec<String> = (0..rng.gen_range(1..=7))
                .map(|_| {
                    let s: String = letters
                        .iter()
                        .filter(|_| rng.gen_range(0..3) == 0)
                        .copied()
                        .collect();
                    if s.is_empty() {
                        letters[rng.gen_range(0..letters.len())].to_string()
                    } else {
                        s
                    }
                })
                .collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let d = parse(&refs);
            let connected = d.connected(d.full_set());
            match JoinTree::build(&d) {
                Some(tree) => {
                    trees += 1;
                    assert!(connected && d.is_alpha_acyclic(), "{specs:?}");
                    assert!(tree.is_coherent(&d), "{specs:?}");
                    // Growth order: every parent joined the tree before its child.
                    let mut grown = RelSet::singleton(0);
                    for &(child, parent) in tree.edges() {
                        assert!(
                            grown.contains(parent) && !grown.contains(child),
                            "{specs:?}"
                        );
                        grown.insert(child);
                    }
                }
                None => {
                    assert!(!connected || !d.is_alpha_acyclic(), "{specs:?}");
                    cyclic += usize::from(connected);
                }
            }
        }
        assert!(
            trees > 200 && cyclic > 200,
            "{trees} trees, {cyclic} cyclic"
        );
    }

    #[test]
    fn coherence_catches_non_acyclic_mst() {
        // A scheme whose MST is not coherent: the triangle again, but also a
        // 4-cycle {AB, BC, CD, DA}.
        let d = parse(&["AB", "BC", "CD", "DA"]);
        assert!(JoinTree::build(&d).is_none());
        assert!(!d.is_alpha_acyclic());
    }
}
