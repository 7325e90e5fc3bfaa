//! The strategy tree itself.

use std::fmt;

use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::Catalog;

/// Errors from strategy construction and surgery.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StrategyError {
    /// `join` was given two strategies whose relation sets overlap,
    /// violating (S3).
    OverlappingSubtrees,
    /// A path or subset did not identify a node of the strategy.
    NoSuchNode,
    /// Pluck was asked to remove the root (the remainder would be empty).
    CannotRemoveRoot,
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::OverlappingSubtrees => {
                write!(f, "strategy children must have disjoint relation sets")
            }
            StrategyError::NoSuchNode => write!(f, "no node with the requested address"),
            StrategyError::CannotRemoveRoot => write!(f, "cannot pluck the whole strategy"),
        }
    }
}

impl std::error::Error for StrategyError {}

/// Address of a node: the sequence of child choices from the root
/// (`false` = first child, `true` = second child). The root is the empty
/// path.
pub type Path = Vec<bool>;

/// One step of a strategy: an internal node `[𝐃₁, R_{D₁}] ⋈ [𝐃₂, R_{D₂}]`,
/// reported as scheme subsets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// The node's own subset `𝐃₁ ∪ 𝐃₂`.
    pub set: RelSet,
    /// The first child's subset `𝐃₁`.
    pub left: RelSet,
    /// The second child's subset `𝐃₂`.
    pub right: RelSet,
    /// Distance from the root (the root step has depth 0).
    pub depth: usize,
}

impl Step {
    /// Does this step use a Cartesian product — i.e. are its children's
    /// subsets *not* linked (sharing no attribute)?
    pub fn uses_cartesian(&self, scheme: &DbScheme) -> bool {
        !scheme.linked(self.left, self.right)
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Node {
    Leaf(usize),
    Join(Box<Node>, Box<Node>),
}

impl Node {
    pub(crate) fn set(&self) -> RelSet {
        match self {
            Node::Leaf(i) => RelSet::singleton(*i),
            Node::Join(l, r) => l.set().union(r.set()),
        }
    }
}

/// A strategy: a rooted binary tree whose leaves are relation indices.
///
/// The tree is *unordered* in the paper (a step `[𝐃₁] ⋈ [𝐃₂]` is the same
/// step as `[𝐃₂] ⋈ [𝐃₁]`); this type stores children in a fixed order for
/// addressing but [`Strategy::eq_unordered`] and the enumeration code treat
/// mirrored children as equal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Strategy {
    pub(crate) root: Node,
}

impl Strategy {
    /// The trivial strategy for relation `i` — a single leaf.
    pub fn leaf(i: usize) -> Strategy {
        Strategy {
            root: Node::Leaf(i),
        }
    }

    /// Joins two strategies into one whose root step is
    /// `[𝐃₁, R_{D₁}] ⋈ [𝐃₂, R_{D₂}]`.
    ///
    /// # Errors
    /// [`StrategyError::OverlappingSubtrees`] if the relation sets overlap.
    pub fn join(left: Strategy, right: Strategy) -> Result<Strategy, StrategyError> {
        if !left.set().is_disjoint(right.set()) {
            return Err(StrategyError::OverlappingSubtrees);
        }
        Ok(Strategy {
            root: Node::Join(Box::new(left.root), Box::new(right.root)),
        })
    }

    /// The left-deep linear strategy `((…(R_{o₀} ⋈ R_{o₁}) ⋈ R_{o₂}) ⋈ …)`.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-containing order.
    pub fn left_deep(order: &[usize]) -> Strategy {
        assert!(!order.is_empty(), "a strategy needs at least one relation");
        let mut acc = Strategy::leaf(order[0]);
        for &i in &order[1..] {
            acc = Strategy::join(acc, Strategy::leaf(i))
                .expect("left_deep requires distinct relation indices");
        }
        acc
    }

    /// The relation subset this strategy evaluates (the root's `𝐃`).
    pub fn set(&self) -> RelSet {
        self.root.set()
    }

    /// Number of leaves, `|𝐃|`.
    pub fn num_leaves(&self) -> usize {
        self.set().len()
    }

    /// Number of steps (internal nodes) — always `|𝐃| − 1`.
    pub fn num_steps(&self) -> usize {
        self.num_leaves() - 1
    }

    /// Is this the trivial strategy (a single leaf)?
    pub fn is_trivial(&self) -> bool {
        matches!(self.root, Node::Leaf(_))
    }

    /// All steps, in pre-order (root first).
    pub fn steps(&self) -> Vec<Step> {
        let mut out = Vec::with_capacity(self.num_steps());
        collect_steps(&self.root, 0, &mut out);
        out
    }

    /// The subsets labelling every node (leaves and internal), pre-order.
    pub fn node_sets(&self) -> Vec<RelSet> {
        let mut out = Vec::new();
        collect_sets(&self.root, &mut out);
        out
    }

    /// Does some node of the strategy carry exactly `set`?
    ///
    /// Used for the paper's "`[E, R_E]` is a step in S" tests (components
    /// evaluated individually) — note leaves count for singleton sets.
    pub fn has_node_with_set(&self, set: RelSet) -> bool {
        self.find_node(set).is_some()
    }

    /// The path to the (unique, by disjointness of siblings) node carrying
    /// `set`, if any.
    pub fn find_node(&self, set: RelSet) -> Option<Path> {
        let mut path = Vec::new();
        if find_node(&self.root, set, &mut path) {
            Some(path)
        } else {
            None
        }
    }

    /// The subset at `path`.
    pub fn set_at(&self, path: &[bool]) -> Result<RelSet, StrategyError> {
        Ok(self.node_at(path)?.set())
    }

    pub(crate) fn node_at(&self, path: &[bool]) -> Result<&Node, StrategyError> {
        let mut node = &self.root;
        for &second in path {
            match node {
                Node::Leaf(_) => return Err(StrategyError::NoSuchNode),
                Node::Join(l, r) => node = if second { r } else { l },
            }
        }
        Ok(node)
    }

    /// The substrategy rooted at `path`.
    pub fn substrategy(&self, path: &[bool]) -> Result<Strategy, StrategyError> {
        Ok(Strategy {
            root: self.node_at(path)?.clone(),
        })
    }

    /// Structural equality up to reordering children at every step —
    /// the paper's notion of "the same strategy".
    pub fn eq_unordered(&self, other: &Strategy) -> bool {
        eq_unordered(&self.root, &other.root)
    }

    /// A canonical form: at every join, the child containing the smaller
    /// lowest relation index comes first. Two strategies are `eq_unordered`
    /// iff their canonical forms are `==`.
    pub fn canonical(&self) -> Strategy {
        Strategy {
            root: canonical(&self.root),
        }
    }

    /// Checks the paper's invariants (S1)–(S4) against a scheme:
    /// every leaf index in range, sibling subsets disjoint (guaranteed by
    /// construction) and each leaf distinct.
    pub fn validate(&self, scheme: &DbScheme) -> bool {
        let mut seen = RelSet::empty();
        validate(&self.root, scheme.len(), &mut seen)
    }

    /// Renders the strategy as a parenthesized join expression using the
    /// scheme names, e.g. `((ABC ⋈ BE) ⋈ DF)`.
    pub fn render(&self, catalog: &Catalog, scheme: &DbScheme) -> String {
        render(&self.root, catalog, scheme)
    }

    /// Renders the strategy as a Graphviz `dot` digraph — the tree
    /// pictures of the paper's Figures 1–6, machine-drawn. Join nodes are
    /// labelled with their scheme subsets, leaves with their relation
    /// schemes; Cartesian-product steps are drawn dashed.
    pub fn to_dot(&self, catalog: &Catalog, scheme: &DbScheme) -> String {
        let mut out = String::from("digraph strategy {\n  node [shape=box];\n");
        let mut next_id = 0usize;
        fn go(
            node: &Node,
            catalog: &Catalog,
            scheme: &DbScheme,
            out: &mut String,
            next_id: &mut usize,
        ) -> usize {
            let id = *next_id;
            *next_id += 1;
            match node {
                Node::Leaf(i) => {
                    out.push_str(&format!(
                        "  n{id} [label=\"{}\"];\n",
                        catalog.render(scheme.scheme(*i))
                    ));
                }
                Node::Join(l, r) => {
                    let cartesian = !scheme.linked(l.set(), r.set());
                    let label = {
                        let parts: Vec<String> = node
                            .set()
                            .iter()
                            .map(|i| catalog.render(scheme.scheme(i)))
                            .collect();
                        parts.join(" ⋈ ")
                    };
                    out.push_str(&format!(
                        "  n{id} [label=\"{label}\"{}];\n",
                        if cartesian { ", style=dashed" } else { "" }
                    ));
                    let lid = go(l, catalog, scheme, out, next_id);
                    let rid = go(r, catalog, scheme, out, next_id);
                    out.push_str(&format!("  n{id} -> n{lid};\n  n{id} -> n{rid};\n"));
                }
            }
            id
        }
        go(&self.root, catalog, scheme, &mut out, &mut next_id);
        out.push_str("}\n");
        out
    }
}

fn collect_steps(node: &Node, depth: usize, out: &mut Vec<Step>) {
    if let Node::Join(l, r) = node {
        out.push(Step {
            set: node.set(),
            left: l.set(),
            right: r.set(),
            depth,
        });
        collect_steps(l, depth + 1, out);
        collect_steps(r, depth + 1, out);
    }
}

fn collect_sets(node: &Node, out: &mut Vec<RelSet>) {
    out.push(node.set());
    if let Node::Join(l, r) = node {
        collect_sets(l, out);
        collect_sets(r, out);
    }
}

fn find_node(node: &Node, set: RelSet, path: &mut Path) -> bool {
    let s = node.set();
    if s == set {
        return true;
    }
    if !set.is_subset_of(s) {
        return false;
    }
    if let Node::Join(l, r) = node {
        path.push(false);
        if find_node(l, set, path) {
            return true;
        }
        path.pop();
        path.push(true);
        if find_node(r, set, path) {
            return true;
        }
        path.pop();
    }
    false
}

fn eq_unordered(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Leaf(i), Node::Leaf(j)) => i == j,
        (Node::Join(al, ar), Node::Join(bl, br)) => {
            (eq_unordered(al, bl) && eq_unordered(ar, br))
                || (eq_unordered(al, br) && eq_unordered(ar, bl))
        }
        _ => false,
    }
}

fn canonical(node: &Node) -> Node {
    match node {
        Node::Leaf(i) => Node::Leaf(*i),
        Node::Join(l, r) => {
            let (cl, cr) = (canonical(l), canonical(r));
            let (lf, rf) = (cl.set().first(), cr.set().first());
            if lf <= rf {
                Node::Join(Box::new(cl), Box::new(cr))
            } else {
                Node::Join(Box::new(cr), Box::new(cl))
            }
        }
    }
}

fn validate(node: &Node, n: usize, seen: &mut RelSet) -> bool {
    match node {
        Node::Leaf(i) => {
            if *i >= n || seen.contains(*i) {
                return false;
            }
            seen.insert(*i);
            true
        }
        Node::Join(l, r) => validate(l, n, seen) && validate(r, n, seen),
    }
}

fn render(node: &Node, catalog: &Catalog, scheme: &DbScheme) -> String {
    match node {
        Node::Leaf(i) => catalog.render(scheme.scheme(*i)),
        Node::Join(l, r) => format!(
            "({} ⋈ {})",
            render(l, catalog, scheme),
            render(r, catalog, scheme)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme(specs: &[&str]) -> (Catalog, DbScheme) {
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, specs).unwrap();
        (cat, d)
    }

    #[test]
    fn leaf_properties() {
        let s = Strategy::leaf(2);
        assert!(s.is_trivial());
        assert_eq!(s.set(), RelSet::singleton(2));
        assert_eq!(s.num_leaves(), 1);
        assert_eq!(s.num_steps(), 0);
        assert!(s.steps().is_empty());
    }

    #[test]
    fn join_checks_disjointness() {
        let l = Strategy::left_deep(&[0, 1]);
        let bad = Strategy::leaf(1);
        assert_eq!(
            Strategy::join(l.clone(), bad).unwrap_err(),
            StrategyError::OverlappingSubtrees
        );
        let good = Strategy::leaf(2);
        let j = Strategy::join(l, good).unwrap();
        assert_eq!(j.num_steps(), 2);
    }

    #[test]
    fn left_deep_shape() {
        let s = Strategy::left_deep(&[3, 1, 0, 2]);
        assert_eq!(s.set(), RelSet::full(4));
        let steps = s.steps();
        assert_eq!(steps.len(), 3);
        // Root step joins {0,1,3} with {2}.
        assert_eq!(steps[0].set, RelSet::full(4));
        assert_eq!(steps[0].right, RelSet::singleton(2));
        assert_eq!(steps[0].depth, 0);
        assert_eq!(steps[1].depth, 1);
    }

    #[test]
    #[should_panic(expected = "distinct relation indices")]
    fn left_deep_rejects_duplicates() {
        let _ = Strategy::left_deep(&[0, 1, 0]);
    }

    #[test]
    fn step_cartesian_detection() {
        let (_, d) = scheme(&["AB", "BC", "DE"]);
        // (AB ⋈ DE): not linked → Cartesian product.
        let s = Strategy::left_deep(&[0, 2, 1]);
        let steps = s.steps();
        let inner = steps.iter().find(|st| st.set.len() == 2).unwrap();
        assert!(inner.uses_cartesian(&d));
        let root = steps.iter().find(|st| st.set.len() == 3).unwrap();
        assert!(!root.uses_cartesian(&d));
    }

    #[test]
    fn node_addressing() {
        let s = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
        assert_eq!(s.set_at(&[]).unwrap(), RelSet::full(4));
        assert_eq!(s.set_at(&[false]).unwrap(), RelSet::from_indices([0, 1]));
        assert_eq!(s.set_at(&[true, true]).unwrap(), RelSet::singleton(3));
        assert!(s.set_at(&[false, false, true]).is_err());

        assert_eq!(s.find_node(RelSet::from_indices([2, 3])), Some(vec![true]));
        assert_eq!(s.find_node(RelSet::from_indices([1, 2])), None);
        assert!(s.has_node_with_set(RelSet::singleton(1)));
    }

    #[test]
    fn substrategy_extraction() {
        let s = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap();
        let sub = s.substrategy(&[false]).unwrap();
        assert_eq!(sub.set(), RelSet::from_indices([0, 1]));
        assert_eq!(sub.num_steps(), 1);
    }

    #[test]
    fn unordered_equality() {
        let a = Strategy::join(Strategy::leaf(0), Strategy::leaf(1)).unwrap();
        let b = Strategy::join(Strategy::leaf(1), Strategy::leaf(0)).unwrap();
        assert_ne!(a, b);
        assert!(a.eq_unordered(&b));
        assert_eq!(a.canonical(), b.canonical());

        let c = Strategy::join(
            Strategy::join(Strategy::leaf(2), Strategy::leaf(0)).unwrap(),
            Strategy::leaf(1),
        )
        .unwrap();
        let d = Strategy::join(
            Strategy::leaf(1),
            Strategy::join(Strategy::leaf(0), Strategy::leaf(2)).unwrap(),
        )
        .unwrap();
        assert!(c.eq_unordered(&d));
        assert_eq!(c.canonical(), d.canonical());
        assert!(!a.eq_unordered(&c));
    }

    #[test]
    fn validation() {
        let (_, d) = scheme(&["AB", "BC", "CD"]);
        assert!(Strategy::left_deep(&[0, 1, 2]).validate(&d));
        assert!(!Strategy::left_deep(&[0, 1, 2, 3]).validate(&d)); // index out of range
        assert!(Strategy::leaf(2).validate(&d));
    }

    #[test]
    fn rendering() {
        let (cat, d) = scheme(&["ABC", "BE", "DF"]);
        let s = Strategy::join(
            Strategy::join(Strategy::leaf(0), Strategy::leaf(1)).unwrap(),
            Strategy::leaf(2),
        )
        .unwrap();
        assert_eq!(s.render(&cat, &d), "((ABC ⋈ BE) ⋈ DF)");
    }

    #[test]
    fn node_sets_preorder() {
        let s = Strategy::left_deep(&[0, 1, 2]);
        let sets = s.node_sets();
        assert_eq!(sets.len(), 5); // 3 leaves + 2 internal
        assert_eq!(sets[0], RelSet::full(3));
    }

    #[test]
    fn error_display() {
        assert!(!StrategyError::OverlappingSubtrees.to_string().is_empty());
        assert!(!StrategyError::NoSuchNode.to_string().is_empty());
        assert!(!StrategyError::CannotRemoveRoot.to_string().is_empty());
    }

    #[test]
    fn dot_rendering() {
        let (cat, d) = scheme(&["ABC", "BE", "DF"]);
        // (ABC ⋈ DF) ⋈ BE: the inner step is a Cartesian product.
        let s = Strategy::left_deep(&[0, 2, 1]);
        let dot = s.to_dot(&cat, &d);
        assert!(dot.starts_with("digraph strategy {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches("->").count(), 4, "{dot}");
        assert!(dot.contains("style=dashed"), "the product step is dashed");
        assert!(dot.contains("\"ABC\""));
        // Exactly one dashed node (the inner product step).
        assert_eq!(dot.matches("style=dashed").count(), 1);
    }
}
