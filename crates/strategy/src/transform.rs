//! Pluck and graft — the tree surgeries of Figures 1 and 2.
//!
//! Every rewrite in the proofs of Theorems 1–3 (the `T₁`/`T₂` alternatives
//! of Figure 3, the component-merging moves of Figures 4–5, the transfers
//! of Figure 6) is a composition of these two operations, so the theorem
//! verifiers in `mjoin` perform the proofs' steps literally.

use mjoin_hypergraph::RelSet;

use crate::node::{Node, Strategy, StrategyError};

impl Strategy {
    /// **Pluck** (Figure 1): removes the substrategy whose root carries
    /// `target`, returning `(remainder, removed)`.
    ///
    /// In the paper: if `s = [𝐃′, R_{D′}] ⋈ [𝐃″, R_{D″}]` is a step of `S`,
    /// plucking `S_{D″}` replaces every ancestor `[𝐄, R_E]` of `s` by
    /// `[𝐄 − 𝐃″, R_{E−D″}]` and the subtree rooted at `s` by `S_{D′}`. In
    /// our structural representation the ancestor relabeling is implicit —
    /// node subsets are derived from leaves.
    ///
    /// # Errors
    /// * [`StrategyError::NoSuchNode`] if no node carries `target`;
    /// * [`StrategyError::CannotRemoveRoot`] if `target` is the whole
    ///   strategy.
    pub fn pluck(&self, target: RelSet) -> Result<(Strategy, Strategy), StrategyError> {
        let path = self.find_node(target).ok_or(StrategyError::NoSuchNode)?;
        if path.is_empty() {
            return Err(StrategyError::CannotRemoveRoot);
        }
        let removed = self.substrategy(&path)?;
        let remainder = Strategy {
            root: remove_at(&self.root, &path),
        };
        Ok((remainder, removed))
    }

    /// **Graft** (Figure 2): inserts `sub` directly above the node carrying
    /// `above` — that node's substrategy `S_{D′}` is replaced by a new step
    /// `S_{D′} ⋈ sub`, and every ancestor `[𝐄]` becomes `[𝐄 ∪ 𝐃″]`.
    ///
    /// # Errors
    /// * [`StrategyError::NoSuchNode`] if no node carries `above`;
    /// * [`StrategyError::OverlappingSubtrees`] if `sub`'s relations
    ///   intersect this strategy's.
    pub fn graft(&self, above: RelSet, sub: Strategy) -> Result<Strategy, StrategyError> {
        if !self.set().is_disjoint(sub.set()) {
            return Err(StrategyError::OverlappingSubtrees);
        }
        let path = self.find_node(above).ok_or(StrategyError::NoSuchNode)?;
        Ok(Strategy {
            root: insert_at(&self.root, &path, &sub.root),
        })
    }

    /// Exchanges the positions of the two (disjoint, non-nested) nodes
    /// carrying `a` and `b` — the move that builds `T₂` in the proof of
    /// Theorem 1 (Figure 3).
    ///
    /// # Errors
    /// [`StrategyError::NoSuchNode`] if either subset is missing or one
    /// node is an ancestor of the other (then the exchange is undefined).
    pub fn swap(&self, a: RelSet, b: RelSet) -> Result<Strategy, StrategyError> {
        let pa = self.find_node(a).ok_or(StrategyError::NoSuchNode)?;
        let pb = self.find_node(b).ok_or(StrategyError::NoSuchNode)?;
        if is_prefix(&pa, &pb) || is_prefix(&pb, &pa) {
            return Err(StrategyError::NoSuchNode);
        }
        let sub_a = self.node_at(&pa)?.clone();
        let sub_b = self.node_at(&pb)?.clone();
        let root = replace_at(&replace_at(&self.root, &pa, &sub_b), &pb, &sub_a);
        Ok(Strategy { root })
    }
}

fn is_prefix(p: &[bool], q: &[bool]) -> bool {
    p.len() <= q.len() && p.iter().zip(q).all(|(a, b)| a == b)
}

/// Removes the node at `path` (nonempty), replacing its parent with its
/// sibling.
fn remove_at(node: &Node, path: &[bool]) -> Node {
    let Node::Join(l, r) = node else {
        unreachable!("path addresses below a leaf were rejected earlier");
    };
    match path {
        [second] => {
            // The parent is `node`: replace it with the kept sibling.
            if *second {
                (**l).clone()
            } else {
                (**r).clone()
            }
        }
        [second, rest @ ..] => {
            if *second {
                Node::Join(l.clone(), Box::new(remove_at(r, rest)))
            } else {
                Node::Join(Box::new(remove_at(l, rest)), r.clone())
            }
        }
        [] => unreachable!("pluck rejects the empty path"),
    }
}

/// Replaces the node at `path` by `Join(old, sub)`.
fn insert_at(node: &Node, path: &[bool], sub: &Node) -> Node {
    match path {
        [] => Node::Join(Box::new(node.clone()), Box::new(sub.clone())),
        [second, rest @ ..] => {
            let Node::Join(l, r) = node else {
                unreachable!("path validated by find_node");
            };
            if *second {
                Node::Join(l.clone(), Box::new(insert_at(r, rest, sub)))
            } else {
                Node::Join(Box::new(insert_at(l, rest, sub)), r.clone())
            }
        }
    }
}

/// Replaces the node at `path` by `new`.
fn replace_at(node: &Node, path: &[bool], new: &Node) -> Node {
    match path {
        [] => new.clone(),
        [second, rest @ ..] => {
            let Node::Join(l, r) = node else {
                unreachable!("path validated by find_node");
            };
            if *second {
                Node::Join(l.clone(), Box::new(replace_at(r, rest, new)))
            } else {
                Node::Join(Box::new(replace_at(l, rest, new)), r.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ((0 ⋈ 1) ⋈ (2 ⋈ 3)) ⋈ 4
    fn sample() -> Strategy {
        Strategy::join(
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap(),
            Strategy::leaf(4),
        )
        .unwrap()
    }

    #[test]
    fn pluck_removes_subtree_and_relabels() {
        let s = sample();
        let (rest, removed) = s.pluck(RelSet::from_indices([2, 3])).unwrap();
        assert_eq!(removed.set(), RelSet::from_indices([2, 3]));
        assert_eq!(rest.set(), RelSet::from_indices([0, 1, 4]));
        // The remainder is (0 ⋈ 1) ⋈ 4.
        assert_eq!(rest.num_steps(), 2);
        assert!(rest.has_node_with_set(RelSet::from_indices([0, 1])));
    }

    #[test]
    fn pluck_leaf() {
        let s = sample();
        let (rest, removed) = s.pluck(RelSet::singleton(4)).unwrap();
        assert!(removed.is_trivial());
        assert_eq!(rest.set(), RelSet::full(4));
        assert_eq!(rest.num_steps(), 3);
    }

    #[test]
    fn pluck_errors() {
        let s = sample();
        assert_eq!(
            s.pluck(RelSet::from_indices([0, 2])).unwrap_err(),
            StrategyError::NoSuchNode
        );
        assert_eq!(
            s.pluck(s.set()).unwrap_err(),
            StrategyError::CannotRemoveRoot
        );
    }

    #[test]
    fn graft_inserts_above() {
        let s = Strategy::left_deep(&[0, 1]);
        let sub = Strategy::left_deep(&[2, 3]);
        // Graft above the leaf 1: (0 ⋈ (1 ⋈ (2 ⋈ 3))).
        let t = s.graft(RelSet::singleton(1), sub.clone()).unwrap();
        assert_eq!(t.set(), RelSet::full(4));
        assert!(t.has_node_with_set(RelSet::from_indices([1, 2, 3])));
        // Graft above the root: ((0 ⋈ 1) ⋈ (2 ⋈ 3)).
        let u = s.graft(RelSet::from_indices([0, 1]), sub).unwrap();
        assert!(u.has_node_with_set(RelSet::from_indices([2, 3])));
        assert_eq!(u.set(), RelSet::full(4));
    }

    #[test]
    fn graft_errors() {
        let s = Strategy::left_deep(&[0, 1]);
        assert_eq!(
            s.graft(RelSet::singleton(9), Strategy::leaf(2))
                .unwrap_err(),
            StrategyError::NoSuchNode
        );
        assert_eq!(
            s.graft(RelSet::singleton(0), Strategy::leaf(1))
                .unwrap_err(),
            StrategyError::OverlappingSubtrees
        );
    }

    #[test]
    fn pluck_then_graft_is_identity_up_to_reordering() {
        let s = sample();
        let target = RelSet::from_indices([2, 3]);
        let (rest, removed) = s.pluck(target).unwrap();
        // Graft back above the sibling that target was joined with: {0,1}.
        let back = rest.graft(RelSet::from_indices([0, 1]), removed).unwrap();
        assert!(back.eq_unordered(&s));
    }

    #[test]
    fn swap_exchanges_positions() {
        let s = sample();
        let t = s
            .swap(RelSet::singleton(4), RelSet::from_indices([2, 3]))
            .unwrap();
        // Now: ((0 ⋈ 1) ⋈ 4) ⋈ (2 ⋈ 3).
        assert!(t.has_node_with_set(RelSet::from_indices([0, 1, 4])));
        assert_eq!(t.set(), s.set());
        assert_eq!(t.num_steps(), s.num_steps());
    }

    #[test]
    fn swap_rejects_nested_nodes() {
        let s = sample();
        assert_eq!(
            s.swap(RelSet::singleton(0), RelSet::from_indices([0, 1]))
                .unwrap_err(),
            StrategyError::NoSuchNode
        );
    }

    #[test]
    fn swap_twice_is_identity() {
        let s = sample();
        let a = RelSet::singleton(4);
        let b = RelSet::from_indices([0, 1]);
        let t = s.swap(a, b).unwrap().swap(a, b).unwrap();
        assert_eq!(t, s);
    }

    #[test]
    fn plucked_strategies_remain_valid() {
        use mjoin_hypergraph::DbScheme;
        use mjoin_relation::Catalog;
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, &["AB", "BC", "CD", "DE", "EF"]).unwrap();
        let s = sample();
        assert!(s.validate(&d));
        let (rest, removed) = s.pluck(RelSet::from_indices([0, 1])).unwrap();
        assert!(rest.validate(&d));
        assert!(removed.validate(&d));
    }
}
