//! Finer shape taxonomy for linear strategies.
//!
//! The paper treats all linear strategies alike, but real optimizers
//! distinguish *left-deep* (probe side is always the accumulated result —
//! System R's pipelined shape), *right-deep* (build side accumulated —
//! favoured by hash-join memory models), and *zig-zag* chains. Under τ
//! they cost the same (the step sets are identical); the taxonomy exists
//! for reporting and for tests that exercise tree orientation handling.

use crate::node::{Node, Strategy};

/// The orientation of a linear strategy's spine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinearShape {
    /// A single leaf (trivial strategy).
    Trivial,
    /// Every step's second child is a leaf: `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄`.
    LeftDeep,
    /// Every step's first child is a leaf: `R₄ ⋈ (R₃ ⋈ (R₁ ⋈ R₂))`.
    RightDeep,
    /// Linear, but the spine switches sides at least once.
    ZigZag,
}

impl Strategy {
    /// The spine orientation, or `None` if the strategy is not linear.
    pub fn linear_shape(&self) -> Option<LinearShape> {
        if !self.is_linear() {
            return None;
        }
        if self.is_trivial() {
            return Some(LinearShape::Trivial);
        }
        let (mut all_left, mut all_right) = (true, true);
        let mut node = &self.root;
        while let Node::Join(l, r) = node {
            match (l.as_ref(), r.as_ref()) {
                (Node::Leaf(_), Node::Leaf(_)) => break,
                (_, Node::Leaf(_)) => {
                    all_right = false;
                    node = l;
                }
                (Node::Leaf(_), _) => {
                    all_left = false;
                    node = r;
                }
                _ => unreachable!("linear strategies have a leaf child at every step"),
            }
        }
        Some(match (all_left, all_right) {
            (true, true) => LinearShape::LeftDeep, // single step: both conventions agree
            (true, false) => LinearShape::LeftDeep,
            (false, true) => LinearShape::RightDeep,
            (false, false) => LinearShape::ZigZag,
        })
    }

    /// The right-deep mirror of a left-deep order (used by tests and the
    /// shape-invariance experiments).
    pub fn right_deep(order: &[usize]) -> Strategy {
        assert!(!order.is_empty(), "a strategy needs at least one relation");
        // Same accumulation order as `left_deep` — the step subsets (and
        // hence τ) are identical — but each new leaf joins from the left,
        // mirroring the spine.
        let mut acc = Strategy::leaf(order[0]);
        for &i in &order[1..] {
            acc = Strategy::join(Strategy::leaf(i), acc)
                .expect("right_deep requires distinct relation indices");
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classification() {
        assert_eq!(Strategy::leaf(0).linear_shape(), Some(LinearShape::Trivial));
        assert_eq!(
            Strategy::left_deep(&[0, 1]).linear_shape(),
            Some(LinearShape::LeftDeep)
        );
        assert_eq!(
            Strategy::left_deep(&[0, 1, 2, 3]).linear_shape(),
            Some(LinearShape::LeftDeep)
        );
        assert_eq!(
            Strategy::right_deep(&[0, 1, 2, 3]).linear_shape(),
            Some(LinearShape::RightDeep)
        );
        let zig = Strategy::join(
            Strategy::leaf(3),
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap(),
        )
        .unwrap();
        assert_eq!(zig.linear_shape(), Some(LinearShape::ZigZag));
        let bushy =
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
        assert_eq!(bushy.linear_shape(), None);
    }

    #[test]
    fn right_deep_mirrors_left_deep_sets() {
        let order = [2usize, 0, 3, 1];
        let ld = Strategy::left_deep(&order);
        let rd = Strategy::right_deep(&order);
        // Same step subsets (τ-equal under any oracle), mirrored structure.
        let mut ld_sets: Vec<_> = ld.steps().iter().map(|s| s.set).collect();
        let mut rd_sets: Vec<_> = rd.steps().iter().map(|s| s.set).collect();
        ld_sets.sort();
        rd_sets.sort();
        assert_eq!(ld_sets, rd_sets);
        assert!(ld.eq_unordered(&rd));
    }

    #[test]
    fn right_deep_costs_match_left_deep() {
        use mjoin_cost::{Database, ExactOracle};
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6], vec![20, 7]]),
            ("CD", vec![vec![5, 0], vec![6, 0]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let order = [0usize, 1, 2];
        assert_eq!(
            Strategy::left_deep(&order).cost(&o),
            Strategy::right_deep(&order).cost(&o)
        );
    }
}
