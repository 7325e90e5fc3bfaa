//! Strategy classification: the predicates of Sections 2, 3 and 5.

use mjoin_cost::CardinalityOracle;
use mjoin_hypergraph::DbScheme;

use crate::node::{Node, Strategy};

impl Strategy {
    /// Is the strategy *linear* — does every step have a trivial strategy
    /// (a leaf) as a child?
    pub fn is_linear(&self) -> bool {
        fn linear(node: &Node) -> bool {
            match node {
                Node::Leaf(_) => true,
                Node::Join(l, r) => match (l.as_ref(), r.as_ref()) {
                    (Node::Leaf(_), _) => linear(r),
                    (_, Node::Leaf(_)) => linear(l),
                    _ => false,
                },
            }
        }
        linear(&self.root)
    }

    /// Is the strategy *bushy* — not linear? (A common optimizer term; the
    /// paper simply says "nonlinear".)
    pub fn is_bushy(&self) -> bool {
        !self.is_linear()
    }

    /// Does the strategy *use Cartesian products* — does some step join
    /// non-linked subsets?
    pub fn uses_cartesian(&self, scheme: &DbScheme) -> bool {
        self.steps().iter().any(|s| s.uses_cartesian(scheme))
    }

    /// Number of steps that use Cartesian products.
    ///
    /// Every strategy must use at least `comp(𝐃) − 1` of them (the
    /// components must eventually be multiplied together).
    pub fn cartesian_step_count(&self, scheme: &DbScheme) -> usize {
        self.steps()
            .iter()
            .filter(|s| s.uses_cartesian(scheme))
            .count()
    }

    /// Does the strategy evaluate the database's components *individually*
    /// — is `[E, R_E]` a node of the strategy for every component `E` of
    /// its relation set?
    ///
    /// (The paper says "step", which presumes multi-relation components;
    /// single-relation components are leaves and count as evaluated
    /// individually.)
    pub fn evaluates_components_individually(&self, scheme: &DbScheme) -> bool {
        scheme
            .components(self.set())
            .into_iter()
            .all(|comp| self.has_node_with_set(comp))
    }

    /// Does the strategy *avoid Cartesian products* — evaluate components
    /// individually and use exactly `comp(𝐃) − 1` Cartesian-product steps
    /// (the unavoidable minimum)?
    ///
    /// For a connected scheme this degenerates to "uses no Cartesian
    /// products".
    pub fn avoids_cartesian(&self, scheme: &DbScheme) -> bool {
        self.evaluates_components_individually(scheme)
            && self.cartesian_step_count(scheme) == scheme.comp(self.set()) - 1
    }

    /// Is the strategy *connected* (Lemma 6's shorthand): does it use no
    /// Cartesian products at all?
    pub fn is_connected_strategy(&self, scheme: &DbScheme) -> bool {
        !self.uses_cartesian(scheme)
    }

    /// Is the strategy *monotone decreasing* (Section 5): does every step
    /// produce no more tuples than either child?
    pub fn is_monotone_decreasing<O: CardinalityOracle>(&self, oracle: &O) -> bool {
        self.steps().iter().all(|s| {
            let out = oracle.tau(s.set);
            out <= oracle.tau(s.left) && out <= oracle.tau(s.right)
        })
    }

    /// Is the strategy *monotone increasing* (Section 5): does every step
    /// produce at least as many tuples as either child?
    pub fn is_monotone_increasing<O: CardinalityOracle>(&self, oracle: &O) -> bool {
        self.steps().iter().all(|s| {
            let out = oracle.tau(s.set);
            out >= oracle.tau(s.left) && out >= oracle.tau(s.right)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_hypergraph::RelSet;
    use mjoin_relation::Catalog;

    fn scheme(specs: &[&str]) -> DbScheme {
        let mut cat = Catalog::new();
        DbScheme::parse(&mut cat, specs).unwrap()
    }

    fn balanced4() -> Strategy {
        Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap()
    }

    #[test]
    fn linearity() {
        assert!(Strategy::left_deep(&[0, 1, 2, 3]).is_linear());
        assert!(Strategy::leaf(0).is_linear());
        assert!(Strategy::left_deep(&[0, 1]).is_linear());
        assert!(balanced4().is_bushy());
        // Right-deep is also linear (leaf child at every step).
        let right_deep = Strategy::join(
            Strategy::leaf(0),
            Strategy::join(Strategy::leaf(1), Strategy::left_deep(&[2, 3])).unwrap(),
        )
        .unwrap();
        assert!(right_deep.is_linear());
        // Zig-zag linear too.
        let zigzag = Strategy::join(
            Strategy::leaf(3),
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap(),
        )
        .unwrap();
        assert!(zigzag.is_linear());
    }

    #[test]
    fn cartesian_usage_from_paper() {
        // "(ABC ⋈ DF) ⋈ BCD uses a Cartesian product."
        let d = scheme(&["ABC", "DF", "BCD"]);
        let s = Strategy::left_deep(&[0, 1, 2]);
        assert!(s.uses_cartesian(&d));
        assert_eq!(s.cartesian_step_count(&d), 1);
        // (ABC ⋈ BCD) ⋈ DF has no Cartesian products.
        let t = Strategy::left_deep(&[0, 2, 1]);
        assert!(!t.uses_cartesian(&d));
        assert!(t.is_connected_strategy(&d));
    }

    #[test]
    fn components_individually_from_paper() {
        // (ABC ⋈ BE) ⋈ DF evaluates components of {ABC, BE, DF}
        // individually; (ABC ⋈ DF) ⋈ BE does not.
        let d = scheme(&["ABC", "BE", "DF"]);
        let good = Strategy::left_deep(&[0, 1, 2]);
        assert!(good.evaluates_components_individually(&d));
        let bad = Strategy::left_deep(&[0, 2, 1]);
        assert!(!bad.evaluates_components_individually(&d));
    }

    #[test]
    fn avoids_cartesian_from_paper() {
        // ((ABC ⋈ BE) ⋈ (CG ⋈ GH)) ⋈ DF avoids Cartesian products;
        // ((ABC ⋈ CG) ⋈ (BE ⋈ GH)) ⋈ DF does not (though it evaluates
        // components individually).
        let d = scheme(&["ABC", "BE", "CG", "GH", "DF"]);
        let good = Strategy::join(
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap(),
            Strategy::leaf(4),
        )
        .unwrap();
        assert!(good.evaluates_components_individually(&d));
        assert_eq!(good.cartesian_step_count(&d), 1);
        assert_eq!(d.comp(d.full_set()), 2);
        assert!(good.avoids_cartesian(&d));

        let bad = Strategy::join(
            Strategy::join(
                Strategy::join(Strategy::leaf(0), Strategy::leaf(2)).unwrap(),
                Strategy::join(Strategy::leaf(1), Strategy::leaf(3)).unwrap(),
            )
            .unwrap(),
            Strategy::leaf(4),
        )
        .unwrap();
        assert!(bad.evaluates_components_individually(&d));
        assert!(!bad.avoids_cartesian(&d));
    }

    #[test]
    fn connected_scheme_avoids_iff_no_cartesian() {
        let d = scheme(&["AB", "BC", "CD"]);
        let no_cp = Strategy::left_deep(&[0, 1, 2]);
        assert!(no_cp.avoids_cartesian(&d));
        let cp = Strategy::left_deep(&[0, 2, 1]);
        assert!(!cp.avoids_cartesian(&d));
    }

    #[test]
    fn monotonicity() {
        // Keys on both sides of every join ⇒ sizes shrink: monotone
        // decreasing.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
        ])
        .unwrap();
        let s = Strategy::left_deep(&[0, 1]);
        let o = ExactOracle::new(&db);
        assert!(s.is_monotone_decreasing(&o));
        assert!(!s.is_monotone_increasing(&o));

        // A fan-out join is monotone increasing.
        let db2 = Database::from_specs(&[
            ("AB", vec![vec![1, 0], vec![2, 0]]),
            ("BC", vec![vec![0, 5], vec![0, 6], vec![0, 7]]),
        ])
        .unwrap();
        let o2 = ExactOracle::new(&db2);
        assert!(s.is_monotone_increasing(&o2));
        assert!(!s.is_monotone_decreasing(&o2));
    }

    #[test]
    fn minimum_cartesian_steps_lower_bound() {
        // With 3 components, any strategy has ≥ 2 CP steps.
        let d = scheme(&["AB", "CD", "EF"]);
        let s = balanced_3_components();
        assert!(s.cartesian_step_count(&d) >= d.comp(RelSet::full(3)) - 1);
    }

    fn balanced_3_components() -> Strategy {
        Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap()
    }
}
