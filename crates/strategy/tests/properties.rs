//! Property tests for strategy trees: enumeration completeness, canonical
//! forms, classification coherence, and surgery safety.

use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::Catalog;
use mjoin_strategy::{
    count_all_strategies, count_linear_strategies, enumerate_all, enumerate_linear, LinearShape,
    Strategy as JoinStrategy,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random strategy over `n` relations, built by random pairwise joins
/// driven by proptest-chosen indices.
fn arb_strategy(max_n: usize) -> impl proptest::strategy::Strategy<Value = JoinStrategy> {
    (2usize..=max_n, proptest::collection::vec(0usize..64, 16)).prop_map(|(n, picks)| {
        let mut forest: Vec<mjoin_strategy::Strategy> =
            (0..n).map(mjoin_strategy::Strategy::leaf).collect();
        let mut k = 0usize;
        while forest.len() > 1 {
            let i = picks[k % picks.len()] % forest.len();
            let a = forest.swap_remove(i);
            let j = picks[(k + 1) % picks.len()] % forest.len();
            let b = forest.swap_remove(j);
            forest.push(mjoin_strategy::Strategy::join(a, b).expect("disjoint"));
            k += 2;
        }
        forest.pop().expect("one tree")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A strategy over n relations always has n − 1 steps, its node sets
    /// nest properly, and its canonical form is `eq_unordered` to it.
    #[test]
    fn structural_invariants(s in arb_strategy(7)) {
        prop_assert_eq!(s.num_steps(), s.num_leaves() - 1);
        for step in s.steps() {
            prop_assert!(step.left.is_disjoint(step.right));
            prop_assert_eq!(step.left.union(step.right), step.set);
        }
        let c = s.canonical();
        prop_assert!(c.eq_unordered(&s));
        prop_assert_eq!(c.set(), s.set());
        // Canonicalization is idempotent.
        prop_assert_eq!(c.canonical(), c);
    }

    /// Every strategy appears in the enumeration of its relation set, and
    /// the enumeration is duplicate-free with the closed-form size.
    #[test]
    fn enumeration_is_complete_and_exact(s in arb_strategy(6)) {
        let all = enumerate_all(s.set());
        prop_assert_eq!(all.len() as u64, count_all_strategies(s.set().len()));
        prop_assert!(all.iter().any(|t| t.eq_unordered(&s)));
        let canon: HashSet<String> = all.iter().map(|t| format!("{:?}", t.canonical())).collect();
        prop_assert_eq!(canon.len(), all.len());
    }

    /// Linear enumeration is exactly the linear slice of the full
    /// enumeration.
    #[test]
    fn linear_enumeration_is_the_linear_slice(n in 2usize..6) {
        let full = RelSet::full(n);
        let linear = enumerate_linear(full);
        prop_assert_eq!(linear.len() as u64, count_linear_strategies(n));
        let all_linear = enumerate_all(full)
            .into_iter()
            .filter(|s| s.is_linear())
            .count();
        prop_assert_eq!(linear.len(), all_linear);
    }

    /// Every linear strategy has a shape; bushy strategies have none;
    /// left-deep and right-deep constructors produce what they claim.
    #[test]
    fn shape_coherence(s in arb_strategy(7)) {
        match s.linear_shape() {
            Some(_) => prop_assert!(s.is_linear()),
            None => prop_assert!(s.is_bushy()),
        }
        let order: Vec<usize> = s.set().iter().collect();
        if order.len() >= 3 {
            prop_assert_eq!(
                JoinStrategy::left_deep(&order).linear_shape(),
                Some(LinearShape::LeftDeep)
            );
            prop_assert_eq!(
                JoinStrategy::right_deep(&order).linear_shape(),
                Some(LinearShape::RightDeep)
            );
        }
    }

    /// Pluck is safe for every non-root node set, and the two parts
    /// partition the original relations.
    #[test]
    fn pluck_safety(s in arb_strategy(7)) {
        for set in s.node_sets() {
            if set == s.set() {
                prop_assert!(s.pluck(set).is_err());
                continue;
            }
            let (rest, removed) = s.pluck(set).expect("non-root nodes pluck");
            prop_assert_eq!(removed.set(), set);
            prop_assert!(rest.set().is_disjoint(removed.set()));
            prop_assert_eq!(rest.set().union(removed.set()), s.set());
            prop_assert_eq!(rest.num_steps() + removed.num_steps() + 1, s.num_steps());
        }
    }

    /// Rendering then parsing is the identity on any strategy over a
    /// distinct-letter scheme.
    #[test]
    fn render_parse_roundtrip(s in arb_strategy(6)) {
        let mut cat = Catalog::new();
        // One distinct attribute pair per relation keeps names unique.
        let specs: Vec<String> = (0..s.set().len().max(s.set().iter().max().unwrap_or(0) + 1))
            .map(|i| format!("p{i},q{i}"))
            .collect();
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let scheme = DbScheme::parse(&mut cat, &refs).expect("distinct schemes");
        let rendered = s.render(&cat, &scheme);
        let parsed = JoinStrategy::parse(&rendered, &cat, &scheme).expect("round trip");
        prop_assert_eq!(parsed, s);
    }
}
