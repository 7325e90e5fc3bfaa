//! Cross-crate pipelines: generator → dependency theory → conditions →
//! optimizer → semijoin machinery, exercised end to end.

use mjoin::{analyze, CardinalityOracle, ExactOracle, SearchSpace};
use mjoin_fd::{all_joins_on_superkeys, extension_join_sequence, osborn_sequence};
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_hypergraph::JoinTree;
use mjoin_semijoin::{full_reduce, is_pairwise_consistent, yannakakis};
use mjoin_strategy::Strategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full happy path of Section 4: superkey schema design ⇒ C3 ⇒ a
/// linear product-free plan is globally optimal, and Osborn/extension
/// sequences exist.
#[test]
fn superkey_pipeline_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2024);
    for n in 2..=5 {
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig {
            tuples_per_relation: 4,
            domain: 8,
            ensure_nonempty: true,
        };
        let (db, fds) = data::superkey(cat, scheme, &cfg, &mut rng);

        // Dependency layer agrees the hypothesis holds.
        assert!(all_joins_on_superkeys(db.scheme(), &fds));
        assert!(osborn_sequence(db.scheme(), &fds).is_some());
        assert!(extension_join_sequence(db.scheme(), &fds).is_some());

        // Condition layer derives C3, theorem layer licenses the linear
        // product-free space, optimizer layer finds the optimum there.
        let a = analyze(&db).unwrap();
        assert!(a.conditions.c3);
        assert_eq!(a.safe_search_space(), SearchSpace::LinearNoCartesian);
        let safe = mjoin::optimize_database(&db, a.safe_search_space()).unwrap();
        let best = mjoin::optimize_database(&db, SearchSpace::All).unwrap();
        assert_eq!(safe.cost, best.cost);

        // And the plan actually evaluates to the correct relation.
        let result = execute(&db, &safe.strategy);
        assert_eq!(result, db.evaluate());
    }
}

/// Executes a strategy literally via the public API.
fn execute(db: &mjoin::Database, s: &Strategy) -> mjoin::Relation {
    s.execute(db)
}

/// Every optimizer plan, in every space, evaluates to the same relation as
/// the database itself — cost changes, semantics never.
#[test]
fn all_plans_compute_the_same_result() {
    let mut rng = StdRng::seed_from_u64(77);
    for n in 2..=4 {
        let (cat, scheme) = schemes::random_tree(n, &mut rng);
        let cfg = DataConfig {
            tuples_per_relation: 4,
            domain: 4,
            ensure_nonempty: true,
        };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let reference = db.evaluate();
        for space in [
            SearchSpace::All,
            SearchSpace::Linear,
            SearchSpace::NoCartesian,
            SearchSpace::LinearNoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            if let Ok(plan) = mjoin::optimize_database(&db, space) {
                assert_eq!(execute(&db, &plan.strategy), reference, "{space:?}");
            }
        }
    }
}

/// The acyclic pipeline: join tree, full reducer, Yannakakis — against
/// direct evaluation, on random acyclic databases with dangling tuples.
#[test]
fn acyclic_pipeline_end_to_end() {
    let mut rng = StdRng::seed_from_u64(4096);
    for n in 2..=6 {
        let (cat, scheme) = schemes::random_tree(n, &mut rng);
        let cfg = DataConfig {
            tuples_per_relation: 6,
            domain: 4,
            ensure_nonempty: true,
        };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let tree = JoinTree::build(db.scheme()).expect("trees are α-acyclic");
        for root in 0..n {
            let reduced = full_reduce(&db, &tree, root);
            assert!(is_pairwise_consistent(&reduced), "n={n} root={root}");
            assert_eq!(reduced.evaluate(), db.evaluate());
        }
        let out = yannakakis(&db).expect("α-acyclic connected");
        assert_eq!(out.result, db.evaluate());
        let o = ExactOracle::new(&out.reduced);
        assert!(out.strategy.is_monotone_increasing(&o));
    }
}

/// The zig-zag family: exact data reproduces the synthetic model's
/// linear-vs-bushy gap, and the gap disappears under C3.
#[test]
fn zigzag_gap_and_c3_collapse() {
    for k in [2usize, 3, 4] {
        let (cat, scheme) = schemes::chain(2 * k);
        let db = data::zigzag(cat, scheme, 10);
        let o = ExactOracle::new(&db);
        assert!(!o.result_is_empty());
        let full = db.scheme().full_set();
        let bushy = mjoin::optimize(&o, full, SearchSpace::All).unwrap().cost;
        let linear = mjoin::optimize(&o, full, SearchSpace::Linear).unwrap().cost;
        assert!(
            linear as f64 / bushy as f64 > 1.5,
            "k={k}: linear {linear} vs bushy {bushy}"
        );
        // And C3 must fail — otherwise Theorem 3 would forbid the gap.
        assert!(!mjoin::satisfies(&o, mjoin::Condition::C3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential check: for random strategies over random databases,
    /// every traced step's materialized size equals the exact oracle's
    /// answer, and the trace total equals τ(S).
    #[test]
    fn execution_trace_matches_oracle(seed: u64, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::random_tree(n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 4, ensure_nonempty: true };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let oracle = ExactOracle::new(&db);
        for s in mjoin_strategy::enumerate_all(db.scheme().full_set()) {
            let (result, trace) = s.execute_traced(&db);
            let mut total = 0u64;
            for entry in &trace {
                prop_assert_eq!(entry.relation.tau(), oracle.tau(entry.set));
                total += entry.relation.tau();
            }
            prop_assert_eq!(total, s.cost(&oracle));
            prop_assert_eq!(&result, &db.evaluate());
        }
    }

    /// Pluck followed by graft restores the strategy (up to child order),
    /// for random strategies and random pluck targets — Figures 1–2 are
    /// inverse operations.
    #[test]
    fn pluck_graft_roundtrip(seed: u64, n in 3usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        // Random strategy over n relations by random pairwise joins.
        let mut forest: Vec<Strategy> = (0..n).map(Strategy::leaf).collect();
        while forest.len() > 1 {
            let i = rng.gen_range(0..forest.len());
            let a = forest.swap_remove(i);
            let j = rng.gen_range(0..forest.len());
            let b = forest.swap_remove(j);
            forest.push(Strategy::join(a, b).unwrap());
        }
        let s = forest.pop().unwrap();

        // Random internal node that is not the root: pick a step's child.
        let steps = s.steps();
        prop_assume!(steps.len() >= 2);
        let pick = rng.gen_range(1..steps.len());
        let target = steps[pick].set;
        // Its sibling is the other child of its parent.
        let parent = steps
            .iter()
            .find(|st| st.left == target || st.right == target)
            .unwrap();
        let sibling = if parent.left == target { parent.right } else { parent.left };

        let (rest, removed) = s.pluck(target).unwrap();
        prop_assert_eq!(rest.set().union(removed.set()), s.set());
        let back = rest.graft(sibling, removed).unwrap();
        prop_assert!(back.eq_unordered(&s));
    }
}
