//! Property-based verification of the paper's results on randomized
//! databases.
//!
//! Proptest drives the seeds and shape parameters; the workspace's
//! generators build databases targeting each hypothesis; the assertions
//! are the theorems' implications and the proof rewrites' invariants.

use mjoin::{
    conditions::{satisfies, Condition},
    rewrites, theorems, ExactOracle, SearchSpace,
};
use mjoin_cost::CardinalityOracle;
use mjoin_gen::{data, data::DataConfig, schemes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topology(choice: u8, n: usize, rng: &mut StdRng) -> (mjoin::Catalog, mjoin::DbScheme) {
    match choice % 3 {
        0 => schemes::chain(n),
        1 => schemes::star(n),
        _ => schemes::random_tree(n, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 1 implication on superkey databases (which often satisfy
    /// the strict C1').
    #[test]
    fn theorem1_implication(seed: u64, topo in 0u8..3, n in 3usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = topology(topo, n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 8, ensure_nonempty: true };
        let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        let r = theorems::theorem1(&o);
        prop_assert!(r.implication_holds());
    }

    /// Theorem 2 implication on fk-chain databases (lossless ⇒ C2).
    #[test]
    fn theorem2_implication(seed: u64, n in 3usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig { tuples_per_relation: 5, domain: 7, ensure_nonempty: true };
        let (db, _) = data::fk_chain(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        let r = theorems::theorem2(&o);
        prop_assert!(r.implication_holds());
    }

    /// Theorem 3 implication on superkey databases (C3 by construction).
    #[test]
    fn theorem3_implication(seed: u64, topo in 0u8..3, n in 3usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = topology(topo, n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 9, ensure_nonempty: true };
        let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        let r = theorems::theorem3(&o);
        prop_assert!(r.preconditions_hold, "superkey joins must give C3");
        prop_assert!(r.conclusion_holds);
    }

    /// Lemma 5: C3 ⇒ C1 on arbitrary random databases (vacuous or not).
    #[test]
    fn lemma5_c3_implies_c1(seed: u64, topo in 0u8..3, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = topology(topo, n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 4, ensure_nonempty: true };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        prop_assert!(theorems::lemma5_check(&o));
    }

    /// C3 ⇒ C2 as well (both inequalities imply the disjunction).
    #[test]
    fn c3_implies_c2(seed: u64, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 8, ensure_nonempty: true };
        let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        if satisfies(&o, Condition::C3) {
            prop_assert!(satisfies(&o, Condition::C2));
        }
    }

    /// Figure 3's rewrite never increases τ under C1 and strictly
    /// decreases it under C1' — on every linear strategy of every random
    /// database where the conditions hold.
    #[test]
    fn figure3_rewrite_respects_c1(seed: u64, n in 3usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::random_tree(n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 3, domain: 4, ensure_nonempty: true };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        if o.result_is_empty() {
            return Ok(());
        }
        let c1 = satisfies(&o, Condition::C1);
        let c1s = satisfies(&o, Condition::C1Strict);
        for s in mjoin_strategy::enumerate_linear(db.scheme().full_set()) {
            if let Some(t) = rewrites::figure3_rewrite(db.scheme(), &s) {
                prop_assert!(t.validate(db.scheme()));
                prop_assert_eq!(t.set(), s.set());
                if c1s {
                    prop_assert!(t.cost(&o) < s.cost(&o));
                } else if c1 {
                    prop_assert!(t.cost(&o) <= s.cost(&o));
                }
            }
        }
    }

    /// The DP optimizers agree with brute-force enumeration on random
    /// databases — for every search space.
    #[test]
    fn dp_matches_enumeration(seed: u64, topo in 0u8..3, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = topology(topo, n, &mut rng);
        let cfg = DataConfig { tuples_per_relation: 3, domain: 4, ensure_nonempty: true };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();

        let mut best_all = u64::MAX;
        let mut best_linear = u64::MAX;
        let mut best_nocp = u64::MAX;
        for s in mjoin_strategy::enumerate_all(full) {
            let c = s.cost(&o);
            best_all = best_all.min(c);
            if s.is_linear() {
                best_linear = best_linear.min(c);
            }
            if !s.uses_cartesian(db.scheme()) {
                best_nocp = best_nocp.min(c);
            }
        }
        prop_assert_eq!(
            mjoin::optimize(&o, full, SearchSpace::All).unwrap().cost,
            best_all
        );
        prop_assert_eq!(
            mjoin::optimize(&o, full, SearchSpace::Linear).unwrap().cost,
            best_linear
        );
        match mjoin::optimize(&o, full, SearchSpace::NoCartesian) {
            Some(p) => prop_assert_eq!(p.cost, best_nocp),
            None => prop_assert_eq!(best_nocp, u64::MAX),
        }
    }

    /// Lemma 4's conclusion holds whenever C1 ∧ C2 hold (any
    /// connectivity).
    #[test]
    fn lemma4_under_c1_c2(seed: u64, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig { tuples_per_relation: 4, domain: 8, ensure_nonempty: true };
        let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        if satisfies(&o, Condition::C1) && satisfies(&o, Condition::C2) {
            prop_assert!(theorems::lemma4_conclusion(&o));
        }
    }
}
