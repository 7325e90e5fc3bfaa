//! Property tests for the oracle layer: exactness, memo transparency, and
//! the inequalities the paper takes for granted.

use mjoin_cost::{CardinalityOracle, Database, ExactOracle, NoisyOracle, SyntheticOracle};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::{Catalog, Relation};
use proptest::prelude::*;

/// A random small database over chain-ish schemes with colliding values.
fn arb_database() -> impl Strategy<Value = Database> {
    (
        2usize..5,
        proptest::collection::vec(proptest::collection::vec((0i64..4, 0i64..4), 0..8), 2..5),
    )
        .prop_map(|(n, all_rows)| {
            let n = n.min(all_rows.len());
            let mut cat = Catalog::new();
            let specs: Vec<String> = (0..n).map(|i| format!("x{i},x{}", i + 1)).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let scheme = DbScheme::parse(&mut cat, &refs).expect("chain scheme");
            let states: Vec<Relation> = (0..n)
                .map(|i| {
                    let rows: Vec<Vec<i64>> = all_rows[i]
                        .iter()
                        .map(|&(a, b)| vec![a, b])
                        .collect();
                    Relation::from_int_rows(scheme.scheme(i), rows).expect("arity 2")
                })
                .collect();
            Database::new(cat, scheme, states)
        })
}

/// Like [`arb_database`], but with an all-zeros witness row planted in
/// every relation, so every subset join is provably nonempty.
fn arb_witnessed_database() -> impl Strategy<Value = Database> {
    (
        2usize..5,
        proptest::collection::vec(proptest::collection::vec((0i64..4, 0i64..4), 0..8), 2..5),
    )
        .prop_map(|(n, all_rows)| {
            let n = n.min(all_rows.len());
            let mut cat = Catalog::new();
            let specs: Vec<String> = (0..n).map(|i| format!("x{i},x{}", i + 1)).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let scheme = DbScheme::parse(&mut cat, &refs).expect("chain scheme");
            let states: Vec<Relation> = (0..n)
                .map(|i| {
                    let mut rows: Vec<Vec<i64>> = all_rows[i]
                        .iter()
                        .map(|&(a, b)| vec![a, b])
                        .collect();
                    rows.push(vec![0, 0]); // the witness
                    Relation::from_int_rows(scheme.scheme(i), rows).expect("arity 2")
                })
                .collect();
            Database::new(cat, scheme, states)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exact oracle reports exactly the materialized sizes, for every
    /// subset, on a memo miss and on the memo hit that follows it.
    #[test]
    fn exact_oracle_is_exact(db in arb_database()) {
        let o = ExactOracle::new(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let truth = db.evaluate_subset(subset).tau();
            prop_assert_eq!(o.tau(subset), truth);
            prop_assert_eq!(o.tau(subset), truth);
        }
    }

    /// τ(R_{D₁} ⋈ R_{D₂}) ≤ τ(R_{D₁}) · τ(R_{D₂}), with equality when the
    /// subsets are not linked — the inequality stated right after the
    /// paper defines τ.
    #[test]
    fn join_bound(db in arb_database(), a: u64, b: u64) {
        let full = db.scheme().full_set();
        let (a, b) = (
            RelSet(u128::from(a)).intersect(full),
            RelSet(u128::from(b)).intersect(full),
        );
        prop_assume!(!a.is_empty() && !b.is_empty() && a.is_disjoint(b));
        let o = ExactOracle::new(&db);
        let joined = o.tau_join(a, b);
        prop_assert!(joined <= o.tau(a).saturating_mul(o.tau(b)));
        if !db.scheme().linked(a, b) {
            prop_assert_eq!(joined, o.tau(a) * o.tau(b));
        }
    }

    /// `result_is_empty` agrees with direct evaluation.
    #[test]
    fn emptiness_detection(db in arb_database()) {
        let o = ExactOracle::new(&db);
        prop_assert_eq!(o.result_is_empty(), db.evaluate().is_empty());
    }

    /// The synthetic oracle is monotone in base cardinalities and always
    /// reports at least 1.
    #[test]
    fn synthetic_monotone(bases in proptest::collection::vec(1u64..1000, 3), domain in 1u64..50) {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let small = SyntheticOracle::new(scheme.clone(), bases.clone(), domain);
        let bigger: Vec<u64> = bases.iter().map(|b| b * 2).collect();
        let large = SyntheticOracle::new(scheme, bigger, domain);
        for subset in RelSet::full(3).subsets() {
            if subset.is_empty() {
                continue;
            }
            let s = small.tau(subset);
            let l = large.tau(subset);
            prop_assert!(s >= 1);
            prop_assert!(l >= s, "doubling inputs must not shrink estimates");
        }
    }

    /// The synthetic estimate of a singleton is its base cardinality.
    #[test]
    fn synthetic_singletons(bases in proptest::collection::vec(1u64..10_000, 3), domain in 1u64..100) {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let o = SyntheticOracle::new(scheme, bases.clone(), domain);
        for (i, &b) in bases.iter().enumerate() {
            prop_assert_eq!(o.tau(RelSet::singleton(i)), b);
        }
    }

    /// On databases where every subset join is witnessed nonempty, the
    /// noiseless model's q-error against ground truth is finite for every
    /// subset: both sides are ≥ 1, so neither ratio divides by zero.
    #[test]
    fn noiseless_model_q_error_is_finite_on_witnessed_databases(db in arb_witnessed_database()) {
        let exact = ExactOracle::new(&db);
        let model = SyntheticOracle::from_database(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let est = model.tau(subset);
            let act = exact.tau(subset);
            prop_assert!(est >= 1, "{subset:?}: witnessed estimate must be ≥ 1");
            prop_assert!(act >= 1, "{subset:?}: witness row keeps the join nonempty");
            let q = (est as f64 / act as f64).max(act as f64 / est as f64);
            prop_assert!(q.is_finite() && q >= 1.0);
        }
    }

    /// The noisy oracle never leaves its q-error envelope around the inner
    /// estimate (up to integer rounding, which stays within floor/ceil).
    #[test]
    fn noise_stays_within_its_envelope(
        db in arb_witnessed_database(),
        q10 in 10u64..160,
        seed: u64,
    ) {
        let q = q10 as f64 / 10.0;
        let model = SyntheticOracle::from_database(&db);
        let noisy = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let base = model.tau(subset) as f64;
            let n = noisy.tau(subset) as f64;
            prop_assert!(n >= (base / q).floor().max(1.0), "{subset:?}: {n} under-shoots {base}/{q}");
            prop_assert!(n <= (base * q).ceil(), "{subset:?}: {n} over-shoots {base}·{q}");
        }
    }

    /// The same (envelope, seed) pair reproduces every noisy estimate bit
    /// for bit across independently constructed oracles — the property the
    /// adaptive executor's determinism guarantees rest on.
    #[test]
    fn seeded_noise_is_bit_reproducible(
        db in arb_witnessed_database(),
        q10 in 10u64..160,
        seed: u64,
    ) {
        let q = q10 as f64 / 10.0;
        let a = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        let b = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            prop_assert_eq!(a.tau(subset), b.tau(subset));
        }
    }
}
