//! Property tests for the workload generators: every generator must hit
//! the hypothesis it targets, for arbitrary seeds and sizes.

use mjoin_fd::{all_joins_on_superkeys, no_nontrivial_lossy_joins};
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_semijoin::is_pairwise_consistent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The superkey generator always produces data whose declared FDs make
    /// every join a superkey join, with a nonempty result.
    #[test]
    fn superkey_generator_hits_hypothesis(seed: u64, n in 2usize..6, topo in 0u8..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = if topo == 0 { schemes::chain(n) } else { schemes::star(n) };
        let cfg = DataConfig { tuples_per_relation: 4, domain: 9, ensure_nonempty: true };
        let (db, fds) = data::superkey(cat, scheme, &cfg, &mut rng);
        prop_assert!(all_joins_on_superkeys(db.scheme(), &fds));
        prop_assert!(!db.evaluate().is_empty());
        // The data respects the FDs: every link column is injective.
        for i in 0..db.len() {
            let st = db.state(i);
            for col in 0..st.attrs().len() {
                let attr = st.attrs()[col];
                let shared = (0..db.len())
                    .filter(|&j| j != i)
                    .any(|j| db.scheme().scheme(j).contains(attr));
                if shared {
                    prop_assert_eq!(st.column_values(col).len() as u64, st.tau());
                }
            }
        }
    }

    /// The fk-chain generator produces functional states with embedded FDs
    /// and no nontrivial lossy joins.
    #[test]
    fn fk_chain_generator_hits_hypothesis(seed: u64, n in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig { tuples_per_relation: 5, domain: 8, ensure_nonempty: true };
        let (db, fds) = data::fk_chain(cat, scheme, &cfg, &mut rng);
        prop_assert!(no_nontrivial_lossy_joins(db.scheme(), &fds));
        prop_assert!(!db.evaluate().is_empty());
    }

    /// The universal generator is always pairwise consistent with a
    /// nonempty result.
    #[test]
    fn universal_generator_is_consistent(seed: u64, n in 2usize..6, rows in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cat, scheme) = schemes::chain(n);
        let db = data::universal(cat, scheme, rows, 4, &mut rng);
        prop_assert!(is_pairwise_consistent(&db));
        prop_assert!(!db.evaluate().is_empty());
    }

    /// The zig-zag generator's invariants: each pair joins to exactly one
    /// tuple, the full result is a single tuple, and odd prefixes re-expand
    /// to `m`.
    #[test]
    fn zigzag_generator_shape(k in 1usize..4, m in 2usize..12) {
        use mjoin_cost::{CardinalityOracle, ExactOracle};
        use mjoin_hypergraph::RelSet;
        let (cat, scheme) = schemes::chain(2 * k);
        let db = data::zigzag(cat, scheme, m);
        let o = ExactOracle::new(&db);
        for i in 0..k {
            let pair = RelSet::from_indices([2 * i, 2 * i + 1]);
            prop_assert_eq!(o.tau(pair), 1, "pair {}", i);
        }
        prop_assert_eq!(o.tau(db.scheme().full_set()), 1);
        if k >= 2 {
            // Prefix of length 3 = pair + one bridge relation: size m.
            let prefix = RelSet::from_indices([0, 1, 2]);
            prop_assert_eq!(o.tau(prefix), m as u64);
        }
    }

    /// Scheme generators honour their size contract and stay within the
    /// relation limit.
    #[test]
    fn scheme_generators_sizes(n in 1usize..12, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(schemes::chain(n).1.len(), n);
        prop_assert_eq!(schemes::star(n).1.len(), n);
        prop_assert_eq!(schemes::clique(n).1.len(), n);
        prop_assert_eq!(schemes::random_tree(n, &mut rng).1.len(), n);
        if n >= 2 {
            prop_assert_eq!(schemes::cycle(n).1.len(), n);
        }
    }
}
