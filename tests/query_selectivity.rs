//! Differential check for selectivity folding: on seeded small star
//! databases, the selectivity-folded [`SyntheticOracle`] built from
//! *unfiltered* catalog statistics tracks the brute-force [`ExactOracle`]
//! over the *filtered* database within a q-error envelope, for every
//! subset of the query's relations. And the planning surface is
//! thread-invariant: the optimal plan's τ over the filtered database is
//! identical at 1, 2 and 4 threads.
//!
//! The construction mirrors what a real deployment does: statistics are
//! collected on base tables (before any predicate), then the query front
//! end folds per-table filter selectivities in at plan time.

use mjoin::{
    lower, parse_query, BrownoutLevel, CardinalityOracle as _, Database, ExactOracle, SearchSpace,
    SyntheticOracle,
};
use mjoin_cli::{optimize_outcome, GuardOptions};
use mjoin_hypergraph::RelSet;

/// Deterministic LCG so every seed replays.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// A seeded star: fact `ABCF` over dims `AU`, `BV`, `CW`. Key columns are
/// uniform over the dim domains; `W` carries a small payload domain so an
/// equality filter keeps a nontrivial fraction of `CW`.
fn seeded_star(seed: u64) -> Database {
    let mut rng = Lcg(seed);
    let fact: Vec<Vec<i64>> = (0..40)
        .map(|i| vec![rng.below(3), rng.below(4), rng.below(5), i])
        .collect();
    let au: Vec<Vec<i64>> = (0..3).map(|a| vec![a, 100 + rng.below(4)]).collect();
    let bv: Vec<Vec<i64>> = (0..4).map(|b| vec![b, 200 + rng.below(4)]).collect();
    let cw: Vec<Vec<i64>> = (0..5).map(|c| vec![c, rng.below(3)]).collect();
    Database::from_specs(&[("ABCF", fact), ("AU", au), ("BV", bv), ("CW", cw)]).unwrap()
}

const SQL_FILTERED: &str = "SELECT * FROM ABCF, AU, BV, CW \
     WHERE ABCF.A = AU.A AND ABCF.B = BV.B AND ABCF.C = CW.C AND CW.W = 1";
const SQL_UNFILTERED: &str = "SELECT * FROM ABCF, AU, BV, CW \
     WHERE ABCF.A = AU.A AND ABCF.B = BV.B AND ABCF.C = CW.C";

/// Largest tolerated q-error between the folded statistics model and the
/// filtered ground truth, across every subset of every seed. The
/// independence assumptions behind the synthetic model make some drift
/// inevitable; what this pins is the *scale* — estimates stay within a
/// small constant factor instead of diverging with the filter.
const Q_ENVELOPE: f64 = 16.0;

fn q_error(est: u64, actual: u64) -> f64 {
    let e = est.max(1) as f64;
    let a = actual.max(1) as f64;
    (e / a).max(a / e)
}

#[test]
fn folded_estimates_track_the_filtered_exact_oracle() {
    let mut worst = (0.0f64, 0u64, RelSet::empty());
    for seed in 0..12u64 {
        let db = seeded_star(seed);
        let filtered = lower(&parse_query(SQL_FILTERED).unwrap(), &db).unwrap();
        let unfiltered = lower(&parse_query(SQL_UNFILTERED).unwrap(), &db).unwrap();
        // Skip seeds whose filter empties CW outright: the folded model
        // records the relation as empty and every estimate is exactly 0,
        // which the q-error cannot grade meaningfully.
        if filtered.filtered_taus[3] == 0 {
            continue;
        }
        // Statistics from the unfiltered states, selectivities folded in.
        let mut model = SyntheticOracle::from_database(&unfiltered.database);
        filtered.fold_into(&mut model).unwrap();
        let exact = ExactOracle::new(&filtered.database);
        for subset in filtered.database.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let qe = q_error(model.tau(subset), exact.tau(subset));
            if qe > worst.0 {
                worst = (qe, seed, subset);
            }
            assert!(
                qe <= Q_ENVELOPE,
                "seed {seed}, subset {subset:?}: q-error {qe:.2} \
                 (est {}, actual {}) exceeds {Q_ENVELOPE}",
                model.tau(subset),
                exact.tau(subset)
            );
        }
    }
    // The envelope must be doing real work, not vacuously passing.
    assert!(worst.0 > 1.0, "no estimation error at all is implausible");
}

/// Folding must never *hurt* the single-relation estimates: for the
/// filtered relation the folded estimate is closer to (or as close to)
/// the filtered truth than the unfolded one, on every seed.
#[test]
fn folding_improves_the_filtered_relation_estimate() {
    for seed in 0..12u64 {
        let db = seeded_star(seed);
        let filtered = lower(&parse_query(SQL_FILTERED).unwrap(), &db).unwrap();
        let unfiltered = lower(&parse_query(SQL_UNFILTERED).unwrap(), &db).unwrap();
        if filtered.filtered_taus[3] == 0 {
            continue;
        }
        let blind = SyntheticOracle::from_database(&unfiltered.database);
        let mut folded = SyntheticOracle::from_database(&unfiltered.database);
        filtered.fold_into(&mut folded).unwrap();
        let cw = RelSet::singleton(3);
        let actual = filtered.filtered_taus[3];
        assert!(
            q_error(folded.tau(cw), actual) <= q_error(blind.tau(cw), actual),
            "seed {seed}: folding moved the CW estimate away from the truth"
        );
    }
}

/// Thread invariance over the filtered database: the optimize paths the
/// `query` command delegates to must agree on the optimal τ at 1, 2 and
/// 4 threads, in every search space the parallel planner specializes.
#[test]
fn optimal_tau_is_thread_invariant_on_filtered_databases() {
    for seed in [0u64, 3, 7] {
        let db = seeded_star(seed);
        let filtered = lower(&parse_query(SQL_FILTERED).unwrap(), &db).unwrap();
        for space in [
            SearchSpace::All,
            SearchSpace::NoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            let costs: Vec<Option<u64>> = [1usize, 2, 4]
                .iter()
                .map(|&t| {
                    let gopts = GuardOptions {
                        threads: Some(t),
                        ..GuardOptions::default()
                    };
                    optimize_outcome(&filtered.database, space, &gopts, BrownoutLevel::Normal)
                        .expect("optimize succeeds")
                        .cost
                })
                .collect();
            assert!(
                costs.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}, {space:?}: thread counts disagree on τ: {costs:?}"
            );
        }
    }
}
