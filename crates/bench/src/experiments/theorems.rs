//! `F3`/`F4F5`/`F6`/`G3`: randomized theorem verification.
//!
//! Each experiment generates many databases, applies the relevant
//! condition as a filter (either by construction or by rejection), and
//! counts violations of the theorem's conclusion. The expected count is
//! **zero** — these are machine checks of the paper's main results.

use mjoin::{satisfies, CardinalityOracle, Condition, ExactOracle};
use mjoin_gen::{data, data::DataConfig, schemes};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Table;

const TRIALS: usize = 60;

fn topologies(n: usize, rng: &mut StdRng) -> Vec<(&'static str, mjoin::Catalog, mjoin::DbScheme)> {
    let (c1, d1) = schemes::chain(n);
    let (c2, d2) = schemes::star(n);
    let (c3, d3) = schemes::random_tree(n, rng);
    vec![("chain", c1, d1), ("star", c2, d2), ("tree", c3, d3)]
}

/// `F3-theorem1`: on databases satisfying `C1'` (superkey data, kept only
/// if the strict condition holds), every globally τ-optimum linear
/// strategy avoids Cartesian products.
pub fn theorem1_randomized() -> Table {
    let mut t = Table::new(
        "F3-theorem1",
        &[
            "topology",
            "n",
            "generated",
            "C1' held",
            "conclusion violations",
        ],
    );
    t.note("Theorem 1: under C1', a τ-optimum linear strategy uses no Cartesian");
    t.note("products. Randomized check; expected violations: 0.");
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for n in 3..=5usize {
        for (name, cat, scheme) in topologies(n, &mut rng) {
            let mut held = 0usize;
            let mut violations = 0usize;
            for _ in 0..TRIALS {
                let cfg = DataConfig {
                    tuples_per_relation: 4,
                    domain: 8,
                    ensure_nonempty: true,
                };
                let (db, _) = data::superkey(cat.clone(), scheme.clone(), &cfg, &mut rng);
                let o = ExactOracle::new(&db);
                let r = mjoin::theorem1(&o);
                if r.preconditions_hold {
                    held += 1;
                    if !r.conclusion_holds {
                        violations += 1;
                    }
                }
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                TRIALS.to_string(),
                held.to_string(),
                violations.to_string(),
            ]);
        }
    }
    t
}

/// `F4F5-theorem2`: on databases satisfying `C1 ∧ C2` (rejection-sampled
/// from uniform and fk-chain data), some τ-optimum strategy is
/// product-free.
pub fn theorem2_randomized() -> Table {
    let mut t = Table::new(
        "F4F5-theorem2",
        &[
            "source",
            "n",
            "generated",
            "C1∧C2 held",
            "conclusion violations",
        ],
    );
    t.note("Theorem 2: under C1 ∧ C2 (connected scheme, R_D ≠ φ) some τ-optimum");
    t.note("strategy uses no Cartesian products. Expected violations: 0.");
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for n in 3..=5usize {
        // fk-chain data: C2 via losslessness, C1 usually holds too.
        let (cat, scheme) = schemes::chain(n);
        let mut held = 0usize;
        let mut violations = 0usize;
        for _ in 0..TRIALS {
            let cfg = DataConfig {
                tuples_per_relation: 5,
                domain: 7,
                ensure_nonempty: true,
            };
            let (db, _) = data::fk_chain(cat.clone(), scheme.clone(), &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let r = mjoin::theorem2(&o);
            if r.preconditions_hold {
                held += 1;
                if !r.conclusion_holds {
                    violations += 1;
                }
            }
        }
        t.row(vec![
            "fk-chain".into(),
            n.to_string(),
            TRIALS.to_string(),
            held.to_string(),
            violations.to_string(),
        ]);

        // Uniform data with rejection: C1 ∧ C2 is rarer but occurs.
        let mut held = 0usize;
        let mut violations = 0usize;
        for _ in 0..TRIALS {
            let cfg = DataConfig {
                tuples_per_relation: 3,
                domain: 3,
                ensure_nonempty: true,
            };
            let db = data::uniform(cat.clone(), scheme.clone(), &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let r = mjoin::theorem2(&o);
            if r.preconditions_hold {
                held += 1;
                if !r.conclusion_holds {
                    violations += 1;
                }
            }
        }
        t.row(vec![
            "uniform".into(),
            n.to_string(),
            TRIALS.to_string(),
            held.to_string(),
            violations.to_string(),
        ]);
    }
    t
}

/// `F6-theorem3`: on superkey-join databases (`C3` by construction), a
/// linear product-free strategy attains the global optimum.
pub fn theorem3_randomized() -> Table {
    let mut t = Table::new(
        "F6-theorem3",
        &[
            "topology",
            "n",
            "generated",
            "C3 held",
            "conclusion violations",
        ],
    );
    t.note("Theorem 3: under C3 some τ-optimum strategy is linear and product-free.");
    t.note("Superkey-join data satisfies C3 by construction. Expected violations: 0.");
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for n in 3..=6usize {
        for (name, cat, scheme) in topologies(n, &mut rng) {
            let mut held = 0usize;
            let mut violations = 0usize;
            for _ in 0..TRIALS {
                let cfg = DataConfig {
                    tuples_per_relation: 4,
                    domain: 8,
                    ensure_nonempty: true,
                };
                let (db, _) = data::superkey(cat.clone(), scheme.clone(), &cfg, &mut rng);
                let o = ExactOracle::new(&db);
                let r = mjoin::theorem3(&o);
                if r.preconditions_hold {
                    held += 1;
                    if !r.conclusion_holds {
                        violations += 1;
                    }
                }
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                TRIALS.to_string(),
                held.to_string(),
                violations.to_string(),
            ]);
        }
    }
    t
}

/// `G3-small-c1`: the paper remarks that for connected databases of 3–4
/// relations, `C1` alone suffices for a product-free τ-optimum to exist.
/// Randomized search for a counterexample (expected: none).
pub fn small_c1_search() -> Table {
    let mut t = Table::new(
        "G3-small-c1",
        &[
            "n",
            "generated",
            "C1 held (connected, R_D≠φ)",
            "counterexamples",
        ],
    );
    t.note("Paper §4 remark: with 3–4 relations, C1 alone ensures a τ-optimum");
    t.note("without Cartesian products. Randomized search; expected: 0.");
    let mut rng = StdRng::seed_from_u64(0xD00D);
    for n in 3..=4usize {
        let mut held = 0usize;
        let mut counterexamples = 0usize;
        let trials = 400usize;
        for _ in 0..trials {
            let (cat, scheme) = schemes::random_connected(n, 1, &mut rng);
            let cfg = DataConfig {
                tuples_per_relation: 3,
                domain: 4,
                ensure_nonempty: true,
            };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            if !db.scheme().connected(full) || o.result_is_empty() || !satisfies(&o, Condition::C1)
            {
                continue;
            }
            held += 1;
            let best = mjoin::optimize(&o, full, mjoin::SearchSpace::All)
                .expect("full space")
                .cost;
            let nocp = mjoin::optimize(&o, full, mjoin::SearchSpace::NoCartesian).map(|p| p.cost);
            if nocp != Some(best) {
                counterexamples += 1;
            }
        }
        t.row(vec![
            n.to_string(),
            trials.to_string(),
            held.to_string(),
            counterexamples.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_zero_violations(t: &Table, held_col: usize, viol_col: usize) {
        let mut total_held = 0u64;
        for row in &t.rows {
            let held: u64 = row[held_col].parse().unwrap();
            let viol: u64 = row[viol_col].parse().unwrap();
            total_held += held;
            assert_eq!(viol, 0, "violation in row {row:?}");
        }
        assert!(
            total_held > 0,
            "the filter never fired — experiment is vacuous"
        );
    }

    #[test]
    fn theorem1_zero_violations() {
        assert_zero_violations(&theorem1_randomized(), 3, 4);
    }

    #[test]
    fn theorem2_zero_violations() {
        assert_zero_violations(&theorem2_randomized(), 3, 4);
    }

    #[test]
    fn theorem3_zero_violations() {
        assert_zero_violations(&theorem3_randomized(), 3, 4);
    }

    #[test]
    fn small_c1_no_counterexamples() {
        assert_zero_violations(&small_c1_search(), 2, 3);
    }
}
