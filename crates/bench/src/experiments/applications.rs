//! `A1`–`A5`: the Section 4–5 applications — semantic constraints that
//! guarantee the conditions, set operations, and Yannakakis' strategy.

use mjoin::{condition_report, optimize, ExactOracle, SearchSpace};
use mjoin_fd::{all_joins_on_superkeys, no_nontrivial_lossy_joins, osborn_sequence};
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_semijoin::{is_pairwise_consistent, yannakakis};
use mjoin_setops::{best_any, best_linear_intersection, SetOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Table;

const TRIALS: usize = 50;

/// `A1-superkeys` (§4): if all joins are on superkeys, `C3` — and hence
/// `C1` and `C2` — holds.
pub fn superkeys_imply_c3() -> Table {
    let mut t = Table::new(
        "A1-superkeys",
        &[
            "topology",
            "n",
            "generated",
            "hypothesis held",
            "C3 failures",
            "C1 failures",
            "C2 failures",
        ],
    );
    t.note("Paper §4: joins on superkeys ⇒ C3 (and C1, C2 by Lemma 5).");
    t.note("Expected failures: 0.");
    let mut rng = StdRng::seed_from_u64(0xA1);
    for n in 2..=5usize {
        for (name, cat, scheme) in [("chain", schemes::chain(n)), ("star", schemes::star(n))]
            .map(|(name, (c, d))| (name, c, d))
        {
            let (mut held, mut c3f, mut c1f, mut c2f) = (0usize, 0usize, 0usize, 0usize);
            for _ in 0..TRIALS {
                let cfg = DataConfig {
                    tuples_per_relation: 4,
                    domain: 8,
                    ensure_nonempty: true,
                };
                let (db, fds) = data::superkey(cat.clone(), scheme.clone(), &cfg, &mut rng);
                if !all_joins_on_superkeys(db.scheme(), &fds) {
                    continue;
                }
                held += 1;
                let o = ExactOracle::new(&db);
                let r = condition_report(&o);
                if !r.c3 {
                    c3f += 1;
                }
                if !r.c1 {
                    c1f += 1;
                }
                if !r.c2 {
                    c2f += 1;
                }
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                TRIALS.to_string(),
                held.to_string(),
                c3f.to_string(),
                c1f.to_string(),
                c2f.to_string(),
            ]);
        }
    }
    t
}

/// `A2-lossless` (§4): if the database has no nontrivial lossy joins
/// (checked by the chase), `C2` holds; Osborn sequences exist.
pub fn lossless_implies_c2() -> Table {
    let mut t = Table::new(
        "A2-lossless",
        &[
            "n",
            "generated",
            "lossless held",
            "C2 failures",
            "osborn sequence found",
        ],
    );
    t.note("Paper §4: no nontrivial lossy joins ⇒ C2 (via Rissanen).");
    t.note("fk-chain data embeds the FDs a_i → a_{i+1}. Expected failures: 0.");
    let mut rng = StdRng::seed_from_u64(0xA2);
    for n in 2..=5usize {
        let (cat, scheme) = schemes::chain(n);
        let (mut held, mut c2f, mut osborn_found) = (0usize, 0usize, 0usize);
        for _ in 0..TRIALS {
            let cfg = DataConfig {
                tuples_per_relation: 5,
                domain: 7,
                ensure_nonempty: true,
            };
            let (db, fds) = data::fk_chain(cat.clone(), scheme.clone(), &cfg, &mut rng);
            if !no_nontrivial_lossy_joins(db.scheme(), &fds) {
                continue;
            }
            held += 1;
            let o = ExactOracle::new(&db);
            if !mjoin::satisfies(&o, mjoin::Condition::C2) {
                c2f += 1;
            }
            if osborn_sequence(db.scheme(), &fds).is_some() {
                osborn_found += 1;
            }
        }
        t.row(vec![
            n.to_string(),
            TRIALS.to_string(),
            held.to_string(),
            c2f.to_string(),
            osborn_found.to_string(),
        ]);
    }
    t
}

/// `A3-acyclic-c4` (§5): a γ-acyclic pairwise-consistent database
/// satisfies `C4`.
pub fn acyclic_consistent_c4() -> Table {
    let mut t = Table::new(
        "A3-acyclic-c4",
        &[
            "topology",
            "n",
            "γ-acyclic",
            "generated",
            "consistent",
            "C4 failures",
        ],
    );
    t.note("Paper §5: γ-acyclic + pairwise consistent ⇒ C4 (joins never shrink).");
    t.note("Universal-projection data is consistent by construction. Expected failures: 0.");
    let mut rng = StdRng::seed_from_u64(0xA3);
    for n in 2..=5usize {
        for (name, cat, scheme) in [("chain", schemes::chain(n)), ("star", schemes::star(n))]
            .map(|(name, (c, d))| (name, c, d))
        {
            let gamma = scheme.is_gamma_acyclic();
            let (mut consistent, mut c4f) = (0usize, 0usize);
            for _ in 0..TRIALS {
                let rows = rng.gen_range(3..12);
                let db = data::universal(cat.clone(), scheme.clone(), rows, 4, &mut rng);
                if !is_pairwise_consistent(&db) {
                    continue;
                }
                consistent += 1;
                let o = ExactOracle::new(&db);
                if !mjoin::satisfies(&o, mjoin::Condition::C4) {
                    c4f += 1;
                }
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                if gamma { "yes" } else { "no" }.into(),
                TRIALS.to_string(),
                consistent.to_string(),
                c4f.to_string(),
            ]);
        }
    }
    t
}

/// `A4-intersection` (§5): with ⋈ read as ∩, `C3` holds, so a linear
/// strategy is τ-optimal among all strategies (Theorem 3 applied to sets).
/// The union columns probe the paper's open question — "What can one say
/// about τ-optimal strategies for taking the union of relations?" — by
/// measuring how often the best linear union order ties the best bushy
/// one.
pub fn intersection_linear_optimal() -> Table {
    let mut t = Table::new(
        "A4-intersection",
        &[
            "k sets",
            "trials",
            "∩: linear == bushy",
            "∩ mean τ",
            "∪ C4 holds",
            "∪: linear == bushy",
        ],
    );
    t.note("Paper §5: intersections satisfy C3 ⇒ a linear order is τ-optimal");
    t.note("(expected: equality in every trial). Unions satisfy C4; whether a");
    t.note("linear union order is τ-optimal is the paper's open question —");
    t.note("the last column measures it.");
    let mut rng = StdRng::seed_from_u64(0xA4);
    for k in 2..=6usize {
        let trials = 40usize;
        let mut equal = 0usize;
        let mut union_c4 = 0usize;
        let mut union_equal = 0usize;
        let mut total = 0u64;
        for _ in 0..trials {
            let sets: Vec<Vec<i64>> = (0..k)
                .map(|_| {
                    let len = rng.gen_range(1..20);
                    (0..len).map(|_| rng.gen_range(0..30)).collect()
                })
                .collect();
            let (_, lin) = best_linear_intersection(&sets);
            let all = best_any(&sets, SetOp::Intersection);
            if lin == all {
                equal += 1;
            }
            total += lin;
            let uo = mjoin_setops::SetOracle::new(&sets, SetOp::Union);
            if mjoin::satisfies(&uo, mjoin::Condition::C4) {
                union_c4 += 1;
            }
            let full = mjoin::RelSet::full(k);
            let u_lin = optimize(&uo, full, SearchSpace::Linear)
                .expect("linear space")
                .cost;
            let u_all = optimize(&uo, full, SearchSpace::All)
                .expect("full space")
                .cost;
            if u_lin == u_all {
                union_equal += 1;
            }
        }
        t.row(vec![
            k.to_string(),
            trials.to_string(),
            format!("{equal}/{trials}"),
            format!("{:.1}", total as f64 / trials as f64),
            format!("{union_c4}/{trials}"),
            format!("{union_equal}/{trials}"),
        ]);
    }
    t
}

/// `A6-monotone` (§5): monotone strategies.
///
/// * On `C3` databases a monotone **decreasing** τ-optimal strategy exists
///   (Theorem 3's linear product-free optimum is one);
/// * on γ-acyclic pairwise-consistent databases (`C4`) the paper asks
///   whether a τ-optimal monotone **increasing** strategy always exists —
///   measured here.
pub fn monotone_strategies() -> Table {
    use mjoin::{best_monotone, Monotonicity};
    let mut t = Table::new(
        "A6-monotone",
        &[
            "source",
            "n",
            "trials",
            "mono-dec exists",
            "mono-dec τ-optimal",
            "mono-inc exists",
            "mono-inc τ-optimal",
        ],
    );
    t.note("Paper §5: C3 ⇒ a monotone decreasing τ-optimal strategy exists.");
    t.note("C4 (consistent acyclic) ⇒ does a τ-optimal monotone increasing one?");
    let mut rng = StdRng::seed_from_u64(0xA6);
    for n in 2..=5usize {
        // C3 world: superkey chains.
        let (cat, scheme) = schemes::chain(n);
        let trials = 30usize;
        let (mut de, mut dopt, mut ie, mut iopt) = (0, 0, 0, 0);
        for _ in 0..trials {
            let cfg = DataConfig {
                tuples_per_relation: 4,
                domain: 8,
                ensure_nonempty: true,
            };
            let (db, _) = data::superkey(cat.clone(), scheme.clone(), &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            let best = optimize(&o, full, SearchSpace::All).unwrap().cost;
            if let Some(p) = best_monotone(&o, full, Monotonicity::Decreasing) {
                de += 1;
                if p.cost == best {
                    dopt += 1;
                }
            }
            if let Some(p) = best_monotone(&o, full, Monotonicity::Increasing) {
                ie += 1;
                if p.cost == best {
                    iopt += 1;
                }
            }
        }
        t.row(vec![
            "superkey (C3)".into(),
            n.to_string(),
            trials.to_string(),
            format!("{de}/{trials}"),
            format!("{dopt}/{trials}"),
            format!("{ie}/{trials}"),
            format!("{iopt}/{trials}"),
        ]);

        // C4 world: universal-projection chains.
        let (mut de, mut dopt, mut ie, mut iopt) = (0, 0, 0, 0);
        for _ in 0..trials {
            let db = data::universal(cat.clone(), scheme.clone(), 8, 4, &mut rng);
            let o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            let best = optimize(&o, full, SearchSpace::All).unwrap().cost;
            if let Some(p) = best_monotone(&o, full, Monotonicity::Decreasing) {
                de += 1;
                if p.cost == best {
                    dopt += 1;
                }
            }
            if let Some(p) = best_monotone(&o, full, Monotonicity::Increasing) {
                ie += 1;
                if p.cost == best {
                    iopt += 1;
                }
            }
        }
        t.row(vec![
            "universal (C4)".into(),
            n.to_string(),
            trials.to_string(),
            format!("{de}/{trials}"),
            format!("{dopt}/{trials}"),
            format!("{ie}/{trials}"),
            format!("{iopt}/{trials}"),
        ]);
    }
    t
}

/// `A5-yannakakis` (§5): is Yannakakis' linear strategy (on the reduced
/// database) τ-optimal? The paper poses this as an open question; we
/// measure the gap on random consistent acyclic databases.
pub fn yannakakis_vs_optimum() -> Table {
    let mut t = Table::new(
        "A5-yannakakis",
        &[
            "topology",
            "n",
            "trials",
            "monotone increasing",
            "τ-optimal (on reduced db)",
            "mean τ ratio",
        ],
    );
    t.note("Paper §5 open question: Yannakakis' lossless strategy — τ-optimal?");
    t.note("Measured on reduced databases; ratio = yannakakis τ / DP optimum τ.");
    let mut rng = StdRng::seed_from_u64(0xA5);
    for n in 2..=5usize {
        for (name, cat, scheme) in [("chain", schemes::chain(n)), ("star", schemes::star(n))]
            .map(|(name, (c, d))| (name, c, d))
        {
            let trials = 30usize;
            let (mut monotone, mut optimal) = (0usize, 0usize);
            let mut ratio_sum = 0.0f64;
            let mut counted = 0usize;
            for _ in 0..trials {
                let rows = rng.gen_range(4..12);
                let db = data::universal(cat.clone(), scheme.clone(), rows, 4, &mut rng);
                let Some(out) = yannakakis(&db) else { continue };
                let ro = ExactOracle::new(&out.reduced);
                if out.strategy.is_monotone_increasing(&ro) {
                    monotone += 1;
                }
                let best = optimize(&ro, out.reduced.scheme().full_set(), SearchSpace::All)
                    .expect("full space")
                    .cost;
                if out.cost == best {
                    optimal += 1;
                }
                if best > 0 {
                    ratio_sum += out.cost as f64 / best as f64;
                    counted += 1;
                }
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                trials.to_string(),
                format!("{monotone}/{trials}"),
                format!("{optimal}/{trials}"),
                if counted > 0 {
                    format!("{:.3}", ratio_sum / counted as f64)
                } else {
                    "n/a".into()
                },
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superkeys_experiment_is_clean() {
        let t = superkeys_imply_c3();
        for row in &t.rows {
            assert!(row[3].parse::<u64>().unwrap() > 0, "hypothesis never held");
            assert_eq!(row[4], "0", "C3 failure in {row:?}");
            assert_eq!(row[5], "0", "C1 failure in {row:?}");
            assert_eq!(row[6], "0", "C2 failure in {row:?}");
        }
    }

    #[test]
    fn lossless_experiment_is_clean() {
        let t = lossless_implies_c2();
        for row in &t.rows {
            assert!(row[2].parse::<u64>().unwrap() > 0);
            assert_eq!(row[3], "0", "C2 failure in {row:?}");
        }
    }

    #[test]
    fn acyclic_c4_experiment_is_clean() {
        let t = acyclic_consistent_c4();
        for row in &t.rows {
            assert_eq!(row[2], "yes", "chains and stars are γ-acyclic");
            assert!(row[4].parse::<u64>().unwrap() > 0);
            assert_eq!(row[5], "0", "C4 failure in {row:?}");
        }
    }

    #[test]
    fn intersection_experiment_always_equal() {
        let t = intersection_linear_optimal();
        for row in &t.rows {
            let parts: Vec<&str> = row[2].split('/').collect();
            assert_eq!(parts[0], parts[1], "linear missed the optimum in {row:?}");
            let c4: Vec<&str> = row[4].split('/').collect();
            assert_eq!(c4[0], c4[1], "union C4 failed in {row:?}");
        }
    }

    #[test]
    fn monotone_experiment_shapes() {
        let t = monotone_strategies();
        for row in &t.rows {
            let frac = |cell: &str| -> (u64, u64) {
                let p: Vec<&str> = cell.split('/').collect();
                (p[0].parse().unwrap(), p[1].parse().unwrap())
            };
            if row[0].contains("C3") {
                // Monotone decreasing must always exist and be τ-optimal.
                let (a, b) = frac(&row[3]);
                assert_eq!(a, b, "mono-dec must exist under C3: {row:?}");
                let (a, b) = frac(&row[4]);
                assert_eq!(a, b, "mono-dec must be optimal under C3: {row:?}");
            }
            if row[0].contains("C4") {
                // Monotone increasing must always exist under C4
                // (product-free strategies only grow; products also grow).
                let (a, b) = frac(&row[5]);
                assert_eq!(a, b, "mono-inc must exist under C4: {row:?}");
            }
        }
    }

    #[test]
    fn yannakakis_is_always_monotone_increasing() {
        let t = yannakakis_vs_optimum();
        for row in &t.rows {
            let parts: Vec<&str> = row[3].split('/').collect();
            assert_eq!(parts[0], parts[1], "non-monotone run in {row:?}");
        }
    }
}
