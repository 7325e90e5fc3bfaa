//! `G1`/`G2`: scale sweeps — the motivation of the paper's introduction.
//!
//! `G1` reproduces the phenomenon the paper cites from GAMMA \[9\]: "for
//! large queries, the cheapest linear strategy could be significantly more
//! expensive than the cheapest possible (nonlinear) strategy" — and its
//! flip side, Theorem 3: when `C3` holds the gap is exactly 1.
//!
//! `G2` quantifies how restrictive the conditions are: the fraction of
//! random databases satisfying each condition, per generator.

use mjoin::{condition_report, optimize, ExactOracle, SearchSpace, SyntheticOracle};
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_optimizer::{greedy_bushy, greedy_linear};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Table;

/// `G1-linear-vs-bushy`: τ(best linear)/τ(best bushy) across query sizes.
///
/// * **exact** rows: adversarial fan-out data (Example-1 style) on chains,
///   measured with the exact oracle (`n ≤ 9`);
/// * **c3** rows: superkey data — the ratio collapses to 1.000, Theorem 3
///   live;
/// * **synthetic** rows: chains up to n = 40 under the closed-form
///   cardinality model (documented substitution: materializing exact
///   intermediates at this scale is infeasible), comparing the product-free
///   linear and bushy DP optima plus the greedy planners.
pub fn linear_vs_bushy() -> Table {
    let mut t = Table::new(
        "G1-linear-vs-bushy",
        &[
            "workload",
            "n",
            "best bushy τ",
            "best linear τ",
            "ratio",
            "greedy linear/bushy",
        ],
    );
    t.note("GAMMA motivation (§1): cheapest linear vs cheapest strategy overall.");
    t.note("Under C3 (superkey rows) the ratio is exactly 1 — Theorem 3 in action.");
    let mut rng = StdRng::seed_from_u64(0x61);

    // Exact, adversarial: zig-zag data (selective pairs, hot bridges) with
    // fully materialized intermediates — the same shape the synthetic rows
    // model, confirmed on real tuples.
    for n in [4usize, 6, 8] {
        let (cat, scheme) = schemes::chain(n);
        let db = data::zigzag(cat, scheme, 10);
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let bushy = optimize(&o, full, SearchSpace::All)
            .expect("full space")
            .cost;
        let linear = optimize(&o, full, SearchSpace::Linear)
            .expect("linear space")
            .cost;
        let gl = greedy_linear(&o, full).cost;
        let gb = greedy_bushy(&o, full).cost;
        t.row(vec![
            "exact/zigzag-chain".into(),
            n.to_string(),
            bushy.to_string(),
            linear.to_string(),
            format!("{:.3}", linear as f64 / bushy as f64),
            format!("{:.3}", gl as f64 / gb.max(1) as f64),
        ]);
    }

    // Exact, C3: superkey data — Theorem 3 forces ratio 1.
    for n in 4..=8usize {
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig {
            tuples_per_relation: 5,
            domain: 10,
            ensure_nonempty: true,
        };
        let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let bushy = optimize(&o, full, SearchSpace::All)
            .expect("full space")
            .cost;
        let linear = optimize(&o, full, SearchSpace::Linear)
            .expect("linear space")
            .cost;
        t.row(vec![
            "exact/superkey-chain (C3)".into(),
            n.to_string(),
            bushy.to_string(),
            linear.to_string(),
            format!("{:.3}", linear as f64 / bushy as f64),
            "-".into(),
        ]);
    }

    // Synthetic model at scale, chains: the connected subsets of a chain
    // are intervals, so the product-free DPs stay polynomial (DPccp
    // prices the 820 intervals at n = 40 from their 10 660 interval
    // splits, not from 2ⁿ⁻¹ subsets). Under the multiplicative independence model, chains give
    // linear plans no handicap — an honest negative result the table
    // shows as ratio ≈ 1.
    for n in [10usize, 16, 24, 32, 40] {
        let (_cat, scheme) = schemes::chain(n);
        // Mildly selective joins: every join shrinks ×(1000/1200).
        let oracle = SyntheticOracle::new(scheme.clone(), vec![1000; n], 1200);
        let full = scheme.full_set();
        let bushy = optimize(&oracle, full, SearchSpace::NoCartesian)
            .expect("chain is connected")
            .cost;
        let linear = optimize(&oracle, full, SearchSpace::LinearNoCartesian)
            .expect("chain is connected")
            .cost;
        let gl = greedy_linear(&oracle, full).cost;
        let gb = greedy_bushy(&oracle, full).cost;
        t.row(vec![
            "synthetic/selective-chain".into(),
            n.to_string(),
            bushy.to_string(),
            linear.to_string(),
            format!("{:.3}", linear as f64 / bushy as f64),
            format!("{:.3}", gl as f64 / gb.max(1) as f64),
        ]);
    }

    // The GAMMA gap at scale: a zig-zag chain of 2k relations whose odd
    // ("pair") attributes are highly selective (domain 10⁵ — joining a
    // pair collapses 1000×1000 to 10) while even ("bridge") attributes
    // expand (domain 10 — crossing a bridge multiplies by 100). A bushy
    // plan joins every selective pair first and combines pair-results
    // across bridges, never exceeding ~10 tuples; every linear plan must
    // re-expand to ~1000 at each odd prefix. Ratio ≈ 50, sustained as the
    // query grows — "the cheapest linear strategy could be significantly
    // more expensive than the cheapest possible (nonlinear) strategy".
    for k in [3usize, 5, 8, 12, 16, 20] {
        let n = 2 * k;
        let (mut cat, scheme) = schemes::chain(n);
        let mut oracle = SyntheticOracle::new(scheme.clone(), vec![1000; n], 10);
        for j in (1..n).step_by(2) {
            let a = cat.intern(&format!("a{j}")).expect("already interned");
            oracle.set_domain(a.index(), 100_000);
        }
        let full = scheme.full_set();
        let bushy = optimize(&oracle, full, SearchSpace::NoCartesian)
            .expect("chain is connected")
            .cost;
        let linear = optimize(&oracle, full, SearchSpace::LinearNoCartesian)
            .expect("chain is connected")
            .cost;
        let gl = greedy_linear(&oracle, full).cost;
        let gb = greedy_bushy(&oracle, full).cost;
        t.row(vec![
            "synthetic/zigzag-chain".into(),
            n.to_string(),
            bushy.to_string(),
            linear.to_string(),
            format!("{:.3}", linear as f64 / bushy as f64),
            format!("{:.3}", gl as f64 / gb.max(1) as f64),
        ]);
    }
    t
}

/// `G4-objective-robustness`: the paper picks τ (total tuples) partly for
/// robustness "with respect to technological innovation"; on parallel or
/// large-memory machines the binding constraint is often the *largest*
/// intermediate instead. This experiment measures how often the two
/// objectives pick compatible plans — and whether `C3`'s guarantee
/// transfers to the bottleneck objective.
pub fn objective_robustness() -> Table {
    use mjoin::{best_bottleneck, bottleneck_of};
    let mut t = Table::new(
        "G4-objective-robustness",
        &[
            "generator",
            "n",
            "trials",
            "τ-opt also β-opt",
            "β-opt also τ-opt",
            "C3 linear-noCP β-opt",
        ],
    );
    t.note("β(S) = largest step output. How often do the τ- and β-objectives");
    t.note("agree, and does Theorem 3's linear optimum also minimize β under C3?");
    let mut rng = StdRng::seed_from_u64(0x64);
    for n in [3usize, 4, 5] {
        for generator in ["uniform", "superkey"] {
            let trials = 40usize;
            let (mut tau_beta, mut beta_tau, mut c3_lin, mut c3_total) = (0, 0, 0, 0);
            for _ in 0..trials {
                let (cat, scheme) = schemes::chain(n);
                let cfg = DataConfig {
                    tuples_per_relation: 4,
                    domain: 6,
                    ensure_nonempty: true,
                };
                let db = match generator {
                    "uniform" => data::uniform(cat, scheme, &cfg, &mut rng),
                    _ => data::superkey(cat, scheme, &cfg, &mut rng).0,
                };
                let o = ExactOracle::new(&db);
                let full = db.scheme().full_set();
                let tau_opt = optimize(&o, full, SearchSpace::All).expect("full space");
                let beta_opt = best_bottleneck(&o, full);
                if bottleneck_of(&o, &tau_opt.strategy) == beta_opt.cost {
                    tau_beta += 1;
                }
                if beta_opt.strategy.cost(&o) == tau_opt.cost {
                    beta_tau += 1;
                }
                if generator == "superkey" {
                    c3_total += 1;
                    let lin =
                        optimize(&o, full, SearchSpace::LinearNoCartesian).expect("connected");
                    if bottleneck_of(&o, &lin.strategy) == beta_opt.cost {
                        c3_lin += 1;
                    }
                }
            }
            t.row(vec![
                generator.into(),
                n.to_string(),
                trials.to_string(),
                format!("{tau_beta}/{trials}"),
                format!("{beta_tau}/{trials}"),
                if generator == "superkey" {
                    format!("{c3_lin}/{c3_total}")
                } else {
                    "-".into()
                },
            ]);
        }
    }
    t
}

/// `G5-estimation-quality`: how good is planning with the System-R style
/// statistics model instead of exact cardinalities?
///
/// The paper distrusts uniformity/independence assumptions (§1, citing
/// Christodoulakis \[4\]); this experiment quantifies the distrust: build a
/// [`SyntheticOracle`] from each database's *catalog statistics*
/// (`SyntheticOracle::from_database`), measure (a) the cardinality
/// estimator's q-error over all connected subsets and (b) the *plan
/// regret* — the exact τ of the plan chosen with estimates, relative to
/// the exact optimum.
pub fn estimation_quality() -> Table {
    let mut t = Table::new(
        "G5-estimation-quality",
        &[
            "generator",
            "n",
            "trials",
            "median q-error",
            "max q-error",
            "plan regret = 1.0",
            "mean plan regret",
        ],
    );
    t.note("q-error = max(est/exact, exact/est) per connected subset; plan");
    t.note("regret = exact τ of the estimate-chosen plan ÷ exact optimum.");
    t.note("Skewed data breaks uniformity — exactly the paper's §1 concern.");
    let mut rng = StdRng::seed_from_u64(0x65);
    for n in [3usize, 4, 5] {
        for generator in ["uniform", "skewed"] {
            let trials = 40usize;
            let mut qerrors: Vec<f64> = Vec::new();
            let mut regret_one = 0usize;
            let mut regret_sum = 0.0f64;
            let mut regret_count = 0usize;
            for _ in 0..trials {
                let (cat, scheme) = schemes::chain(n);
                let cfg = DataConfig {
                    tuples_per_relation: 8,
                    domain: 6,
                    ensure_nonempty: true,
                };
                let db = match generator {
                    "uniform" => data::uniform(cat, scheme, &cfg, &mut rng),
                    _ => data::skewed(cat, scheme, &cfg, &mut rng),
                };
                let exact = ExactOracle::new(&db);
                let est = SyntheticOracle::from_database(&db);
                let full = db.scheme().full_set();
                for s in db.scheme().connected_subsets(full) {
                    use mjoin::CardinalityOracle;
                    let e = est.tau(s).max(1) as f64;
                    let x = exact.tau(s).max(1) as f64;
                    qerrors.push((e / x).max(x / e));
                }
                // Plan with estimates, pay with exact costs.
                let est_plan = optimize(&est, full, SearchSpace::All).expect("full");
                let paid = est_plan.strategy.cost(&exact);
                let optimum = optimize(&exact, full, SearchSpace::All).expect("full").cost;
                if optimum > 0 {
                    let regret = paid as f64 / optimum as f64;
                    regret_sum += regret;
                    regret_count += 1;
                    if paid == optimum {
                        regret_one += 1;
                    }
                }
            }
            qerrors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = qerrors[qerrors.len() / 2];
            let max = *qerrors.last().expect("nonempty");
            t.row(vec![
                generator.into(),
                n.to_string(),
                trials.to_string(),
                format!("{median:.2}"),
                format!("{max:.1}"),
                format!("{regret_one}/{regret_count}"),
                format!("{:.3}", regret_sum / regret_count.max(1) as f64),
            ]);
        }
    }
    t
}

/// `G6-enumeration-complexity`: the measurement of the paper's reference
/// \[14\] (Ono & Lohman, VLDB 1990) — how much work join enumeration costs
/// per topology, and how the DP styles compare. Closed forms for chains,
/// stars and cliques are pinned by `mjoin-optimizer`'s unit tests; this
/// table shows the growth the paper's "hundreds of joins" worry is about.
pub fn enumeration_complexity() -> Table {
    use mjoin_optimizer::enumeration_stats;
    let mut t = Table::new(
        "G6-enumeration-complexity",
        &[
            "topology",
            "n",
            "#csg",
            "#ccp",
            "DPsub probes",
            "DPsize probes",
        ],
    );
    t.note("Ono–Lohman-style counts: connected subgraphs, csg–cmp pairs, and");
    t.note("the probe counts of the DPsub/DPsize enumerators per topology.");
    for &n in &[4usize, 8, 12, 16] {
        for (name, scheme) in [
            ("chain", schemes::chain(n).1),
            ("cycle", schemes::cycle(n).1),
            ("star", schemes::star(n).1),
            ("clique", schemes::clique(n.min(12)).1),
        ] {
            let s = enumeration_stats(&scheme, scheme.full_set());
            t.row(vec![
                name.into(),
                scheme.len().to_string(),
                s.csg.to_string(),
                s.ccp.to_string(),
                s.dpsub_probes.to_string(),
                s.dpsize_probes.to_string(),
            ]);
        }
    }
    t
}

/// `G2-condition-frequency`: how often do random databases satisfy each
/// condition? Quantifies the paper's closing remark: "if the conditions
/// … seem restrictive, then … the assumptions underlying current query
/// optimizers are correspondingly restrictive."
pub fn condition_frequency() -> Table {
    let mut t = Table::new(
        "G2-condition-frequency",
        &[
            "generator",
            "topology",
            "n",
            "trials",
            "C1",
            "C1'",
            "C2",
            "C3",
            "C4",
        ],
    );
    t.note("Fraction of random databases satisfying each condition.");
    t.note("Constraint-aware generators (superkey, universal) hit their target");
    t.note("condition by construction; unconstrained ones rarely do.");
    let mut rng = StdRng::seed_from_u64(0x62);
    let trials = 60usize;
    for n in [3usize, 4] {
        for topology in ["chain", "star"] {
            for generator in ["uniform", "skewed", "superkey", "universal"] {
                let (mut c1, mut c1s, mut c2, mut c3, mut c4) = (0, 0, 0, 0, 0);
                for _ in 0..trials {
                    let (cat, scheme) = match topology {
                        "chain" => schemes::chain(n),
                        _ => schemes::star(n),
                    };
                    let cfg = DataConfig {
                        tuples_per_relation: 4,
                        domain: 6,
                        ensure_nonempty: true,
                    };
                    let db = match generator {
                        "uniform" => data::uniform(cat, scheme, &cfg, &mut rng),
                        "skewed" => data::skewed(cat, scheme, &cfg, &mut rng),
                        "superkey" => data::superkey(cat, scheme, &cfg, &mut rng).0,
                        _ => data::universal(cat, scheme, 8, 4, &mut rng),
                    };
                    let o = ExactOracle::new(&db);
                    let r = condition_report(&o);
                    c1 += r.c1 as usize;
                    c1s += r.c1_strict as usize;
                    c2 += r.c2 as usize;
                    c3 += r.c3 as usize;
                    c4 += r.c4 as usize;
                }
                let pct = |k: usize| format!("{:.0}%", 100.0 * k as f64 / trials as f64);
                t.row(vec![
                    generator.into(),
                    topology.into(),
                    n.to_string(),
                    trials.to_string(),
                    pct(c1),
                    pct(c1s),
                    pct(c2),
                    pct(c3),
                    pct(c4),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c3_rows_have_unit_ratio() {
        let t = linear_vs_bushy();
        for row in &t.rows {
            if row[0].contains("C3") {
                assert_eq!(row[4], "1.000", "Theorem 3 must force ratio 1: {row:?}");
            }
            // Linear can never beat bushy (space inclusion).
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio >= 0.999, "{row:?}");
        }
    }

    #[test]
    fn fanout_rows_show_a_gap() {
        let t = linear_vs_bushy();
        let gaps: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("exact/zigzag"))
            .map(|r| r[4].parse::<f64>().unwrap())
            .collect();
        assert!(!gaps.is_empty());
        assert!(
            gaps.iter().all(|&g| g > 1.5),
            "exact zig-zag rows must show the gap: {gaps:?}"
        );
        let syn: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0].contains("zigzag"))
            .map(|r| r[4].parse::<f64>().unwrap())
            .collect();
        assert!(
            syn.iter().all(|&g| g > 1.5),
            "zig-zag chains must show a sustained linear-vs-bushy gap: {syn:?}"
        );
    }

    #[test]
    fn objective_robustness_superkey_rows_are_perfect() {
        // Under C3 every join shrinks, so the linear product-free optimum
        // also minimizes the bottleneck (its largest step is the first
        // join, bounded by the largest input — as for any strategy).
        let t = objective_robustness();
        for row in &t.rows {
            if row[0] == "superkey" {
                let parts: Vec<&str> = row[5].split('/').collect();
                assert_eq!(parts[0], parts[1], "{row:?}");
            }
        }
    }

    #[test]
    fn estimation_quality_sane() {
        let t = estimation_quality();
        for row in &t.rows {
            let median: f64 = row[3].parse().unwrap();
            assert!(median >= 1.0, "q-error is ≥ 1 by definition: {row:?}");
            let mean_regret: f64 = row[6].parse().unwrap();
            assert!(mean_regret >= 1.0, "regret is ≥ 1 by definition: {row:?}");
            assert!(mean_regret < 50.0, "regret exploded: {row:?}");
        }
    }

    #[test]
    fn enumeration_complexity_orderings() {
        let t = enumeration_complexity();
        // For each n: chain ≤ cycle ≤ star ≤ clique in #csg.
        for &n in &["4", "8"] {
            let csg = |topo: &str| -> u64 {
                t.rows.iter().find(|r| r[0] == topo && r[1] == n).unwrap()[2]
                    .parse()
                    .unwrap()
            };
            // Robust orderings (cycle vs star flips at small n).
            assert!(csg("chain") <= csg("cycle"), "n={n}");
            assert!(csg("chain") <= csg("star"), "n={n}");
            assert!(csg("star") <= csg("clique"), "n={n}");
        }
    }

    #[test]
    fn superkey_generator_always_satisfies_c3_in_frequency_table() {
        let t = condition_frequency();
        for row in &t.rows {
            if row[0] == "superkey" {
                assert_eq!(row[7], "100%", "{row:?}");
            }
            if row[0] == "universal" {
                assert_eq!(row[8], "100%", "{row:?}");
            }
        }
    }
}
