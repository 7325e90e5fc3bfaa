//! Executable verifiers for the paper's Lemmas 4–5 and Theorems 1–3.
//!
//! For a concrete database each verifier checks *both* sides of the
//! theorem: do the preconditions hold, and does the conclusion hold? The
//! theorems assert `preconditions ⇒ conclusion`; the experiments confirm
//! the implication across thousands of generated databases, and the
//! paper's Examples 3–5 show each precondition is necessary (the
//! conclusion fails without it).

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{Guard, MjoinError};
use mjoin_optimizer::{optimize, try_optimize, SearchSpace};
use mjoin_strategy::{count_all_strategies, enumerate_linear};

use crate::conditions::{satisfies, try_satisfies, Condition};

/// Largest scheme whose Theorem 1 conclusion is checked: the check
/// enumerates all `n!` linear strategies.
pub const THEOREM1_MAX_RELS: usize = 8;

/// Largest scheme the analysis runs the `O(3ⁿ)` full-space DP on: the
/// Theorem 2 and 3 checks compare against its optimum. It takes about
/// 0.2 s at `n = 14` in a release build (a 14-chain, counted τ) and about
/// three times as long per further relation.
pub const FULL_SPACE_DP_MAX_RELS: usize = 14;

/// The outcome of checking one theorem on one database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TheoremReport {
    /// Do the theorem's hypotheses hold (connectedness, `R_D ≠ φ`, and the
    /// relevant condition)?
    pub preconditions_hold: bool,
    /// Does the conclusion hold for this database?
    pub conclusion_holds: bool,
    /// The conclusion held vacuously (e.g. no linear strategy is globally
    /// τ-optimum, for Theorem 1).
    pub vacuous: bool,
    /// `Some(max)` when the scheme has more than `max` relations, the most
    /// this check can afford: the conclusion was then not checked, and
    /// `conclusion_holds` and `vacuous` are `false`.
    pub beyond_reach: Option<usize>,
}

impl TheoremReport {
    /// The implication the theorem asserts: preconditions ⇒ conclusion.
    /// An unchecked conclusion confirms nothing.
    pub fn implication_holds(&self) -> bool {
        !self.preconditions_hold || self.conclusion_holds
    }

    /// The report for a scheme of `n > max` relations: preconditions only.
    fn unchecked(preconditions_hold: bool, max: usize) -> TheoremReport {
        TheoremReport {
            preconditions_hold,
            conclusion_holds: false,
            vacuous: false,
            beyond_reach: Some(max),
        }
    }
}

fn common_preconditions<O: CardinalityOracle>(oracle: &O) -> bool {
    let full = oracle.scheme().full_set();
    oracle.scheme().connected(full) && !oracle.result_is_empty()
}

/// **Theorem 1.** If `𝐃` is connected, `R_D ≠ φ` and `C1'` holds, then a
/// linear strategy that is (globally) τ-optimum does not use Cartesian
/// products.
///
/// The conclusion is checked by enumerating every linear strategy whose
/// cost equals the global optimum (found by DP) and testing each for
/// product use; `n!` enumeration limits this to small schemes, and above
/// [`THEOREM1_MAX_RELS`] the report leaves the conclusion unchecked.
pub fn theorem1<O: CardinalityOracle>(oracle: &O) -> TheoremReport {
    try_theorem1(oracle, &Guard::unlimited()).expect("an unlimited guard cannot trip")
}

/// [`theorem1`] under a budget: the DP and the enumeration stop with the
/// guard's typed error.
pub(crate) fn try_theorem1<O: CardinalityOracle>(
    oracle: &O,
    guard: &Guard,
) -> Result<TheoremReport, MjoinError> {
    let preconditions_hold =
        common_preconditions(oracle) && try_satisfies(oracle, Condition::C1Strict, guard)?;
    let full = oracle.scheme().full_set();
    if full.len() > THEOREM1_MAX_RELS {
        return Ok(TheoremReport::unchecked(
            preconditions_hold,
            THEOREM1_MAX_RELS,
        ));
    }
    let optimum = full_space_optimum(oracle, guard)?;
    let mut vacuous = true;
    let mut conclusion_holds = true;
    for s in enumerate_linear(full) {
        guard.checkpoint()?;
        if s.try_cost(oracle)? == optimum {
            vacuous = false;
            if s.uses_cartesian(oracle.scheme()) {
                conclusion_holds = false;
                break;
            }
        }
    }
    Ok(TheoremReport {
        preconditions_hold,
        conclusion_holds,
        vacuous,
        beyond_reach: None,
    })
}

/// The τ-optimum over every strategy, by the `O(3ⁿ)` bushy DP.
fn full_space_optimum<O: CardinalityOracle>(oracle: &O, guard: &Guard) -> Result<u64, MjoinError> {
    let full = oracle.scheme().full_set();
    match try_optimize(oracle, full, SearchSpace::All, guard)? {
        Some(plan) => Ok(plan.cost),
        None => Err(MjoinError::Internal("the full space is never empty".into())),
    }
}

/// Theorems 2 and 3: does the best strategy in `space` reach the
/// full-space optimum? An empty `space` (an unconnected scheme has no
/// product-free strategy) does not.
fn try_space_reaches_optimum<O: CardinalityOracle>(
    oracle: &O,
    guard: &Guard,
    preconditions_hold: bool,
    space: SearchSpace,
) -> Result<TheoremReport, MjoinError> {
    let full = oracle.scheme().full_set();
    if full.len() > FULL_SPACE_DP_MAX_RELS {
        return Ok(TheoremReport::unchecked(
            preconditions_hold,
            FULL_SPACE_DP_MAX_RELS,
        ));
    }
    let optimum = full_space_optimum(oracle, guard)?;
    let best = try_optimize(oracle, full, space, guard)?;
    Ok(TheoremReport {
        preconditions_hold,
        conclusion_holds: best.is_some_and(|plan| plan.cost == optimum),
        vacuous: false,
        beyond_reach: None,
    })
}

/// **Theorem 2.** If `𝐃` is connected, `R_D ≠ φ` and `C1 ∧ C2` hold, then
/// some τ-optimum strategy uses no Cartesian products.
///
/// Checked by comparing the DP optimum over the full space with the DP
/// optimum over the product-free space, on up to [`FULL_SPACE_DP_MAX_RELS`]
/// relations.
pub fn theorem2<O: CardinalityOracle>(oracle: &O) -> TheoremReport {
    try_theorem2(oracle, &Guard::unlimited()).expect("an unlimited guard cannot trip")
}

/// [`theorem2`] under a budget.
pub(crate) fn try_theorem2<O: CardinalityOracle>(
    oracle: &O,
    guard: &Guard,
) -> Result<TheoremReport, MjoinError> {
    let preconditions_hold = common_preconditions(oracle)
        && try_satisfies(oracle, Condition::C1, guard)?
        && try_satisfies(oracle, Condition::C2, guard)?;
    try_space_reaches_optimum(oracle, guard, preconditions_hold, SearchSpace::NoCartesian)
}

/// **Theorem 3.** If `𝐃` is connected, `R_D ≠ φ` and `C3` holds, then some
/// τ-optimum strategy is linear *and* uses no Cartesian products. Checked
/// like [`theorem2`], against the linear product-free space.
pub fn theorem3<O: CardinalityOracle>(oracle: &O) -> TheoremReport {
    try_theorem3(oracle, &Guard::unlimited()).expect("an unlimited guard cannot trip")
}

/// [`theorem3`] under a budget.
pub(crate) fn try_theorem3<O: CardinalityOracle>(
    oracle: &O,
    guard: &Guard,
) -> Result<TheoremReport, MjoinError> {
    let preconditions_hold =
        common_preconditions(oracle) && try_satisfies(oracle, Condition::C3, guard)?;
    try_space_reaches_optimum(
        oracle,
        guard,
        preconditions_hold,
        SearchSpace::LinearNoCartesian,
    )
}

/// **Lemma 4** (conclusion): some τ-optimum strategy evaluates the
/// database's components individually. Checked by comparing the global DP
/// optimum with the best strategy constrained to evaluate components
/// individually (per-component optima plus the cheapest product
/// combination).
pub fn lemma4_conclusion<O: CardinalityOracle>(oracle: &O) -> bool {
    let full = oracle.scheme().full_set();
    let optimum = optimize(oracle, full, SearchSpace::All)
        .expect("the full space is never empty")
        .cost;
    // Best strategy evaluating components individually: solve each
    // component in the *full* space, then combine with the product DP used
    // by AvoidCartesian — except components may internally use products
    // here, so combine manually.
    let comps = oracle.scheme().components(full);
    if comps.len() == 1 {
        return true; // trivially: every strategy evaluates the one component
    }
    // Per-component optima.
    let mut per_comp_cost = 0u64;
    for &c in &comps {
        per_comp_cost = per_comp_cost.saturating_add(
            optimize(oracle, c, SearchSpace::All)
                .expect("the full space is never empty")
                .cost,
        );
    }
    // Cheapest way to multiply the component results: DP over component
    // subsets with multiplicative sizes (identical to the AvoidCartesian
    // combination step).
    let sizes: Vec<u64> = comps.iter().map(|&c| oracle.tau(c)).collect();
    let k = comps.len();
    let mut memo = std::collections::HashMap::<u64, u64>::new();
    fn combo(mask: u64, sizes: &[u64], memo: &mut std::collections::HashMap<u64, u64>) -> u64 {
        if mask.count_ones() <= 1 {
            return 0;
        }
        if let Some(&c) = memo.get(&mask) {
            return c;
        }
        let own: u64 = (0..sizes.len())
            .filter(|&i| mask & (1 << i) != 0)
            .fold(1u64, |acc, i| acc.saturating_mul(sizes[i]));
        let lowest = mask & mask.wrapping_neg();
        let mut best = u64::MAX;
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            if sub & lowest != 0 && sub != mask {
                let c = combo(sub, sizes, memo).saturating_add(combo(mask & !sub, sizes, memo));
                best = best.min(c);
            }
            sub = (sub - 1) & mask;
        }
        let total = own.saturating_add(best);
        memo.insert(mask, total);
        total
    }
    let combo_cost = combo((1u64 << k) - 1, &sizes, &mut memo);
    per_comp_cost.saturating_add(combo_cost) == optimum
}

/// **Lemma 5**: `C3 ⇒ C1` whenever `R_D ≠ φ`. Returns `true` when the
/// implication is confirmed on this database (vacuously if `C3` fails).
pub fn lemma5_check<O: CardinalityOracle>(oracle: &O) -> bool {
    if oracle.result_is_empty() || !satisfies(oracle, Condition::C3) {
        return true;
    }
    satisfies(oracle, Condition::C1)
}

/// **Lemma 1**: if `C1` holds and `R_D ≠ φ`, the `C1` inequality extends
/// to *arbitrary* (possibly unconnected) `E` and `E₂` — only `E₁` needs
/// connectivity. Returns `true` when the implication is confirmed
/// (vacuously if the hypotheses fail). `Lemma 1'` is the same statement
/// with strict inequalities, checked when `C1'` holds.
///
/// Exponential in `|D|` (it quantifies over arbitrary subset triples);
/// intended for `n ≲ 6`.
pub fn lemma1_check<O: CardinalityOracle>(oracle: &O) -> bool {
    if oracle.result_is_empty() {
        return true;
    }
    let c1 = satisfies(oracle, Condition::C1);
    let c1_strict = satisfies(oracle, Condition::C1Strict);
    if !c1 {
        return true; // hypothesis fails: vacuous
    }
    let full = oracle.scheme().full_set();
    let all: Vec<_> = full.subsets().filter(|s| !s.is_empty()).collect();
    let connected: Vec<_> = oracle.scheme().connected_subsets(full);
    for &e in &all {
        for &e1 in &connected {
            if !e.is_disjoint(e1) || !oracle.scheme().linked(e, e1) {
                continue;
            }
            let linked_cost = oracle.tau_join(e, e1);
            for &e2 in &all {
                if !e.is_disjoint(e2) || !e1.is_disjoint(e2) || oracle.scheme().linked(e, e2) {
                    continue;
                }
                let product_cost = oracle.tau_join(e, e2);
                if linked_cost > product_cost {
                    return false; // Lemma 1 violated
                }
                if c1_strict && linked_cost >= product_cost {
                    return false; // Lemma 1' violated
                }
            }
        }
    }
    true
}

/// **Lemma 6** (conclusion): for a connected database satisfying `C3`,
/// some *linear* product-free strategy is τ-optimum **among product-free
/// strategies**. Checked by comparing the two DP optima. Returns `true`
/// vacuously when the hypotheses fail.
pub fn lemma6_check<O: CardinalityOracle>(oracle: &O) -> bool {
    let full = oracle.scheme().full_set();
    if !oracle.scheme().connected(full) || !satisfies(oracle, Condition::C3) {
        return true;
    }
    let Some(nocp) = optimize(oracle, full, SearchSpace::NoCartesian) else {
        return true;
    };
    match optimize(oracle, full, SearchSpace::LinearNoCartesian) {
        Some(lin) => lin.cost == nocp.cost,
        None => false,
    }
}

/// Upper bound used by the verification experiments: enumerating all
/// strategies for `n` relations costs `(2n−3)!!` — callers should keep
/// `n ≤ 8` for enumeration-based checks.
pub fn enumeration_budget(n: usize) -> u64 {
    count_all_strategies(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_gen::data;

    #[test]
    fn theorem1_on_example3_shows_necessity_of_c1_strict() {
        // Example 3: C1 holds but C1' fails, and a linear τ-optimum DOES
        // use a Cartesian product — so Theorem 1's conclusion fails but the
        // implication is intact (preconditions are false).
        let db = data::paper_example3();
        let o = ExactOracle::new(&db);
        let r = theorem1(&o);
        assert!(!r.preconditions_hold, "C1' fails on Example 3");
        assert!(!r.conclusion_holds, "a CP-using linear optimum exists");
        assert!(r.implication_holds());
    }

    #[test]
    fn theorem1_holds_on_strict_database() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 30]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1], vec![7, 2], vec![8, 3]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let r = theorem1(&o);
        assert!(r.preconditions_hold);
        assert!(r.conclusion_holds);
    }

    #[test]
    fn theorem2_on_example4_shows_necessity_of_c1() {
        // Example 4: C2 holds, C1 fails; the unique τ-optimum uses a
        // Cartesian product, so the conclusion fails.
        let db = data::paper_example4();
        let o = ExactOracle::new(&db);
        let r = theorem2(&o);
        assert!(!r.preconditions_hold);
        assert!(!r.conclusion_holds);
        assert!(r.implication_holds());
        // And pin the paper's arithmetic: τ(S1)=14, τ(S2)=12, τ(S3)=11.
        use mjoin_strategy::Strategy;
        let s1 = Strategy::left_deep(&[0, 1, 2]);
        let s2 = Strategy::join(
            Strategy::leaf(0),
            Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
        )
        .unwrap();
        let s3 = Strategy::left_deep(&[0, 2, 1]);
        assert_eq!(s1.cost(&o), 14);
        assert_eq!(s2.cost(&o), 12);
        assert_eq!(s3.cost(&o), 11);
        assert!(s3.uses_cartesian(db.scheme()));
    }

    #[test]
    fn theorem3_on_example5_shows_necessity_of_c3() {
        // Example 5: C1 ∧ C2 hold, C3 fails; the unique τ-optimum
        // (MS ⋈ SC) ⋈ (CI ⋈ ID) is bushy.
        let db = data::paper_example5();
        let o = ExactOracle::new(&db);
        let r = theorem3(&o);
        assert!(!r.preconditions_hold, "C3 fails on Example 5");
        assert!(!r.conclusion_holds, "only a bushy strategy is optimal");
        // But Theorem 2's preconditions DO hold, and its conclusion too:
        let r2 = theorem2(&o);
        assert!(r2.preconditions_hold);
        assert!(r2.conclusion_holds);
        // The optimum is the paper's bushy strategy.
        use mjoin_strategy::Strategy;
        let bushy =
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
        let opt = optimize(&o, db.scheme().full_set(), SearchSpace::All).unwrap();
        assert_eq!(opt.cost, bushy.cost(&o));
        assert!(!bushy.uses_cartesian(db.scheme()));
    }

    #[test]
    fn theorem3_holds_on_superkey_database() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(33);
        for n in 2..6 {
            let (cat, d) = mjoin_gen::schemes::chain(n);
            let cfg = mjoin_gen::data::DataConfig {
                tuples_per_relation: 4,
                domain: 8,
                ensure_nonempty: true,
            };
            let (db, _) = data::superkey(cat, d, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let r = theorem3(&o);
            assert!(r.preconditions_hold, "superkey joins give C3 (n={n})");
            assert!(r.conclusion_holds, "n={n}");
        }
    }

    #[test]
    fn lemma4_on_example1() {
        // Example 1 satisfies C1 but not C2 — yet Lemma 4's conclusion may
        // still be checked: here the τ-optimum S4 joins across components,
        // and indeed NO optimum evaluates components individually.
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        assert!(!lemma4_conclusion(&o));
    }

    #[test]
    fn lemma4_holds_with_c2() {
        // Two superkey-joined components: Lemma 4 applies.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("XY", vec![vec![0, 0], vec![1, 1]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C1));
        assert!(satisfies(&o, Condition::C2));
        assert!(lemma4_conclusion(&o));
    }

    #[test]
    fn lemma5_on_examples() {
        for db in [
            data::paper_example1(),
            data::paper_example3(),
            data::paper_example5(),
        ] {
            let o = ExactOracle::new(&db);
            assert!(lemma5_check(&o));
        }
    }

    #[test]
    fn checks_beyond_their_reach_report_unchecked_and_trip_typed() {
        use mjoin_guard::Budget;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (catalog, scheme) = mjoin_gen::schemes::chain(THEOREM1_MAX_RELS + 1);
        let db = data::uniform(catalog, scheme, &data::DataConfig::default(), &mut rng);
        let o = ExactOracle::new(&db);
        let t1 = theorem1(&o);
        assert_eq!(t1.beyond_reach, Some(THEOREM1_MAX_RELS));
        assert!(!t1.conclusion_holds && !t1.vacuous);
        // Theorem 2 still reaches nine relations.
        assert_eq!(theorem2(&o).beyond_reach, None);
        // Under a budget, a tripping check is the guard's typed error.
        let guard = Guard::new(Budget::unlimited().with_max_memo_entries(2));
        let err = try_theorem2(&ExactOracle::new(&db), &guard).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn enumeration_budget_matches_counts() {
        assert_eq!(enumeration_budget(4), 15);
        assert_eq!(enumeration_budget(8), 135135);
    }

    #[test]
    fn lemma1_extends_c1_on_examples() {
        // Example 1 satisfies C1; Lemma 1 extends the inequality to
        // unconnected E/E2 — confirmed by exhaustive check.
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C1));
        assert!(lemma1_check(&o));
        // Example 3 satisfies C1 (not C1'): still confirmed.
        let db3 = data::paper_example3();
        let o3 = ExactOracle::new(&db3);
        assert!(lemma1_check(&o3));
        // Example 4 violates C1: vacuous.
        let db4 = data::paper_example4();
        let o4 = ExactOracle::new(&db4);
        assert!(lemma1_check(&o4));
    }

    #[test]
    fn lemma1_on_random_c1_databases() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(101);
        let mut confirmed = 0;
        for _ in 0..30 {
            let (cat, scheme) = mjoin_gen::schemes::random_connected(4, 1, &mut rng);
            let cfg = mjoin_gen::data::DataConfig {
                tuples_per_relation: 3,
                domain: 4,
                ensure_nonempty: true,
            };
            let db = mjoin_gen::data::uniform(cat, scheme, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            assert!(lemma1_check(&o));
            if !o.result_is_empty() && satisfies(&o, Condition::C1) {
                confirmed += 1;
            }
        }
        assert!(confirmed > 0, "the check must not be vacuous everywhere");
    }

    #[test]
    fn lemma6_on_superkey_databases() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(202);
        for n in 2..=5 {
            let (cat, scheme) = mjoin_gen::schemes::chain(n);
            let cfg = mjoin_gen::data::DataConfig {
                tuples_per_relation: 4,
                domain: 8,
                ensure_nonempty: true,
            };
            let (db, _) = data::superkey(cat, scheme, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            assert!(satisfies(&o, Condition::C3));
            assert!(lemma6_check(&o), "n={n}");
        }
        // Example 5 violates C3: vacuous.
        let db5 = data::paper_example5();
        let o5 = ExactOracle::new(&db5);
        assert!(lemma6_check(&o5));
    }
}
