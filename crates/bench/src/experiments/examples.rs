//! `E1`–`E5`: the paper's worked examples, regenerated from their literal
//! data tables.

use mjoin::{condition_report, optimize, Condition, ExactOracle, SearchSpace, Strategy};
use mjoin_cost::{CardinalityOracle, Database};
use mjoin_gen::data;

use crate::Table;

fn fmt_bool(b: bool) -> String {
    if b { "yes" } else { "no" }.to_string()
}

fn strategy_row(label: &str, s: &Strategy, db: &Database, oracle: &ExactOracle<'_>) -> Vec<String> {
    let mut costs = s.step_costs(oracle);
    costs.reverse(); // innermost-first reads like the paper's sums
    vec![
        label.to_string(),
        s.render(db.catalog(), db.scheme()),
        costs
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" + "),
        s.cost(oracle).to_string(),
        fmt_bool(s.is_linear()),
        fmt_bool(s.uses_cartesian(db.scheme())),
    ]
}

const STRATEGY_HEADERS: [&str; 6] = ["id", "strategy", "steps", "τ", "linear", "uses ×"];

/// Example 1 (§3): under `C1`, CP-avoiding strategies cost 570/570/549 but
/// the τ-optimum `(R₁ ⋈ R₃) ⋈ (R₂ ⋈ R₄)` costs 546 and uses Cartesian
/// products.
pub fn example1() -> Table {
    let db = data::paper_example1();
    let o = ExactOracle::new(&db);
    let mut t = Table::new("E1-example1", &STRATEGY_HEADERS);
    t.note("Paper Example 1: C1 holds, yet the τ-optimum uses Cartesian products.");
    t.note(format!(
        "conditions: C1={} C2={}",
        fmt_bool(mjoin::satisfies(&o, Condition::C1)),
        fmt_bool(mjoin::satisfies(&o, Condition::C2)),
    ));
    let s1 = Strategy::left_deep(&[0, 1, 2, 3]);
    let s2 = Strategy::left_deep(&[0, 1, 3, 2]);
    let s3 = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
    let s4 = Strategy::join(
        Strategy::join(Strategy::leaf(0), Strategy::leaf(2)).unwrap(),
        Strategy::join(Strategy::leaf(1), Strategy::leaf(3)).unwrap(),
    )
    .unwrap();
    for (label, s) in [("S1", &s1), ("S2", &s2), ("S3", &s3), ("S4", &s4)] {
        t.row(strategy_row(label, s, &db, &o));
    }
    let best = optimize(&o, db.scheme().full_set(), SearchSpace::All).unwrap();
    t.note(format!(
        "DP optimum = {} (paper: 546); best avoiding products = {} (paper: 549)",
        best.cost,
        optimize(&o, db.scheme().full_set(), SearchSpace::AvoidCartesian)
            .unwrap()
            .cost
    ));
    t
}

/// Example 2 (§3): `C1` and `C2` are independent.
pub fn example2() -> Table {
    let db1 = data::paper_example1();
    let db2 = data::paper_example2();
    let mut t = Table::new("E2-example2", &["database", "C1", "C2", "paper says"]);
    t.note("Paper Example 2: C1 ⇏ C2 (Example 1's database) and C2 ⇏ C1 (Example 2's).");
    let o1 = ExactOracle::new(&db1);
    let r1 = condition_report(&o1);
    t.row(vec![
        "Example 1".into(),
        fmt_bool(r1.c1),
        fmt_bool(r1.c2),
        "C1 ∧ ¬C2".into(),
    ]);
    let o2 = ExactOracle::new(&db2);
    let r2 = condition_report(&o2);
    t.row(vec![
        "Example 2".into(),
        fmt_bool(r2.c1),
        fmt_bool(r2.c2),
        "¬C1 ∧ C2".into(),
    ]);
    // The paper's arithmetic: τ(R1'⋈R2') = 7 < 8 = τ(R1'), and
    // τ(R2'⋈R1') = 7 > 6 = τ(R2'⋈R3').
    use mjoin::RelSet;
    t.note(format!(
        "τ(R1'⋈R2') = {} (paper 7), τ(R2'×R3') = {} (paper 6)",
        o2.tau(RelSet::from_indices([0, 1])),
        o2.tau(RelSet::from_indices([1, 2])),
    ));
    t
}

fn three_relation_example(id: &str, db: &Database, notes: &[&str]) -> Table {
    let o = ExactOracle::new(db);
    let mut t = Table::new(id, &STRATEGY_HEADERS);
    for n in notes {
        t.note(*n);
    }
    let r = condition_report(&o);
    t.note(format!(
        "conditions: C1={} C1'={} C2={} C3={}",
        fmt_bool(r.c1),
        fmt_bool(r.c1_strict),
        fmt_bool(r.c2),
        fmt_bool(r.c3),
    ));
    let s1 = Strategy::left_deep(&[0, 1, 2]); // (GS ⋈ SC) ⋈ CL
    let s2 = Strategy::join(
        Strategy::leaf(0),
        Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
    )
    .unwrap(); // GS ⋈ (SC ⋈ CL)
    let s3 = Strategy::left_deep(&[0, 2, 1]); // (GS ⋈ CL) ⋈ SC
    for (label, s) in [("S1", &s1), ("S2", &s2), ("S3", &s3)] {
        t.row(strategy_row(label, s, db, &o));
    }
    t
}

/// Example 3 (§4): all three strategies are τ-optimum; the linear
/// `(GS ⋈ CL) ⋈ SC` uses a Cartesian product although `C1` holds —
/// Theorem 1's `C1'` cannot be relaxed to `C1`.
pub fn example3() -> Table {
    let db = data::paper_example3();
    let mut t = three_relation_example(
        "E3-example3",
        &db,
        &[
            "Paper Example 3: every strategy's first step yields 4 tuples; all τ-optimum,",
            "including the product-using linear S3 — so C1' is necessary in Theorem 1.",
        ],
    );
    let o = ExactOracle::new(&db);
    let costs: Vec<u64> = [
        Strategy::left_deep(&[0, 1, 2]),
        Strategy::join(
            Strategy::leaf(0),
            Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
        )
        .unwrap(),
        Strategy::left_deep(&[0, 2, 1]),
    ]
    .iter()
    .map(|s| s.cost(&o))
    .collect();
    t.note(format!("all three strategies tie: τ = {:?}", costs));
    t
}

/// Example 4 (§4): `C2` holds but `C1` fails; the τ-optimum
/// `(GS ⋈ CL) ⋈ SC` (τ = 11) uses a Cartesian product — `C1` is necessary
/// in Theorem 2.
pub fn example4() -> Table {
    let db = data::paper_example4();
    three_relation_example(
        "E4-example4",
        &db,
        &[
            "Paper Example 4: τ(S1)=14, τ(S2)=12, τ(S3)=11; the optimum S3 uses a product,",
            "and C1 fails — product-avoiding optimizers miss the optimum without C1.",
        ],
    )
}

/// Example 5 (§4): `C1 ∧ C2` hold but `C3` fails; the unique τ-optimum
/// `(MS ⋈ SC) ⋈ (CI ⋈ ID)` is bushy — `C3` is necessary in Theorem 3.
pub fn example5() -> Table {
    let db = data::paper_example5();
    let o = ExactOracle::new(&db);
    let mut t = Table::new("E5-example5", &STRATEGY_HEADERS);
    t.note("Paper Example 5: the unique τ-optimum is bushy (no products), so a");
    t.note("linear-only optimizer misses it; C3 fails (τ(CI⋈ID) = 4 > 3 = τ(ID)).");
    let r = condition_report(&o);
    t.note(format!(
        "conditions: C1={} C2={} C3={}",
        fmt_bool(r.c1),
        fmt_bool(r.c2),
        fmt_bool(r.c3),
    ));
    let bushy = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap();
    t.row(strategy_row("S*", &bushy, &db, &o));
    let best_linear = optimize(&o, db.scheme().full_set(), SearchSpace::Linear).unwrap();
    t.row(strategy_row("best-linear", &best_linear.strategy, &db, &o));
    let best = optimize(&o, db.scheme().full_set(), SearchSpace::All).unwrap();
    t.note(format!(
        "DP optimum = {} (= S*), best linear = {} — strictly worse",
        best.cost, best_linear.cost
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_pins_paper_costs() {
        let t = example1();
        assert_eq!(t.row_by_key("S1").unwrap()[3], "570");
        assert_eq!(t.row_by_key("S2").unwrap()[3], "570");
        assert_eq!(t.row_by_key("S3").unwrap()[3], "549");
        assert_eq!(t.row_by_key("S4").unwrap()[3], "546");
        assert_eq!(t.row_by_key("S4").unwrap()[5], "yes"); // uses ×
    }

    #[test]
    fn example2_pins_independence() {
        let t = example2();
        assert_eq!(t.row_by_key("Example 1").unwrap()[1], "yes"); // C1
        assert_eq!(t.row_by_key("Example 1").unwrap()[2], "no"); // C2
        assert_eq!(t.row_by_key("Example 2").unwrap()[1], "no");
        assert_eq!(t.row_by_key("Example 2").unwrap()[2], "yes");
    }

    #[test]
    fn example3_all_tie() {
        let t = example3();
        for k in ["S1", "S2", "S3"] {
            let tau = &t.row_by_key(k).unwrap()[3];
            assert_eq!(t.row_by_key("S1").unwrap()[3], *tau);
        }
        assert_eq!(t.row_by_key("S3").unwrap()[5], "yes"); // S3 uses ×
    }

    #[test]
    fn example4_pins_paper_costs() {
        let t = example4();
        assert_eq!(t.row_by_key("S1").unwrap()[3], "14");
        assert_eq!(t.row_by_key("S2").unwrap()[3], "12");
        assert_eq!(t.row_by_key("S3").unwrap()[3], "11");
    }

    #[test]
    fn example5_bushy_beats_linear() {
        let t = example5();
        let bushy: u64 = t.row_by_key("S*").unwrap()[3].parse().unwrap();
        let linear: u64 = t.row_by_key("best-linear").unwrap()[3].parse().unwrap();
        assert!(bushy < linear);
        assert_eq!(t.row_by_key("S*").unwrap()[4], "no"); // not linear
        assert_eq!(t.row_by_key("S*").unwrap()[5], "no"); // no products
    }
}
