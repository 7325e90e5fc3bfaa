//! End-to-end pinning of the paper's five worked examples.
//!
//! Each example exists to show a precise fact about the theory; these
//! tests assert exactly those facts through the public façade, across
//! every crate in the workspace.

use mjoin::{analyze, optimize_database, SearchSpace, Strategy};
use mjoin_cost::ExactOracle;
use mjoin_gen::data;

/// Example 1: `C1` alone cannot keep the optimum inside the
/// product-avoiding subspace of an *unconnected* scheme.
#[test]
fn example1_c1_is_not_enough_when_unconnected() {
    let db = data::paper_example1();
    let a = analyze(&db).unwrap();
    assert!(!a.connected);
    assert!(a.conditions.c1);
    assert!(!a.conditions.c2);

    let best = optimize_database(&db, SearchSpace::All).unwrap();
    let avoiding = optimize_database(&db, SearchSpace::AvoidCartesian).unwrap();
    assert_eq!(best.cost, 546);
    assert_eq!(avoiding.cost, 549);
    assert!(best.cost < avoiding.cost);
    assert!(best.strategy.uses_cartesian(db.scheme()));
    // The paper's S4 shape is the optimum: (R1 ⋈ R3) ⋈ (R2 ⋈ R4).
    let s4 = Strategy::join(
        Strategy::join(Strategy::leaf(0), Strategy::leaf(2)).unwrap(),
        Strategy::join(Strategy::leaf(1), Strategy::leaf(3)).unwrap(),
    )
    .unwrap();
    let o = ExactOracle::new(&db);
    assert_eq!(s4.cost(&o), best.cost);
}

/// Example 2: the conditions `C1` and `C2` are logically independent.
#[test]
fn example2_conditions_are_independent() {
    let a1 = analyze(&data::paper_example1()).unwrap();
    assert!(a1.conditions.c1 && !a1.conditions.c2);
    let a2 = analyze(&data::paper_example2()).unwrap();
    assert!(!a2.conditions.c1 && a2.conditions.c2);
}

/// Example 3: with `C1` but not `C1'`, a τ-optimum linear strategy may use
/// a Cartesian product — Theorem 1's strictness is necessary.
#[test]
fn example3_theorem1_needs_strictness() {
    let db = data::paper_example3();
    let a = analyze(&db).unwrap();
    assert!(a.conditions.c1 && !a.conditions.c1_strict);
    assert!(!a.theorem1.preconditions_hold);
    assert!(
        !a.theorem1.conclusion_holds,
        "a CP-using linear optimum exists"
    );
    assert!(a.theorem1.implication_holds());

    // All three strategies tie at τ = 7 (intermediate 4 + final 3).
    let o = ExactOracle::new(&db);
    for s in mjoin_strategy::enumerate_all(db.scheme().full_set()) {
        assert_eq!(s.cost(&o), 7, "{}", s.render(db.catalog(), db.scheme()));
    }
}

/// Example 4: without `C1`, the product-avoiding subspace loses the
/// optimum — Theorem 2's `C1` is necessary.
#[test]
fn example4_theorem2_needs_c1() {
    let db = data::paper_example4();
    let a = analyze(&db).unwrap();
    assert!(a.conditions.c2 && !a.conditions.c1);
    assert!(!a.theorem2.conclusion_holds);
    let best = optimize_database(&db, SearchSpace::All).unwrap();
    let nocp = optimize_database(&db, SearchSpace::NoCartesian).unwrap();
    assert_eq!((best.cost, nocp.cost), (11, 12));
}

/// Example 5: with `C1 ∧ C2` but not `C3`, the linear subspace loses the
/// optimum — Theorem 3's `C3` is necessary — while Theorem 2 still holds.
#[test]
fn example5_theorem3_needs_c3() {
    let db = data::paper_example5();
    let a = analyze(&db).unwrap();
    assert!(a.conditions.c1 && a.conditions.c2 && !a.conditions.c3);
    assert!(a.theorem2.preconditions_hold && a.theorem2.conclusion_holds);
    assert!(!a.theorem3.preconditions_hold && !a.theorem3.conclusion_holds);

    // The optimum is unique and bushy: every linear strategy is worse.
    let o = ExactOracle::new(&db);
    let best = optimize_database(&db, SearchSpace::All).unwrap();
    let mut optima = 0;
    for s in mjoin_strategy::enumerate_all(db.scheme().full_set()) {
        let c = s.cost(&o);
        assert!(c >= best.cost);
        if c == best.cost {
            optima += 1;
            assert!(!s.is_linear(), "the optimum must be bushy");
            assert!(!s.uses_cartesian(db.scheme()));
        }
    }
    assert_eq!(optima, 1, "the paper says the τ-optimum is unique");
}

/// The safe-search-space recommendation is sound on every example: the
/// recommended subspace always contains a global optimum.
#[test]
fn safe_search_space_is_sound_across_examples() {
    for db in [
        data::paper_example1(),
        data::paper_example2(),
        data::paper_example3(),
        data::paper_example4(),
        data::paper_example5(),
    ] {
        let a = analyze(&db).unwrap();
        let safe = optimize_database(&db, a.safe_search_space()).unwrap();
        let best = optimize_database(&db, SearchSpace::All).unwrap();
        assert_eq!(safe.cost, best.cost);
    }
}

/// The experiment harness's tables pin the same numbers end to end.
#[test]
fn experiment_tables_match_paper_numbers() {
    let e1 = mjoin_bench::experiments::examples::example1();
    assert_eq!(e1.row_by_key("S4").unwrap()[3], "546");
    let e4 = mjoin_bench::experiments::examples::example4();
    assert_eq!(e4.row_by_key("S3").unwrap()[3], "11");
    let e0 = mjoin_bench::experiments::counting::run();
    let n4 = e0.row_by_key("4").unwrap();
    assert_eq!(n4[1], "15");
    assert_eq!(n4[3], "12");
    assert_eq!(n4[5], "3");
}
