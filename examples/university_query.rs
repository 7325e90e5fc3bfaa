//! The paper's own running scenario: university databases (Examples 3–5).
//!
//! Walks through the three counterexamples that show each theorem's
//! hypothesis is necessary — the heart of the paper's Section 4.
//!
//! ```text
//! cargo run --example university_query
//! ```

use mjoin::{analyze, optimize_database, ExactOracle, SearchSpace, Strategy};
use mjoin_gen::data;

fn show(db: &mjoin::Database, title: &str, strategies: &[(&str, Strategy)]) {
    println!("=== {title} ===");
    let oracle = ExactOracle::new(db);
    for (label, s) in strategies {
        println!(
            "  {label}: {}  τ = {}  (linear: {}, uses ×: {})",
            s.render(db.catalog(), db.scheme()),
            s.cost(&oracle),
            s.is_linear(),
            s.uses_cartesian(db.scheme()),
        );
    }
    let a = analyze(db).unwrap();
    println!(
        "  conditions: C1={} C1'={} C2={} C3={}",
        a.conditions.c1, a.conditions.c1_strict, a.conditions.c2, a.conditions.c3
    );
    let best = optimize_database(db, SearchSpace::All).expect("full space");
    println!(
        "  optimum: {}  τ = {}",
        best.strategy.render(db.catalog(), db.scheme()),
        best.cost
    );
    println!();
}

fn main() {
    // Example 3: "Do athletes avoid courses requiring laboratory work?"
    // All three strategies tie; one of them is a linear optimum that uses
    // a Cartesian product — harmless here only because C1' fails.
    let db3 = data::paper_example3();
    show(
        &db3,
        "Example 3 — games ⋈ enrolment ⋈ laboratories",
        &[
            ("S1", Strategy::left_deep(&[0, 1, 2])),
            (
                "S2",
                Strategy::join(
                    Strategy::leaf(0),
                    Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
                )
                .unwrap(),
            ),
            ("S3", Strategy::left_deep(&[0, 2, 1])),
        ],
    );

    // Example 4: same schema, different state. Now the *unique* optimum
    // uses a Cartesian product: an optimizer that refuses products returns
    // a strictly worse plan. The reason: C1 fails.
    let db4 = data::paper_example4();
    show(
        &db4,
        "Example 4 — the optimum uses a Cartesian product",
        &[
            ("S1", Strategy::left_deep(&[0, 1, 2])),
            (
                "S2",
                Strategy::join(
                    Strategy::leaf(0),
                    Strategy::join(Strategy::leaf(1), Strategy::leaf(2)).unwrap(),
                )
                .unwrap(),
            ),
            ("S3", Strategy::left_deep(&[0, 2, 1])),
        ],
    );
    let avoiding = optimize_database(&db4, SearchSpace::NoCartesian).expect("connected");
    let best = optimize_database(&db4, SearchSpace::All).expect("full space");
    println!(
        "  a product-avoiding optimizer pays τ = {} instead of {} — {}% worse\n",
        avoiding.cost,
        best.cost,
        100 * (avoiding.cost - best.cost) / best.cost
    );

    // Example 5: "How is each department serving the needs of various
    // majors?" — four relations; the unique optimum is bushy, so a
    // linear-only optimizer (System R style) must miss it. The reason: C3
    // fails, so Theorem 3 does not apply.
    let db5 = data::paper_example5();
    show(
        &db5,
        "Example 5 — only a bushy strategy is optimal",
        &[(
            "S*",
            Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::left_deep(&[2, 3])).unwrap(),
        )],
    );
    let linear = optimize_database(&db5, SearchSpace::LinearNoCartesian).expect("connected");
    let best = optimize_database(&db5, SearchSpace::All).expect("full space");
    println!(
        "  best linear product-free plan: {} τ = {} vs optimum {}",
        linear.strategy.render(db5.catalog(), db5.scheme()),
        linear.cost,
        best.cost
    );
    assert!(linear.cost > best.cost);
    println!("  → the linear-only optimizer is provably suboptimal here.");
}
