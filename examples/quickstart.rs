//! Quickstart: analyze a database against the paper and pick a plan.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mjoin::{analyze, optimize_database, Database, SearchSpace};

fn main() {
    // A three-way foreign-key join: orders reference customers (by C) and
    // products (by P). Shared attributes are keys on the referenced side
    // *and* the referencing side is deduplicated per key here, so every
    // join is on a superkey — the paper's C3 hypothesis.
    // Rows are listed in ascending-attribute order: the catalog interns
    // C, R, O, T in first-appearance order, so {O, C} renders as CO with
    // the customer column first.
    let db = Database::from_specs(&[
        // customer(C, region R)
        ("CR", vec![vec![1, 10], vec![2, 10], vec![3, 20]]),
        // order(customer C, order O) — one order per customer here
        ("CO", vec![vec![1, 100], vec![2, 101], vec![3, 102]]),
        // shipment(order O, depot T) — one shipment per order
        ("OT", vec![vec![100, 7], vec![101, 7], vec![102, 8]]),
    ])
    .expect("well-formed database");

    println!("database scheme:");
    for (i, s) in db.scheme().schemes().iter().enumerate() {
        println!(
            "  R{i} = {}  ({} tuples)",
            db.catalog().render(*s),
            db.state(i).tau()
        );
    }
    println!();

    // What does the paper license for this database?
    let analysis = analyze(&db).unwrap();
    println!("connected scheme: {}", analysis.connected);
    println!("R_D nonempty:     {}", analysis.result_nonempty);
    println!("acyclicity:       {:?}", analysis.acyclicity);
    println!(
        "conditions:       C1={} C1'={} C2={} C3={} C4={}",
        analysis.conditions.c1,
        analysis.conditions.c1_strict,
        analysis.conditions.c2,
        analysis.conditions.c3,
        analysis.conditions.c4,
    );
    println!(
        "theorem 3:        preconditions={} conclusion={}",
        analysis.theorem3.preconditions_hold, analysis.theorem3.conclusion_holds
    );
    let safe = analysis.safe_search_space();
    println!("safe search space: {safe:?}");
    println!();

    // Optimize within the licensed subspace and against the full space.
    let restricted = optimize_database(&db, safe).expect("safe space is nonempty");
    let global = optimize_database(&db, SearchSpace::All).expect("full space");
    println!(
        "restricted optimum: {}  τ = {}",
        restricted.strategy.render(db.catalog(), db.scheme()),
        restricted.cost
    );
    println!(
        "global optimum:     {}  τ = {}",
        global.strategy.render(db.catalog(), db.scheme()),
        global.cost
    );
    assert_eq!(
        restricted.cost, global.cost,
        "Theorem 3: the restricted search still found a global optimum"
    );
    println!("\nrestricted search found the global optimum — exactly what Theorem 3 promises.");
}
