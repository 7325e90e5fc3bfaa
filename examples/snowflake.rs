//! A snowflake schema end to end: sales facts with normalized dimensions.
//!
//! This is the paper's Example 5 phenomenon in a realistic schema: each
//! dimension chain (product → category, customer → city) reduces
//! independently, so the τ-optimum joins the two dimension subtrees
//! *bushily* around the fact table — and every linear plan (the System R
//! restriction) is strictly worse. The analyzer explains why: `C2` holds
//! (dimension keys make every join lossless on one side) but `C3` fails
//! (fact-side foreign keys repeat), so Theorem 3 does not apply and the
//! linear restriction is unsafe.
//!
//! ```text
//! cargo run --release --example snowflake
//! ```

use mjoin::{analyze, optimize, Database, ExactOracle, SearchSpace, SyntheticOracle};

fn main() {
    // sales(S: sale id, P: product, U: customer)
    // product(P, G: category)    category(G, M: margin class)
    // customer(U, Y: city)       city(Y, Z: region)
    let db = Database::from_specs(&[
        (
            "SPU",
            vec![
                vec![1, 10, 100],
                vec![2, 10, 101],
                vec![3, 11, 100],
                vec![4, 12, 102],
                vec![5, 11, 101],
                vec![6, 10, 100],
            ],
        ),
        ("PG", vec![vec![10, 7], vec![11, 7], vec![12, 8]]),
        ("GM", vec![vec![7, 1], vec![8, 2]]),
        ("UY", vec![vec![100, 50], vec![101, 51], vec![102, 50]]),
        ("YZ", vec![vec![50, 0], vec![51, 1]]),
    ])
    .expect("well-formed snowflake");

    println!("snowflake: sales ⋈ product ⋈ category ⋈ customer ⋈ city");
    for (i, s) in db.scheme().schemes().iter().enumerate() {
        println!(
            "  {} — {} tuples",
            db.catalog().render(*s),
            db.state(i).tau()
        );
    }

    // The analyzer's verdict: C2 but not C3 — fact-side foreign keys
    // repeat, so joins shrink only the dimension side. Theorem 3 is out;
    // nothing licenses the linear restriction.
    let a = analyze(&db).unwrap();
    println!(
        "\nconditions: C1={} C2={} C3={}  →  safe space: {:?}",
        a.conditions.c1,
        a.conditions.c2,
        a.conditions.c3,
        a.safe_search_space()
    );
    assert!(a.conditions.c2, "dimension keys give C2");
    assert!(!a.conditions.c3, "fact-side FKs repeat: C3 fails");

    let exact = ExactOracle::new(&db);
    let full = db.scheme().full_set();
    let best = optimize(&exact, full, SearchSpace::All).expect("full space");
    let linear = optimize(&exact, full, SearchSpace::Linear).expect("linear space");
    println!("\noptimum (bushy):\n{}", best.explain(db.catalog(), &exact));
    println!("\nbest linear:\n{}", linear.explain(db.catalog(), &exact));
    assert!(best.strategy.is_bushy(), "the snowflake optimum is bushy");
    assert!(
        linear.cost > best.cost,
        "the linear restriction pays a real premium here"
    );
    println!(
        "\nlinear-only optimizer premium: {:.2}× ({} vs {})",
        linear.cost as f64 / best.cost as f64,
        linear.cost,
        best.cost
    );

    // Even though Theorem 2's C1 precondition fails (tiny dimensions make
    // some products cheap), its conclusion happens to hold here: the
    // product-free optimum ties the global one. Sufficient ≠ necessary.
    let nocp = optimize(&exact, full, SearchSpace::NoCartesian).expect("connected");
    println!(
        "product-free optimum: {} ({} global optimum)",
        nocp.cost,
        if nocp.cost == best.cost {
            "ties the"
        } else {
            "misses the"
        }
    );

    // Planning from catalog statistics only: does the estimator find the
    // bushy shape too?
    let est = SyntheticOracle::from_database(&db);
    let est_plan = optimize(&est, full, SearchSpace::All).expect("full space");
    let paid = est_plan.strategy.cost(&exact);
    println!(
        "\nstatistics-only plan: {}  (actual τ = {}, regret {:.3})",
        est_plan.strategy.render(db.catalog(), db.scheme()),
        paid,
        paid as f64 / best.cost as f64
    );

    println!("\nGraphviz of the optimum (pipe to `dot -Tpng`):");
    print!("{}", best.strategy.to_dot(db.catalog(), db.scheme()));
}
