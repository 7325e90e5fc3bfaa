//! Section 5's acyclic pipeline: join tree → full reducer → Yannakakis.
//!
//! For an α-acyclic database, semijoin reduction (Bernstein–Chiu) makes
//! the database pairwise consistent; Yannakakis' leaves-to-root linear
//! join then evaluates it with every step lossless and monotone
//! increasing — the `C4` regime of the paper's discussion.
//!
//! ```text
//! cargo run --example acyclic_pipeline
//! ```

use mjoin::{Database, ExactOracle, JoinTree};
use mjoin_semijoin::{full_reduce, is_pairwise_consistent, yannakakis};

fn main() {
    // suppliers — shipments — parts — colors, with dangling tuples
    // everywhere (suppliers who ship nothing, parts never shipped, …).
    let db = Database::from_specs(&[
        // supplier(S, city Y)
        (
            "SY",
            vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![9, 30]],
        ),
        // shipment(S, part P)
        (
            "SP",
            vec![vec![1, 100], vec![2, 100], vec![2, 101], vec![8, 102]],
        ),
        // part(P, color O)
        ("PO", vec![vec![100, 1], vec![101, 2], vec![77, 3]]),
    ])
    .expect("well-formed database");

    println!("scheme acyclicity: {:?}", db.scheme().acyclicity());
    let tree = JoinTree::build(db.scheme()).expect("α-acyclic and connected");
    println!("join tree edges (child → parent): {:?}", tree.edges());
    println!(
        "pairwise consistent before reduction: {}",
        is_pairwise_consistent(&db)
    );

    let reduced = full_reduce(&db, &tree, 0);
    println!(
        "pairwise consistent after full reduction: {}",
        is_pairwise_consistent(&reduced)
    );
    for i in 0..db.len() {
        println!(
            "  R{i}: {} → {} tuples (dangling removed)",
            db.state(i).tau(),
            reduced.state(i).tau()
        );
    }
    println!();

    let out = yannakakis(&db).expect("α-acyclic and connected");
    println!(
        "yannakakis strategy: {}",
        out.strategy.render(db.catalog(), db.scheme())
    );
    println!("evaluation cost on reduced database: τ = {}", out.cost);
    println!("result size: {}", out.result.tau());
    assert_eq!(out.result, db.evaluate(), "reduction loses nothing");

    let oracle = ExactOracle::new(&out.reduced);
    assert!(
        out.strategy.is_monotone_increasing(&oracle),
        "every step of Yannakakis' strategy grows — the C4 regime"
    );
    println!("every join step is monotone increasing (C4), as Section 5 predicts.");
}
