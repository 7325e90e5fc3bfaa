//! Section 5's parting application: optimal multi-way set intersection.
//!
//! "To minimize the number of elements generated in computing the
//! intersection of sets X₁, …, X_n, it suffices to consider an evaluation
//! of the form (((X_{θ(1)} ∩ X_{θ(2)}) ∩ X_{θ(3)}) ∩ …)" — because ∩ over
//! a completely connected scheme satisfies C3, Theorem 3 applies.
//!
//! ```text
//! cargo run --example intersection_planner
//! ```

use mjoin::{RelSet, Strategy};
use mjoin_setops::{best_any, best_linear_intersection, SetOp, SetOracle};

fn main() {
    // Posting lists for a conjunctive query: find documents matching all
    // five terms.
    let postings: Vec<(&str, Vec<i64>)> = vec![
        ("database", (0..90).collect()),
        ("join", (0..60).step_by(2).collect()),
        ("optimizer", (0..45).step_by(3).collect()),
        ("cartesian", vec![0, 6, 12, 18, 24, 30]),
        ("bushy", vec![0, 12, 24, 36, 48]),
    ];
    let sets: Vec<Vec<i64>> = postings.iter().map(|(_, s)| s.clone()).collect();

    println!("posting lists:");
    for (term, s) in &postings {
        println!("  {term:<10} {} documents", s.len());
    }
    println!();

    let (order, cost) = best_linear_intersection(&sets);
    println!("optimal linear order:");
    let named: Vec<&str> = order.iter().map(|&i| postings[i].0).collect();
    println!("  (({}) ∩ …) = {}", named.join(" ∩ "), named.join(" ∩ "));
    println!("  total elements generated: {cost}");

    // Theorem 3 (via C3 for ∩): no bushy plan does better.
    let bushy = best_any(&sets, SetOp::Intersection);
    println!("  best bushy plan:          {bushy}");
    assert_eq!(cost, bushy, "Theorem 3: linear matches the global optimum");

    // Contrast with a *bad* linear order (largest first).
    let oracle = SetOracle::new(&sets, SetOp::Intersection);
    let mut worst_order: Vec<usize> = (0..sets.len()).collect();
    worst_order.sort_by_key(|&i| std::cmp::Reverse(sets[i].len()));
    let worst = Strategy::left_deep(&worst_order).cost(&oracle);
    println!("  naive largest-first order: {worst}");
    println!();

    // The final intersection itself.
    let result = oracle.combine(RelSet::full(sets.len()));
    println!(
        "documents matching all {} terms: {:?}",
        sets.len(),
        result.iter().collect::<Vec<_>>()
    );
}
