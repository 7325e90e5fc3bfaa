//! Planning a 40-relation join — the regime the paper's introduction
//! anticipates ("expressions containing hundreds of joins").
//!
//! Exact intermediate materialization is impossible at this scale, so the
//! cardinalities come from the closed-form [`SyntheticOracle`] (see
//! DESIGN.md for why this substitution preserves the phenomenon). The
//! zig-zag selectivity pattern makes every linear plan ~50× worse than the
//! bushy optimum.
//!
//! ```text
//! cargo run --release --example large_query
//! ```

use mjoin::{optimize, CardinalityOracle, SearchSpace, SyntheticOracle};
use mjoin_gen::schemes;
use mjoin_optimizer::{greedy_bushy, greedy_linear};
use std::time::Instant;

fn main() {
    let n = 40;
    let (mut cat, scheme) = schemes::chain(n);

    // Zig-zag statistics: odd attributes are selective keys (domain 10⁵),
    // even attributes are skewed join columns (domain 10).
    let mut oracle = SyntheticOracle::new(scheme.clone(), vec![1000; n], 10);
    for j in (1..n).step_by(2) {
        let a = cat.intern(&format!("a{j}")).expect("chain attrs exist");
        oracle.set_domain(a.index(), 100_000);
    }
    let full = scheme.full_set();
    println!(
        "chain query over {n} relations, estimated |R_D| = {}",
        oracle.tau(full)
    );
    println!();

    let t0 = Instant::now();
    let bushy = optimize(&oracle, full, SearchSpace::NoCartesian).expect("chain is connected");
    println!(
        "bushy DP (DPccp over {} connected subsets):  τ = {:>6}   [{:?}]",
        scheme.connected_subsets(full).len(),
        bushy.cost,
        t0.elapsed()
    );

    let t1 = Instant::now();
    let linear =
        optimize(&oracle, full, SearchSpace::LinearNoCartesian).expect("chain is connected");
    println!(
        "linear DP (connected prefixes):               τ = {:>6}   [{:?}]",
        linear.cost,
        t1.elapsed()
    );

    let t2 = Instant::now();
    let gb = greedy_bushy(&oracle, full);
    let gl = greedy_linear(&oracle, full);
    println!(
        "greedy bushy / greedy linear:                 τ = {:>6} / {:>6}   [{:?}]",
        gb.cost,
        gl.cost,
        t2.elapsed()
    );
    println!();
    println!(
        "cheapest linear is {:.1}× the bushy optimum — the gap GAMMA observed\n\
         empirically and the reason Theorem 3's C3 matters: when joins are on\n\
         superkeys the gap provably vanishes.",
        linear.cost as f64 / bushy.cost as f64
    );
    assert!(linear.cost > bushy.cost);
    assert!(!bushy.strategy.uses_cartesian(&scheme));
    assert!(linear.strategy.is_linear());
}
