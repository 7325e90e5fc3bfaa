//! `E0-counting`: the introduction's strategy-space counts.
//!
//! "…there are 3 orderings (after renaming the relations) of the form
//! `(R₁ ⋈ R₂) ⋈ (R₃ ⋈ R₄)` and 12 orderings of the form
//! `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄`. Among these 15 possible orderings which is
//! optimum?"

use mjoin::RelSet;
use mjoin_strategy::{count_all_strategies, count_linear_strategies, enumerate_all};

use crate::Table;

/// Enumerates the strategy space for n = 2…8 and checks the closed forms
/// `(2n−3)!!` (all) and `n!/2` (linear). The n = 4 row is the paper's
/// 15 = 12 + 3.
pub fn run() -> Table {
    let mut t = Table::new(
        "E0-counting",
        &["n", "enumerated", "(2n-3)!!", "linear", "n!/2", "bushy"],
    );
    t.note("Paper §1: for n = 4 there are 15 orderings — 12 linear + 3 balanced.");
    for n in 2..=8usize {
        let all = enumerate_all(RelSet::full(n));
        let linear = all.iter().filter(|s| s.is_linear()).count();
        t.row(vec![
            n.to_string(),
            all.len().to_string(),
            count_all_strategies(n).to_string(),
            linear.to_string(),
            count_linear_strategies(n).to_string(),
            (all.len() - linear).to_string(),
        ]);
    }
    t
}
