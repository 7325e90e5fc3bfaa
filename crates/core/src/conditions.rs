//! The paper's conditions `C1`, `C1'`, `C2`, `C3`, `C4` as exhaustive,
//! oracle-driven checkers.
//!
//! Each condition universally quantifies over disjoint *connected* subsets
//! of the database scheme; the checkers enumerate exactly those subsets and
//! ask a [`CardinalityOracle`] for every `τ`. Complexity is cubic
//! (`C1`/`C1'`) or quadratic (`C2`/`C3`/`C4`) in the number of connected
//! subsets — exact and fine for the scheme sizes the theory experiments
//! use (`n ≲ 8`).

use std::fmt;

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{Guard, MjoinError};
use mjoin_hypergraph::RelSet;

/// One of the paper's conditions on a database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Condition {
    /// `C1`: for disjoint connected `E`, `E₁`, `E₂` with `E` linked to `E₁`
    /// but not to `E₂`: `τ(R_E ⋈ R_{E₁}) ≤ τ(R_E ⋈ R_{E₂})` — joining
    /// along a link never beats joining across a Cartesian product.
    C1,
    /// `C1'`: the strict form of `C1` (`<` instead of `≤`) — the hypothesis
    /// of Theorem 1.
    C1Strict,
    /// `C2`: for disjoint connected linked `E₁`, `E₂`:
    /// `τ(R_{E₁} ⋈ R_{E₂}) ≤ τ(R_{E₁})` **or** `… ≤ τ(R_{E₂})` — every
    /// linked join shrinks at least one side.
    C2,
    /// `C3`: both inequalities of `C2` — linked joins shrink *both* sides.
    /// The hypothesis of Theorem 3; satisfied when all joins are on
    /// superkeys.
    C3,
    /// `C4` (Section 5): linked joins *grow* both sides — satisfied by
    /// γ-acyclic pairwise-consistent databases.
    C4,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::C1 => write!(f, "C1"),
            Condition::C1Strict => write!(f, "C1'"),
            Condition::C2 => write!(f, "C2"),
            Condition::C3 => write!(f, "C3"),
            Condition::C4 => write!(f, "C4"),
        }
    }
}

/// A witness that a condition fails: the subsets and the `τ` values that
/// violate the required inequality.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated condition.
    pub condition: Condition,
    /// The quantified subsets: `[E, E₁, E₂]` for `C1`/`C1'`,
    /// `[E₁, E₂]` for the rest.
    pub witness: Vec<RelSet>,
    /// Human-readable inequality, e.g. `τ(E ⋈ E1) = 12 > 10 = τ(E ⋈ E2)`.
    pub detail: String,
}

/// Finds the first violation of `condition`, or `None` if it holds.
pub fn first_violation<O: CardinalityOracle>(
    oracle: &O,
    condition: Condition,
) -> Option<Violation> {
    try_first_violation(oracle, condition, &Guard::unlimited())
        .expect("an unlimited guard cannot trip")
}

/// [`first_violation`] under a budget: the subset loops poll `guard`, so a
/// deadline stops the sweep with its typed error (an oracle that tripped
/// only saturates, and would let the loops run on).
pub(crate) fn try_first_violation<O: CardinalityOracle>(
    oracle: &O,
    condition: Condition,
    guard: &Guard,
) -> Result<Option<Violation>, MjoinError> {
    let full = oracle.scheme().full_set();
    let connected = oracle.scheme().connected_subsets(full);
    match condition {
        Condition::C1 | Condition::C1Strict => {
            let strict = condition == Condition::C1Strict;
            for &e in &connected {
                for &e1 in &connected {
                    if !e.is_disjoint(e1) || !oracle.scheme().linked(e, e1) {
                        continue;
                    }
                    let linked_cost = oracle.tau_join(e, e1);
                    for &e2 in &connected {
                        guard.checkpoint()?;
                        if !e.is_disjoint(e2)
                            || !e1.is_disjoint(e2)
                            || oracle.scheme().linked(e, e2)
                        {
                            continue;
                        }
                        let product_cost = oracle.tau_join(e, e2);
                        let bad = if strict {
                            linked_cost >= product_cost
                        } else {
                            linked_cost > product_cost
                        };
                        if bad {
                            let op = if strict { "≥" } else { ">" };
                            return Ok(Some(Violation {
                                condition,
                                witness: vec![e, e1, e2],
                                detail: format!(
                                    "τ(E ⋈ E1) = {linked_cost} {op} {product_cost} = τ(E ⋈ E2)"
                                ),
                            }));
                        }
                    }
                }
            }
            Ok(None)
        }
        Condition::C2 | Condition::C3 | Condition::C4 => {
            for &e1 in &connected {
                for &e2 in &connected {
                    guard.checkpoint()?;
                    if e2.0 <= e1.0 && condition != Condition::C2 {
                        // C3/C4 are symmetric; check each unordered pair once.
                        continue;
                    }
                    if !e1.is_disjoint(e2) || !oracle.scheme().linked(e1, e2) {
                        continue;
                    }
                    let joined = oracle.tau_join(e1, e2);
                    let (t1, t2) = (oracle.tau(e1), oracle.tau(e2));
                    let bad = match condition {
                        Condition::C2 => joined > t1 && joined > t2,
                        Condition::C3 => joined > t1 || joined > t2,
                        Condition::C4 => joined < t1 || joined < t2,
                        _ => unreachable!(),
                    };
                    if bad {
                        return Ok(Some(Violation {
                            condition,
                            witness: vec![e1, e2],
                            detail: format!("τ(E1 ⋈ E2) = {joined}, τ(E1) = {t1}, τ(E2) = {t2}"),
                        }));
                    }
                }
            }
            Ok(None)
        }
    }
}

/// Does the database (as seen through `oracle`) satisfy `condition`?
pub fn satisfies<O: CardinalityOracle>(oracle: &O, condition: Condition) -> bool {
    first_violation(oracle, condition).is_none()
}

/// [`satisfies`] under a budget.
pub(crate) fn try_satisfies<O: CardinalityOracle>(
    oracle: &O,
    condition: Condition,
    guard: &Guard,
) -> Result<bool, MjoinError> {
    Ok(try_first_violation(oracle, condition, guard)?.is_none())
}

/// All five conditions at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ConditionReport {
    pub c1: bool,
    pub c1_strict: bool,
    pub c2: bool,
    pub c3: bool,
    pub c4: bool,
}

/// Evaluates every condition.
pub fn condition_report<O: CardinalityOracle>(oracle: &O) -> ConditionReport {
    try_condition_report(oracle, &Guard::unlimited()).expect("an unlimited guard cannot trip")
}

/// [`condition_report`] under a budget.
pub(crate) fn try_condition_report<O: CardinalityOracle>(
    oracle: &O,
    guard: &Guard,
) -> Result<ConditionReport, MjoinError> {
    Ok(ConditionReport {
        c1: try_satisfies(oracle, Condition::C1, guard)?,
        c1_strict: try_satisfies(oracle, Condition::C1Strict, guard)?,
        c2: try_satisfies(oracle, Condition::C2, guard)?,
        c3: try_satisfies(oracle, Condition::C3, guard)?,
        c4: try_satisfies(oracle, Condition::C4, guard)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::ExactOracle;
    use mjoin_gen::data;

    #[test]
    fn example1_satisfies_c1_not_c2() {
        // Paper, Examples 1–2: the Example-1 database satisfies C1 but not
        // C2 (τ(R1 ⋈ R2) = 10 exceeds both τ(R1) = τ(R2) = 4).
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C1));
        let v = first_violation(&o, Condition::C2).expect("C2 fails");
        assert_eq!(v.condition, Condition::C2);
        assert_eq!(v.witness.len(), 2);
        assert!(!satisfies(&o, Condition::C3));
    }

    #[test]
    fn example2_satisfies_c2_not_c1() {
        // Paper, Example 2: C2 holds (τ(R1' ⋈ R2') = 7 < 8 = τ(R1')), C1
        // fails (τ(R2' ⋈ R1') = 7 > 6 = τ(R2' ⋈ R3')).
        let db = data::paper_example2();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C2));
        assert!(!satisfies(&o, Condition::C1));
        let v = first_violation(&o, Condition::C1).expect("C1 fails");
        assert_eq!(v.witness.len(), 3);
    }

    #[test]
    fn example3_satisfies_c1_not_c1_strict() {
        // Paper, Example 3: C1 holds but C1' does not.
        let db = data::paper_example3();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C1));
        assert!(!satisfies(&o, Condition::C1Strict));
    }

    #[test]
    fn example4_satisfies_c2_not_c1() {
        let db = data::paper_example4();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C2));
        assert!(!satisfies(&o, Condition::C1));
    }

    #[test]
    fn example5_satisfies_c1_c2_not_c3() {
        // Paper, Example 5: C1 and C2 hold, C3 fails
        // (τ(CI ⋈ ID) > τ(ID)).
        let db = data::paper_example5();
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C1));
        assert!(satisfies(&o, Condition::C2));
        assert!(!satisfies(&o, Condition::C3));
    }

    #[test]
    fn c3_implies_c1_and_c2_on_samples() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        for n in 2..5 {
            let (cat, d) = mjoin_gen::schemes::chain(n);
            let cfg = mjoin_gen::data::DataConfig {
                tuples_per_relation: 4,
                domain: 8,
                ensure_nonempty: true,
            };
            let (db, _) = data::superkey(cat, d, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let r = condition_report(&o);
            assert!(r.c3, "superkey joins must give C3 (n={n})");
            assert!(r.c1, "C3 ⇒ C1 (Lemma 5)");
            assert!(r.c2, "C3 ⇒ C2");
        }
    }

    #[test]
    fn c4_on_consistent_acyclic_database() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(22);
        let (cat, d) = mjoin_gen::schemes::chain(3);
        assert!(d.is_gamma_acyclic());
        let db = data::universal(cat, d, 10, 3, &mut rng);
        let o = ExactOracle::new(&db);
        assert!(satisfies(&o, Condition::C4));
    }

    #[test]
    fn condition_display() {
        assert_eq!(Condition::C1.to_string(), "C1");
        assert_eq!(Condition::C1Strict.to_string(), "C1'");
        assert_eq!(Condition::C4.to_string(), "C4");
    }

    #[test]
    fn report_is_consistent_with_individual_checks() {
        let db = data::paper_example1();
        let o = ExactOracle::new(&db);
        let r = condition_report(&o);
        assert_eq!(r.c1, satisfies(&o, Condition::C1));
        assert_eq!(r.c2, satisfies(&o, Condition::C2));
        assert!(!r.c3 || (r.c1 && r.c2), "C3 ⇒ C1 ∧ C2");
    }
}
