//! One-call façade: analyze a database against the whole paper.

use mjoin_cost::{CardinalityOracle, Database, ExactOracle};
use mjoin_guard::{Guard, MjoinError};
use mjoin_hypergraph::Acyclicity;
use mjoin_optimizer::{try_optimize, Plan, SearchSpace};

use crate::conditions::{try_condition_report, ConditionReport};
use crate::theorems::{try_theorem1, try_theorem2, try_theorem3, TheoremReport};

/// Everything the paper says about one concrete database.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Is the database scheme connected?
    pub connected: bool,
    /// Is `R_D ≠ φ` (the theorems' standing assumption)?
    pub result_nonempty: bool,
    /// The scheme's acyclicity degree (Section 5 context).
    pub acyclicity: Acyclicity,
    /// Which of `C1`, `C1'`, `C2`, `C3`, `C4` hold.
    pub conditions: ConditionReport,
    /// Theorem 1: preconditions and conclusion.
    pub theorem1: TheoremReport,
    /// Theorem 2: preconditions and conclusion.
    pub theorem2: TheoremReport,
    /// Theorem 3: preconditions and conclusion.
    pub theorem3: TheoremReport,
}

impl Analysis {
    /// The cheapest *safe* restriction the paper licenses for this
    /// database: the smallest search space still guaranteed (by the
    /// applicable theorem) to contain a τ-optimum strategy.
    pub fn safe_search_space(&self) -> SearchSpace {
        if self.theorem3.preconditions_hold {
            SearchSpace::LinearNoCartesian
        } else if self.theorem2.preconditions_hold {
            SearchSpace::NoCartesian
        } else {
            SearchSpace::All
        }
    }
}

/// Runs every checker in the crate against `db` (exact cardinalities).
///
/// Exponential in `|D|` — intended for the theory-scale databases the
/// paper's examples and experiments use (`n ≲ 8`); a theorem whose check
/// cannot afford the scheme's size reports its conclusion as unchecked
/// ([`TheoremReport::beyond_reach`]). Infallible in practice (the
/// unlimited guard cannot trip), but shares the [`analyze_guarded`]
/// signature so callers handle one shape.
pub fn analyze(db: &Database) -> Result<Analysis, MjoinError> {
    analyze_guarded(db, &Guard::unlimited())
}

/// [`analyze`] under a budget: the oracle's materializations and the
/// checks' subset loops and DPs charge and poll `guard`, so a deadline
/// interrupts the exponential sweep with the guard's typed error.
pub fn analyze_guarded(db: &Database, guard: &Guard) -> Result<Analysis, MjoinError> {
    let oracle = ExactOracle::with_guard(db, guard.clone());
    let full = db.scheme().full_set();
    let result_nonempty = oracle.try_tau(full)? > 0;
    // The checkers use the infallible oracle surface (which saturates once
    // tripped), so surface the stored trip after each one.
    let trip_check = |o: &ExactOracle<'_>| -> Result<(), MjoinError> {
        match o.tripped() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    };
    let conditions = try_condition_report(&oracle, guard)?;
    trip_check(&oracle)?;
    let t1 = try_theorem1(&oracle, guard)?;
    trip_check(&oracle)?;
    let t2 = try_theorem2(&oracle, guard)?;
    trip_check(&oracle)?;
    let t3 = try_theorem3(&oracle, guard)?;
    trip_check(&oracle)?;
    Ok(Analysis {
        connected: db.scheme().connected(full),
        result_nonempty,
        acyclicity: db.scheme().acyclicity(),
        conditions,
        theorem1: t1,
        theorem2: t2,
        theorem3: t3,
    })
}

/// Optimizes `db` over `space` with exact cardinalities.
///
/// [`MjoinError::InvalidScheme`] iff the space is empty for this scheme
/// (product-free spaces over unconnected schemes).
pub fn optimize_database(db: &Database, space: SearchSpace) -> Result<Plan, MjoinError> {
    optimize_database_guarded(db, space, &Guard::unlimited())
}

/// [`optimize_database`] under a budget.
pub fn optimize_database_guarded(
    db: &Database,
    space: SearchSpace,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    let oracle = ExactOracle::with_guard(db, guard.clone());
    match try_optimize(&oracle, db.scheme().full_set(), space, guard)? {
        Some(plan) => Ok(plan),
        None => Err(MjoinError::InvalidScheme(format!(
            "search space {space:?} is empty for this unconnected scheme"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_gen::data;

    #[test]
    fn analysis_of_example5() {
        let db = data::paper_example5();
        let a = analyze(&db).unwrap();
        assert!(a.connected);
        assert!(a.result_nonempty);
        assert!(a.conditions.c1 && a.conditions.c2 && !a.conditions.c3);
        assert!(a.theorem2.preconditions_hold);
        assert!(!a.theorem3.preconditions_hold);
        assert_eq!(a.safe_search_space(), SearchSpace::NoCartesian);
    }

    #[test]
    fn analysis_of_example1() {
        let db = data::paper_example1();
        let a = analyze(&db).unwrap();
        assert!(!a.connected);
        assert!(a.conditions.c1 && !a.conditions.c2);
        assert_eq!(a.safe_search_space(), SearchSpace::All);
    }

    #[test]
    fn a_deadline_stops_analyze_inside_the_condition_checkers() {
        use mjoin_guard::{Budget, Resource};
        use rand::SeedableRng;
        use std::time::{Duration, Instant};
        // An 18-star has 2¹⁷ + 17 connected subsets: the C1 checker's
        // triple loop over them runs for hours unless it polls the guard.
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let (catalog, scheme) = mjoin_gen::schemes::star(18);
        let db = data::uniform(catalog, scheme, &data::DataConfig::default(), &mut rng);
        let started = Instant::now();
        let guard = Guard::new(Budget::unlimited().with_deadline(Duration::from_millis(200)));
        let err = analyze_guarded(&db, &guard).unwrap_err();
        assert!(
            matches!(
                err,
                MjoinError::BudgetExceeded {
                    resource: Resource::WallClock,
                    ..
                }
            ),
            "{err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn safe_space_is_actually_safe_on_the_examples() {
        for db in [
            data::paper_example1(),
            data::paper_example3(),
            data::paper_example4(),
            data::paper_example5(),
        ] {
            let a = analyze(&db).unwrap();
            let safe = optimize_database(&db, a.safe_search_space())
                .expect("safe space is nonempty by construction");
            let best = optimize_database(&db, SearchSpace::All).expect("full space");
            assert_eq!(safe.cost, best.cost, "safe space missed the optimum");
        }
    }

    #[test]
    fn optimize_database_spaces() {
        let db = data::paper_example4();
        let best = optimize_database(&db, SearchSpace::All).unwrap();
        assert_eq!(best.cost, 11); // Example 4's S3
        let nocp = optimize_database(&db, SearchSpace::NoCartesian).unwrap();
        assert_eq!(nocp.cost, 12); // S2 is the best product-free strategy
    }
}
