//! Plan explanation: human-readable step-by-step breakdowns.
//!
//! The paper reports strategies as parenthesized expressions with their
//! per-step sums (`10 + 70 + 490 = 570`); [`Plan::explain`] renders
//! exactly that, annotated with the properties the theory cares about.

use mjoin_cost::CardinalityOracle;
use mjoin_relation::Catalog;

use crate::plan::Plan;

/// One row of an explanation: a step with its inputs and cost.
#[derive(Clone, Debug)]
pub struct ExplainStep {
    /// Rendered left input, e.g. `(AB ⋈ BC)`.
    pub left: String,
    /// Rendered right input.
    pub right: String,
    /// τ of the two inputs.
    pub input_taus: (u64, u64),
    /// τ of the step's output.
    pub output_tau: u64,
    /// Is this step a Cartesian product (inputs not linked)?
    pub cartesian: bool,
}

/// A rendered plan explanation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The full strategy expression.
    pub expression: String,
    /// The steps, innermost-first (execution order for a linear plan).
    pub steps: Vec<ExplainStep>,
    /// Total cost `τ(S)` — the sum of the steps' output sizes.
    pub total: u64,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan: {}", self.expression)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  step {}: {} ⋈ {} [{} × {} → {} tuples]{}",
                i + 1,
                s.left,
                s.right,
                s.input_taus.0,
                s.input_taus.1,
                s.output_tau,
                if s.cartesian {
                    "  (Cartesian product)"
                } else {
                    ""
                },
            )?;
        }
        write!(
            f,
            "τ = {} = {}",
            self.steps
                .iter()
                .map(|s| s.output_tau.to_string())
                .collect::<Vec<_>>()
                .join(" + "),
            self.total
        )
    }
}

impl Plan {
    /// Explains the plan against an oracle: per-step input/output sizes,
    /// product flags, the paper's cost sum.
    pub fn explain<O: CardinalityOracle>(&self, catalog: &Catalog, oracle: &O) -> Explanation {
        let scheme = oracle.scheme().clone();
        let render = |set: mjoin_hypergraph::RelSet| -> String {
            if set.is_singleton() {
                catalog.render(scheme.scheme(set.first().expect("singleton")))
            } else {
                // Re-render the substrategy rooted there.
                let path = self
                    .strategy
                    .find_node(set)
                    .expect("step children are nodes");
                self.strategy
                    .substrategy(&path)
                    .expect("path from find_node")
                    .render(catalog, &scheme)
            }
        };
        let mut steps: Vec<ExplainStep> = self
            .strategy
            .steps()
            .iter()
            .map(|st| ExplainStep {
                left: render(st.left),
                right: render(st.right),
                input_taus: (oracle.tau(st.left), oracle.tau(st.right)),
                output_tau: oracle.tau(st.set),
                cartesian: st.uses_cartesian(&scheme),
            })
            .collect();
        steps.reverse(); // innermost-first
        Explanation {
            expression: self.strategy.render(catalog, &scheme),
            steps,
            total: self.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{optimize, SearchSpace};
    use mjoin_cost::{Database, ExactOracle};

    #[test]
    fn explanation_matches_paper_arithmetic() {
        // Example 1's S1: 10 + 70 + 490 = 570.
        let r3: Vec<Vec<i64>> = (0..7).map(|i| vec![i, i]).collect();
        let db = Database::from_specs(&[
            (
                "AB",
                vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]],
            ),
            (
                "BC",
                vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]],
            ),
            ("DE", r3.clone()),
            ("FG", r3),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let plan = crate::plan::Plan {
            strategy: mjoin_strategy::Strategy::left_deep(&[0, 1, 2, 3]),
            cost: 570,
        };
        let ex = plan.explain(db.catalog(), &o);
        assert_eq!(ex.total, 570);
        assert_eq!(
            ex.steps.iter().map(|s| s.output_tau).collect::<Vec<_>>(),
            vec![10, 70, 490]
        );
        assert!(!ex.steps[0].cartesian);
        assert!(ex.steps[1].cartesian);
        assert!(ex.steps[2].cartesian);
        let text = ex.to_string();
        assert!(text.contains("10 + 70 + 490"));
        assert!(text.contains("(Cartesian product)"));
    }

    #[test]
    fn explanation_of_optimized_plan() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let plan = optimize(&o, db.scheme().full_set(), SearchSpace::All).unwrap();
        let ex = plan.explain(db.catalog(), &o);
        assert_eq!(ex.steps.len(), 2);
        assert_eq!(
            ex.steps.iter().map(|s| s.output_tau).sum::<u64>(),
            plan.cost
        );
        assert!(ex.expression.contains('⋈'));
    }
}
