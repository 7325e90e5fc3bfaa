//! Literal strategy execution: materialize every step against a database.
//!
//! The oracle machinery answers "how big would this be"; execution answers
//! "what is it". The two must agree — `τ` of each trace entry equals the
//! exact oracle's answer for that subset — which the workspace's
//! integration tests exploit as a differential check.

use std::borrow::Cow;

use mjoin_cost::Database;
use mjoin_hypergraph::RelSet;
use mjoin_relation::Relation;

use crate::node::{Node, Strategy};

/// One materialized step of an execution trace.
#[derive(Clone, Debug)]
pub struct StepTrace {
    /// The step's scheme subset `𝐃′`.
    pub set: RelSet,
    /// The materialized `R_{D′}`.
    pub relation: Relation,
}

impl Strategy {
    /// Executes the strategy bottom-up against `db`, returning the final
    /// relation. Equal to [`Database::evaluate`] restricted to the
    /// strategy's relation set, whatever the tree shape — joins commute
    /// and associate.
    ///
    /// # Panics
    /// Panics if a leaf index is out of range for `db`.
    pub fn execute(&self, db: &Database) -> Relation {
        eval(&self.root, db, &mut |_, _| {}).into_owned()
    }

    /// Like [`Strategy::execute`], also returning the materialized
    /// intermediate of every step in post-order (children before
    /// parents; the final result is last).
    pub fn execute_traced(&self, db: &Database) -> (Relation, Vec<StepTrace>) {
        let mut trace = Vec::with_capacity(self.num_steps());
        let result = eval(&self.root, db, &mut |set, joined| {
            trace.push(StepTrace {
                set,
                relation: joined.clone(),
            })
        });
        (result.into_owned(), trace)
    }
}

/// Joins bottom-up, calling `on_step` on every join's result. Leaves are
/// borrowed from `db` — only a strategy that is a single leaf ever copies
/// a base relation.
fn eval<'d>(
    node: &Node,
    db: &'d Database,
    on_step: &mut dyn FnMut(RelSet, &Relation),
) -> Cow<'d, Relation> {
    match node {
        Node::Leaf(i) => Cow::Borrowed(db.state(*i)),
        Node::Join(l, r) => {
            let joined = eval(l, db, on_step).natural_join(&eval(r, db, on_step));
            on_step(node.set(), &joined);
            Cow::Owned(joined)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{CardinalityOracle, ExactOracle};

    fn db() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
        ])
        .unwrap()
    }

    #[test]
    fn execution_is_shape_independent() {
        let db = db();
        let reference = db.evaluate();
        for s in crate::enumerate::enumerate_all(db.scheme().full_set()) {
            assert_eq!(s.execute(&db), reference, "{s:?}");
        }
    }

    #[test]
    fn trace_sizes_match_the_exact_oracle() {
        let db = db();
        let oracle = ExactOracle::new(&db);
        let s = Strategy::join(Strategy::left_deep(&[0, 1]), Strategy::leaf(2)).unwrap();
        let (result, trace) = s.execute_traced(&db);
        assert_eq!(trace.len(), s.num_steps());
        let mut total = 0;
        for entry in &trace {
            assert_eq!(
                entry.relation.tau(),
                oracle.tau(entry.set),
                "{:?}",
                entry.set
            );
            total += entry.relation.tau();
        }
        assert_eq!(total, s.cost(&oracle), "τ is the trace total");
        assert_eq!(trace.last().unwrap().relation, result);
    }

    #[test]
    fn trace_is_post_order() {
        let db = db();
        let s = Strategy::left_deep(&[0, 1, 2]);
        let (_, trace) = s.execute_traced(&db);
        assert_eq!(trace[0].set.len(), 2);
        assert_eq!(trace[1].set.len(), 3);
    }

    #[test]
    fn execute_subset_strategies() {
        let db = db();
        let s = Strategy::left_deep(&[1, 2]);
        let got = s.execute(&db);
        assert_eq!(got, db.state(1).natural_join(db.state(2)));
    }
}
