//! Lowering: from a parsed [`Query`] onto a concrete [`Database`].
//!
//! Lowering does four things, in order:
//!
//! 1. **Resolve** FROM tables against the database (a table is addressed
//!    by its rendered scheme, e.g. `ABC`) and every column reference
//!    against its table's scheme.
//! 2. **Classify** each WHERE conjunct by the set of tables it depends
//!    on: one table → filter, two tables → join-edge witness (must be an
//!    equality between occurrences of the same attribute — joins here are
//!    natural joins, renaming is out of scope), zero tables → rejected.
//! 3. **Push selections down**: filters are applied to the base relation
//!    states, so the lowered database *is* the filtered database and
//!    every exact-oracle path (DPccp, greedy, the robust ladder,
//!    execution) costs filtered cardinalities for free.
//! 4. **Expose selectivities** for the statistics-only path:
//!    [`LoweredQuery::fold_into`] multiplies each table's filter
//!    selectivity into a [`SyntheticOracle`], so estimate-driven planning
//!    sees the filters too. With rows present the selectivity is the
//!    observed `filtered τ / base τ`; without rows it falls back to the
//!    System-R heuristics (equality 1/10, inequality 9/10, range 1/3).
//!
//! Everything that can go wrong is [`MjoinError::InvalidQuery`].

use mjoin_cost::{Database, SyntheticOracle};
use mjoin_guard::{failpoints, MjoinError};
use mjoin_hypergraph::DbScheme;
use mjoin_obs::{incr, Counter};
use mjoin_relation::{Attribute, Relation, Value};

use crate::ast::{CmpOp, ColRef, Operand, Query, Scalar};

/// Heuristic filter selectivities for the statistics-only path, per
/// System-R tradition.
const SEL_EQ: f64 = 0.1;
const SEL_NE: f64 = 0.9;
const SEL_RANGE: f64 = 1.0 / 3.0;

/// One resolved join predicate: positions are FROM-clause indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinEdge {
    /// FROM position of the lower-indexed table.
    pub left: usize,
    /// FROM position of the higher-indexed table.
    pub right: usize,
    /// The shared attribute the predicate equates.
    pub attr: String,
}

/// A lowered query: the filtered sub-database plus everything the
/// planners and reports need to know about how it was derived.
#[derive(Clone, Debug)]
pub struct LoweredQuery {
    /// The selected relations, in FROM order, with filters already
    /// pushed down into the states. Planning and execution over this
    /// database cost filtered cardinalities by construction.
    pub database: Database,
    /// FROM position → index of the relation in the source database.
    pub table_map: Vec<usize>,
    /// FROM-clause table names, as resolved (rendered schemes).
    pub table_names: Vec<String>,
    /// Per-table base τ before any filter.
    pub base_taus: Vec<u64>,
    /// Per-table τ after the pushed-down filters.
    pub filtered_taus: Vec<u64>,
    /// Per-table filter selectivity: observed `filtered/base` when the
    /// base state has rows, the System-R heuristic product otherwise,
    /// and exactly 1 for tables with no filter.
    pub selectivities: Vec<f64>,
    /// Per-table count of pushed-down filter predicates.
    pub filter_counts: Vec<usize>,
    /// The resolved join edges, in WHERE order (deduplicated).
    pub join_edges: Vec<JoinEdge>,
}

impl LoweredQuery {
    /// Total pushed-down filter predicates.
    pub fn total_filters(&self) -> usize {
        self.filter_counts.iter().sum()
    }

    /// Did any selected table come with actual rows? When false the
    /// database was declared statistics-only and exact-oracle planning
    /// over the (empty) states is meaningless — use a [`SyntheticOracle`]
    /// with [`fold_into`](Self::fold_into) instead.
    pub fn has_rows(&self) -> bool {
        self.base_taus.iter().any(|&t| t > 0)
    }

    /// Folds every table's filter selectivity into `oracle` (which must
    /// be built over this lowered query's scheme), so a statistics-only
    /// model costs filtered cardinalities. Tables without filters fold
    /// selectivity 1 — a no-op — keeping the call total.
    pub fn fold_into(&self, oracle: &mut SyntheticOracle) -> Result<(), MjoinError> {
        use mjoin_cost::CardinalityOracle as _;
        if oracle.scheme().len() != self.table_map.len() {
            return Err(MjoinError::InvalidQuery(format!(
                "selectivity folding: oracle covers {} relations, query selects {}",
                oracle.scheme().len(),
                self.table_map.len()
            )));
        }
        for (i, &sel) in self.selectivities.iter().enumerate() {
            if sel < 1.0 {
                oracle
                    .try_set_selectivity(i, sel)
                    .map_err(|e| MjoinError::InvalidQuery(e.to_string()))?;
            }
        }
        Ok(())
    }
}

fn invalid(msg: impl Into<String>) -> MjoinError {
    MjoinError::InvalidQuery(msg.into())
}

/// Orders two values under the DSL's comparison semantics: integers
/// numerically, strings lexicographically, mixed types incomparable.
fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Some(x.as_ref().cmp(y.as_ref())),
        _ => None,
    }
}

fn scalar_value(s: &Scalar) -> Value {
    match s {
        Scalar::Int(i) => Value::Int(*i),
        Scalar::Str(s) => Value::str(s),
    }
}

/// A filter compiled against one relation's column layout.
enum CompiledFilter {
    /// `column op constant`.
    ColLit(usize, CmpOp, Value),
    /// `column op column`, both of the same relation.
    ColCol(usize, CmpOp, usize),
}

impl CompiledFilter {
    fn eval(&self, tuple: &[Value]) -> bool {
        let (a, op, b) = match self {
            CompiledFilter::ColLit(c, op, v) => (&tuple[*c], *op, v),
            CompiledFilter::ColCol(c, op, d) => (&tuple[*c], *op, &tuple[*d]),
        };
        match compare(a, b) {
            Some(ord) => op.matches(ord),
            // Mixed-type comparisons: unequal by definition, so only `!=`
            // holds — deterministic, never an error at row level.
            None => op == CmpOp::Ne,
        }
    }

    /// The statistics-only selectivity heuristic for this filter.
    fn heuristic_selectivity(&self) -> f64 {
        let op = match self {
            CompiledFilter::ColLit(_, op, _) | CompiledFilter::ColCol(_, op, _) => *op,
        };
        match op {
            CmpOp::Eq => SEL_EQ,
            CmpOp::Ne => SEL_NE,
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => SEL_RANGE,
        }
    }
}

/// Resolves one column reference: FROM position + attribute + column
/// index within that relation's state layout.
fn resolve_col(
    db: &Database,
    table_names: &[String],
    table_map: &[usize],
    col: &ColRef,
) -> Result<(usize, Attribute, usize), MjoinError> {
    let Some(pos) = table_names.iter().position(|t| *t == col.table) else {
        return Err(invalid(format!(
            "predicate references table {:?} which is not listed in FROM ({})",
            col.table,
            table_names.join(", ")
        )));
    };
    let Some(attr) = db.catalog().lookup(&col.column) else {
        return Err(invalid(format!(
            "unknown column {:?} (no such attribute in the database)",
            col.column
        )));
    };
    let rel = table_map[pos];
    if !db.scheme().scheme(rel).contains(attr) {
        return Err(invalid(format!(
            "table {:?} has no column {:?} (its scheme is {})",
            col.table,
            col.column,
            db.catalog().render(db.scheme().scheme(rel))
        )));
    }
    // An attribute in the scheme always has a column in a well-formed
    // state; statistics-only (empty) states report no layout, so fall
    // back to 0 — the filter is never evaluated against rows there.
    let column = db.state(rel).column_of(attr).unwrap_or(0);
    Ok((pos, attr, column))
}

/// Lowers `query` onto `db`: resolves tables and columns, classifies
/// predicates, pushes selections down, and derives the filtered
/// sub-database. Guarded by the `query::lower` failpoint; every
/// query/database mismatch is [`MjoinError::InvalidQuery`].
pub fn lower(query: &Query, db: &Database) -> Result<LoweredQuery, MjoinError> {
    failpoints::hit("query::lower")?;
    // Resolve FROM tables by rendered scheme name.
    let rendered: Vec<String> = (0..db.len())
        .map(|i| db.catalog().render(db.scheme().scheme(i)))
        .collect();
    let mut table_map: Vec<usize> = Vec::with_capacity(query.tables.len());
    for name in &query.tables {
        let matches: Vec<usize> = rendered.positions_of(name);
        match matches.as_slice() {
            [] => {
                return Err(invalid(format!(
                    "unknown table {:?} (database has: {})",
                    name,
                    rendered.join(", ")
                )));
            }
            [i] => {
                if table_map.contains(i) {
                    return Err(invalid(format!(
                        "table {name:?} is listed twice in FROM (self-joins are not supported)"
                    )));
                }
                table_map.push(*i);
            }
            _ => {
                return Err(invalid(format!(
                    "table {name:?} is ambiguous: {} relations share that scheme",
                    matches.len()
                )));
            }
        }
    }
    let table_names = query.tables.clone();

    // Classify predicates: one-table conjuncts compile to filters, two-
    // table conjuncts must witness a natural-join edge.
    let mut filters: Vec<Vec<CompiledFilter>> = (0..table_map.len()).map(|_| Vec::new()).collect();
    let mut join_edges: Vec<JoinEdge> = Vec::new();
    for pred in &query.predicates {
        match (&pred.left, &pred.right) {
            (Operand::Lit(_), Operand::Lit(_)) => {
                return Err(invalid(format!(
                    "predicate {pred} references no table (constant comparisons are not supported)"
                )));
            }
            (Operand::Col(c), Operand::Lit(v)) => {
                let (pos, _, column) = resolve_col(db, &table_names, &table_map, c)?;
                filters[pos].push(CompiledFilter::ColLit(column, pred.op, scalar_value(v)));
            }
            (Operand::Lit(v), Operand::Col(c)) => {
                let (pos, _, column) = resolve_col(db, &table_names, &table_map, c)?;
                // Normalize constant-on-left by flipping the operator.
                filters[pos].push(CompiledFilter::ColLit(
                    column,
                    pred.op.flipped(),
                    scalar_value(v),
                ));
            }
            (Operand::Col(a), Operand::Col(b)) => {
                let (pa, attr_a, col_a) = resolve_col(db, &table_names, &table_map, a)?;
                let (pb, attr_b, col_b) = resolve_col(db, &table_names, &table_map, b)?;
                if pa == pb {
                    // Same table on both sides: an intra-relation filter.
                    filters[pa].push(CompiledFilter::ColCol(col_a, pred.op, col_b));
                    continue;
                }
                if pred.op != CmpOp::Eq {
                    return Err(invalid(format!(
                        "predicate {pred}: only equality join predicates are supported"
                    )));
                }
                if attr_a != attr_b {
                    return Err(invalid(format!(
                        "predicate {pred}: joins are natural joins, so a join predicate must \
                         equate occurrences of the same attribute ({} vs {})",
                        a.column, b.column
                    )));
                }
                let (left, right) = if pa < pb { (pa, pb) } else { (pb, pa) };
                let edge = JoinEdge {
                    left,
                    right,
                    attr: a.column.clone(),
                };
                if !join_edges.contains(&edge) {
                    join_edges.push(edge);
                }
            }
        }
    }

    // Derive the sub-scheme (FROM order) and push the selections down.
    let schemes = table_map
        .iter()
        .map(|&i| db.scheme().scheme(i))
        .collect::<Vec<_>>();
    let scheme = DbScheme::new(schemes).map_err(|e| invalid(format!("query scheme: {e}")))?;
    let mut states: Vec<Relation> = Vec::with_capacity(table_map.len());
    let mut base_taus = Vec::with_capacity(table_map.len());
    let mut filtered_taus = Vec::with_capacity(table_map.len());
    let mut selectivities = Vec::with_capacity(table_map.len());
    let mut filter_counts = Vec::with_capacity(table_map.len());
    for (pos, &rel) in table_map.iter().enumerate() {
        let base = db.state(rel);
        let fs = &filters[pos];
        let state = if fs.is_empty() {
            base.clone()
        } else {
            base.select(|t| fs.iter().all(|f| f.eval(t)))
        };
        let (bt, ft) = (base.tau(), state.tau());
        let sel = if fs.is_empty() {
            1.0
        } else if bt > 0 {
            ft as f64 / bt as f64
        } else {
            fs.iter()
                .map(CompiledFilter::heuristic_selectivity)
                .product()
        };
        base_taus.push(bt);
        filtered_taus.push(ft);
        selectivities.push(sel);
        filter_counts.push(fs.len());
        states.push(state);
    }
    let database = Database::new(db.catalog().clone(), scheme, states);

    incr(Counter::QueryJoinEdges, join_edges.len() as u64);
    incr(
        Counter::QueryFiltersPushed,
        filter_counts.iter().sum::<usize>() as u64,
    );
    Ok(LoweredQuery {
        database,
        table_map,
        table_names,
        base_taus,
        filtered_taus,
        selectivities,
        filter_counts,
        join_edges,
    })
}

/// `Vec::positions_of` helper: all indices whose element equals `name`.
trait PositionsOf {
    fn positions_of(&self, name: &str) -> Vec<usize>;
}

impl PositionsOf for Vec<String> {
    fn positions_of(&self, name: &str) -> Vec<usize> {
        self.iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() == name)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    /// A tiny star: fact ABC joins dims AU, BV, CW on A/B/C.
    fn star() -> Database {
        let fact: Vec<Vec<i64>> = (0..12).map(|i| vec![i % 3, i % 4, i % 6, i]).collect();
        Database::from_specs(&[
            ("ABCF", fact),
            ("AU", (0..3).map(|i| vec![i, 100 + i]).collect()),
            ("BV", (0..4).map(|i| vec![i, 200 + i]).collect()),
            ("CW", (0..6).map(|i| vec![i, 300 + i]).collect()),
        ])
        .unwrap()
    }

    fn lowered(sql: &str) -> LoweredQuery {
        let db = star();
        lower(&parse_query(sql).unwrap(), &db).expect(sql)
    }

    #[test]
    fn classifies_and_pushes_down() {
        let l = lowered(
            "SELECT * FROM ABCF, AU, CW \
             WHERE ABCF.A = AU.A AND ABCF.C = CW.C AND CW.W < 303 AND AU.A != 99",
        );
        assert_eq!(l.table_map, vec![0, 1, 3]);
        assert_eq!(l.join_edges.len(), 2);
        assert_eq!(
            l.join_edges[0],
            JoinEdge {
                left: 0,
                right: 1,
                attr: "A".into()
            }
        );
        assert_eq!(l.filter_counts, vec![0, 1, 1]);
        // CW.W < 303 keeps rows 300..=302 → 3 of 6.
        assert_eq!(l.base_taus[2], 6);
        assert_eq!(l.filtered_taus[2], 3);
        assert!((l.selectivities[2] - 0.5).abs() < 1e-12);
        // AU.A != 99 keeps everything.
        assert_eq!(l.filtered_taus[1], 3);
        assert!((l.selectivities[1] - 1.0).abs() < 1e-12);
        assert!(l.has_rows());
    }

    #[test]
    fn intra_table_col_col_is_a_filter() {
        let l = lowered("SELECT * FROM ABCF, AU WHERE ABCF.A = AU.A AND ABCF.A = ABCF.B");
        assert_eq!(l.filter_counts, vec![1, 0]);
        assert_eq!(l.join_edges.len(), 1);
        // Rows where i%3 == i%4: i ∈ {0,1,2} of 0..12 → 3 rows.
        assert_eq!(l.filtered_taus[0], 3);
    }

    #[test]
    fn constant_on_the_left_flips_the_operator() {
        let a = lowered("SELECT * FROM CW, ABCF WHERE ABCF.C = CW.C AND 303 > CW.W");
        let b = lowered("SELECT * FROM CW, ABCF WHERE ABCF.C = CW.C AND CW.W < 303");
        assert_eq!(a.filtered_taus, b.filtered_taus);
    }

    #[test]
    fn mixed_type_comparisons_are_deterministic() {
        let l = lowered("SELECT * FROM ABCF, AU WHERE ABCF.A = AU.A AND AU.U = 'x'");
        assert_eq!(l.filtered_taus[1], 0, "int column never equals a string");
        let l = lowered("SELECT * FROM ABCF, AU WHERE ABCF.A = AU.A AND AU.U != 'x'");
        assert_eq!(l.filtered_taus[1], 3, "!= holds for mixed types");
    }

    #[test]
    fn rejections_are_invalid_query() {
        let db = star();
        for bad in [
            "SELECT * FROM NOPE",
            "SELECT * FROM ABCF, ABCF WHERE ABCF.A = 1",
            "SELECT * FROM ABCF, AU WHERE ABCF.A = BV.B",
            "SELECT * FROM ABCF, AU WHERE ABCF.Z = 1",
            "SELECT * FROM ABCF, AU WHERE AU.F = 1",
            "SELECT * FROM ABCF, AU WHERE 1 = 2",
            "SELECT * FROM ABCF, AU WHERE ABCF.A < AU.A",
            "SELECT * FROM ABCF, AU WHERE ABCF.A = AU.U",
        ] {
            let q = parse_query(bad).expect(bad);
            match lower(&q, &db) {
                Err(MjoinError::InvalidQuery(_)) => {}
                other => panic!("{bad:?}: expected InvalidQuery, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_only_uses_heuristic_selectivities() {
        let db =
            Database::from_specs(&[("AB", Vec::<Vec<i64>>::new()), ("BC", Vec::new())]).unwrap();
        let q = parse_query("SELECT * FROM AB, BC WHERE AB.B = BC.B AND AB.A = 1 AND BC.C < 5")
            .unwrap();
        let l = lower(&q, &db).unwrap();
        assert!(!l.has_rows());
        assert!((l.selectivities[0] - 0.1).abs() < 1e-12);
        assert!((l.selectivities[1] - 1.0 / 3.0).abs() < 1e-12);
    }
}
