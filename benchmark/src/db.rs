//! The generator's own database model and its rendering into the CLI's
//! database file format (`relation <SCHEME> [CARD]`, rows, `domain A N`).

use std::collections::HashMap;
use std::fmt::Write as _;

/// One relation: named attributes, optional declared cardinality, integer
/// rows. Rows are a *set* (the engine sorts and deduplicates states), so
/// [`Rel::new`] does the same and the counting evaluator agrees with it.
#[derive(Clone, Debug)]
pub struct Rel {
    /// Attribute names, in canonical (catalog) order — see [`Db::text`].
    pub attrs: Vec<String>,
    /// `relation R <card>`: the declared cardinality of a statistics-only
    /// relation.
    pub card: Option<u64>,
    /// The tuples, one value per attribute.
    pub rows: Vec<Vec<u32>>,
}

impl Rel {
    /// A materialized relation; sorts and deduplicates `rows`.
    pub fn new(attrs: Vec<String>, mut rows: Vec<Vec<u32>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == attrs.len()));
        rows.sort_unstable();
        rows.dedup();
        Rel {
            attrs,
            card: None,
            rows,
        }
    }

    /// A statistics-only relation of declared cardinality `card`.
    pub fn declared(attrs: Vec<String>, card: u64) -> Self {
        Rel {
            attrs,
            card: Some(card),
            rows: Vec::new(),
        }
    }

    /// Column of attribute `name`.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a == name)
    }

    /// The name the engine gives this relation (its rendered scheme):
    /// single-character attributes concatenated, longer ones comma-joined.
    pub fn name(&self) -> String {
        if self.attrs.iter().all(|a| a.chars().count() == 1) {
            self.attrs.concat()
        } else {
            self.attrs.join(",")
        }
    }
}

/// A database: relations in file order plus declared attribute domains.
#[derive(Clone, Debug, Default)]
pub struct Db {
    /// The relations.
    pub rels: Vec<Rel>,
    /// `domain <ATTR> <SIZE>` lines.
    pub domains: Vec<(String, u64)>,
}

impl Db {
    /// Renders the database file text.
    ///
    /// # Panics
    /// The engine interns attributes in order of first appearance and
    /// stores every row in ascending intern order, so a relation listing
    /// its attributes in any other order would have its columns silently
    /// permuted. Generators must emit canonical order; this checks it, and
    /// that a comma-form spec (multi-character names) has ≥ 2 attributes —
    /// without a comma the parser reads `x0` as the attributes `x` and `0`.
    pub fn text(&self) -> String {
        let mut intern: HashMap<&str, usize> = HashMap::new();
        let mut out = String::new();
        for rel in &self.rels {
            let mut last = None;
            for a in &rel.attrs {
                let next = intern.len();
                let idx = *intern.entry(a.as_str()).or_insert(next);
                assert!(
                    last < Some(idx),
                    "relation {} lists {a:?} out of catalog order",
                    rel.name()
                );
                last = Some(idx);
            }
            let name = rel.name();
            assert!(
                name.contains(',') || rel.attrs.iter().all(|a| a.chars().count() == 1),
                "relation {name:?}: a multi-character attribute needs a comma-form spec"
            );
            out.push_str("relation ");
            out.push_str(&name);
            if let Some(card) = rel.card {
                let _ = write!(out, " {card}");
            }
            out.push('\n');
            for row in &rel.rows {
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push('\n');
            }
        }
        for (attr, size) in &self.domains {
            let _ = writeln!(out, "domain {attr} {size}");
        }
        out
    }

    /// Every relation's engine-side name, in file order.
    pub fn table_names(&self) -> Vec<String> {
        self.rels.iter().map(Rel::name).collect()
    }

    /// The attributes relations `i` and `j` share.
    pub fn shared(&self, i: usize, j: usize) -> Vec<&str> {
        self.rels[i]
            .attrs
            .iter()
            .filter(|a| self.rels[j].attrs.contains(a))
            .map(String::as_str)
            .collect()
    }
}

/// `["A", "B", …]` from a string of single-character attribute names.
pub fn letters(spec: &str) -> Vec<String> {
    spec.chars().map(|c| c.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_cli_file_format() {
        let db = Db {
            rels: vec![
                Rel::new(letters("AB"), vec![vec![2, 20], vec![1, 10], vec![1, 10]]),
                Rel::declared(letters("BC"), 500),
            ],
            domains: vec![("B".into(), 700)],
        };
        assert_eq!(
            db.text(),
            "relation AB\n1 10\n2 20\nrelation BC 500\ndomain B 700\n"
        );
        assert_eq!(db.table_names(), ["AB", "BC"]);
        assert_eq!(db.shared(0, 1), ["B"]);
    }

    #[test]
    fn multi_character_names_use_the_comma_form() {
        let rel = Rel::new(vec!["x0".into(), "x1".into()], vec![vec![1, 2]]);
        assert_eq!(rel.name(), "x0,x1");
    }

    #[test]
    #[should_panic(expected = "out of catalog order")]
    fn a_non_canonical_column_order_is_caught() {
        // The closing relation of a cycle must be written (A, C), not (C, A).
        let db = Db {
            rels: vec![
                Rel::new(letters("AB"), vec![]),
                Rel::new(letters("BC"), vec![]),
                Rel::new(letters("CA"), vec![]),
            ],
            domains: vec![],
        };
        let _ = db.text();
    }
}
