//! Parsing strategies from the paper's parenthesized notation.
//!
//! The paper writes strategies as `((R₁ ⋈ R₂) ⋈ R₃) ⋈ R₄` or, with scheme
//! names standing in for relations, `(ABC ⋈ BE) ⋈ DF`. [`Strategy::parse`]
//! accepts exactly that notation, resolving each name to the relation
//! whose scheme renders to it.

use mjoin_hypergraph::DbScheme;
use mjoin_relation::Catalog;

use crate::node::{Strategy, StrategyError};

/// Parse errors for strategy expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// A name did not match any relation scheme (or matched an ambiguous
    /// duplicate — refer to duplicates by index, e.g. `#2`).
    UnknownRelation(String),
    /// Structurally malformed expression (unbalanced parentheses, missing
    /// operand, trailing input, …).
    Malformed(String),
    /// The parsed tree violates the strategy invariants (a relation used
    /// twice).
    Invalid(StrategyError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
            ParseError::Malformed(m) => write!(f, "malformed strategy expression: {m}"),
            ParseError::Invalid(e) => write!(f, "invalid strategy: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    tokens: Vec<String>,
    pos: usize,
    catalog: &'a Catalog,
    scheme: &'a DbScheme,
}

impl<'a> Parser<'a> {
    fn tokenize(input: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut word = String::new();
        for c in input.chars() {
            match c {
                '(' | ')' => {
                    if !word.is_empty() {
                        tokens.push(std::mem::take(&mut word));
                    }
                    tokens.push(c.to_string());
                }
                c if c.is_whitespace() => {
                    if !word.is_empty() {
                        tokens.push(std::mem::take(&mut word));
                    }
                }
                '⋈' => {
                    if !word.is_empty() {
                        tokens.push(std::mem::take(&mut word));
                    }
                    tokens.push("⋈".to_string());
                }
                c => word.push(c),
            }
        }
        if !word.is_empty() {
            tokens.push(word);
        }
        // Also accept ASCII "join"/"*" as the operator.
        tokens
            .into_iter()
            .map(|t| {
                if t == "*" || t.eq_ignore_ascii_case("join") {
                    "⋈".to_string()
                } else {
                    t
                }
            })
            .collect()
    }

    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn bump(&mut self) -> Option<&str> {
        let t = self.tokens.get(self.pos).map(String::as_str);
        self.pos += 1;
        t
    }

    /// expr := operand (⋈ operand)*   — left-associative.
    fn expr(&mut self) -> Result<Strategy, ParseError> {
        let mut acc = self.operand()?;
        while self.peek() == Some("⋈") {
            self.bump();
            let rhs = self.operand()?;
            acc = Strategy::join(acc, rhs).map_err(ParseError::Invalid)?;
        }
        Ok(acc)
    }

    /// operand := '(' expr ')' | NAME | '#'INDEX
    fn operand(&mut self) -> Result<Strategy, ParseError> {
        match self.bump().map(str::to_owned) {
            Some(t) if t == "(" => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(")") => Ok(inner),
                    other => Err(ParseError::Malformed(format!(
                        "expected ')', found {other:?}"
                    ))),
                }
            }
            Some(t) if t == ")" || t == "⋈" => {
                Err(ParseError::Malformed("expected an operand".to_string()))
            }
            None => Err(ParseError::Malformed("expected an operand".to_string())),
            Some(name) => self.resolve(&name),
        }
    }

    fn resolve(&self, name: &str) -> Result<Strategy, ParseError> {
        if let Some(index) = name.strip_prefix('#') {
            let i: usize = index
                .parse()
                .map_err(|_| ParseError::UnknownRelation(name.to_string()))?;
            if i >= self.scheme.len() {
                return Err(ParseError::UnknownRelation(name.to_string()));
            }
            return Ok(Strategy::leaf(i));
        }
        let matches: Vec<usize> = (0..self.scheme.len())
            .filter(|&i| {
                let rendered = self.catalog.render(self.scheme.scheme(i));
                rendered == name || sorted(&rendered) == sorted(name)
            })
            .collect();
        match matches.as_slice() {
            [i] => Ok(Strategy::leaf(*i)),
            _ => Err(ParseError::UnknownRelation(name.to_string())),
        }
    }
}

fn sorted(s: &str) -> String {
    let mut cs: Vec<char> = s.chars().collect();
    cs.sort_unstable();
    cs.into_iter().collect()
}

impl Strategy {
    /// Parses the paper's parenthesized notation against a scheme, e.g.
    /// `"(ABC ⋈ BE) ⋈ DF"` (also accepting `*` or `join` for ⋈, names in
    /// any attribute order, and `#i` to pick the `i`-th relation when
    /// schemes repeat).
    ///
    /// ```
    /// use mjoin_relation::Catalog;
    /// use mjoin_hypergraph::DbScheme;
    /// use mjoin_strategy::Strategy;
    ///
    /// let mut cat = Catalog::new();
    /// let d = DbScheme::parse(&mut cat, &["ABC", "BE", "DF"]).unwrap();
    /// let s = Strategy::parse("(ABC ⋈ BE) ⋈ DF", &cat, &d).unwrap();
    /// assert!(s.is_linear());
    /// assert_eq!(s.render(&cat, &d), "((ABC ⋈ BE) ⋈ DF)");
    /// ```
    pub fn parse(
        input: &str,
        catalog: &Catalog,
        scheme: &DbScheme,
    ) -> Result<Strategy, crate::parse::ParseError> {
        let mut p = Parser {
            tokens: Parser::tokenize(input),
            pos: 0,
            catalog,
            scheme,
        };
        let s = p.expr()?;
        if p.pos != p.tokens.len() {
            return Err(ParseError::Malformed(format!(
                "trailing input at token {}",
                p.pos
            )));
        }
        if !s.validate(scheme) {
            return Err(ParseError::Invalid(StrategyError::OverlappingSubtrees));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_hypergraph::RelSet;

    fn setup() -> (Catalog, DbScheme) {
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, &["ABC", "BE", "DF", "CG"]).unwrap();
        (cat, d)
    }

    #[test]
    fn parses_paper_notation() {
        let (cat, d) = setup();
        let s = Strategy::parse("((ABC ⋈ BE) ⋈ DF) ⋈ CG", &cat, &d).unwrap();
        assert!(s.is_linear());
        assert_eq!(s.set(), RelSet::full(4));
        assert_eq!(s.render(&cat, &d), "(((ABC ⋈ BE) ⋈ DF) ⋈ CG)");
    }

    #[test]
    fn parses_bushy_and_operator_variants() {
        let (cat, d) = setup();
        let s = Strategy::parse("(ABC * BE) join (DF ⋈ CG)", &cat, &d).unwrap();
        assert!(s.is_bushy());
        assert!(s.has_node_with_set(RelSet::from_indices([2, 3])));
    }

    #[test]
    fn left_associativity_without_parens() {
        let (cat, d) = setup();
        let s = Strategy::parse("ABC ⋈ BE ⋈ DF", &cat, &d).unwrap();
        assert!(s.has_node_with_set(RelSet::from_indices([0, 1])));
        assert_eq!(s.num_steps(), 2);
    }

    #[test]
    fn name_order_is_insensitive() {
        let (cat, d) = setup();
        let s = Strategy::parse("CBA ⋈ EB", &cat, &d).unwrap();
        assert_eq!(s.set(), RelSet::from_indices([0, 1]));
    }

    #[test]
    fn index_form_resolves_duplicates() {
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, &["AB", "AB"]).unwrap();
        assert_eq!(
            Strategy::parse("AB ⋈ AB", &cat, &d).unwrap_err(),
            ParseError::UnknownRelation("AB".to_string())
        );
        let s = Strategy::parse("#0 ⋈ #1", &cat, &d).unwrap();
        assert_eq!(s.set(), RelSet::full(2));
    }

    #[test]
    fn rejects_malformed_input() {
        let (cat, d) = setup();
        for bad in ["(ABC ⋈ BE", "ABC ⋈", "⋈ ABC", "ABC BE", "(ABC ⋈ BE))", ""] {
            assert!(Strategy::parse(bad, &cat, &d).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_relations() {
        let (cat, d) = setup();
        assert!(matches!(
            Strategy::parse("ABC ⋈ ABC", &cat, &d).unwrap_err(),
            ParseError::Invalid(_)
        ));
    }

    #[test]
    fn rejects_unknown_names() {
        let (cat, d) = setup();
        assert_eq!(
            Strategy::parse("XYZ ⋈ ABC", &cat, &d).unwrap_err(),
            ParseError::UnknownRelation("XYZ".to_string())
        );
        assert!(Strategy::parse("#9 ⋈ ABC", &cat, &d).is_err());
    }

    #[test]
    fn parse_render_roundtrip() {
        let (cat, d) = setup();
        for expr in [
            "(((ABC ⋈ BE) ⋈ DF) ⋈ CG)",
            "((ABC ⋈ BE) ⋈ (DF ⋈ CG))",
            "(ABC ⋈ ((BE ⋈ DF) ⋈ CG))",
        ] {
            let s = Strategy::parse(expr, &cat, &d).unwrap();
            assert_eq!(s.render(&cat, &d), expr);
        }
    }

    #[test]
    fn error_display() {
        assert!(!ParseError::UnknownRelation("x".into())
            .to_string()
            .is_empty());
        assert!(!ParseError::Malformed("m".into()).to_string().is_empty());
        assert!(!ParseError::Invalid(StrategyError::NoSuchNode)
            .to_string()
            .is_empty());
    }
}
