//! Hand-rolled lexer and recursive-descent parser for the DSL.
//!
//! Totality is the contract: for *any* input string the parser returns
//! either a [`Query`] or [`MjoinError::InvalidQuery`] naming the position
//! — no panics, no other error class (the mutation-fuzz suite drives
//! arbitrary byte edits through here to prove it). To that end the lexer
//! walks `char`s, never indexes bytes, and every limit (integer range,
//! string termination) is an explicit check.

use mjoin_guard::{failpoints, MjoinError};
use mjoin_obs::{incr, Counter};

use crate::ast::{CmpOp, ColRef, Operand, Predicate, Query, Scalar};

/// Where a token started, for error messages (1-based).
#[derive(Clone, Copy, Debug)]
struct Pos {
    line: usize,
    col: usize,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Op(CmpOp),
    Star,
    Comma,
    Dot,
    Semi,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Int(i) => write!(f, "integer {i}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Op(op) => write!(f, "operator {op:?}"),
            Tok::Star => f.write_str("'*'"),
            Tok::Comma => f.write_str("','"),
            Tok::Dot => f.write_str("'.'"),
            Tok::Semi => f.write_str("';'"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

fn invalid(pos: Pos, msg: impl std::fmt::Display) -> MjoinError {
    MjoinError::InvalidQuery(format!("{msg} at {pos}"))
}

fn lex(text: &str) -> Result<Vec<(Tok, Pos)>, MjoinError> {
    let mut toks = Vec::new();
    let mut chars = text.chars().peekable();
    let (mut line, mut col) = (1usize, 1usize);
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }
    loop {
        let pos = Pos { line, col };
        let Some(&c) = chars.peek() else {
            toks.push((Tok::Eof, pos));
            return Ok(toks);
        };
        match c {
            c if c.is_whitespace() => {
                bump!();
            }
            '-' => {
                bump!();
                match chars.peek() {
                    // `--` comment: skip to end of line.
                    Some('-') => {
                        while let Some(&c) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    // A negative integer literal.
                    Some(d) if d.is_ascii_digit() => {
                        let mut digits = String::from("-");
                        while let Some(&d) = chars.peek() {
                            if !d.is_ascii_digit() {
                                break;
                            }
                            digits.push(d);
                            bump!();
                        }
                        let n = digits.parse::<i64>().map_err(|_| {
                            invalid(pos, format!("integer literal {digits} out of range"))
                        })?;
                        toks.push((Tok::Int(n), pos));
                    }
                    _ => return Err(invalid(pos, "unexpected '-' (expected '--' or a digit)")),
                }
            }
            d if d.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(&d) = chars.peek() {
                    if !d.is_ascii_digit() {
                        break;
                    }
                    digits.push(d);
                    bump!();
                }
                let n = digits
                    .parse::<i64>()
                    .map_err(|_| invalid(pos, format!("integer literal {digits} out of range")))?;
                toks.push((Tok::Int(n), pos));
            }
            '\'' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some('\'') => break,
                        Some('\n') | None => {
                            return Err(invalid(pos, "unterminated string literal"));
                        }
                        Some(c) => s.push(c),
                    }
                }
                toks.push((Tok::Str(s), pos));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if !(c.is_alphanumeric() || c == '_') {
                        break;
                    }
                    word.push(c);
                    bump!();
                }
                toks.push((Tok::Ident(word), pos));
            }
            '*' => {
                bump!();
                toks.push((Tok::Star, pos));
            }
            ',' => {
                bump!();
                toks.push((Tok::Comma, pos));
            }
            '.' => {
                bump!();
                toks.push((Tok::Dot, pos));
            }
            ';' => {
                bump!();
                toks.push((Tok::Semi, pos));
            }
            '=' => {
                bump!();
                toks.push((Tok::Op(CmpOp::Eq), pos));
            }
            '!' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    toks.push((Tok::Op(CmpOp::Ne), pos));
                } else {
                    return Err(invalid(pos, "unexpected '!' (expected '!=')"));
                }
            }
            '<' => {
                bump!();
                match chars.peek() {
                    Some('=') => {
                        bump!();
                        toks.push((Tok::Op(CmpOp::Le), pos));
                    }
                    Some('>') => {
                        bump!();
                        toks.push((Tok::Op(CmpOp::Ne), pos));
                    }
                    _ => toks.push((Tok::Op(CmpOp::Lt), pos)),
                }
            }
            '>' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    toks.push((Tok::Op(CmpOp::Ge), pos));
                } else {
                    toks.push((Tok::Op(CmpOp::Gt), pos));
                }
            }
            other => {
                return Err(invalid(pos, format!("unexpected character {other:?}")));
            }
        }
    }
}

struct Parser {
    toks: Vec<(Tok, Pos)>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &(Tok, Pos) {
        // The token stream always ends with `Eof`; clamping means a
        // run-past can only ever re-observe it.
        &self.toks[self.at.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> (Tok, Pos) {
        let t = self.peek().clone();
        self.at += 1;
        t
    }

    fn keyword(&mut self, word: &str) -> Result<(), MjoinError> {
        let (tok, pos) = self.next();
        match tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case(word) => Ok(()),
            other => Err(invalid(pos, format!("expected {word}, found {other}"))),
        }
    }

    fn is_keyword(&self, word: &str) -> bool {
        matches!(&self.peek().0, Tok::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    fn ident(&mut self, what: &str) -> Result<String, MjoinError> {
        let (tok, pos) = self.next();
        match tok {
            Tok::Ident(s) => {
                // Reserved words can never be table/column names; catching
                // them here turns "FROM WHERE" into a clear error.
                for kw in ["select", "from", "where", "and"] {
                    if s.eq_ignore_ascii_case(kw) {
                        return Err(invalid(
                            pos,
                            format!("keyword {} cannot be used as {what}", s.to_uppercase()),
                        ));
                    }
                }
                Ok(s)
            }
            other => Err(invalid(pos, format!("expected {what}, found {other}"))),
        }
    }

    fn operand(&mut self) -> Result<Operand, MjoinError> {
        match &self.peek().0 {
            Tok::Int(_) | Tok::Str(_) => {
                let (tok, _) = self.next();
                Ok(Operand::Lit(match tok {
                    Tok::Int(i) => Scalar::Int(i),
                    Tok::Str(s) => Scalar::Str(s),
                    _ => unreachable!("matched a literal token"),
                }))
            }
            _ => {
                let table = self.ident("a table name")?;
                let (tok, pos) = self.next();
                if tok != Tok::Dot {
                    return Err(invalid(
                        pos,
                        format!("expected '.' after table {table:?}, found {tok}"),
                    ));
                }
                let column = self.ident("a column name")?;
                Ok(Operand::Col(ColRef { table, column }))
            }
        }
    }

    fn predicate(&mut self) -> Result<Predicate, MjoinError> {
        let left = self.operand()?;
        let (tok, pos) = self.next();
        let Tok::Op(op) = tok else {
            return Err(invalid(
                pos,
                format!("expected a comparison operator, found {tok}"),
            ));
        };
        let right = self.operand()?;
        Ok(Predicate { left, op, right })
    }

    fn query(&mut self) -> Result<Query, MjoinError> {
        self.keyword("select")?;
        let (tok, pos) = self.next();
        if tok != Tok::Star {
            return Err(invalid(
                pos,
                format!("only SELECT * is supported, found {tok}"),
            ));
        }
        self.keyword("from")?;
        let mut tables = vec![self.ident("a table name")?];
        while self.peek().0 == Tok::Comma {
            self.next();
            tables.push(self.ident("a table name")?);
        }
        let mut predicates = Vec::new();
        if self.is_keyword("where") {
            self.next();
            predicates.push(self.predicate()?);
            while self.is_keyword("and") {
                self.next();
                predicates.push(self.predicate()?);
            }
        }
        if self.peek().0 == Tok::Semi {
            self.next();
        }
        let (tok, pos) = self.next();
        if tok != Tok::Eof {
            return Err(invalid(pos, format!("unexpected {tok} after the query")));
        }
        Ok(Query { tables, predicates })
    }
}

/// Parses one DSL query. Guarded by the `query::parse` failpoint; every
/// malformed input yields [`MjoinError::InvalidQuery`] with the offending
/// position, never a panic.
pub fn parse_query(text: &str) -> Result<Query, MjoinError> {
    failpoints::hit("query::parse")?;
    let toks = lex(text)?;
    let query = Parser { toks, at: 0 }.query()?;
    incr(Counter::QueryParsed, 1);
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> Query {
        parse_query(text).expect(text)
    }

    #[test]
    fn parses_the_full_surface() {
        let query = q("SELECT * FROM ABC, AU\nWHERE ABC.A = AU.A AND AU.U != 'x' \
                       AND ABC.B >= -3 AND 5 <> ABC.C;");
        assert_eq!(query.tables, vec!["ABC", "AU"]);
        assert_eq!(query.predicates.len(), 4);
        assert_eq!(query.predicates[1].op, CmpOp::Ne);
        assert_eq!(query.predicates[2].right, Operand::Lit(Scalar::Int(-3)),);
        assert_eq!(query.predicates[3].left, Operand::Lit(Scalar::Int(5)));
    }

    #[test]
    fn keywords_are_case_insensitive_and_comments_skipped() {
        let a = q("select * from AB, BC where AB.B = BC.B");
        let b = q("-- a comment\nSELECT * FROM AB, BC -- inline\nWHERE AB.B = BC.B");
        assert_eq!(a, b);
    }

    #[test]
    fn no_where_clause_is_fine() {
        assert!(q("SELECT * FROM AB, BC").predicates.is_empty());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT ABC FROM ABC",
            "SELECT * FROM ABC,",
            "SELECT * FROM ABC WHERE",
            "SELECT * FROM ABC WHERE ABC.A",
            "SELECT * FROM ABC WHERE ABC.A = ",
            "SELECT * FROM ABC WHERE ABC.A ! 3",
            "SELECT * FROM ABC WHERE ABC.A = 'unterminated",
            "SELECT * FROM ABC WHERE ABC.A = 99999999999999999999",
            "SELECT * FROM ABC WHERE ABC.A = 3 trailing",
            "SELECT * FROM WHERE",
            "SELECT * FROM ABC @",
            "SELECT * FROM ABC WHERE ABC . = 3",
        ] {
            match parse_query(bad) {
                Err(MjoinError::InvalidQuery(msg)) => {
                    assert!(msg.contains("line"), "{bad:?}: no position in {msg:?}");
                }
                other => panic!("{bad:?}: expected InvalidQuery, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_query("SELECT * FROM ABC\nWHERE ABC.A ? 3").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn render_round_trips() {
        for text in [
            "SELECT * FROM ABC",
            "SELECT * FROM ABC, AU WHERE ABC.A = AU.A",
            "SELECT * FROM ABC, AU WHERE ABC.A = AU.A AND AU.U < 'm' AND 3 <= ABC.B",
        ] {
            let once = q(text);
            let twice = q(&once.render());
            assert_eq!(once, twice, "{text}");
            assert_eq!(once.render(), twice.render(), "{text}");
        }
    }
}
