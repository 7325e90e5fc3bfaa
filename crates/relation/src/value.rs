//! Attribute values.

use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// The paper leaves domains abstract; two concrete domains cover every
/// example and experiment: integers and (cheaply clonable) strings. Values
/// are totally ordered across variants (all integers before all strings) so
/// relations can keep their tuples in a canonical sort order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A string value. `Arc<str>` keeps tuple cloning cheap during joins.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Returns the integer if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// Returns the string if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Honours the formatter's width, fill and alignment like `i64` and `str`
/// do: `format!("{:<5}", Value::Int(1))` is `"1    "`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => fmt::Display::fmt(i, f),
            Value::Str(s) => f.pad(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(String::from("x")), Value::str("x"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::str("hi").as_int(), None);
    }

    #[test]
    fn total_order_across_variants() {
        let mut vs = vec![
            Value::str("b"),
            Value::Int(2),
            Value::str("a"),
            Value::Int(1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("q").to_string(), "q");
        assert_eq!(format!("{:?}", Value::str("q")), "\"q\"");
        assert_eq!(format!("{:?}", Value::Int(5)), "5");
    }

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:<5}|", Value::Int(1)), "1    |");
        assert_eq!(format!("{:>5}|", Value::Int(-1)), "   -1|");
        assert_eq!(format!("{:05}", Value::Int(-1)), "-0001");
        assert_eq!(format!("{:<4}|", Value::str("é")), "é   |");
        assert_eq!(format!("{:^5}|", Value::str("ab")), " ab  |");
        assert_eq!(format!("{:.2}", Value::str("abc")), "ab");
        for v in [Value::Int(i64::MIN), Value::str("日本"), Value::str("")] {
            assert_eq!(format!("{v:<9}"), format!("{:<9}", v.to_string()));
        }
    }
}
