//! Error type for the relational engine.

use std::fmt;

/// Errors raised while constructing catalogs, schemes, or relations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelationError {
    /// The catalog already holds [`MAX_ATTRS`](crate::MAX_ATTRS) attributes.
    CatalogFull,
    /// A scheme specification parsed to the empty attribute set.
    ///
    /// The paper requires relation schemes to be nonempty subsets of the
    /// universe `U`.
    EmptyScheme,
    /// A comma-separated scheme specification contained an empty name.
    EmptyAttributeName,
    /// A row's width does not match its scheme's arity.
    ArityMismatch {
        /// Number of attributes in the scheme.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A projection target was not a subset of the relation's scheme.
    NotASubscheme,
    /// A database scheme held more relations than the bitset universe
    /// supports. Rejected at the construction boundary so release builds
    /// never silently wrap a `RelSet` shift.
    TooManyRelations {
        /// The cap (`mjoin_hypergraph::MAX_RELATIONS`).
        max: usize,
        /// How many relations the input supplied.
        got: usize,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::CatalogFull => {
                write!(
                    f,
                    "attribute catalog is full ({} attributes)",
                    crate::MAX_ATTRS
                )
            }
            RelationError::EmptyScheme => write!(f, "relation schemes must be nonempty"),
            RelationError::EmptyAttributeName => write!(f, "empty attribute name in scheme spec"),
            RelationError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row has {got} values but scheme has {expected} attributes"
                )
            }
            RelationError::NotASubscheme => {
                write!(
                    f,
                    "projection target is not a subset of the relation scheme"
                )
            }
            RelationError::TooManyRelations { max, got } => {
                write!(
                    f,
                    "database schemes are limited to {max} relations, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RelationError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
        assert!(!RelationError::CatalogFull.to_string().is_empty());
        assert!(!RelationError::EmptyScheme.to_string().is_empty());
        assert!(!RelationError::EmptyAttributeName.to_string().is_empty());
        assert!(!RelationError::NotASubscheme.to_string().is_empty());
        let e = RelationError::TooManyRelations { max: 64, got: 65 };
        assert!(e.to_string().contains("64") && e.to_string().contains("65"));
    }
}
