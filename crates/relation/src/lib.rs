//! A minimal, self-contained relational engine.
//!
//! This crate implements exactly the formal machinery of Section 2 of
//! Tay, *On the Optimality of Strategies for Multiple Joins* (PODS 1990 /
//! JACM 1993): attributes, relation schemes, tuples, relation states, and
//! the natural join — plus the auxiliary operators (projection, selection,
//! semijoin, set operations) that the paper's Sections 4–5 rely on.
//!
//! # Design
//!
//! * **Attributes** are interned: an [`Attribute`] is a small integer index
//!   into a [`Catalog`], and a relation scheme is an [`AttrSet`] — a
//!   fixed-width bitset supporting up to [`MAX_ATTRS`] attributes. All
//!   scheme-level reasoning (linked / disjoint / connected, Section 2 of the
//!   paper) reduces to word-parallel bit operations.
//! * **Relation states are flat.** A [`Relation`] keeps its tuples in one
//!   row-major buffer of [`Value`]s — row `i` is the `i`-th run of
//!   `arity` values — with the row count alongside, since a relation over
//!   the empty scheme (a projection onto no shared attribute) holds its
//!   one tuple, or none, in no values. There is no heap box per tuple:
//!   rows are read as `&[Value]` slices ([`Relation::rows`],
//!   [`Relation::row`]), a join appends each output row's values to one
//!   buffer, and building a relation sorts a permutation of row indices
//!   (skipped when the rows are already in order) rather than the rows.
//! * **Relation states are sets.** A [`Relation`] holds no tuple twice —
//!   what the paper's cost measure τ counts (the *number of tuples*,
//!   [`Relation::tau`]). One built from rows keeps its rows sorted; a
//!   join's output keeps the order the join emitted it in. Equality is set
//!   equality, hashing agrees with it, the rendered text is sorted, and
//!   every order is deterministic — important for reproducible
//!   experiments.
//! * **Joins** are hash joins ([`Relation::natural_join`], guarded and
//!   partitioned variants alongside); their output is neither sorted nor
//!   deduplicated, since the join of two sets is a set. The build table
//!   keys on borrowed row slices, and the partitioned join's partitions
//!   are lists of row ids. The sort-merge and nested-loop joins that check
//!   them, and that the benches in `mjoin-bench` time against them, live
//!   in `mjoin-reference`.
//!
//! # Quickstart
//!
//! ```
//! use mjoin_relation::{Catalog, Relation, Value};
//!
//! let mut cat = Catalog::new();
//! let ab = cat.scheme("AB").unwrap();
//! let bc = cat.scheme("BC").unwrap();
//!
//! let r = Relation::from_rows(ab, vec![
//!     vec![Value::from(1), Value::from(10)],
//!     vec![Value::from(2), Value::from(20)],
//! ]).unwrap();
//! let s = Relation::from_rows(bc, vec![
//!     vec![Value::from(10), Value::from(100)],
//!     vec![Value::from(30), Value::from(300)],
//! ]).unwrap();
//!
//! let joined = r.natural_join(&s);
//! assert_eq!(joined.tau(), 1); // only B = 10 matches
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod error;
mod join;
mod ops;
mod relation;
mod value;

pub use attr::{AttrSet, AttrSetIter, Attribute, Catalog, MAX_ATTRS};
pub use error::RelationError;
pub use relation::Relation;
pub use value::Value;
