//! Database schemes viewed as hypergraphs.
//!
//! Section 2 of Tay's paper suggests imagining "a database scheme as a graph
//! with its relation schemes as nodes, and an edge between two nodes if and
//! only if they have nonempty intersection". This crate makes that picture
//! executable:
//!
//! * [`DbScheme`] — a database scheme: an indexed family of relation schemes
//!   over one attribute catalog;
//! * [`RelSet`] — a subset of a database scheme, as a 64-bit bitset (the
//!   paper's `D′ ⊆ D`);
//! * the paper's predicates: [`DbScheme::linked`], [`DbScheme::connected`],
//!   [`DbScheme::components`];
//! * subset enumeration used by the condition checkers in `mjoin`
//!   ([`DbScheme::connected_subsets`]), the streaming csg–cmp-pair
//!   enumerator behind DPccp ([`DbScheme::ccp_pairs`]), and the
//!   adjacency fast path for linkage tests
//!   ([`DbScheme::linked_disjoint`]);
//! * [`FastMap`]/[`FastSet`] — deterministic splitmix64-hashed maps for
//!   single-word bitset keys;
//! * acyclicity machinery for Section 5: GYO reduction
//!   ([`DbScheme::is_alpha_acyclic`]), Berge-, β- and γ-acyclicity, and
//!   [`JoinTree`] construction for α-acyclic schemes.
//!
//! ```
//! use mjoin_relation::Catalog;
//! use mjoin_hypergraph::DbScheme;
//!
//! let mut cat = Catalog::new();
//! // The paper's running example: {ABC, BE, DF} is unconnected with
//! // components {ABC, BE} and {DF}.
//! let d = DbScheme::parse(&mut cat, &["ABC", "BE", "DF"]).unwrap();
//! assert!(!d.connected(d.full_set()));
//! assert_eq!(d.components(d.full_set()).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acyclic;
mod hash;
mod jointree;
mod relset;
mod scheme;

pub use acyclic::Acyclicity;
pub use hash::{splitmix64, FastMap, FastSet, SplitMix64Hasher};
pub use jointree::JoinTree;
pub use relset::{RelSet, RelSetIter, SubsetIter, MAX_RELATIONS};
pub use scheme::DbScheme;
