//! Databases and cardinality oracles.
//!
//! The paper's cost measure is `τ` — *the number of tuples generated* by the
//! intermediate and final joins of a strategy. Everything in the theory
//! depends on the relations only through the map `D′ ↦ τ(R_{D′})`, so this
//! crate abstracts that map behind the one [`CardinalityOracle`] trait —
//! every method through `&self`, so one oracle serves a search and (when
//! it is also `Sync`) several threads at once — and
//! provides:
//!
//! * [`Database`] — a database scheme paired with relation states, the
//!   paper's pair `(𝐃, D)`;
//! * [`ExactOracle`] — exact tuple counts, memoized by scheme subset: the
//!   ground truth the theorems are stated over. A subset whose components
//!   all have join trees is *counted* — a bottom-up weight pass over each
//!   tree, linear in the input, building no tuple; only the cyclic residue
//!   is materialized (one member peeled onto the rest's relation). Its
//!   memos are sharded `RwLock` maps, so it is `Sync`: a worker pool can
//!   drive one memo (and charge one guard) from many threads;
//! * [`SyntheticOracle`] — a closed-form cardinality model (uniformity +
//!   independence + per-attribute domains) for experiments on queries far
//!   too large to materialize. The paper explicitly distrusts these
//!   assumptions for *proving* optimality — we use the model only to drive
//!   the large-n linear-vs-bushy sweeps, never inside the theorem checkers;
//! * [`NoisyOracle`] — a seeded wrapper multiplying any oracle's answers
//!   by deterministic per-subset error within a q-error envelope, turning
//!   estimation drift into an injectable fault class for the adaptive
//!   executor's tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod noisy;
mod oracle;

pub use database::Database;
pub use noisy::NoisyOracle;
pub use oracle::{CardinalityOracle, ExactOracle, SyntheticOracle};
