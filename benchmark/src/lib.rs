//! Shared, `std`-only pieces of the benchmark: the seeded workload
//! generators, the counting evaluator that checks `execute` answers, the
//! statistics, the metric tables and a small JSON codec.
//!
//! Nothing here links an `mjoin*` crate — the end-to-end driver
//! (`--bin bench`) is built from this library alone, so an internal
//! refactor of the workspace can never break it. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count;
pub mod db;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
