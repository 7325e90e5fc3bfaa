//! Experiment harness regenerating every artifact of Tay's paper.
//!
//! The paper is theory; its "evaluation" consists of worked examples with
//! literal data tables (Examples 1–5), tree-transformation figures
//! (Figures 1–6), the strategy-counting claims of the introduction, and
//! the Section 4–5 applications. Each experiment below regenerates one of
//! those artifacts (or a randomized scale-up of it) and prints a table;
//! `cargo run -p mjoin-bench --bin experiments` runs them all and is the
//! source of `EXPERIMENTS.md`.
//!
//! Experiments are plain functions returning [`Table`]s so the integration
//! tests can pin their contents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
mod table;

pub use report::{bench_report_path, write_bench_report};
pub use table::Table;

/// The first line of the experiment report; each table follows after a
/// blank line.
pub const REPORT_TITLE: &str = "# mjoin — paper experiments (Tay, PODS 1990 / JACM 1993)";

/// A named experiment: its registry id and runner.
pub type Experiment = (&'static str, fn() -> Table);

/// The registry of all experiments, in report order: `(id, runner)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("E0-counting", experiments::counting::run as fn() -> Table),
        ("E1-example1", experiments::examples::example1),
        ("E2-example2", experiments::examples::example2),
        ("E3-example3", experiments::examples::example3),
        ("E4-example4", experiments::examples::example4),
        ("E5-example5", experiments::examples::example5),
        ("F3-theorem1", experiments::theorems::theorem1_randomized),
        ("F4F5-theorem2", experiments::theorems::theorem2_randomized),
        ("F6-theorem3", experiments::theorems::theorem3_randomized),
        ("G3-small-c1", experiments::theorems::small_c1_search),
        (
            "A1-superkeys",
            experiments::applications::superkeys_imply_c3,
        ),
        (
            "A2-lossless",
            experiments::applications::lossless_implies_c2,
        ),
        (
            "A3-acyclic-c4",
            experiments::applications::acyclic_consistent_c4,
        ),
        (
            "A4-intersection",
            experiments::applications::intersection_linear_optimal,
        ),
        (
            "A5-yannakakis",
            experiments::applications::yannakakis_vs_optimum,
        ),
        (
            "A6-monotone",
            experiments::applications::monotone_strategies,
        ),
        ("G1-linear-vs-bushy", experiments::sweeps::linear_vs_bushy),
        (
            "G2-condition-frequency",
            experiments::sweeps::condition_frequency,
        ),
        (
            "G4-objective-robustness",
            experiments::sweeps::objective_robustness,
        ),
        (
            "G5-estimation-quality",
            experiments::sweeps::estimation_quality,
        ),
        (
            "G6-enumeration-complexity",
            experiments::sweeps::enumeration_complexity,
        ),
    ]
}
