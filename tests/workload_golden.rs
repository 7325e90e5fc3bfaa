//! Golden star/snowflake workload suite for the query front end.
//!
//! Each `tests/workloads/*.sql` file carries a `-- db: PATH` directive
//! naming its database; the suite runs `mjoin query DB @SQL --threads 1`
//! for every workload and byte-compares the output against the committed
//! snapshot in `tests/workloads/golden/`. Regenerate after an intentional
//! output change with:
//!
//! ```text
//! MJOIN_UPDATE_GOLDEN=1 cargo test --test workload_golden
//! ```
//!
//! Beyond the snapshots, the suite pins the PR's planning claims
//! directly: on the star corpus the optimizer joins the filtered
//! dimension first, and on the statistics-only star the selectivity-aware
//! model's plan has strictly lower estimated τ than the filter-blind
//! model's.

use std::fs;
use std::path::PathBuf;

use mjoin_cli::{parse_input, query_synthetic_oracle, run};

/// Every committed workload, in suite order.
const WORKLOADS: &[&str] = &[
    "star_q1", "star_q2", "star_q3", "snow_q1", "snow_q2", "stats_q1", "stats_q2",
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, |path| {
        fs::read_to_string(repo_path(path)).map_err(|e| e.to_string())
    })
    .expect("workload command succeeds")
}

/// Extracts the `-- db: PATH` directive from a workload's text.
fn db_of(name: &str, sql: &str) -> String {
    sql.lines()
        .find_map(|l| l.trim().strip_prefix("-- db:"))
        .unwrap_or_else(|| panic!("{name}.sql is missing its '-- db: PATH' directive"))
        .trim()
        .to_string()
}

fn workload_output(name: &str) -> String {
    let sql_rel = format!("tests/workloads/{name}.sql");
    let sql = fs::read_to_string(repo_path(&sql_rel)).expect("workload sql readable");
    let db = db_of(name, &sql);
    cli(&["query", &db, &format!("@{sql_rel}"), "--threads", "1"])
}

#[test]
fn workload_plans_are_byte_identical() {
    let update = std::env::var("MJOIN_UPDATE_GOLDEN").is_ok();
    for name in WORKLOADS {
        let out = workload_output(name);
        let path = repo_path(&format!("tests/workloads/golden/{name}.txt"));
        if update {
            fs::write(&path, &out).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with MJOIN_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            out, expected,
            "golden mismatch for {name}; regenerate with MJOIN_UPDATE_GOLDEN=1 \
             if the change is intentional"
        );
    }
}

/// Selection pushdown makes dimension-first plans fall out of exact
/// costing: with the CW filter keeping 3 of 30 tuples, the fact must join
/// the filtered dimension before any unfiltered one.
#[test]
fn star_plans_join_the_filtered_dimension_first() {
    let out = workload_output("star_q1");
    assert!(
        out.contains("step 1: ABCF ⋈ CW"),
        "expected the filtered dimension joined first:\n{out}"
    );
    assert!(
        out.contains("CW: 30 -> 3 tuples"),
        "expected the pushed-down filter reported:\n{out}"
    );
}

/// The acceptance criterion: on the statistics-only star corpus, the plan
/// chosen by the selectivity-aware model has **strictly lower** estimated
/// τ (under the aware model — the best available belief) than the plan a
/// filter-blind model chooses.
#[test]
fn aware_model_strictly_beats_blind_on_the_stats_star() {
    for name in ["stats_q1", "stats_q2"] {
        let sql_rel = format!("tests/workloads/{name}.sql");
        let sql = fs::read_to_string(repo_path(&sql_rel)).expect("workload sql readable");
        let db_text =
            fs::read_to_string(repo_path(&db_of(name, &sql))).expect("workload db readable");
        let input = parse_input(&db_text).expect("workload db parses");
        let query = mjoin::parse_query(&sql).expect("workload sql parses");
        let lowered = mjoin::lower(&query, &input.database).expect("workload sql lowers");
        assert!(!lowered.has_rows(), "{name}: statistics-only by design");

        let blind = query_synthetic_oracle(&input, &lowered).expect("blind model");
        let mut aware = query_synthetic_oracle(&input, &lowered).expect("aware model");
        lowered.fold_into(&mut aware).expect("selectivity folding");

        let guard = mjoin::Guard::unlimited();
        let full = lowered.database.scheme().full_set();
        let plan_blind = mjoin::try_optimize(&blind, full, mjoin::SearchSpace::All, &guard)
            .expect("blind optimize")
            .expect("nonempty space");
        let plan_aware = mjoin::try_optimize(&aware, full, mjoin::SearchSpace::All, &guard)
            .expect("aware optimize")
            .expect("nonempty space");

        // Both plans costed under the aware model, apples to apples.
        let aware_of_aware = plan_aware.cost;
        let aware_of_blind = plan_blind
            .strategy
            .try_cost(&aware)
            .expect("costing the blind plan under the aware model");
        assert!(
            aware_of_aware < aware_of_blind,
            "{name}: aware plan (τ≈{aware_of_aware}) must strictly beat the \
             blind plan (τ≈{aware_of_blind} under the aware model)\n\
             aware: {}\nblind: {}",
            plan_aware
                .strategy
                .render(lowered.database.catalog(), lowered.database.scheme()),
            plan_blind
                .strategy
                .render(lowered.database.catalog(), lowered.database.scheme()),
        );
    }
}

/// Every workload database referenced by a directive parses, and every
/// workload query lowers onto it — so a typo in the corpus fails loudly
/// here rather than as a confusing golden mismatch.
#[test]
fn workload_corpus_is_self_consistent() {
    for name in WORKLOADS {
        let sql_rel = format!("tests/workloads/{name}.sql");
        let sql = fs::read_to_string(repo_path(&sql_rel)).expect("workload sql readable");
        let db_rel = db_of(name, &sql);
        let db_text = fs::read_to_string(repo_path(&db_rel))
            .unwrap_or_else(|e| panic!("{name}: db {db_rel}: {e}"));
        let input = parse_input(&db_text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let query = mjoin::parse_query(&sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        let lowered =
            mjoin::lower(&query, &input.database).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !lowered.join_edges.is_empty(),
            "{name}: workload queries are joins by construction"
        );
    }
}
