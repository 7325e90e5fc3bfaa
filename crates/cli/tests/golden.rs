//! Golden snapshots: with metrics disabled, the CLI's output for the
//! paper's five examples is byte-identical to the committed expectations.
//! This pins the user-facing text (and, transitively, the planner's
//! deterministic choices) so the observability layer — or any future
//! change — cannot silently alter an un-instrumented run.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! MJOIN_UPDATE_GOLDEN=1 cargo test -p mjoin-cli --test golden
//! ```
//!
//! Every command pins `--threads 1` so snapshots are stable under CI's
//! `MJOIN_THREADS=2` suite run.

use std::fs;
use std::path::PathBuf;

use mjoin_cli::run;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, |path| {
        fs::read_to_string(repo_path(path)).map_err(|e| e.to_string())
    })
    .expect("golden command succeeds")
}

/// (snapshot name, CLI invocation). `--threads 1` pins the sequential
/// code path; no metrics flag appears, so these runs must be identical
/// to a build without the observability layer.
const CASES: &[(&str, &[&str])] = &[
    ("analyze_example1", &["analyze", "examples/example1.mj"]),
    ("analyze_example2", &["analyze", "examples/example2.mj"]),
    ("analyze_example3", &["analyze", "examples/example3.mj"]),
    ("analyze_example4", &["analyze", "examples/example4.mj"]),
    ("analyze_example5", &["analyze", "examples/example5.mj"]),
    ("optimize_example1", &["optimize", "examples/example1.mj"]),
    ("optimize_example2", &["optimize", "examples/example2.mj"]),
    ("optimize_example3", &["optimize", "examples/example3.mj"]),
    ("optimize_example4", &["optimize", "examples/example4.mj"]),
    ("optimize_example5", &["optimize", "examples/example5.mj"]),
    ("execute_example1", &["execute", "examples/example1.mj"]),
    ("execute_example2", &["execute", "examples/example2.mj"]),
    ("execute_example3", &["execute", "examples/example3.mj"]),
    ("execute_example4", &["execute", "examples/example4.mj"]),
    ("execute_example5", &["execute", "examples/example5.mj"]),
];

#[test]
fn golden_outputs_are_byte_identical() {
    let update = std::env::var("MJOIN_UPDATE_GOLDEN").is_ok();
    for (name, base) in CASES {
        let mut args = base.to_vec();
        args.extend(["--threads", "1"]);
        let out = cli(&args);
        let path = repo_path(&format!("crates/cli/tests/golden/{name}.txt"));
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

/// The large-query rungs are invisible on the paper's examples: with a
/// plain (unlimited) budget the ladder answers every example at `Dp` or
/// above, so `LinDp` and `PartitionedDp` never fire — and the golden
/// snapshots above therefore cannot have moved. A regression here means
/// the ladder's entry point or rung ordering changed for small queries.
#[test]
fn new_rungs_never_fire_on_the_paper_examples() {
    use mjoin::{optimize_database_robust_threaded, Budget, Rung, SearchSpace};
    for file in [
        "examples/example1.mj",
        "examples/example2.mj",
        "examples/example3.mj",
        "examples/example4.mj",
        "examples/example5.mj",
    ] {
        let text = fs::read_to_string(repo_path(file)).expect("example file readable");
        let parsed = mjoin_cli::parse_input(&text).expect("example file parses");
        let r = optimize_database_robust_threaded(
            &parsed.database,
            SearchSpace::All,
            Budget::unlimited(),
            None,
            1,
        )
        .expect("paper examples always plan");
        assert!(
            !matches!(r.report.answered_by, Rung::LinDp | Rung::PartitionedDp),
            "{file}: a large-query rung answered a {}-relation example\n{}",
            parsed.database.len(),
            r.report
        );
        assert!(
            r.report
                .attempts
                .iter()
                .all(|a| !matches!(a.rung, Rung::LinDp | Rung::PartitionedDp)),
            "{file}: a large-query rung was attempted before the answer\n{}",
            r.report
        );
    }
}

/// The committed `.mj` transcriptions agree with the canonical in-crate
/// databases (`mjoin_gen::data::paper_example*`): same per-relation sizes
/// and the same full-join result, so the goldens really do cover the
/// paper's examples and not a drifted copy.
#[test]
fn example_files_match_the_gen_crate_databases() {
    let canonical = [
        ("examples/example1.mj", mjoin_gen::data::paper_example1()),
        ("examples/example2.mj", mjoin_gen::data::paper_example2()),
        ("examples/example3.mj", mjoin_gen::data::paper_example3()),
        ("examples/example4.mj", mjoin_gen::data::paper_example4()),
        ("examples/example5.mj", mjoin_gen::data::paper_example5()),
    ];
    for (file, db) in canonical {
        let text = fs::read_to_string(repo_path(file)).expect("example file readable");
        let parsed = mjoin_cli::parse_input(&text).expect("example file parses");
        assert_eq!(parsed.database.len(), db.len(), "{file}: relation count");
        for i in 0..db.len() {
            assert_eq!(
                parsed.database.state(i).tau(),
                db.state(i).tau(),
                "{file}: relation {i} size"
            );
        }
        let a = mjoin::ExactOracle::new(&parsed.database);
        let b = mjoin::ExactOracle::new(&db);
        use mjoin::CardinalityOracle;
        assert_eq!(
            a.tau(parsed.database.scheme().full_set()),
            b.tau(db.scheme().full_set()),
            "{file}: full-join size"
        );
    }
}
