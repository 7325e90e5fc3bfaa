//! `BENCH_<name>.json` emission over the observability schema.
//!
//! Every bench that publishes machine-readable results funnels through
//! [`write_bench_report`]: one [`RunReport`] document (schema_version,
//! counters, spans) plus a bench-specific `"results"` section. The
//! rendered text is re-parsed and schema-validated *before* it is
//! written, so a malformed document fails the bench instead of landing
//! in CI artifacts — and the emission itself goes through the
//! `obs::report` failpoint like every other report in the workspace.

use std::path::PathBuf;

use mjoin_obs::{json, validate_schema, Json, RunReport, Snapshot};

/// Where `BENCH_<name>.json` lands: `$MJOIN_BENCH_REPORT_DIR` when set
/// (CI points this at its artifact directory), else the working
/// directory.
pub fn bench_report_path(name: &str) -> PathBuf {
    let dir = std::env::var("MJOIN_BENCH_REPORT_DIR").unwrap_or_else(|_| ".".to_string());
    PathBuf::from(dir).join(format!("BENCH_{name}.json"))
}

/// Renders `snapshot` + `results` as a run report, round-trip validates
/// it, and writes `BENCH_<name>.json`. Returns the path written.
pub fn write_bench_report(
    name: &str,
    threads: usize,
    snapshot: Snapshot,
    results: Json,
) -> PathBuf {
    let report = RunReport::new(&format!("bench:{name}"), threads, snapshot)
        .with_section("results", results);
    let text = mjoin::render_run_report(&report).expect("bench report emission");
    let doc = json::parse(&text).expect("emitted bench report parses");
    validate_schema(&doc).expect("emitted bench report matches the schema");
    let path = bench_report_path(name);
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_obs::Recorder;

    #[test]
    fn bench_reports_validate_and_round_trip() {
        let dir = std::env::temp_dir();
        std::env::set_var("MJOIN_BENCH_REPORT_DIR", &dir);
        let rec = Recorder::arm();
        mjoin_obs::incr(mjoin_obs::Counter::KernelJoins, 2);
        let snap = rec.snapshot();
        drop(rec);
        let results = Json::obj(vec![(
            "rows",
            Json::Arr(vec![Json::obj(vec![("speedup", Json::F64(2.5))])]),
        )]);
        let path = write_bench_report("selftest", 4, snap, results);
        std::env::remove_var("MJOIN_BENCH_REPORT_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap();
        validate_schema(&doc).unwrap();
        assert_eq!(
            doc.get("command").and_then(Json::as_str),
            Some("bench:selftest")
        );
        assert!(doc.get("results").is_some());
        let _ = std::fs::remove_file(&path);
    }
}
