//! Typed workspace results → stable [`RunReport`] sections.
//!
//! The `mjoin-obs` crate deliberately depends on nothing, so it cannot
//! name workspace types like [`DegradationReport`]. This module is the
//! bridge: it renders the robust ladder's report as a [`Json`] section
//! for embedding in a run report, and owns the single guarded emission
//! point ([`render_run_report`]) every JSON producer funnels through —
//! the `obs::report` failpoint fires there, proving report emission
//! propagates typed failures like every other layer.

use mjoin_guard::{failpoints, MjoinError};
use mjoin_obs::{Json, RunReport};

use crate::robust::{DegradationReport, RungStats};

/// The ladder's report as a JSON section (`"degradation"` by convention).
///
/// `elapsed_ns` fields are wall-clock timings and carry no determinism
/// guarantee; everything else (rung names, outcomes, budget consumption)
/// is deterministic for a fixed input at a fixed thread count.
pub fn degradation_section(report: &DegradationReport) -> Json {
    let attempts = report
        .attempts
        .iter()
        .map(|a| {
            let mut members = vec![
                ("rung", Json::Str(a.rung.to_string())),
                ("outcome", Json::Str(a.outcome.clone())),
            ];
            members.extend(stats_members(&a.stats));
            Json::obj(members)
        })
        .collect();
    let mut members = vec![
        ("answered_by", Json::Str(report.answered_by.to_string())),
        ("optimal", Json::Bool(report.optimal)),
        ("space_relaxed", Json::Bool(report.space_relaxed)),
    ];
    members.extend(stats_members(&report.answered_stats));
    members.push(("attempts", Json::Arr(attempts)));
    Json::obj(members)
}

fn stats_members(stats: &RungStats) -> Vec<(&'static str, Json)> {
    vec![
        ("elapsed_ns", Json::U64(stats.elapsed.as_nanos() as u64)),
        ("memo_used", Json::U64(stats.memo_used)),
        ("tuples_used", Json::U64(stats.tuples_used)),
    ]
}

/// Renders a run report to its on-disk JSON string, through the
/// `obs::report` failpoint. Every `--metrics-json` file and every
/// `BENCH_*.json` file is produced by this function, so arming that
/// site proves the emission path degrades gracefully instead of
/// panicking or writing a torn file.
pub fn render_run_report(report: &RunReport) -> Result<String, MjoinError> {
    failpoints::hit("obs::report")?;
    Ok(report.to_json_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::Database;
    use mjoin_guard::failpoints::ScopedFailpoint;
    use mjoin_obs::Recorder;

    fn chain3() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 7], vec![6, 8]]),
        ])
        .unwrap()
    }

    #[test]
    fn degradation_section_round_trips() {
        let db = chain3();
        let robust = crate::optimize_database_robust_threaded(
            &db,
            crate::SearchSpace::All,
            mjoin_guard::Budget::unlimited(),
            None,
            1,
        )
        .unwrap();
        let section = degradation_section(&robust.report);
        let text = section.to_compact_string();
        let doc = mjoin_obs::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("answered_by").and_then(Json::as_str),
            Some(robust.report.answered_by.to_string().as_str())
        );
        assert!(doc.get("attempts").is_some());
    }

    #[test]
    fn render_respects_the_report_failpoint() {
        let rec = Recorder::arm();
        let report = RunReport::new("test", 1, rec.snapshot());
        drop(rec);
        assert!(render_run_report(&report).is_ok());
        let _fp = ScopedFailpoint::arm("obs::report");
        let err = render_run_report(&report).unwrap_err();
        assert!(err.to_string().contains("obs::report"));
    }
}
