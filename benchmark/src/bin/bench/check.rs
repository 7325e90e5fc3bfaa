//! Response checks that do not trust the planner: every response line is
//! validated against what the generator knows about its request.

use mjoin_benchmark::gen::Request;
use mjoin_benchmark::json::{self, Json};

/// What a valid response said.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// The `output` report text.
    pub output: String,
    /// `cost`: the plan's τ (`None` when the response carried `null`:
    /// the ladder's fallback rung does not cost its plan).
    pub cost: Option<u64>,
    /// `rung`, for responses of the deadline ladder.
    pub rung: Option<String>,
    /// `optimal`, likewise.
    pub optimal: Option<bool>,
    /// `executed τ = N` of an `execute` report.
    pub executed_tau: Option<u64>,
    /// Σ rows before / after the pushed-down filters, over the filtered
    /// tables of a `query` report.
    pub rows_before: u64,
    /// See `rows_before`.
    pub rows_after: u64,
}

/// The relation names on a report's `plan:` line, e.g.
/// `plan: ((AB ⋈ BC) ⋈ x1,x2)` → `[AB, BC, "x1,x2"]`.
fn plan_leaves(output: &str) -> Option<Vec<&str>> {
    let plan = output.lines().find_map(|l| l.strip_prefix("plan: "))?;
    Some(
        plan.split('⋈')
            .map(|leaf| leaf.trim_matches(|c: char| c == '(' || c == ')' || c == ' '))
            .collect(),
    )
}

/// `  AN: 412 -> 180 tuples (1 filter, …)` → `(412, 180)`.
fn filtered_rows(line: &str) -> Option<(u64, u64)> {
    let (_, counts) = line.split_once(": ")?;
    let (before, rest) = counts.split_once(" -> ")?;
    let after = rest.split_whitespace().next()?;
    Some((before.parse().ok()?, after.parse().ok()?))
}

/// Validates `line` as the response to `request`. `cold_output` is the
/// cold-pass answer a `hot_repeat` hit must repeat byte for byte.
pub fn check(request: &Request, line: &str, cold_output: Option<&str>) -> Result<Observed, String> {
    let doc = json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").map(Json::compact).unwrap_or_default();
        return Err(format!("not ok: {error}"));
    }
    if doc.get("id").and_then(Json::as_u64) != Some(request.index) {
        return Err(format!(
            "id {:?} does not echo {}",
            doc.get("id"),
            request.index
        ));
    }
    if doc.get("op").and_then(Json::as_str) != Some(request.op) {
        return Err(format!(
            "op {:?} does not echo {}",
            doc.get("op"),
            request.op
        ));
    }
    if doc.get("cached").and_then(Json::as_bool) != Some(request.expect_cached) {
        return Err(format!(
            "cached is {:?}, expected {}",
            doc.get("cached"),
            request.expect_cached
        ));
    }
    let output = doc
        .get("output")
        .and_then(Json::as_str)
        .ok_or("no output text")?;

    let mut leaves = plan_leaves(output).ok_or("no plan: line")?;
    leaves.sort_unstable();
    let mut tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
    tables.sort_unstable();
    if leaves != tables {
        return Err(format!(
            "plan names {leaves:?}, the request's tables are {tables:?}"
        ));
    }

    if let Some(expected) = request.expect_result_tuples {
        let got = doc.get("result_tuples").and_then(Json::as_u64);
        if got != Some(expected) {
            return Err(format!(
                "result_tuples is {got:?}, the counting evaluator says {expected}"
            ));
        }
    }
    if let Some(cold) = cold_output {
        if output != cold {
            return Err("cache hit differs from the cold-pass answer".into());
        }
    }

    let mut seen = Observed {
        output: output.to_string(),
        cost: doc.get("cost").and_then(Json::as_u64),
        rung: doc.get("rung").and_then(Json::as_str).map(str::to_string),
        optimal: doc.get("optimal").and_then(Json::as_bool),
        executed_tau: output
            .lines()
            .find_map(|l| l.strip_prefix("executed τ = "))
            .and_then(|n| n.trim().parse().ok()),
        ..Observed::default()
    };
    for (before, after) in output.lines().filter_map(filtered_rows) {
        seen.rows_before += before;
        seen.rows_after += after;
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request {
            index: 7,
            line: String::new(),
            op: "query",
            shape: "star-2".into(),
            tables: vec!["ABM".into(), "AN".into(), "x1,x2".into()],
            expect_cached: false,
            expect_result_tuples: None,
            pool_slot: None,
            timeout_ms: None,
        }
    }

    const OK: &str = r#"{"id":7,"ok":true,"op":"query","cached":false,"output":"tables:\n  ABM: 60 tuples\n  AN: 30 -> 3 tuples (1 filter, selectivity 0.1000)\nplan: ((ABM ⋈ x1,x2) ⋈ AN)\nτ = 9\n","cost":9}"#;

    #[test]
    fn accepts_a_well_formed_answer_and_reads_it() {
        let seen = check(&request(), OK, None).unwrap();
        assert_eq!(seen.cost, Some(9));
        assert_eq!((seen.rows_before, seen.rows_after), (30, 3));
        assert_eq!(seen.executed_tau, None);
    }

    #[test]
    fn rejects_every_kind_of_wrong_answer() {
        let r = request();
        let err = |line: &str| check(&r, line, None).unwrap_err();
        assert!(err("nope").contains("not JSON"));
        assert!(
            err(r#"{"id":7,"ok":false,"error":{"kind":"internal","message":"x"}}"#)
                .contains("internal")
        );
        assert!(err(&OK.replace("\"id\":7", "\"id\":8")).contains("echo"));
        assert!(err(&OK.replace("\"op\":\"query\"", "\"op\":\"execute\"")).contains("op"));
        assert!(err(&OK.replace("\"cached\":false", "\"cached\":true")).contains("cached"));
        // A table missing from the plan, and one named twice.
        assert!(err(&OK.replace(" ⋈ AN)", ")")).contains("plan names"));
        assert!(err(&OK.replace("x1,x2", "AN")).contains("plan names"));
        assert!(check(&r, OK, Some("something else"))
            .unwrap_err()
            .contains("cold-pass"));
        let mut counted = request();
        counted.expect_result_tuples = Some(5);
        assert!(check(&counted, OK, None)
            .unwrap_err()
            .contains("counting evaluator"));
    }
}
