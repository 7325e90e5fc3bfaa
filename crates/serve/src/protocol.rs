//! The serve wire protocol: newline-delimited JSON, one document per
//! request and exactly one document per response.
//!
//! A request is a JSON object on a single line:
//!
//! ```text
//! {"id": 1, "op": "optimize", "db": "relation AB\n1 10\nrelation BC\n10 5\n",
//!  "space": "all", "timeout_ms": 250}
//! ```
//!
//! `op` is one of `optimize`, `execute`, `query`, `ping`, `stats`,
//! `shutdown`. `db` (the database file text, required for
//! `optimize`/`execute`/`query`), `query` (the DSL text, required for
//! `query`), `space`, `timeout_ms`, `max_memo_entries` and `max_tuples`
//! mirror the CLI's positional arguments and guard flags. `id` is echoed verbatim in
//! the response so clients can pipeline. The optional `client` string
//! names the tenant for fair queuing and per-client quotas; requests
//! without one share the `anon` tenant.
//!
//! Every response is one compact JSON line: either
//! `{"id":…,"ok":true,…}` with op-specific fields, or
//! `{"id":…,"ok":false,"error":{"kind":…,"message":…}}` where `kind` is a
//! closed vocabulary (`invalid_request`, `too_large`, `overloaded`,
//! `shutting_down`, `budget_exceeded`, `cancelled`, `internal`). Shed
//! responses add a `retry_after_ms` hint.

use mjoin_guard::{failpoints, MjoinError};
use mjoin_obs::{json, Json};

use crate::EngineResponse;

/// A decoded request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation value, echoed in the response.
    pub id: Option<Json>,
    /// The operation: `optimize`, `execute`, `query`, `ping`, `stats`,
    /// `shutdown`.
    pub op: String,
    /// Database file text (the CLI's input format).
    pub db: String,
    /// Query-DSL text (required for the `query` op, absent otherwise).
    pub query: Option<String>,
    /// Search-space name, as the CLI accepts it (`all`, `nocp`, …).
    pub space: Option<String>,
    /// Per-request wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request memo-entry cap.
    pub max_memo_entries: Option<u64>,
    /// Per-request intermediate-tuple cap.
    pub max_tuples: Option<u64>,
    /// Tenant identity for fair queuing and quotas; absent requests share
    /// the `anon` tenant.
    pub client: Option<String>,
}

/// Longest accepted `client` value: tenant names key per-client state, so
/// they must stay bounded.
pub const MAX_CLIENT_LEN: usize = 128;

fn invalid(msg: impl Into<String>) -> MjoinError {
    MjoinError::InvalidScheme(msg.into())
}

/// Moves member `field` out of the decoded object, leaving `null`: the
/// strings a request carries (the `db` text above all) are copied once,
/// by the JSON parser, and never again.
fn take(doc: &mut Json, field: &str) -> Option<Json> {
    match doc {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == field)
            .map(|(_, v)| std::mem::replace(v, Json::Null)),
        _ => None,
    }
}

fn opt_u64(doc: &Json, field: &str) -> Result<Option<u64>, MjoinError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("field {field:?} must be a non-negative integer"))),
    }
}

fn opt_str(doc: &mut Json, field: &str) -> Result<Option<String>, MjoinError> {
    match take(doc, field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(invalid(format!("field {field:?} must be a string"))),
    }
}

/// Decodes one request line. Guarded by the `serve::decode` failpoint;
/// malformed input surfaces as [`MjoinError::InvalidScheme`], never a
/// panic.
pub fn decode_line(line: &str) -> Result<Request, MjoinError> {
    failpoints::hit("serve::decode")?;
    let mut doc = json::parse(line).map_err(|e| invalid(format!("malformed request JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(invalid("request must be a JSON object"));
    }
    let Some(Json::Str(op)) = take(&mut doc, "op") else {
        return Err(invalid("request needs a string \"op\" field"));
    };
    let db = match opt_str(&mut doc, "db")? {
        Some(s) => s,
        None if matches!(op.as_str(), "optimize" | "execute" | "query") => {
            return Err(invalid(format!("op {op:?} needs a string \"db\" field")));
        }
        None => String::new(),
    };
    let query = match opt_str(&mut doc, "query")? {
        None if op == "query" => {
            return Err(invalid("op \"query\" needs a string \"query\" field"));
        }
        q => q,
    };
    let client = match opt_str(&mut doc, "client")? {
        Some(c) if c.is_empty() => {
            return Err(invalid("field \"client\" must be a non-empty string"));
        }
        Some(c) if c.len() > MAX_CLIENT_LEN => {
            return Err(invalid(format!(
                "field \"client\" exceeds {MAX_CLIENT_LEN} bytes"
            )));
        }
        c => c,
    };
    Ok(Request {
        id: take(&mut doc, "id"),
        op,
        db,
        query,
        space: opt_str(&mut doc, "space")?,
        timeout_ms: opt_u64(&doc, "timeout_ms")?,
        max_memo_entries: opt_u64(&doc, "max_memo_entries")?,
        max_tuples: opt_u64(&doc, "max_tuples")?,
        client,
    })
}

fn id_json(id: Option<&Json>) -> Json {
    id.cloned().unwrap_or(Json::Null)
}

fn finish(doc: Json) -> String {
    let mut s = doc.to_compact_string();
    s.push('\n');
    s
}

/// Renders an error response line.
pub fn error_line(
    id: Option<&Json>,
    kind: &str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut err = vec![
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        err.push(("retry_after_ms", Json::U64(ms)));
    }
    finish(Json::obj(vec![
        ("id", id_json(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::obj(err)),
    ]))
}

/// Renders a successful engine response line.
pub fn ok_line(id: Option<&Json>, op: &str, resp: &EngineResponse, cached: bool) -> String {
    let mut fields = vec![
        ("id", id_json(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::Str(op.to_string())),
        ("cached", Json::Bool(cached)),
        ("output", Json::Str(resp.output.clone())),
    ];
    for (k, v) in &resp.extra {
        fields.push((k, v.clone()));
    }
    finish(Json::obj(fields))
}

/// Renders a successful control-op response line (`ping`, `shutdown`),
/// optionally with extra fields (`stats`).
pub fn ok_control_line(id: Option<&Json>, op: &str, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![
        ("id", id_json(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::Str(op.to_string())),
    ];
    fields.extend(extra);
    finish(Json::obj(fields))
}

/// Maps a typed engine error onto the wire error vocabulary.
pub fn kind_of(e: &MjoinError) -> &'static str {
    match e {
        MjoinError::BudgetExceeded { .. } => "budget_exceeded",
        MjoinError::Cancelled => "cancelled",
        MjoinError::InvalidScheme(_) => "invalid_request",
        // A query that fails to parse or lower is the client's input, not
        // a server fault.
        MjoinError::InvalidQuery(_) => "invalid_request",
        MjoinError::Internal(_) => "internal",
        // A corrupt persistent store is a server-side condition, never the
        // client's request.
        MjoinError::CorruptStore(_) => "internal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_full_request() {
        let r = decode_line(
            r#"{"id": 7, "op": "optimize", "db": "relation AB\n", "space": "nocp", "timeout_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(r.op, "optimize");
        assert_eq!(r.db, "relation AB\n");
        assert_eq!(r.space.as_deref(), Some("nocp"));
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.id, Some(Json::U64(7)));
    }

    #[test]
    fn control_ops_need_no_db() {
        assert!(decode_line(r#"{"op": "ping"}"#).is_ok());
        assert!(decode_line(r#"{"op": "stats"}"#).is_ok());
        let e = decode_line(r#"{"op": "optimize"}"#).unwrap_err();
        assert!(e.to_string().contains("db"), "{e}");
    }

    #[test]
    fn query_op_needs_db_and_query() {
        let r =
            decode_line(r#"{"op": "query", "db": "relation AB\n", "query": "SELECT * FROM AB"}"#)
                .unwrap();
        assert_eq!(r.op, "query");
        assert_eq!(r.query.as_deref(), Some("SELECT * FROM AB"));
        let e = decode_line(r#"{"op": "query", "db": "relation AB\n"}"#).unwrap_err();
        assert!(e.to_string().contains("query"), "{e}");
        let e = decode_line(r#"{"op": "query", "query": "SELECT * FROM AB"}"#).unwrap_err();
        assert!(e.to_string().contains("db"), "{e}");
        assert_eq!(decode_line(r#"{"op": "ping"}"#).unwrap().query, None);
    }

    #[test]
    fn rejects_malformed_and_mistyped_input() {
        assert!(decode_line("not json").is_err());
        assert!(decode_line("[1,2]").is_err());
        assert!(decode_line(r#"{"db": "x"}"#).is_err());
        assert!(decode_line(r#"{"op": "optimize", "db": 3}"#).is_err());
        assert!(decode_line(r#"{"op": "ping", "timeout_ms": "soon"}"#).is_err());
    }

    #[test]
    fn client_field_is_validated() {
        let r = decode_line(r#"{"op": "ping", "client": "tenant-a"}"#).unwrap();
        assert_eq!(r.client.as_deref(), Some("tenant-a"));
        assert_eq!(decode_line(r#"{"op": "ping"}"#).unwrap().client, None);
        assert!(decode_line(r#"{"op": "ping", "client": ""}"#).is_err());
        assert!(decode_line(r#"{"op": "ping", "client": 7}"#).is_err());
        let long = format!(r#"{{"op": "ping", "client": "{}"}}"#, "x".repeat(200));
        assert!(decode_line(&long).is_err());
    }

    #[test]
    fn responses_are_single_parseable_lines() {
        let err = error_line(Some(&Json::U64(1)), "overloaded", "queue full", Some(50));
        assert!(err.ends_with('\n'));
        assert_eq!(err.matches('\n').count(), 1);
        let doc = json::parse(err.trim()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let e = doc.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(e.get("retry_after_ms").and_then(Json::as_u64), Some(50));

        let ok = ok_line(
            None,
            "optimize",
            &EngineResponse {
                output: "plan: x\n".to_string(),
                extra: vec![("cost", Json::U64(11))],
            },
            true,
        );
        let doc = json::parse(ok.trim()).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("output").and_then(Json::as_str), Some("plan: x\n"));
        assert_eq!(doc.get("cost").and_then(Json::as_u64), Some(11));
    }
}
