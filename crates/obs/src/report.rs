//! Machine-readable run reports over a stable JSON schema.
//!
//! A [`RunReport`] wraps one [`Snapshot`] plus any number of
//! caller-provided sections (the degradation ladder's report, an adaptive
//! execution trace, a bench trajectory) and renders them to the schema:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "command": "optimize",
//!   "threads": 1,
//!   "counters": { "adaptive.replans": 0, ... },   // all of them, sorted by key
//!   "spans": { "execute": {"entries": 1, "total_ns": 1234}, ... },
//!   "<section>": { ... }                          // in insertion order
//! }
//! ```
//!
//! Counters are always emitted in full (zeros included) and sorted by
//! key, so the document shape never depends on which code paths ran.
//! `total_ns` fields are wall-clock timings and carry no determinism
//! guarantee; everything else in the core schema is deterministic.

use crate::json::Json;
use crate::{Snapshot, SpanStat};

/// Version stamp emitted as `schema_version`; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A run report: snapshot + named sections, rendered to stable JSON.
#[derive(Debug, Clone)]
pub struct RunReport {
    command: String,
    threads: usize,
    snapshot: Snapshot,
    sections: Vec<(String, Json)>,
}

impl RunReport {
    /// A report for `command` run at `threads` workers, over `snapshot`.
    pub fn new(command: &str, threads: usize, snapshot: Snapshot) -> RunReport {
        RunReport {
            command: command.to_string(),
            threads,
            snapshot,
            sections: Vec::new(),
        }
    }

    /// Appends a named section (e.g. `"degradation"`, `"adaptive"`,
    /// `"trajectory"`). Sections render after the core schema, in
    /// insertion order. Returns `self` for chaining.
    pub fn with_section(mut self, name: &str, value: Json) -> RunReport {
        self.sections.push((name.to_string(), value));
        self
    }

    /// The snapshot this report was built over.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The full document as a JSON value.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.snapshot
                .counters_by_name()
                .into_iter()
                .map(|(name, value)| (name.to_string(), Json::U64(value)))
                .collect(),
        );
        let spans = Json::Obj(
            self.snapshot
                .spans_by_name()
                .into_iter()
                .map(|(name, stat)| (name.to_string(), span_json(stat)))
                .collect(),
        );
        let mut members = vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            ("command".to_string(), Json::Str(self.command.clone())),
            ("threads".to_string(), Json::U64(self.threads as u64)),
            ("counters".to_string(), counters),
            ("spans".to_string(), spans),
        ];
        members.extend(self.sections.iter().cloned());
        Json::Obj(members)
    }

    /// The on-disk rendering (pretty, trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// A fixed-width human table for `--metrics`.
    ///
    /// Counters print in key order (zeros included, so the table shape is
    /// schema-stable); spans print entry counts and milliseconds.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics ({} @ {} thread{}):\n",
            self.command,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        ));
        out.push_str("  counters:\n");
        for (name, value) in self.snapshot.counters_by_name() {
            out.push_str(&format!("    {name:<42} {value:>12}\n"));
        }
        out.push_str("  spans:\n");
        for (name, stat) in self.snapshot.spans_by_name() {
            out.push_str(&format!(
                "    {name:<42} {:>8} entries {:>12.3} ms\n",
                stat.entries,
                stat.total_ns as f64 / 1e6
            ));
        }
        out
    }
}

fn span_json(stat: SpanStat) -> Json {
    Json::obj(vec![
        ("entries", Json::U64(stat.entries)),
        ("total_ns", Json::U64(stat.total_ns)),
    ])
}

/// Structural schema check for an emitted report document: required core
/// members present with the right types, every counter key known, every
/// span carrying `entries`/`total_ns`. Returns a description of the first
/// violation. Used by CI to validate `BENCH_*.json` and `--metrics-json`
/// files after parsing.
pub fn validate_schema(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    doc.get("command")
        .and_then(Json::as_str)
        .ok_or("missing command")?;
    doc.get("threads")
        .and_then(Json::as_u64)
        .ok_or("missing threads")?;
    let counters = match doc.get("counters") {
        Some(Json::Obj(members)) => members,
        _ => return Err("missing counters object".into()),
    };
    let known: Vec<&str> = crate::Counter::ALL.iter().map(|c| c.name()).collect();
    if counters.len() != known.len() {
        return Err(format!(
            "expected {} counters, found {}",
            known.len(),
            counters.len()
        ));
    }
    for (key, value) in counters {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown counter key `{key}`"));
        }
        if value.as_u64().is_none() {
            return Err(format!("counter `{key}` is not a u64"));
        }
    }
    let spans = match doc.get("spans") {
        Some(Json::Obj(members)) => members,
        _ => return Err("missing spans object".into()),
    };
    for (key, value) in spans {
        if value.get("entries").and_then(Json::as_u64).is_none()
            || value.get("total_ns").and_then(Json::as_u64).is_none()
        {
            return Err(format!("span `{key}` missing entries/total_ns"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{incr, Counter, Recorder};

    #[test]
    fn report_round_trips_and_validates() {
        let rec = Recorder::arm();
        incr(Counter::DpSubsetsExpanded, 6);
        let report = RunReport::new("optimize", 2, rec.snapshot())
            .with_section("extra", Json::obj(vec![("tau", Json::U64(9))]));
        let text = report.to_json_string();
        let doc = parse(&text).unwrap();
        validate_schema(&doc).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("dp.subsets_expanded"))
                .and_then(Json::as_u64),
            Some(6)
        );
        assert_eq!(
            doc.get("extra")
                .and_then(|e| e.get("tau"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }

    #[test]
    fn rendering_is_byte_stable_for_equal_snapshots() {
        let rec = Recorder::arm();
        incr(Counter::KernelJoins, 3);
        let snap = rec.snapshot();
        drop(rec);
        let a = RunReport::new("x", 1, snap.clone()).to_json_string();
        let b = RunReport::new("x", 1, snap).to_json_string();
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_schema(&Json::Obj(vec![])).is_err());
        let doc = parse("{\"schema_version\":1,\"command\":\"x\",\"threads\":1,\"counters\":{\"bogus\":1},\"spans\":{}}").unwrap();
        assert!(validate_schema(&doc).is_err());
    }

    #[test]
    fn table_lists_every_counter() {
        let rec = Recorder::arm();
        let table = RunReport::new("analyze", 1, rec.snapshot()).to_table();
        for c in Counter::ALL {
            assert!(table.contains(c.name()), "table missing {}", c.name());
        }
    }
}
