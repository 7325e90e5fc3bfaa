//! One run's record: printed for people, written to a report file for
//! `bench compare`, and folded into the one JSON line the benchmark
//! contract asks for.

use mjoin_benchmark::gen::Workload;
use mjoin_benchmark::json::Json;
use mjoin_benchmark::metrics;

use crate::e2e::Outcome;

/// One run of one workload, end to end (`trace: false`) or per layer.
pub struct Record {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Whole passes of the timed phase, and the latency samples they gave.
    pub passes: usize,
    pub samples: usize,
    pub timed_s: f64,
    pub think_s: f64,
    /// Was every pinned `cost` compared with the τ file?
    pub tau_checked: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Record {
    /// A record of `outcome` carrying `metrics`.
    pub fn new(
        workload: Workload,
        trace: bool,
        outcome: &Outcome,
        metrics: Vec<(&'static str, f64)>,
    ) -> Record {
        Record {
            workload,
            trace,
            attempted: outcome.attempted,
            failed: outcome.failed,
            failures: outcome.failures.clone(),
            passes: outcome.passes.len(),
            samples: outcome.samples(),
            timed_s: outcome.timed_s,
            think_s: outcome.think_s,
            tau_checked: outcome.tau_checked,
            metrics,
        }
    }

    /// Every metric by name with its unit, and what was checked.
    pub fn print(&self) {
        println!(
            "── {} · {} ── {} passes, {} latency samples, {:.2} s timed ({:.2} s of it generator think-time)",
            self.workload.name(),
            if self.trace { "per layer" } else { "end to end" },
            self.passes,
            self.samples,
            self.timed_s,
            self.think_s,
        );
        for (name, value) in &self.metrics {
            // Per-layer tables skip what the workload never touches.
            if self.trace && *value == 0.0 {
                continue;
            }
            let unit = metrics::find(name).map_or("", |m| m.unit);
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        let tau = if self.tau_checked {
            "every pinned cost equals the τ file"
        } else if self.workload.pins_cost() {
            "τ file skipped (not the default seed)"
        } else {
            "no τ file (costs depend on the clock or the plan)"
        };
        println!(
            "  checked {} responses, {} failed (fail_share {:.4}); {tau}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }

    /// The record as a member of a report file's `runs`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.name().into())),
            ("trace", Json::Bool(self.trace)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("passes", Json::Int(self.passes as u64)),
            ("samples", Json::Int(self.samples as u64)),
            ("timed_s", Json::Num(self.timed_s)),
            ("think_s", Json::Num(self.think_s)),
            ("tau_checked", Json::Bool(self.tau_checked)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (*k, Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// `metrics` (each a value with its unit).
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                (
                    *name,
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}
