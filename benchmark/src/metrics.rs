//! The metric tables: every number the benchmark reports, with its unit,
//! its better direction and the bound `bench compare` holds it to.
//! `BENCHMARK.json` lists the same metrics; a test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much a metric's median may worsen before it is a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// By this share of the baseline's median.
    Relative(f64),
    /// By this much, in the metric's own unit (for shares).
    Absolute(f64),
    /// Not at all: a deterministic count, compared bit for bit on every
    /// workload whose answers do not depend on a clock.
    Exact,
    /// Reported, never judged: a layer's time says where an end-to-end
    /// change came from, not whether it is acceptable.
    Unbounded,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The name, `layer.what` for per-layer metrics.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// The regression bound.
    pub bound: Bound,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Exact, Relative, Unbounded};

/// What a user of the daemon sees, on every workload. Printed by a
/// `--trace 0` run.
///
/// The bounds are set by what ten differently-seeded runs of one binary
/// scatter by on the 2-core box the baseline was taken on (interquartile
/// distance ÷ median): on a quiet host 1–5 % for `lat_p50_ms`, 2–15 % for
/// `lat_p95_ms` (sub-millisecond cache hits are the noisy end), 2–7 % for
/// `throughput_rps`, 1–14 % for `peak_rss_mb` (where the peak depends on the
/// data or on the clock), 8–29 % for `setup_s`. A bound has to clear that
/// with room to spare or it flags noise; the host also has minutes-long
/// busy phases (+30 % on everything CPU-bound) that no bound can absorb.
pub const END_TO_END: &[Metric] = &[
    m("lat_p50_ms", "ms", Lower, Relative(0.20)),
    m("lat_p95_ms", "ms", Lower, Relative(0.25)),
    m("throughput_rps", "1/s", Higher, Relative(0.20)),
    m("peak_rss_mb", "MB", Lower, Relative(0.25)),
    m("setup_s", "s", Lower, Relative(0.25)),
];

/// Single layers, plus the outcome metrics that exist on some workloads
/// only (a τ sum, the ladder's answer quality). Printed by a `--trace 1`
/// run; a metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Outcomes, from the responses of the first pass.
    m("fail_share", "share", Lower, Absolute(0.005)),
    m("plan_tau_sum", "tuples", Lower, Exact),
    m("executed_tau_sum", "tuples", Lower, Exact),
    m("optimal_share", "share", Higher, Absolute(0.05)),
    m("costed_share", "share", Higher, Absolute(0.05)),
    m("deadline_overrun_share", "share", Lower, Absolute(0.05)),
    // serve: the wire protocol, and what the in-process replay cannot see.
    m("serve.decode_ms", "ms", Lower, Unbounded),
    m("serve.encode_ms", "ms", Lower, Unbounded),
    m("serve.residual_ms", "ms", Lower, Unbounded),
    m("serve.residual_share", "share", Lower, Unbounded),
    m("serve.cache_hit_share", "share", Higher, Exact),
    m("serve.cache_evictions", "count", Lower, Exact),
    m("serve.shed", "count", Lower, Exact),
    // cli: input parsing, the cache key, rendering and glue.
    m("cli.parse_input_ms", "ms", Lower, Unbounded),
    m("cli.fingerprint_ms", "ms", Lower, Unbounded),
    m("cli.handle_ms", "ms", Lower, Unbounded),
    m("cli.handle_self_ms", "ms", Lower, Unbounded),
    m("cli.req_bytes_mean", "bytes", Lower, Exact),
    // query: the DSL front end.
    m("query.parse_ms", "ms", Lower, Unbounded),
    m("query.lower_ms", "ms", Lower, Unbounded),
    m("query.filters_pushed", "count", Higher, Exact),
    m("query.rows_kept_share", "share", Lower, Exact),
    // cost: the exact oracle.
    m("cost.materialize_ms", "ms", Lower, Unbounded),
    m("cost.subsets_materialized", "count", Lower, Exact),
    m("cost.memo_hit_share", "share", Higher, Exact),
    // relation: the join kernels.
    m("relation.join_ms", "ms", Lower, Unbounded),
    m("relation.kernel_joins", "count", Lower, Exact),
    m("relation.kernel_tuples_probed", "count", Lower, Exact),
    m("relation.kernel_tuples_emitted", "count", Lower, Exact),
    m("relation.ns_per_tuple", "ns", Lower, Unbounded),
    // optimizer: plan search.
    m("optimizer.search_ms", "ms", Lower, Unbounded),
    m("optimizer.dp_subsets_expanded", "count", Lower, Exact),
    m("optimizer.dp_candidates_scanned", "count", Lower, Exact),
    m("optimizer.dp_ccp_pairs_emitted", "count", Lower, Exact),
    m("optimizer.lindp_intervals_solved", "count", Lower, Exact),
    m("optimizer.partdp_partitions", "count", Lower, Exact),
    m("optimizer.greedy_merges", "count", Lower, Exact),
    // core: the degradation ladder.
    m("core.ladder_ms", "ms", Lower, Unbounded),
    m("core.rung.exhaustive_ms", "ms", Lower, Unbounded),
    m("core.rung.dp_ms", "ms", Lower, Unbounded),
    m("core.rung.lindp_ms", "ms", Lower, Unbounded),
    m("core.rung.partdp_ms", "ms", Lower, Unbounded),
    m("core.rung.greedy_ms", "ms", Lower, Unbounded),
    m("core.rung.fallback_ms", "ms", Lower, Unbounded),
    m("core.rung_useful_share", "share", Higher, Unbounded),
    m("core.rungs_attempted", "count", Lower, Exact),
    m("core.answered_by.exhaustive", "count", Higher, Exact),
    m("core.answered_by.dp", "count", Higher, Exact),
    m("core.answered_by.lindp", "count", Higher, Exact),
    m("core.answered_by.partdp", "count", Higher, Exact),
    m("core.answered_by.greedy", "count", Lower, Exact),
    m("core.answered_by.fallback", "count", Lower, Exact),
    // adaptive: the stage-by-stage executor.
    m("adaptive.plan_ms", "ms", Lower, Unbounded),
    m("adaptive.execute_ms", "ms", Lower, Unbounded),
    m("adaptive.self_ms", "ms", Lower, Unbounded),
    m("adaptive.stages_executed", "count", Lower, Exact),
];

/// The ladder's rungs in descending order: the name responses and reports
/// use, the metric of its traced time, the metric counting its answers.
pub const RUNGS: [(&str, &str, &str); 6] = [
    (
        "exhaustive",
        "core.rung.exhaustive_ms",
        "core.answered_by.exhaustive",
    ),
    ("dp", "core.rung.dp_ms", "core.answered_by.dp"),
    ("lindp", "core.rung.lindp_ms", "core.answered_by.lindp"),
    ("partdp", "core.rung.partdp_ms", "core.answered_by.partdp"),
    ("greedy", "core.rung.greedy_ms", "core.answered_by.greedy"),
    (
        "fallback",
        "core.rung.fallback_ms",
        "core.answered_by.fallback",
    ),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (_, time, answers) in RUNGS {
            assert!(find(time).is_some() && find(answers).is_some());
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        e.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table =
            |metrics: &[Metric], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                metrics
                    .iter()
                    .map(|m| {
                        let bound = match m.bound {
                            Relative(b) if bounded => Some(b),
                            _ => None,
                        };
                        (m.name.into(), m.unit.into(), m.better.word().into(), bound)
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), table(END_TO_END, true));
        assert_eq!(listed("per_layer"), table(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
