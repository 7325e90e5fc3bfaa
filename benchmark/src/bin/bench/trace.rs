//! The per-layer run (`--trace 1`): one end-to-end pass for the outcome
//! and `serve` numbers, the shipped CLI with `--metrics-json` for the
//! single-threaded counters, and `bench_trace` for the layer times — all
//! three over the same requests, never at the same time.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use mjoin_benchmark::gen::{Generator, Workload};
use mjoin_benchmark::json::{self, Json};
use mjoin_benchmark::metrics::{PER_LAYER, RUNGS};

use crate::e2e::Outcome;
use crate::host::run_bounded;

/// What the CLI runs and the in-process replay may take together: far more
/// than they need (≤ 15 s here), well inside the contract's 180 s per run.
const HELPERS_BUDGET: Duration = Duration::from_secs(100);

/// Per-layer metric values by name; every name of [`PER_LAYER`] is present.
pub type Layers = BTreeMap<&'static str, f64>;

/// Runs every traced request through `mjoin-cli <op> … --threads 1
/// --metrics-json` and sums the schema-v1 `counters` objects.
fn cli_counters(
    binary: &Path,
    out_dir: &Path,
    workload: Workload,
    seed: u64,
    deadline: Instant,
) -> Result<BTreeMap<String, u64>, String> {
    let dir = out_dir.join(format!("cli.{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (db_file, sql_file, report_file) = (
        dir.join("db.mj"),
        dir.join("query.sql"),
        dir.join("metrics.json"),
    );
    let generator = Generator::new(workload, seed);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for index in workload.traced() {
        let request = generator.request(index);
        let doc = json::parse(&request.line).map_err(|e| format!("request {index}: {e}"))?;
        let field = |name: &str| doc.get(name).and_then(Json::as_str);
        let write = |path: &Path, text: &str| {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(&db_file, field("db").ok_or("request without db")?)?;
        let mut command = Command::new(binary);
        command.arg(request.op).arg(&db_file);
        if let Some(sql) = field("query") {
            write(&sql_file, sql)?;
            command.arg(format!("@{}", sql_file.display()));
        }
        command.arg(field("space").unwrap_or("all"));
        command
            .args(["--threads", "1", "--metrics-json"])
            .arg(&report_file);
        for (flag, member) in [
            ("--timeout-ms", "timeout_ms"),
            ("--max-tuples", "max_tuples"),
        ] {
            if let Some(v) = doc.get(member).and_then(Json::as_u64) {
                command.args([flag, &v.to_string()]);
            }
        }
        run_bounded(&mut command, deadline).map_err(|e| format!("request {index}: {e}"))?;
        let report = std::fs::read_to_string(&report_file).map_err(|e| e.to_string())?;
        let report = json::parse(&report).map_err(|e| format!("metrics report: {e}"))?;
        let counters = report
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or("metrics report without counters")?;
        for (name, value) in counters {
            *totals.entry(name.clone()).or_insert(0) += value.as_u64().unwrap_or(0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(totals)
}

/// Runs `bench_trace` and returns its summary (mean ms per traced request,
/// by metric name). The span log stays in `out/trace.<workload>.json`.
fn layer_times(
    trace_binary: &Path,
    out_dir: &Path,
    workload: Workload,
    seed: u64,
    deadline: Instant,
) -> Result<BTreeMap<String, f64>, String> {
    let file = out_dir.join(format!("trace.{}.json", workload.name()));
    let mut command = Command::new(trace_binary);
    command
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--out",
        ])
        .arg(&file);
    run_bounded(&mut command, deadline)?;
    let doc = json::parse(&std::fs::read_to_string(&file).map_err(|e| e.to_string())?)?;
    let summary = doc
        .get("summary")
        .and_then(Json::as_obj)
        .ok_or("trace without summary")?;
    Ok(summary
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Folds the three sources into the per-layer metrics. `pass` is a
/// one-pass end-to-end run of the same workload and seed.
pub fn layers(
    daemon_binary: &Path,
    trace_binary: &Path,
    out_dir: &Path,
    workload: Workload,
    seed: u64,
    pass: &Outcome,
) -> Result<Layers, String> {
    let deadline = Instant::now() + HELPERS_BUDGET;
    let counters = cli_counters(daemon_binary, out_dir, workload, seed, deadline)?;
    let times = layer_times(trace_binary, out_dir, workload, seed, deadline)?;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let traced = workload.traced().count() as f64;

    let mut out: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        *out.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    };

    // Outcomes, from the first pass's responses.
    let answers: Vec<_> = pass
        .first_pass
        .iter()
        .filter_map(|s| s.seen.as_ref().map(|o| (s, o)))
        .collect();
    set(
        "fail_share",
        share(pass.failed as f64, pass.attempted as f64),
    );
    set(
        "plan_tau_sum",
        answers.iter().filter_map(|(_, o)| o.cost).sum::<u64>() as f64,
    );
    set(
        "executed_tau_sum",
        answers
            .iter()
            .filter_map(|(_, o)| o.executed_tau)
            .sum::<u64>() as f64,
    );
    // The ladder's answer quality, over the requests that carry a deadline.
    let deadlined: Vec<_> = answers
        .iter()
        .filter_map(|(s, o)| s.timeout_ms.map(|t| (s.latency_ms, t as f64, o)))
        .collect();
    let count = |pred: &dyn Fn(&(f64, f64, &&crate::check::Observed)) -> bool| {
        share(
            deadlined.iter().filter(|d| pred(d)).count() as f64,
            deadlined.len() as f64,
        )
    };
    set("optimal_share", count(&|(_, _, o)| o.optimal == Some(true)));
    set("costed_share", count(&|(_, _, o)| o.cost.is_some()));
    set(
        "deadline_overrun_share",
        count(&|(latency, timeout, _)| *latency > 1.2 * timeout),
    );
    for (rung, _, answered) in RUNGS {
        set(
            answered,
            answers
                .iter()
                .filter(|(_, o)| o.rung.as_deref() == Some(rung))
                .count() as f64,
        );
    }
    let (before, after) = answers.iter().fold((0, 0), |(b, a), (_, o)| {
        (b + o.rows_before, a + o.rows_after)
    });
    set("query.rows_kept_share", share(after as f64, before as f64));
    set(
        "cli.req_bytes_mean",
        share(
            pass.first_pass.iter().map(|s| s.bytes as f64).sum(),
            pass.first_pass.len() as f64,
        ),
    );

    // serve: the live daemon's own counters after the pass …
    let stat = |name: &str| {
        pass.stats
            .as_ref()
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    set(
        "serve.cache_hit_share",
        share(stat("cache_hits"), stat("cache_hits") + stat("handled")),
    );
    set("serve.cache_evictions", stat("cache_evictions"));
    set("serve.shed", stat("shed"));

    // … the layer times, straight from the trace …
    for metric in PER_LAYER.iter().filter(|m| m.unit == "ms") {
        if let Some(&ms) = times.get(metric.name) {
            set(metric.name, ms);
        }
    }
    set(
        "core.rung_useful_share",
        times.get("core.rung_useful_share").copied().unwrap_or(0.0),
    );
    // … and what no in-process replay can see: socket, framing, queue
    // hand-off, wake-ups. End-to-end latency of the pass less the on-path
    // spans of the same requests.
    let e2e_mean = share(
        pass.first_pass.iter().map(|s| s.latency_ms).sum(),
        pass.first_pass.len() as f64,
    );
    let residual = e2e_mean - times.get("in_process_ms").copied().unwrap_or(0.0);
    set("serve.residual_ms", residual);
    set("serve.residual_share", share(residual, e2e_mean));

    // The CLI's single-threaded counters over the traced requests.
    for (metric, name) in [
        ("query.filters_pushed", "query.filters_pushed"),
        ("cost.subsets_materialized", "oracle.subsets_materialized"),
        ("relation.kernel_joins", "kernel.joins"),
        ("relation.kernel_tuples_probed", "kernel.tuples_probed"),
        ("relation.kernel_tuples_emitted", "kernel.tuples_emitted"),
        ("optimizer.dp_subsets_expanded", "dp.subsets_expanded"),
        ("optimizer.dp_candidates_scanned", "dp.candidates_scanned"),
        ("optimizer.dp_ccp_pairs_emitted", "dp.ccp_pairs_emitted"),
        ("optimizer.lindp_intervals_solved", "lindp.intervals_solved"),
        ("optimizer.partdp_partitions", "partdp.partitions"),
        ("optimizer.greedy_merges", "greedy.merges"),
        ("core.rungs_attempted", "ladder.rungs_attempted"),
        ("adaptive.stages_executed", "adaptive.stages_executed"),
    ] {
        set(metric, counter(name));
    }
    let hits = counter("oracle.memo_hits");
    set(
        "cost.memo_hit_share",
        share(hits, hits + counter("oracle.subsets_materialized")),
    );
    // Kernel time per tuple touched: the traced kernel milliseconds (exact
    // materialization + plan execution) over the CLI's tuple counts.
    let kernel_ms = traced
        * (times.get("cost.materialize_ms").copied().unwrap_or(0.0)
            + times.get("relation.join_ms").copied().unwrap_or(0.0));
    set(
        "relation.ns_per_tuple",
        share(
            kernel_ms * 1e6,
            counter("kernel.tuples_probed") + counter("kernel.tuples_emitted"),
        ),
    );
    Ok(out)
}
