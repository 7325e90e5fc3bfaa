//! The API-drift firewall: **every** `mjoin*` symbol the layer trace uses
//! is named in this file and nowhere else in the benchmark. When an
//! internal refactor renames or reshapes one of these entry points, this
//! file is the only one to touch — and until someone does, the worst that
//! happens is that `bench_trace` stops compiling. The end-to-end `bench`
//! links none of it.
//!
//! Fifteen functions — thirteen calls into a public entry point of a layer
//! (listed in `benchmark/README.md`) and two helpers. None of them times
//! anything: the spans go around the calls, in `main.rs`.

use std::time::Duration;

use mjoin::{
    optimize_database_robust_threaded, try_optimize, Budget, CardinalityOracle, Database,
    ExactOracle, Guard, LoweredQuery, Plan, Query, SearchSpace, SyntheticOracle,
};
use mjoin_adaptive::{AdaptiveConfig, Estimation, ExecutionOutcome};
use mjoin_cli::{Input, MjoinEngine};
use mjoin_serve::{protocol, Engine, EngineRequest, EngineResponse};

/// The daemon's engine as `serve` builds it by default: one search thread.
const ENGINE: MjoinEngine = MjoinEngine { threads: 1 };

/// A decoded request line, split the way the daemon splits it: what the
/// response echoes, and what the engine gets.
pub struct Decoded {
    /// The decoded line, less the fields moved into `engine`.
    wire: protocol::Request,
    /// What the daemon hands its engine.
    pub engine: EngineRequest,
    /// The requested search space, parsed.
    pub space: SearchSpace,
}

/// `serve`: [`protocol::decode_line`], then the daemon's own move of the
/// decoded fields into an [`EngineRequest`] (no defaults: the benchmark's
/// daemon runs with none).
pub fn decode(line: &str) -> Decoded {
    let mut request = protocol::decode_line(line).expect("generated requests decode");
    let engine = EngineRequest {
        op: request.op.clone(),
        db: std::mem::take(&mut request.db),
        query: request.query.take(),
        space: request.space.take(),
        timeout_ms: request.timeout_ms,
        max_memo_entries: request.max_memo_entries,
        max_tuples: request.max_tuples,
        brownout: None,
    };
    let space = match engine.space.as_deref() {
        None | Some("all") => SearchSpace::All,
        Some("nocp") => SearchSpace::NoCartesian,
        Some(other) => panic!("the generators only plan in `all` and `nocp`, not {other:?}"),
    };
    Decoded {
        wire: request,
        engine,
        space,
    }
}

/// `cli`: [`Engine::fingerprint`], the plan-cache key the connection
/// thread computes for every request before it looks at the cache.
pub fn fingerprint(decoded: &Decoded) -> Option<String> {
    ENGINE.fingerprint(&decoded.engine)
}

/// `cli`: [`Engine::handle`], what a worker runs on a cache miss.
pub fn handle(decoded: &Decoded) -> EngineResponse {
    ENGINE
        .handle(&decoded.engine)
        .expect("generated requests are answerable")
}

/// `serve`: [`protocol::ok_line`].
pub fn encode(decoded: &Decoded, response: &EngineResponse, cached: bool) -> String {
    protocol::ok_line(
        decoded.wire.id.as_ref(),
        &decoded.engine.op,
        response,
        cached,
    )
}

/// `cli`: [`mjoin_cli::parse_input`].
pub fn parse_input(db: &str) -> Input {
    mjoin_cli::parse_input(db).expect("generated databases parse")
}

/// `query`: [`mjoin::parse_query`].
pub fn parse_query(sql: &str) -> Query {
    mjoin::parse_query(sql).expect("generated queries parse")
}

/// `query`: [`mjoin::lower`] — resolution, classification and pushdown.
pub fn lower(query: &Query, input: &Input) -> LoweredQuery {
    mjoin::lower(query, &input.database).expect("generated queries lower")
}

/// The oracle a `query` is planned against.
pub enum Oracle<'a> {
    /// Rows were sent: exact cardinalities, materialized on demand.
    Exact(ExactOracle<'a>),
    /// Statistics only: the closed-form model, filters folded.
    Synthetic(SyntheticOracle),
}

/// `cost`: the oracle `query` builds for a lowered query — a fresh,
/// unlimited [`ExactOracle`] over the filtered rows, or the statistics-only
/// model. Searching a fresh exact oracle materializes every subset the
/// search asks about; searching it again pays for the search alone.
pub fn oracle<'a>(input: &Input, lowered: &'a LoweredQuery) -> Oracle<'a> {
    if lowered.has_rows() {
        return Oracle::Exact(ExactOracle::with_guard(
            &lowered.database,
            Guard::unlimited(),
        ));
    }
    let mut model = mjoin_cli::query_synthetic_oracle(input, lowered).expect("declared statistics");
    lowered.fold_into(&mut model).expect("selectivities fold");
    Oracle::Synthetic(model)
}

/// `optimizer`: [`try_optimize`] over the whole scheme, as the unbudgeted
/// one-thread `query` path calls it.
pub fn search(oracle: &mut Oracle<'_>, space: SearchSpace) -> Plan {
    fn go<O: CardinalityOracle>(oracle: &mut O, space: SearchSpace) -> Plan {
        let full = oracle.scheme().full_set();
        try_optimize(oracle, full, space, &Guard::unlimited())
            .expect("unlimited search cannot trip a budget")
            .expect("generated schemes are connected")
    }
    match oracle {
        Oracle::Exact(o) => go(o, space),
        Oracle::Synthetic(o) => go(o, space),
    }
}

/// What one run of the degradation ladder reports.
pub struct LadderRun {
    /// Every rung that ran or was skipped, in order, with the wall time it
    /// took; the answering rung is last.
    pub rungs: Vec<(String, Duration)>,
}

/// `core`: [`optimize_database_robust_threaded`] at one thread under the
/// request's deadline — the budgeted `optimize` path.
pub fn ladder(db: &Database, space: SearchSpace, timeout_ms: u64) -> LadderRun {
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(timeout_ms));
    let robust = optimize_database_robust_threaded(db, space, budget, None, 1)
        .expect("the ladder always answers");
    let report = robust.report;
    let mut rungs: Vec<(String, Duration)> = report
        .attempts
        .iter()
        .map(|a| (a.rung.to_string(), a.stats.elapsed))
        .collect();
    rungs.push((
        report.answered_by.to_string(),
        report.answered_stats.elapsed,
    ));
    LadderRun { rungs }
}

fn adaptive_config(decoded: &Decoded) -> AdaptiveConfig {
    let mut budget = Budget::unlimited();
    if let Some(n) = decoded.engine.max_tuples {
        budget = budget.with_max_tuples(n);
    }
    AdaptiveConfig {
        space: decoded.space,
        budget,
        threads: 1,
        ..AdaptiveConfig::default()
    }
}

/// `adaptive`: [`mjoin_adaptive::plan_and_execute`], the `execute` op.
pub fn plan_and_execute(db: &Database, decoded: &Decoded) -> (Plan, ExecutionOutcome) {
    mjoin_adaptive::plan_and_execute(db, &Estimation::Synthetic, &adaptive_config(decoded))
        .expect("generated executions fit their tuple budget")
}

/// `adaptive`: [`mjoin_adaptive::execute_adaptive`] of an already chosen
/// plan: staging, estimation and tracing around the joins.
pub fn execute_adaptive(db: &Database, plan: &Plan, decoded: &Decoded) -> ExecutionOutcome {
    mjoin_adaptive::execute_adaptive(
        db,
        &plan.strategy,
        &Estimation::Synthetic,
        &adaptive_config(decoded),
    )
    .expect("generated executions fit their tuple budget")
}

/// `relation`: [`mjoin::Strategy::execute`] — the plan's joins and nothing
/// else. Returns the result size.
pub fn execute_static(plan: &Plan, db: &Database) -> u64 {
    plan.strategy.execute(db).tau()
}
