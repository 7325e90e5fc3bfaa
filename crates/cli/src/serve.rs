//! The `serve` command: a long-running optimizer daemon over TCP, built
//! on [`mjoin_serve`] with this crate's rendering as the engine.
//!
//! The engine reuses [`optimize_outcome`] and [`execute_report`] — the
//! exact functions behind the `optimize` and `execute` commands — so a
//! served plan is byte-identical to the equivalent CLI invocation by
//! construction, not by parallel maintenance.

use mjoin::{BrownoutLevel, MjoinError, SearchSpace};
use mjoin_obs::Json;
use mjoin_serve::{Engine, EngineRequest, EngineResponse, ServeConfig, Server};

use crate::{
    execute_report, optimize_fingerprint, optimize_outcome, parse_input, parse_space,
    query_fingerprint, query_report, CliError, GuardOptions, Input, OptimizeOutcome,
};

/// The real optimizer engine behind `mjoin serve`.
pub struct MjoinEngine {
    /// Worker threads each request's plan search may use.
    pub threads: usize,
}

impl MjoinEngine {
    fn parse(&self, req: &EngineRequest) -> Result<(Input, SearchSpace), MjoinError> {
        let input = parse_input(&req.db).map_err(|e| MjoinError::InvalidScheme(e.0))?;
        let space =
            parse_space(req.space.as_deref()).map_err(|e| MjoinError::InvalidScheme(e.0))?;
        Ok((input, space))
    }

    fn guard_options(&self, req: &EngineRequest) -> GuardOptions {
        GuardOptions {
            timeout_ms: req.timeout_ms,
            max_memo_entries: req.max_memo_entries,
            max_tuples: req.max_tuples,
            threads: Some(self.threads),
            ..GuardOptions::default()
        }
    }
}

/// The response to a planning op: the report text plus `cost`, the op's
/// own `lowering` fields, the answering rung of a ladder run, and the
/// pinned brownout level.
fn plan_response(
    o: OptimizeOutcome,
    lowering: Vec<(&'static str, Json)>,
    level: BrownoutLevel,
) -> EngineResponse {
    let mut extra = vec![("cost", o.cost.map(Json::U64).unwrap_or(Json::Null))];
    extra.extend(lowering);
    if let Some(r) = &o.robust {
        extra.push(("rung", Json::Str(r.report.answered_by.to_string())));
        extra.push(("optimal", Json::Bool(r.report.optimal)));
    }
    if level != BrownoutLevel::Normal {
        extra.push(("brownout", Json::Str(level.name().to_string())));
    }
    EngineResponse {
        output: o.text,
        extra,
    }
}

impl Engine for MjoinEngine {
    fn handle(&self, req: &EngineRequest) -> Result<EngineResponse, MjoinError> {
        let (input, space) = self.parse(req)?;
        let db = &input.database;
        let gopts = self.guard_options(req);
        // The serve daemon's brownout controller pins a degradation entry
        // rung; an unknown level name is a contract violation, not load.
        let level = match req.brownout.as_deref() {
            None => BrownoutLevel::Normal,
            Some(s) => BrownoutLevel::parse(s).ok_or_else(|| {
                MjoinError::InvalidScheme(format!("unknown brownout level {s:?}"))
            })?,
        };
        match req.op.as_str() {
            "optimize" => Ok(plan_response(
                optimize_outcome(db, space, &gopts, level)?,
                Vec::new(),
                level,
            )),
            "query" => {
                let sql = req.query.as_deref().ok_or_else(|| {
                    MjoinError::InvalidQuery("op \"query\" needs a \"query\" field".into())
                })?;
                let query = mjoin::parse_query(sql)?;
                let lowered = mjoin::lower(&query, db)?;
                let rendered = query.render();
                let lowering = vec![
                    ("join_edges", Json::U64(lowered.join_edges.len() as u64)),
                    ("filters", Json::U64(lowered.total_filters() as u64)),
                ];
                Ok(plan_response(
                    query_report(&input, &lowered, &rendered, space, &gopts, level)?,
                    lowering,
                    level,
                ))
            }
            "execute" => {
                let config = mjoin_adaptive::AdaptiveConfig {
                    space,
                    budget: gopts.budget(),
                    threads: self.threads,
                    ..mjoin_adaptive::AdaptiveConfig::default()
                };
                let (text, outcome) =
                    execute_report(db, &mjoin_adaptive::Estimation::Synthetic, &config)?;
                Ok(EngineResponse {
                    output: text,
                    extra: vec![("result_tuples", Json::U64(outcome.result.tau()))],
                })
            }
            other => Err(MjoinError::InvalidScheme(format!(
                "unsupported engine op {other:?}"
            ))),
        }
    }

    /// Canonical scheme+oracle fingerprint: the parsed schemes and
    /// relation states (canonical row order), the search space, and every
    /// budget knob — everything that can change an `optimize` answer.
    /// `execute` requests are never cached (they return data, and the
    /// trace's est-vs-actual lines depend on live execution).
    ///
    /// The key is [`mjoin::optimize_fingerprint`] — the same one the CLI
    /// `--store` path writes, so a store written by CLI cold runs warms
    /// the daemon's cache and a drained daemon's snapshot warms the CLI.
    fn fingerprint(&self, req: &EngineRequest) -> Option<String> {
        match req.op.as_str() {
            "optimize" => {
                let input = parse_input(&req.db).ok()?;
                Some(optimize_fingerprint(
                    &input.database,
                    req.space.as_deref(),
                    &self.guard_options(req),
                ))
            }
            // `query` keys by the lowered (filtered) database plus the
            // canonical rendered query — the same key the CLI `--store`
            // path writes (see [`query_fingerprint`]). Statistics-only
            // inputs bypass the cache: declared cards/domains live
            // outside the hashed states.
            "query" => {
                let input = parse_input(&req.db).ok()?;
                let query = mjoin::parse_query(req.query.as_deref()?).ok()?;
                let lowered = mjoin::lower(&query, &input.database).ok()?;
                if !lowered.has_rows() {
                    return None;
                }
                Some(query_fingerprint(
                    &lowered.database,
                    &query.render(),
                    req.space.as_deref(),
                    &self.guard_options(req),
                ))
            }
            _ => None,
        }
    }
}

/// Implements `mjoin serve [FLAGS]`: parses the serve-specific flags,
/// spawns the daemon, and blocks until a wire-level `{"op":"shutdown"}`
/// drains it. Guard flags already parsed by the caller become the
/// per-request defaults.
pub(crate) fn serve_command(args: &[String], gopts: &GuardOptions) -> Result<String, CliError> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7411".to_string(),
        default_timeout_ms: gopts.timeout_ms,
        default_max_memo_entries: gopts.max_memo_entries,
        default_max_tuples: gopts.max_tuples,
        // `--store` is a guard flag, stripped before this parser runs.
        store_path: gopts.store.clone(),
        ..ServeConfig::default()
    };
    let mut addr_file: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| CliError(format!("flag {flag} requires a value")))
        };
        let parse_u64 = |v: String| {
            v.parse::<u64>()
                .map_err(|_| CliError(format!("flag {flag}: bad number {v:?}")))
        };
        match flag {
            "--addr" => config.addr = value(&mut it)?,
            "--workers" => config.workers = parse_u64(value(&mut it)?)?.max(1) as usize,
            "--queue-cap" => config.queue_cap = parse_u64(value(&mut it)?)? as usize,
            "--max-request-bytes" => {
                config.max_request_bytes = parse_u64(value(&mut it)?)? as usize;
            }
            "--read-timeout-ms" => config.read_timeout_ms = parse_u64(value(&mut it)?)?,
            "--max-timeout-ms" => config.max_timeout_ms = parse_u64(value(&mut it)?)?,
            "--cache-cap" => config.cache_cap = parse_u64(value(&mut it)?)? as usize,
            "--shed-retry-ms" => config.shed_retry_ms = parse_u64(value(&mut it)?)?,
            "--shed-retry-jitter-ms" => {
                config.shed_retry_jitter_ms = parse_u64(value(&mut it)?)?;
            }
            "--client-queue-cap" => {
                config.client_queue_cap = parse_u64(value(&mut it)?)? as usize;
            }
            "--client-rps" => config.client_rps = parse_u64(value(&mut it)?)?,
            "--brownout" => config.brownout = true,
            "--store" => config.store_path = Some(value(&mut it)?),
            "--addr-file" => addr_file = Some(value(&mut it)?),
            other => return Err(CliError(format!("serve: unknown flag {other:?}"))),
        }
    }
    let engine = MjoinEngine {
        threads: gopts.threads(),
    };
    let server = Server::spawn(config, Box::new(engine))
        .map_err(|e| CliError(format!("serve: bind failed: {e}")))?;
    let addr = server.addr();
    eprintln!(
        "mjoin serve: listening on {addr} (newline-delimited JSON; send {{\"op\":\"shutdown\"}} to stop)"
    );
    if let Some(path) = &addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError(format!("serve: --addr-file {path}: {e}")))?;
    }
    let stats = server.join();
    Ok(format!(
        "serve: drained after {} requests ({} shed, {} cache hits, {} cache evictions)\n",
        stats.requests, stats.shed, stats.cache_hits, stats.cache_evictions
    ))
}
