//! The `serve` command: a long-running optimizer daemon over TCP, built
//! on [`mjoin_serve`] with this crate's [`Request`] as the engine.
//!
//! [`MjoinEngine::prepare`] parses a request's database once into the
//! same [`Request`] the `optimize`, `query` and `execute` commands build.
//! Its key is the CLI `--store` key, so CLI stores and daemon snapshots
//! warm each other, and its run is [`Request::respond`], so a served
//! answer is the CLI's byte for byte by construction.

use mjoin::{BrownoutLevel, MjoinError};
use mjoin_serve::{Engine, EngineRequest, EngineResponse, Prepared, ServeConfig, Server};

use crate::{parse_input, CliError, Flags, GuardOptions, Request};

/// The real optimizer engine behind `mjoin serve`.
pub struct MjoinEngine {
    /// Hash-join workers each request may use; plan search is sequential.
    pub threads: usize,
}

/// The options `req` runs under: its caps and (remaining) deadline, with
/// `threads` hash-join workers.
fn guard_options(threads: usize, req: &EngineRequest) -> GuardOptions {
    GuardOptions {
        timeout_ms: req.timeout_ms,
        max_memo_entries: req.max_memo_entries,
        max_tuples: req.max_tuples,
        threads: Some(threads),
        ..GuardOptions::default()
    }
}

impl Engine for MjoinEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let input = parse_input(&req.db).map_err(|e| MjoinError::InvalidScheme(e.0))?;
        let request = Request::new(&req.op, input, req.query.as_deref(), req.space.as_deref())?;
        let threads = self.threads;
        Ok(Prepared {
            key: request.key(&guard_options(threads, req)),
            run: Box::new(move |req| {
                // The daemon's brownout controller pins a degradation
                // entry rung; an unknown level name is a contract
                // violation, not load.
                let level = match req.brownout.as_deref() {
                    None => BrownoutLevel::Normal,
                    Some(s) => BrownoutLevel::parse(s).ok_or_else(|| {
                        MjoinError::InvalidScheme(format!("unknown brownout level {s:?}"))
                    })?,
                };
                let response = request.respond(&guard_options(threads, req), level)?;
                Ok(EngineResponse {
                    output: response.text,
                    extra: response.extra,
                })
            }),
        })
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
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.name {
            "--addr" => config.addr = flags.value(&flag)?,
            "--workers" => config.workers = flags.number::<usize>(&flag)?.max(1),
            "--queue-cap" => config.queue_cap = flags.number(&flag)?,
            "--max-request-bytes" => config.max_request_bytes = flags.number(&flag)?,
            "--read-timeout-ms" => config.read_timeout_ms = flags.number(&flag)?,
            "--max-timeout-ms" => config.max_timeout_ms = flags.number(&flag)?,
            "--cache-cap" => config.cache_cap = flags.number(&flag)?,
            "--shed-retry-ms" => config.shed_retry_ms = flags.number(&flag)?,
            "--shed-retry-jitter-ms" => config.shed_retry_jitter_ms = flags.number(&flag)?,
            "--client-queue-cap" => config.client_queue_cap = flags.number(&flag)?,
            "--client-rps" => config.client_rps = flags.number(&flag)?,
            "--brownout" => config.brownout = true,
            "--store" => config.store_path = Some(flags.value(&flag)?),
            "--addr-file" => addr_file = Some(flags.value(&flag)?),
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
