//! Hardened TCP serving layer for the mjoin optimizer.
//!
//! A [`Server`] accepts newline-delimited JSON requests (see [`protocol`])
//! over `std::net` — no external dependencies — and runs them on a fixed
//! worker pool behind a bounded admission queue ([`queue`]). The contract
//! is the robustness headline of the whole stack: **every request gets
//! exactly one well-formed response line — a plan or a typed error —
//! never a panic, never a hang.**
//!
//! * **Load shedding** — a full queue answers `overloaded` immediately
//!   (with a `retry_after_ms` hint, optionally jittered to break up retry
//!   herds) instead of queueing unboundedly.
//! * **Multi-tenant fairness** — requests carry an optional `client`
//!   identity; per-client sub-queues drain by deficit round-robin, and
//!   per-client quotas (`client_queue_cap`) and token-bucket rate limits
//!   (`client_rps`) shed a flooding tenant against its *own* budget
//!   instead of everyone's ([`queue`]).
//! * **Brownout** — instead of shedding when saturated, a load-tracking
//!   controller ([`brownout`]) progressively pins the optimizer's
//!   degradation-ladder entry rung, so overloaded clients get valid
//!   near-optimal plans tagged with the answering rung; hard shed stays
//!   the last resort. Brownout-degraded answers are never cached.
//! * **Deadline propagation** — a request's `timeout_ms` flows into the
//!   engine's `Budget`, and time spent waiting in the admission queue is
//!   subtracted first, so a request doomed by queue wait fails fast with
//!   `budget_exceeded` instead of burning a worker.
//! * **Slow-loris defense** — per-connection read timeouts and a
//!   max-request-size cap bound what one client can pin.
//! * **Graceful drain** — on shutdown, in-flight requests finish under
//!   their remaining budget; queued ones are shed with `shutting_down`.
//! * **Bounded memory** — a capped, sharded, LRU-evicting plan cache
//!   ([`cache`]) keyed on the engine's canonical request fingerprint.
//!
//! The optimizer itself is injected via the [`Engine`] trait (the CLI
//! crate provides the real one, reusing its exact rendering so a served
//! plan is byte-identical to the CLI's); stub engines keep this crate's
//! tests fast and deterministic. A planning request goes line framing
//! (reads of up to [`READ_CHUNK`] bytes) → decode → [`Engine::prepare`]
//! (parse once, key) → cache → admission → queue → the prepared `run` on
//! a worker.
//!
//! Failure injection: the `serve::accept`, `serve::decode`,
//! `serve::enqueue`, `serve::respond`, `serve::admit_client` and
//! `serve::brownout` failpoints cover the daemon's I/O and admission
//! choke points. Observability: the daemon's own counters — requests,
//! sheds, quota sheds, DRR rounds, brownout escalations and answers per
//! degraded rung class, cache hits and evictions — are what
//! `{"op":"stats"}` and [`StatsSnapshot`] report; nothing is mirrored
//! into `mjoin-obs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brownout;
pub mod cache;
mod framing;
pub mod protocol;
pub mod queue;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mjoin_guard::{failpoints, MjoinError};
use mjoin_obs::Json;

use brownout::{BrownoutConfig, BrownoutController};
use cache::PlanCache;
use framing::LineFramer;
pub use framing::READ_CHUNK;
use protocol::{decode_line, error_line, kind_of, ok_control_line, ok_line, Request};
use queue::{Admission, FairnessConfig, Job, SubmitError, ANON_CLIENT};

/// Extra slack a connection thread waits for its worker beyond the
/// request deadline before declaring the worker wedged. Generous: the
/// engine's own guard enforces the deadline, this is a last-ditch bound
/// so a connection can never hang forever.
const WORKER_GRACE_MS: u64 = 10_000;

/// What the serving layer hands the engine for one admitted request.
///
/// `timeout_ms` is the **remaining** wall-clock budget at execution time
/// (the requested deadline minus admission-queue wait); the engine must
/// thread it into its `Budget`/`Guard` machinery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineRequest {
    /// `optimize`, `execute` or `query`.
    pub op: String,
    /// Database file text, in the CLI's input format.
    pub db: String,
    /// Query-DSL text (present only for the `query` op).
    pub query: Option<String>,
    /// Search-space name (`all`, `linear`, `nocp`, `linear-nocp`, `avoid`).
    pub space: Option<String>,
    /// Remaining wall-clock budget in milliseconds (`None` = unlimited).
    pub timeout_ms: Option<u64>,
    /// Memo-entry cap.
    pub max_memo_entries: Option<u64>,
    /// Intermediate-tuple cap.
    pub max_tuples: Option<u64>,
    /// Brownout level the server pinned for this job (`reduced-dp` or
    /// `greedy-only`); `None` means the full ladder. The engine maps it
    /// onto its degradation entry rung. Responses produced under brownout
    /// are never inserted into the plan cache.
    pub brownout: Option<String>,
}

/// A successful engine answer: the report text (byte-identical to the
/// CLI's for the same invocation) plus structured extras merged into the
/// response object (`cost`, `rung`, …).
#[derive(Clone, Debug)]
pub struct EngineResponse {
    /// The rendered report, exactly as the CLI would print it.
    pub output: String,
    /// Structured fields appended to the response JSON.
    pub extra: Vec<(&'static str, Json)>,
}

/// What [`Engine::prepare`] makes of one request: its plan-cache key and
/// the work that answers it.
pub struct Prepared {
    /// A canonical cache key, or `None` to bypass the plan cache. Keys
    /// must cover everything that affects the response (scheme, states,
    /// search space, budget caps), so equal keys really do mean an
    /// interchangeable answer.
    pub key: Option<String>,
    /// Answers the request. A worker calls it with the request as it runs:
    /// `timeout_ms` is the remaining budget, `brownout` the pinned level,
    /// and `db` is empty — everything parsed from it lives in the closure.
    pub run: Run,
}

/// The type of [`Prepared::run`].
type Run = Box<dyn FnOnce(&EngineRequest) -> Result<EngineResponse, MjoinError> + Send>;

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// The pluggable optimizer behind the daemon.
///
/// Implementations must be panic-free by intent — but the server wraps
/// every call in `catch_unwind` anyway (`prepare` on the connection
/// thread, `run` on a worker), converting an escaped panic into a typed
/// `internal` error, so one poisoned request can never take a thread down.
pub trait Engine: Send + Sync + 'static {
    /// Parses and keys one request. The daemon calls it exactly once per
    /// planning request, on the connection thread, before the cache
    /// lookup; an error is answered right there and never queued.
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError>;

    /// Prepares and runs one request in one go.
    fn handle(&self, req: &EngineRequest) -> Result<EngineResponse, MjoinError> {
        (self.prepare(req)?.run)(req)
    }

    /// The key [`Engine::prepare`] computes; `None` when it fails.
    fn fingerprint(&self, req: &EngineRequest) -> Option<String> {
        self.prepare(req).ok()?.key
    }
}

/// Serving knobs. `Default` suits tests: loopback, an OS-assigned port,
/// two workers, and small-but-sane caps.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 lets the OS pick).
    pub addr: String,
    /// Worker threads draining the admission queue (min 1).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Per-request byte cap; longer lines are refused with `too_large`.
    pub max_request_bytes: usize,
    /// Per-connection read timeout (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Hard ceiling on any per-request deadline.
    pub max_timeout_ms: u64,
    /// Memo-entry cap applied when a request carries none.
    pub default_max_memo_entries: Option<u64>,
    /// Intermediate-tuple cap applied when a request carries none.
    pub default_max_tuples: Option<u64>,
    /// Plan-cache entry cap (0 disables the cache).
    pub cache_cap: usize,
    /// `retry_after_ms` hint attached to shed responses.
    pub shed_retry_ms: u64,
    /// Width of the deterministic jitter window added to `shed_retry_ms`
    /// (hints spread over `[shed_retry_ms, shed_retry_ms + jitter]`);
    /// 0 keeps the fixed hint.
    pub shed_retry_jitter_ms: u64,
    /// Per-client in-queue quota (0 = no per-client cap).
    pub client_queue_cap: usize,
    /// Per-client token-bucket admission rate in requests/second
    /// (0 = no rate limit).
    pub client_rps: u64,
    /// Enables the brownout controller (degrade-instead-of-shed under
    /// load); off by default.
    pub brownout: bool,
    /// Persistent-store path: the plan cache warm-starts from it at boot
    /// (a missing file starts fresh; a corrupt one refuses to boot) and
    /// snapshots back to it on graceful drain.
    pub store_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            max_request_bytes: 1 << 20,
            read_timeout_ms: 10_000,
            default_timeout_ms: None,
            max_timeout_ms: 600_000,
            default_max_memo_entries: None,
            default_max_tuples: None,
            cache_cap: 256,
            shed_retry_ms: 50,
            shed_retry_jitter_ms: 0,
            client_queue_cap: 0,
            client_rps: 0,
            brownout: false,
            store_path: None,
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    shed: AtomicU64,
    quota_shed: AtomicU64,
    handled: AtomicU64,
    decode_errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_evictions: AtomicU64,
    brownout_dp_answers: AtomicU64,
    brownout_greedy_answers: AtomicU64,
    /// Monotone nonce feeding the shed-retry jitter hash.
    shed_nonce: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request lines received (any op, including malformed ones).
    pub requests: u64,
    /// Requests shed (queue full or draining).
    pub shed: u64,
    /// Requests shed against a *client's own* quota or rate limit.
    pub quota_shed: u64,
    /// Brownout escalations (upward level transitions) so far.
    pub brownout_entered: u64,
    /// Brownout-degraded answers served from a DP-class rung.
    pub brownout_dp_answers: u64,
    /// Brownout-degraded answers served from the greedy/fallback rungs.
    pub brownout_greedy_answers: u64,
    /// Jobs a worker ran to completion (ok or typed error).
    pub handled: u64,
    /// Request lines that failed to decode.
    pub decode_errors: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Entries in the plan cache right now.
    pub cache_len: u64,
}

struct Shared {
    config: ServeConfig,
    engine: Box<dyn Engine>,
    queue: Admission,
    brownout: BrownoutController,
    cache: PlanCache,
    stats: Stats,
    shutting_down: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            quota_shed: self.stats.quota_shed.load(Ordering::Relaxed),
            brownout_entered: self.brownout.entered(),
            brownout_dp_answers: self.stats.brownout_dp_answers.load(Ordering::Relaxed),
            brownout_greedy_answers: self.stats.brownout_greedy_answers.load(Ordering::Relaxed),
            handled: self.stats.handled.load(Ordering::Relaxed),
            decode_errors: self.stats.decode_errors.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_evictions: self.stats.cache_evictions.load(Ordering::Relaxed),
            cache_len: self.cache.len() as u64,
        }
    }
}

/// A running daemon. Stop it with [`Server::shutdown`] (or a wire-level
/// `{"op":"shutdown"}` request), then reap the threads with
/// [`Server::join`] — which blocks until drain completes.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns
    /// immediately. The listen address (with the OS-resolved port) is
    /// available via [`Server::addr`].
    pub fn spawn(config: ServeConfig, engine: Box<dyn Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = PlanCache::new(config.cache_cap);
        // Warm-start before any worker runs: a missing store starts
        // fresh, a corrupt one refuses to boot (serving stale or torn
        // state silently would be worse than not serving).
        if let Some(path) = &config.store_path {
            let p = std::path::Path::new(path);
            if p.exists() {
                let store = mjoin_store::LoadedStore::open(p).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                for e in store.entries() {
                    let cost = match e.plan_cost() {
                        u64::MAX => Json::Null,
                        c => Json::U64(c),
                    };
                    cache.insert(
                        e.fingerprint().to_string(),
                        EngineResponse {
                            output: e.response().to_string(),
                            extra: vec![("cost", cost)],
                        },
                    );
                }
            }
        }
        let shared = Arc::new(Shared {
            queue: Admission::new(
                config.queue_cap,
                FairnessConfig {
                    client_queue_cap: config.client_queue_cap,
                    client_rps: config.client_rps,
                },
            ),
            brownout: BrownoutController::new(BrownoutConfig {
                enabled: config.brownout,
                ..BrownoutConfig::default()
            }),
            cache,
            stats: Stats::default(),
            shutting_down: AtomicBool::new(false),
            addr,
            engine,
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mjoin-serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn serve worker")
            })
            .collect();
        let acceptor = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mjoin-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &sh))
                .expect("spawn serve acceptor")
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates graceful drain: stops accepting, sheds everything still
    /// queued with `shutting_down`, and lets in-flight requests finish
    /// under their remaining budget. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// The server's counters right now.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Joins the acceptor and worker pool (blocks until
    /// [`Server::shutdown`] — local or wire-level — has been called and
    /// the drain completed), returning the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Snapshot the plan cache on graceful drain. Failure to persist
        // must not fail the drain — the server already answered every
        // request — so it is reported and swallowed.
        if let Some(path) = &self.shared.config.store_path {
            if let Err(e) = snapshot_cache(&self.shared.cache, std::path::Path::new(path)) {
                eprintln!("mjoin serve: store snapshot to {path} failed: {e}");
            }
        }
        self.shared.snapshot()
    }
}

/// Writes the cache's replayable entries to `path`. Only responses whose
/// extras are exactly the optimize `cost` field are persisted: those are
/// reconstructible bit-identically at warm-start. Entries with other
/// extras (budgeted-ladder rungs, execute results) are skipped rather
/// than risk replaying a response whose extras no longer match.
fn snapshot_cache(cache: &PlanCache, path: &std::path::Path) -> Result<u64, MjoinError> {
    let entries: Vec<mjoin_store::StoreEntry> = cache
        .export()
        .into_iter()
        .filter_map(|(key, resp)| {
            let hex = key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit());
            let cost = match resp.extra.as_slice() {
                [("cost", Json::U64(c))] => *c,
                [("cost", Json::Null)] => u64::MAX,
                _ => return None,
            };
            hex.then(|| mjoin_store::StoreEntry::response_only(key, cost, resp.output))
        })
        .collect();
    mjoin_store::save(path, &entries)
}

fn initiate_shutdown(shared: &Arc<Shared>) {
    if shared.shutting_down.swap(true, Ordering::AcqRel) {
        return;
    }
    // Shed everything still queued; workers finish their in-flight job
    // (under its remaining budget) and then exit on the drained queue.
    for job in shared.queue.begin_shutdown() {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        let _ = job.respond.send(error_line(
            job.id.as_ref(),
            "shutting_down",
            "server is draining; queued request shed",
            Some(retry_hint(shared)),
        ));
    }
    // A throwaway connection unblocks the acceptor so it can observe the
    // flag and exit (std's blocking accept has no other wakeup).
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        if let Err(e) = failpoints::hit("serve::accept") {
            // Even a connection refused by fault injection gets one
            // well-formed response line before the close.
            let line = error_line(None, "internal", &e.to_string(), None);
            let _ = stream.write_all(line.as_bytes());
            continue;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(
            shared.config.read_timeout_ms.max(1),
        )));
        // Request/response over small messages: Nagle + delayed ACK would
        // add ~40 ms to every exchange otherwise.
        let _ = stream.set_nodelay(true);
        let sh = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("mjoin-serve-conn".to_string())
            .spawn(move || connection_loop(&sh, stream));
    }
}

enum Flow {
    Continue,
    Close,
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let max = shared.config.max_request_bytes.max(64);
    let mut framer = LineFramer::default();
    loop {
        while let Some(bytes) = framer.next_line() {
            let text = String::from_utf8_lossy(bytes);
            let line = text.trim();
            if line.is_empty() {
                continue;
            }
            match handle_line(shared, line, &mut stream) {
                Flow::Continue => {}
                Flow::Close => return,
            }
        }
        if framer.pending() > max {
            write_response(
                &mut stream,
                error_line(
                    None,
                    "too_large",
                    &format!("request exceeds the {max}-byte cap"),
                    None,
                ),
            );
            return;
        }
        match framer.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if framer.pending() > 0 {
                    // A half-sent request stalled past the read timeout:
                    // answer (typed) and drop the slow client.
                    write_response(
                        &mut stream,
                        error_line(
                            None,
                            "invalid_request",
                            "read timed out mid-request (slow client)",
                            None,
                        ),
                    );
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// Every response funnels through here: the `serve::respond` failpoint
/// guards the write path, and an injected fault downgrades the response
/// to a typed error built *without* re-entering the failpoint — so the
/// client still receives exactly one well-formed line.
fn write_response(stream: &mut TcpStream, line: String) {
    let line = match failpoints::hit("serve::respond") {
        Ok(()) => line,
        Err(e) => error_line(None, "internal", &e.to_string(), None),
    };
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

fn handle_line(shared: &Arc<Shared>, line: &str, stream: &mut TcpStream) -> Flow {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    if line.len() > shared.config.max_request_bytes {
        write_response(
            stream,
            error_line(
                None,
                "too_large",
                &format!(
                    "request of {} bytes exceeds the {}-byte cap",
                    line.len(),
                    shared.config.max_request_bytes
                ),
                None,
            ),
        );
        return Flow::Close;
    }
    let req = match decode_line(line) {
        Ok(req) => req,
        Err(e) => {
            shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            let kind = match &e {
                MjoinError::Internal(_) => "internal",
                _ => "invalid_request",
            };
            write_response(stream, error_line(None, kind, &e.to_string(), None));
            return Flow::Continue;
        }
    };
    match req.op.as_str() {
        "ping" => {
            write_response(stream, ok_control_line(req.id.as_ref(), "ping", Vec::new()));
            Flow::Continue
        }
        "stats" => {
            let stats = stats_json(shared);
            write_response(
                stream,
                ok_control_line(req.id.as_ref(), "stats", vec![("stats", stats)]),
            );
            Flow::Continue
        }
        "shutdown" => {
            write_response(
                stream,
                ok_control_line(req.id.as_ref(), "shutdown", Vec::new()),
            );
            initiate_shutdown(shared);
            Flow::Close
        }
        "optimize" | "execute" | "query" => {
            submit_and_wait(shared, req, stream);
            Flow::Continue
        }
        other => {
            write_response(
                stream,
                error_line(
                    req.id.as_ref(),
                    "invalid_request",
                    &format!(
                        "unknown op {other:?} (expected optimize | execute | query | ping | stats | shutdown)"
                    ),
                    None,
                ),
            );
            Flow::Continue
        }
    }
}

/// The splitmix64 finalizer — a tiny, dependency-free bijective hash with
/// good avalanche, plenty for decorrelating retry hints.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `retry_after_ms` hint for one shed response. With jitter
/// configured, hints spread deterministically over
/// `[shed_retry_ms, shed_retry_ms + jitter]` (hashed from a per-shed
/// nonce) so synchronized clients don't retry as one herd; with jitter 0
/// the hint is the fixed `shed_retry_ms`, byte-identical to before.
fn retry_hint(shared: &Shared) -> u64 {
    let base = shared.config.shed_retry_ms;
    let jitter = shared.config.shed_retry_jitter_ms;
    if jitter == 0 {
        return base;
    }
    let nonce = shared.stats.shed_nonce.fetch_add(1, Ordering::Relaxed);
    base.saturating_add(splitmix64(nonce) % (jitter + 1))
}

fn shed(shared: &Arc<Shared>, stream: &mut TcpStream, id: Option<&Json>, kind: &str, msg: &str) {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    write_response(stream, error_line(id, kind, msg, Some(retry_hint(shared))));
}

/// Sheds a request that broke its *own* client's quota or rate limit:
/// counted separately from global sheds (`serve.quota_shed`), because a
/// flooding tenant hitting its cap is the fairness machinery working, not
/// the server being overloaded — it must not trip the brownout
/// controller's shed signal.
fn quota_shed(shared: &Arc<Shared>, stream: &mut TcpStream, id: Option<&Json>, msg: &str) {
    shared.stats.quota_shed.fetch_add(1, Ordering::Relaxed);
    write_response(
        stream,
        error_line(id, "overloaded", msg, Some(retry_hint(shared))),
    );
}

fn submit_and_wait(shared: &Arc<Shared>, req: Request, stream: &mut TcpStream) {
    let cfg = &shared.config;
    let timeout_ms = req
        .timeout_ms
        .or(cfg.default_timeout_ms)
        .map(|t| t.min(cfg.max_timeout_ms));
    let client: Arc<str> = match req.client.as_deref() {
        Some(c) => Arc::from(c),
        None => Arc::from(ANON_CLIENT),
    };
    let mut engine_req = EngineRequest {
        op: req.op.clone(),
        db: req.db,
        query: req.query,
        space: req.space,
        timeout_ms,
        max_memo_entries: req.max_memo_entries.or(cfg.default_max_memo_entries),
        max_tuples: req.max_tuples.or(cfg.default_max_tuples),
        brownout: None,
    };
    if let Err(e) = failpoints::hit("serve::enqueue") {
        write_response(
            stream,
            error_line(req.id.as_ref(), "internal", &e.to_string(), None),
        );
        return;
    }
    // The one parse of the request. Malformed input is answered here,
    // before it can take a queue slot; the parsed request is all a worker
    // needs, so the raw text goes now.
    let work = match catch_unwind(AssertUnwindSafe(|| shared.engine.prepare(&engine_req))) {
        Ok(Ok(work)) => work,
        Ok(Err(e)) => {
            let line = error_line(req.id.as_ref(), kind_of(&e), &e.to_string(), None);
            write_response(stream, line);
            return;
        }
        Err(panic) => {
            write_response(stream, panic_line(req.id.as_ref(), panic.as_ref()));
            return;
        }
    };
    engine_req.db = String::new();
    // Cross-request plan cache: hits answer from the connection thread
    // and never consume a queue slot or a worker. (A disabled cache holds
    // nothing and drops every insert.)
    if let Some(k) = &work.key {
        if let Some(resp) = shared.cache.get(k) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            write_response(
                stream,
                ok_line(req.id.as_ref(), &engine_req.op, &resp, true),
            );
            return;
        }
    }
    // Per-client admission (quota / token-bucket rate) happens inside
    // `try_push`; the failpoint guards the whole check.
    if let Err(e) = failpoints::hit("serve::admit_client") {
        write_response(
            stream,
            error_line(req.id.as_ref(), kind_of(&e), &e.to_string(), None),
        );
        return;
    }
    let (tx, rx) = mpsc::channel::<String>();
    let job = Job {
        id: req.id,
        client,
        request: engine_req,
        work,
        enqueued: Instant::now(),
        respond: tx,
    };
    if let Err((job, refused)) = shared.queue.try_push(job) {
        let (id, retry) = (job.id.as_ref(), cfg.shed_retry_ms);
        match refused {
            SubmitError::Full => {
                let msg = format!(
                    "admission queue full ({} pending); retry after {retry} ms",
                    cfg.queue_cap
                );
                shed(shared, stream, id, "overloaded", &msg);
            }
            SubmitError::ClientQueueFull => {
                let msg = format!(
                    "client {:?} is over its queue quota ({} queued); retry after {retry} ms",
                    job.client, cfg.client_queue_cap
                );
                quota_shed(shared, stream, id, &msg);
            }
            SubmitError::RateLimited => {
                let msg = format!(
                    "client {:?} is over its admission rate ({} req/s); retry after {retry} ms",
                    job.client, cfg.client_rps
                );
                quota_shed(shared, stream, id, &msg);
            }
            SubmitError::ShuttingDown => {
                let msg = "server is draining; request shed";
                shed(shared, stream, id, "shutting_down", msg);
            }
        }
        return;
    }
    // Bound the wait so a wedged worker can never hang the connection:
    // the engine's guard enforces the deadline, this is the backstop.
    let line = match timeout_ms {
        Some(t) => rx
            .recv_timeout(Duration::from_millis(t.saturating_add(WORKER_GRACE_MS)))
            .unwrap_or_else(|_| {
                error_line(
                    None,
                    "internal",
                    "worker did not respond within the deadline grace window",
                    None,
                )
            }),
        None => rx
            .recv()
            .unwrap_or_else(|_| error_line(None, "internal", "worker dropped the request", None)),
    };
    write_response(stream, line);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let respond = job.respond.clone();
        let line = run_job(shared, job);
        shared.stats.handled.fetch_add(1, Ordering::Relaxed);
        let _ = respond.send(line);
    }
}

/// The `internal` line for a panic an engine call let escape.
fn panic_line(id: Option<&Json>, panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    error_line(id, "internal", &format!("optimizer panicked: {msg}"), None)
}

fn run_job(shared: &Arc<Shared>, mut job: Job) -> String {
    if let Err(e) = failpoints::hit("serve::brownout") {
        return error_line(job.id.as_ref(), kind_of(&e), &e.to_string(), None);
    }
    // One load observation per job: the controller pins the degradation
    // entry rung this job will be served at.
    let level = shared.brownout.observe(
        shared.queue.depth(),
        shared.queue.cap(),
        shared.stats.shed.load(Ordering::Relaxed),
    );
    job.request.brownout = level.wire_name().map(str::to_string);
    // Deadline propagation: admission-queue wait burns the caller's
    // budget before the engine ever runs.
    let requested = job.request.timeout_ms;
    if let Some(total) = requested {
        let waited = u64::try_from(job.enqueued.elapsed().as_millis()).unwrap_or(u64::MAX);
        let remaining = total.saturating_sub(waited);
        if remaining == 0 {
            return error_line(
                job.id.as_ref(),
                "budget_exceeded",
                &format!("deadline of {total} ms expired after {waited} ms in the admission queue"),
                None,
            );
        }
        job.request.timeout_ms = Some(remaining);
    }
    let Prepared { key, run } = job.work;
    match catch_unwind(AssertUnwindSafe(|| run(&job.request))) {
        Ok(Ok(resp)) => {
            if let Some(level) = &job.request.brownout {
                // A browned-out answer is still a valid covering plan;
                // count it under the rung that actually answered.
                let rung = resp
                    .extra
                    .iter()
                    .find_map(|(k, v)| (*k == "rung").then(|| v.as_str()).flatten());
                let dp_class = match rung {
                    Some(r) => matches!(r, "exhaustive" | "dp" | "lindp" | "partdp"),
                    None => level == "reduced-dp",
                };
                let answers = if dp_class {
                    &shared.stats.brownout_dp_answers
                } else {
                    &shared.stats.brownout_greedy_answers
                };
                answers.fetch_add(1, Ordering::Relaxed);
            }
            // Cache only answers produced under the full requested budget
            // and the full ladder: a queue-delayed or browned-out run may
            // have degraded further than an unloaded one would, and must
            // not be replayed as canonical.
            if job.request.timeout_ms == requested && job.request.brownout.is_none() {
                if let Some(key) = key {
                    let evicted = shared.cache.insert(key, resp.clone());
                    if evicted > 0 {
                        shared
                            .stats
                            .cache_evictions
                            .fetch_add(evicted, Ordering::Relaxed);
                    }
                }
            }
            ok_line(job.id.as_ref(), &job.request.op, &resp, false)
        }
        Ok(Err(e)) => error_line(job.id.as_ref(), kind_of(&e), &e.to_string(), None),
        Err(panic) => panic_line(job.id.as_ref(), panic.as_ref()),
    }
}

fn stats_json(shared: &Arc<Shared>) -> Json {
    let s = shared.snapshot();
    let clients = Json::Obj(
        shared
            .queue
            .client_snapshots()
            .into_iter()
            .map(|c| {
                (
                    c.client,
                    Json::obj(vec![
                        ("queued", Json::U64(c.queued)),
                        ("admitted", Json::U64(c.admitted)),
                        ("quota_shed", Json::U64(c.quota_shed)),
                        ("rate_shed", Json::U64(c.rate_shed)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("requests", Json::U64(s.requests)),
        ("shed", Json::U64(s.shed)),
        ("quota_shed", Json::U64(s.quota_shed)),
        ("handled", Json::U64(s.handled)),
        ("decode_errors", Json::U64(s.decode_errors)),
        ("cache_hits", Json::U64(s.cache_hits)),
        ("cache_evictions", Json::U64(s.cache_evictions)),
        ("cache_len", Json::U64(s.cache_len)),
        ("cache_cap", Json::U64(shared.config.cache_cap as u64)),
        ("queue_depth", Json::U64(shared.queue.depth() as u64)),
        ("queue_cap", Json::U64(shared.queue.cap() as u64)),
        ("drr_rounds", Json::U64(shared.queue.rounds())),
        (
            "brownout",
            Json::Str(shared.brownout.level().stats_name().to_string()),
        ),
        ("brownout_entered", Json::U64(s.brownout_entered)),
        ("brownout_dp_answers", Json::U64(s.brownout_dp_answers)),
        (
            "brownout_greedy_answers",
            Json::U64(s.brownout_greedy_answers),
        ),
        ("clients", clients),
        ("workers", Json::U64(shared.config.workers.max(1) as u64)),
        (
            "draining",
            Json::Bool(shared.shutting_down.load(Ordering::Acquire)),
        ),
    ])
}
