//! Real-engine serve tests: the daemon wired to [`mjoin_cli::MjoinEngine`]
//! must (a) return output byte-identical to the equivalent one-shot CLI
//! invocation, and (b) survive a chaos/soak storm — ≥ 8 concurrent clients
//! mixing valid, malformed, oversized, slow-loris, and deadline-doomed
//! requests while every `serve::*` failpoint is armed round-robin.
//!
//! The storm arms failpoints process-wide (the daemon's threads are not
//! the test's), so tests serialize on one mutex. Set
//! `MJOIN_CHAOS_SMOKE=1` (the CI serve-chaos job does) to shrink the soak.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use mjoin::failpoints::ScopedFailpoint;
use mjoin_cli::{run, MjoinEngine};
use mjoin_obs::{json, Json};
use mjoin_serve::{Engine as _, EngineRequest, ServeConfig, Server};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const DB: &str = "relation AB\n1 10\n2 20\n3 30\n\nrelation BC\n10 5\n20 6\n10 7\n";

fn spawn_real_server(config: ServeConfig) -> Server {
    Server::spawn(config, Box::new(MjoinEngine { threads: 1 })).expect("spawn serve daemon")
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Builds a request line through the same JSON layer the server parses
/// with, so db text newlines are escaped correctly.
fn req_line(fields: Vec<(&str, Json)>) -> String {
    Json::obj(fields).to_compact_string()
}

fn request(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    json::parse(resp.trim()).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, |_| Ok(DB.to_string())).expect("CLI invocation succeeds")
}

/// The headline acceptance check: a single unloaded `optimize` request
/// over the wire returns output byte-identical to the equivalent CLI
/// invocation — for both the legacy exact path (no budget) and the
/// budgeted degradation-ladder path.
#[test]
fn served_optimize_is_byte_identical_to_the_cli() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let addr = server.addr();

    // Legacy path: no budget flags, no timeout field.
    let served = request(
        addr,
        &req_line(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(DB.to_string())),
        ]),
    );
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    assert_eq!(
        served.get("output").and_then(Json::as_str),
        Some(cli(&["optimize", "db"]).as_str()),
        "unbudgeted serve output must match `mjoin-cli optimize` byte for byte"
    );

    // Budgeted path: timeout_ms maps onto --timeout-ms, same ladder.
    let served = request(
        addr,
        &req_line(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(DB.to_string())),
            ("timeout_ms", Json::U64(60_000)),
        ]),
    );
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    assert_eq!(
        served.get("output").and_then(Json::as_str),
        Some(cli(&["optimize", "db", "--timeout-ms", "60000"]).as_str()),
        "budgeted serve output must match the CLI ladder byte for byte"
    );
    assert!(served.get("rung").is_some(), "{served:?}");

    server.shutdown();
    server.join();
}

/// `execute` over the wire matches the CLI too, and reports the result
/// cardinality as structured data next to the rendered text.
#[test]
fn served_execute_matches_the_cli() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let served = request(
        server.addr(),
        &req_line(vec![
            ("op", Json::Str("execute".to_string())),
            ("db", Json::Str(DB.to_string())),
        ]),
    );
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    assert_eq!(
        served.get("output").and_then(Json::as_str),
        Some(cli(&["execute", "db"]).as_str()),
    );
    assert!(
        served.get("result_tuples").and_then(Json::as_u64).is_some(),
        "{served:?}"
    );
    server.shutdown();
    server.join();
}

/// Repeated identical optimize requests are answered from the plan cache
/// with the very same bytes.
#[test]
fn cached_real_plans_are_identical_to_fresh_ones() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let line = req_line(vec![
        ("op", Json::Str("optimize".to_string())),
        ("db", Json::Str(DB.to_string())),
    ]);
    let fresh = request(server.addr(), &line);
    let cached = request(server.addr(), &line);
    assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(cached.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(fresh.get("output"), cached.get("output"));
    assert_eq!(fresh.get("cost"), cached.get("cost"));
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 1);
    server.shutdown();
    server.join();
}

/// The chaos/soak storm from the issue, against the real optimizer:
/// 8 concurrent clients, five request species, `serve::*` failpoints
/// armed round-robin by a chaos thread. The server must never panic or
/// deadlock, every response line must be well-formed JSON, the plan
/// cache must respect its cap, and the server must still answer a clean
/// optimize request identically to the CLI afterwards.
#[test]
fn chaos_soak_with_the_real_engine() {
    let _serial = serialize();
    let iters: usize = if std::env::var("MJOIN_CHAOS_SMOKE").is_ok() { 3 } else { 10 };
    let server = spawn_real_server(ServeConfig {
        workers: 2,
        queue_cap: 3,
        cache_cap: 8,
        max_request_bytes: 8192,
        read_timeout_ms: 200,
        max_timeout_ms: 60_000,
        ..config()
    });
    let addr = server.addr();
    let malformed_lines = AtomicU64::new(0);
    let responses = AtomicU64::new(0);
    std::thread::scope(|s| {
        let chaos = s.spawn(|| {
            for _ in 0..iters {
                for site in [
                    "serve::accept",
                    "serve::decode",
                    "serve::enqueue",
                    "serve::admit_client",
                    "serve::brownout",
                    "serve::respond",
                ] {
                    let _fp = ScopedFailpoint::arm_process(site);
                    std::thread::sleep(Duration::from_millis(8));
                }
                std::thread::sleep(Duration::from_millis(4));
            }
        });
        let mut clients = Vec::new();
        for c in 0..8usize {
            let responses = &responses;
            let malformed_lines = &malformed_lines;
            clients.push(s.spawn(move || {
                for i in 0..iters {
                    let line = match (c + i) % 6 {
                        // Valid optimize over the real database; vary the
                        // budget so both engine paths get exercised.
                        0 => req_line(vec![
                            ("id", Json::U64(c as u64)),
                            ("op", Json::Str("optimize".to_string())),
                            ("db", Json::Str(DB.to_string())),
                            ("timeout_ms", Json::U64(60_000)),
                        ]),
                        1 => "][ definitely not json".to_string(),
                        2 => format!(r#"{{"op": "optimize", "db": "{}"}}"#, "x".repeat(9000)),
                        3 => String::new(), // slow-loris marker
                        // Deadline-doomed: a 1 ms budget that queue wait
                        // alone can consume.
                        4 => req_line(vec![
                            ("op", Json::Str("optimize".to_string())),
                            ("db", Json::Str(DB.to_string())),
                            ("timeout_ms", Json::U64(1)),
                        ]),
                        // Large query: a 24-relation chain under a tight
                        // deadline, so the polynomial rungs (lindp/partdp)
                        // answer past the exhaustive/DP cutoffs.
                        _ => req_line(vec![
                            ("op", Json::Str("optimize".to_string())),
                            (
                                "db",
                                Json::Str(
                                    (0..24)
                                        .map(|i| format!("relation a{i},a{}\n1 2\n", i + 1))
                                        .collect(),
                                ),
                            ),
                            ("timeout_ms", Json::U64(250)),
                        ]),
                    };
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    if line.is_empty() {
                        let _ = stream.write_all(b"{\"op\": \"opti");
                    } else {
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                    }
                    let mut reader = BufReader::new(stream);
                    let mut resp = String::new();
                    match reader.read_line(&mut resp) {
                        Ok(n) if n > 0 => {
                            responses.fetch_add(1, Ordering::Relaxed);
                            if json::parse(resp.trim()).is_err() {
                                malformed_lines.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {} // EOF/timeout from an armed accept fault
                    }
                }
            }));
        }
        for c in clients {
            c.join().expect("client panicked");
        }
        chaos.join().expect("chaos thread panicked");
    });
    assert_eq!(
        malformed_lines.load(Ordering::Relaxed),
        0,
        "every response line must be well-formed JSON"
    );
    assert!(responses.load(Ordering::Relaxed) > 0);
    // Still alive, cache still bounded, and still byte-identical to the
    // CLI once the storm has passed.
    let stats = server.stats();
    assert!(stats.cache_len <= 8, "cache over cap: {}", stats.cache_len);
    let served = request(
        addr,
        &req_line(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(DB.to_string())),
        ]),
    );
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    assert_eq!(
        served.get("output").and_then(Json::as_str),
        Some(cli(&["optimize", "db"]).as_str()),
    );
    server.shutdown();
    server.join();
}

/// The engine side of the brownout contract: a server-pinned level makes
/// the real optimizer answer from the pinned ladder rung with a valid
/// covering plan, the report names the level, and an unknown level is a
/// typed `invalid_request` — never a silent full-cost run.
#[test]
fn browned_requests_get_valid_plans_from_the_pinned_rung() {
    let engine = MjoinEngine { threads: 1 };
    let req = |level: Option<&str>| EngineRequest {
        op: "optimize".to_string(),
        db: DB.to_string(),
        query: None,
        space: None,
        timeout_ms: Some(60_000),
        max_memo_entries: None,
        max_tuples: None,
        brownout: level.map(str::to_string),
    };
    for (level, rung) in [("reduced-dp", "dp"), ("greedy-only", "greedy")] {
        let resp = engine.handle(&req(Some(level))).expect("browned optimize");
        assert!(
            resp.output.contains("plan: "),
            "{level}: still a real plan\n{}",
            resp.output
        );
        assert!(
            resp.output.contains(&format!("brownout: {level}")),
            "{level}: the report must name the level\n{}",
            resp.output
        );
        let got = resp
            .extra
            .iter()
            .find(|(k, _)| *k == "rung")
            .and_then(|(_, v)| v.as_str())
            .expect("rung extra");
        assert_eq!(got, rung, "{level}");
        assert!(resp
            .extra
            .iter()
            .any(|(k, v)| *k == "brownout" && v.as_str() == Some(level)));
    }
    // The pinned entry only skips *cheaper-to-skip* rungs: the plan is
    // still a valid strategy, so its τ must match a clean greedy answer's
    // shape (costed, covering) — spot-checked via the cost extra.
    let browned = engine.handle(&req(Some("greedy-only"))).unwrap();
    assert!(browned
        .extra
        .iter()
        .any(|(k, v)| *k == "cost" && v.as_u64().is_some()));
    let err = engine.handle(&req(Some("half-hearted"))).unwrap_err();
    assert!(
        err.to_string().contains("brownout level"),
        "unknown levels must be refused: {err}"
    );
    // Normal (absent) stays byte-identical to the unpinned path.
    let normal = engine.handle(&req(None)).unwrap();
    assert_eq!(
        normal.output,
        cli(&["optimize", "db", "--timeout-ms", "60000"]),
    );
}

/// A hostile scheme with more relations than any `RelSet` can index (65 on
/// a 64-bit bitset) is rejected at the construction boundary as a typed
/// `invalid_request` — in release mode too, where a missed bound would
/// silently wrap shift arithmetic instead of panicking — and the worker
/// pool survives to answer a clean request afterwards.
#[test]
fn oversized_scheme_is_invalid_request_and_pool_survives() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let addr = server.addr();
    // A 129-relation chain: a0,a1 ⋈ a1,a2 ⋈ … — one over the bitset cap.
    let hostile: String = (0..129)
        .map(|i| format!("relation a{i},a{}\n1 2\n", i + 1))
        .collect();
    let served = request(
        addr,
        &req_line(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(hostile)),
        ]),
    );
    assert_eq!(served.get("ok"), Some(&Json::Bool(false)), "{served:?}");
    let error = served.get("error").expect("typed error object");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("invalid_request"),
        "{served:?}"
    );
    let msg = error.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.contains("128") && msg.contains("129"),
        "message must name the cap and the offending count: {msg}"
    );
    // The pool is unharmed: the very next request over the same daemon
    // answers byte-identically to the CLI.
    let clean = request(
        addr,
        &req_line(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(DB.to_string())),
        ]),
    );
    assert_eq!(clean.get("ok"), Some(&Json::Bool(true)), "{clean:?}");
    assert_eq!(
        clean.get("output").and_then(Json::as_str),
        Some(cli(&["optimize", "db"]).as_str()),
    );
    server.shutdown();
    server.join();
}
