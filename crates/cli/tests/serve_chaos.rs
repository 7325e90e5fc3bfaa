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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use mjoin::failpoints::ScopedFailpoint;
use mjoin_cli::{parse_input, run, GuardOptions, MjoinEngine, Request};
use mjoin_obs::{json, Counter, Json, Recorder};
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

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn repo_file(rel: &str) -> Result<String, String> {
    std::fs::read_to_string(repo_path(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// Every committed query workload: `(name, sql path, db path)`, where the
/// database is the one the workload's `-- db: PATH` directive names.
fn workloads() -> Vec<(String, String, String)> {
    let mut names: Vec<String> = std::fs::read_dir(repo_path("tests/workloads"))
        .expect("workload directory")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".sql")?.to_string())
        })
        .collect();
    names.sort();
    assert!(names.len() >= 7, "workload corpus went missing: {names:?}");
    names
        .into_iter()
        .map(|name| {
            let sql = format!("tests/workloads/{name}.sql");
            let text = repo_file(&sql).unwrap();
            let db = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("-- db:"))
                .unwrap_or_else(|| panic!("{name}: no '-- db: PATH' directive"))
                .trim()
                .to_string();
            (name, sql, db)
        })
        .collect()
}

/// The op `star_exact`, `wide_stats` and `hot_repeat` drive: every
/// workload query, rows and statistics-only, in `all` and `nocp`, served
/// cold and then again is byte-identical to `mjoin query … --threads 1`.
/// Only queries over rows are keyed, so only they come back cached.
#[test]
fn served_query_is_byte_identical_to_the_cli_for_every_workload() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let addr = server.addr();
    for (name, sql_path, db_path) in workloads() {
        for space in ["all", "nocp"] {
            let sql_arg = format!("@{sql_path}");
            let args: Vec<String> = ["query", &db_path, &sql_arg, space, "--threads", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let expected = run(&args, repo_file).expect("CLI query succeeds");
            let line = req_line(vec![
                ("op", Json::Str("query".to_string())),
                ("db", Json::Str(repo_file(&db_path).unwrap())),
                ("query", Json::Str(repo_file(&sql_path).unwrap())),
                ("space", Json::Str(space.to_string())),
            ]);
            let keyed = !name.starts_with("stats");
            for (pass, cached) in [("cold", false), ("again", keyed)] {
                let served = request(addr, &line);
                let what = format!("{name} {space} {pass}");
                assert_eq!(
                    served.get("ok"),
                    Some(&Json::Bool(true)),
                    "{what}: {served:?}"
                );
                assert_eq!(
                    served.get("output").and_then(Json::as_str),
                    Some(expected.as_str()),
                    "{what}: served query must match the CLI byte for byte"
                );
                assert_eq!(served.get("cached"), Some(&Json::Bool(cached)), "{what}");
            }
        }
    }
    server.shutdown();
    server.join();
}

/// The store and plan-cache keys, pinned: a change to what a key hashes
/// orphans every store written before it, so it must be a reviewed diff.
#[test]
fn store_keys_are_pinned() {
    let gopts = GuardOptions {
        threads: Some(1),
        ..GuardOptions::default()
    };
    let key = |op: &str, db: &str, query: Option<&str>, space: Option<&str>| {
        let input = parse_input(&repo_file(db).unwrap()).unwrap();
        Request::new(op, input, query, space).unwrap().key(&gopts)
    };
    assert_eq!(
        key("optimize", "examples/example4.mj", None, None).as_deref(),
        Some("d1095532d3260491a9d8b3e8749d7da1"),
    );
    let sql = repo_file("tests/workloads/star_q1.sql").unwrap();
    assert_eq!(
        key("query", "tests/workloads/star.mj", Some(&sql), Some("nocp")).as_deref(),
        Some("c69023c93978fe3653bf596ed3ddf226"),
    );
    let stats_sql = repo_file("tests/workloads/stats_q1.sql").unwrap();
    let stats_db = "tests/workloads/star_stats.mj";
    assert_eq!(key("query", stats_db, Some(&stats_sql), None), None);
    assert_eq!(key("execute", "examples/example4.mj", None, None), None);
}

/// Parsed once: a served `query` miss — the engine's prepare, then its
/// run, as the daemon drives them — parses the query exactly once.
#[test]
fn served_query_miss_parses_the_query_once() {
    let sql = repo_file("tests/workloads/star_q1.sql").unwrap();
    let req = EngineRequest {
        op: "query".to_string(),
        db: repo_file("tests/workloads/star.mj").unwrap(),
        query: Some(sql),
        space: None,
        timeout_ms: None,
        max_memo_entries: None,
        max_tuples: None,
        brownout: None,
    };
    let recorder = Recorder::arm();
    let prepared = MjoinEngine { threads: 1 }.prepare(&req).expect("prepare");
    assert!(prepared.key.is_some(), "a query over rows is keyed");
    let worker_req = EngineRequest {
        db: String::new(),
        ..req
    };
    let resp = (prepared.run)(&worker_req).expect("run");
    assert!(resp.output.starts_with("query: SELECT"), "{}", resp.output);
    assert_eq!(recorder.snapshot().counter(Counter::QueryParsed), 1);
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
    let iters: usize = if std::env::var("MJOIN_CHAOS_SMOKE").is_ok() {
        3
    } else {
        10
    };
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

/// A hostile scheme with more relations than any `RelSet` can index (a
/// 129-relation chain against `MAX_RELATIONS` = 128) is rejected at the
/// construction boundary as a typed `invalid_request` — in release mode
/// too, where a missed bound would silently wrap shift arithmetic instead
/// of panicking — and the worker pool survives to answer a clean request
/// afterwards.
#[test]
fn oversized_scheme_is_invalid_request_and_pool_survives() {
    let _serial = serialize();
    let server = spawn_real_server(config());
    let addr = server.addr();
    // A 129-relation chain: a0,a1 ⋈ a1,a2 ⋈ … — one over the cap.
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
