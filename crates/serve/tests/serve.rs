//! Behavioral suite for the serve daemon against stub engines: shedding,
//! deadline accounting, caching, drain, slow-loris and fault injection —
//! all deterministic and independent of the real optimizer (the CLI crate
//! hosts the real-engine chaos suite).
//!
//! The daemon's threads are not the test's, so failpoints are armed
//! process-wide and every test serializes on one mutex.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mjoin_guard::failpoints::ScopedFailpoint;
use mjoin_guard::MjoinError;
use mjoin_obs::{json, Json};
use mjoin_serve::{Engine, EngineRequest, EngineResponse, Prepared, ServeConfig, Server};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Work that needs no key and answers with `run`.
fn unkeyed(
    run: impl FnOnce(&EngineRequest) -> Result<EngineResponse, MjoinError> + Send + 'static,
) -> Result<Prepared, MjoinError> {
    Ok(Prepared {
        key: None,
        run: Box::new(run),
    })
}

/// Succeeds instantly; keys on the raw db text so cache behavior is
/// directly steerable from the request.
struct EchoEngine;

impl Engine for EchoEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let output = format!("echo: {}\n", req.db);
        Ok(Prepared {
            key: Some(format!("echo|{}|{:?}", req.db, req.timeout_ms)),
            run: Box::new(move |_| {
                Ok(EngineResponse {
                    output,
                    extra: vec![("cost", Json::U64(11))],
                })
            }),
        })
    }
}

/// Sleeps for a fixed time, then succeeds. Uncacheable.
struct SlowEngine(Duration);

impl Engine for SlowEngine {
    fn prepare(&self, _req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let pause = self.0;
        unkeyed(move |_| {
            std::thread::sleep(pause);
            Ok(EngineResponse {
                output: "slow ok\n".to_string(),
                extra: Vec::new(),
            })
        })
    }
}

/// Panics on every request — the server must survive it.
struct PanicEngine;

impl Engine for PanicEngine {
    fn prepare(&self, _req: &EngineRequest) -> Result<Prepared, MjoinError> {
        unkeyed(|_| panic!("engine exploded on purpose"))
    }
}

/// Returns a fixed typed error.
struct ErrEngine(fn() -> MjoinError);

impl Engine for ErrEngine {
    fn prepare(&self, _req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let make = self.0;
        unkeyed(move |_| Err(make()))
    }
}

/// Panics while keying a request whose db is `"boom"`; echoes any other.
struct PanicKeyEngine;

impl Engine for PanicKeyEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        assert_ne!(req.db, "boom", "key computation exploded on purpose");
        EchoEngine.prepare(req)
    }
}

/// Refuses every request while preparing it.
struct RefuseEngine;

impl Engine for RefuseEngine {
    fn prepare(&self, _req: &EngineRequest) -> Result<Prepared, MjoinError> {
        Err(MjoinError::InvalidQuery("no such table \"T\"".to_string()))
    }
}

/// [`EchoEngine`] that counts its `prepare` and `run` calls.
#[derive(Default)]
struct CountingEngine {
    prepared: Arc<AtomicU64>,
    ran: Arc<AtomicU64>,
}

impl Engine for CountingEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        self.prepared.fetch_add(1, Ordering::Relaxed);
        let ran = Arc::clone(&self.ran);
        let echo = EchoEngine.prepare(req)?;
        Ok(Prepared {
            key: echo.key,
            run: Box::new(move |req| {
                ran.fetch_add(1, Ordering::Relaxed);
                (echo.run)(req)
            }),
        })
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Sends one request line on a fresh connection and returns the parsed
/// response.
fn request(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> Json {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    json::parse(line.trim()).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

fn is_ok(doc: &Json) -> bool {
    doc.get("ok") == Some(&Json::Bool(true))
}

fn error_kind(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("<no error.kind>")
}

fn shutdown_and_join(server: Server) -> mjoin_serve::StatsSnapshot {
    server.shutdown();
    server.join()
}

#[test]
fn ping_stats_and_wire_shutdown_round_trip() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let addr = server.addr();
    let pong = request(addr, r#"{"id": 1, "op": "ping"}"#);
    assert!(is_ok(&pong), "{pong:?}");
    assert_eq!(pong.get("id"), Some(&Json::U64(1)));
    let stats = request(addr, r#"{"op": "stats"}"#);
    let s = stats.get("stats").expect("stats body");
    assert_eq!(s.get("queue_cap").and_then(Json::as_u64), Some(64));
    assert_eq!(s.get("draining"), Some(&Json::Bool(false)));
    // Wire-level shutdown drains the server; join() then completes.
    let bye = request(addr, r#"{"op": "shutdown"}"#);
    assert!(is_ok(&bye), "{bye:?}");
    let final_stats = server.join();
    assert_eq!(final_stats.requests, 3);
}

#[test]
fn optimize_round_trips_and_echoes_the_id() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let doc = request(
        server.addr(),
        r#"{"id": "req-9", "op": "optimize", "db": "relation AB\n"}"#,
    );
    assert!(is_ok(&doc), "{doc:?}");
    assert_eq!(doc.get("id").and_then(Json::as_str), Some("req-9"));
    assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(
        doc.get("output").and_then(Json::as_str),
        Some("echo: relation AB\n\n")
    );
    assert_eq!(doc.get("cost").and_then(Json::as_u64), Some(11));
    shutdown_and_join(server);
}

#[test]
fn malformed_input_gets_typed_errors_and_the_connection_survives() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for (line, kind) in [
        ("this is not json", "invalid_request"),
        (r#"[1, 2, 3]"#, "invalid_request"),
        (r#"{"db": "x"}"#, "invalid_request"),
        (r#"{"op": "optimize"}"#, "invalid_request"),
        (
            r#"{"op": "optimize", "db": "x", "timeout_ms": "soon"}"#,
            "invalid_request",
        ),
        (r#"{"op": "frobnicate"}"#, "invalid_request"),
    ] {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let doc = read_response(&mut stream);
        assert!(!is_ok(&doc), "{line}: {doc:?}");
        assert_eq!(error_kind(&doc), kind, "{line}: {doc:?}");
    }
    // The same connection still serves valid requests afterwards.
    stream.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    assert!(is_ok(&read_response(&mut stream)));
    shutdown_and_join(server);
}

#[test]
fn strings_json_forbids_are_invalid_requests_and_the_connection_survives() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for line in [
        &b"{\"op\": \"optimize\", \"db\": \"\\u+041\"}\n"[..],
        b"{\"op\": \"optimize\", \"db\": \"a\x01b\"}\n",
        b"{\"op\": \"optimize\", \"db\": \"a\tb\"}\n",
    ] {
        stream.write_all(line).unwrap();
        let doc = read_response(&mut stream);
        assert_eq!(error_kind(&doc), "invalid_request", "{doc:?}");
        stream
            .write_all(b"{\"id\": 7, \"op\": \"optimize\", \"db\": \"\\u0041\"}\n")
            .unwrap();
        let doc = read_response(&mut stream);
        assert_eq!(echoed(&doc), "echo: A\n", "{doc:?}");
    }
    let stats = shutdown_and_join(server);
    assert_eq!(stats.requests, 6);
}

#[test]
fn oversized_requests_are_refused_and_the_connection_closed() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            max_request_bytes: 256,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let huge = format!(
        "{{\"op\": \"optimize\", \"db\": \"{}\"}}\n",
        "x".repeat(4096)
    );
    stream.write_all(huge.as_bytes()).unwrap();
    let doc = read_response(&mut stream);
    assert_eq!(error_kind(&doc), "too_large", "{doc:?}");
    // The server hangs up on oversized clients: EOF follows.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF after too_large");
    shutdown_and_join(server);
}

#[test]
fn slow_loris_is_answered_and_dropped_on_read_timeout() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            read_timeout_ms: 100,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Half a request, then silence: the read timeout must fire and the
    // client still gets one typed response before the hangup.
    stream.write_all(b"{\"op\": \"opti").unwrap();
    let started = Instant::now();
    let doc = read_response(&mut stream);
    assert_eq!(error_kind(&doc), "invalid_request", "{doc:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-loris answer took {:?}",
        started.elapsed()
    );
    shutdown_and_join(server);
}

/// Reads `n` response lines through one reader, so lines that arrive
/// together are not lost between calls.
fn read_responses(stream: &TcpStream, n: usize) -> Vec<Json> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            json::parse(line.trim())
                .unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
        })
        .collect()
}

/// The `output` an [`EchoEngine`] answer carries.
fn echoed(doc: &Json) -> &str {
    doc.get("output")
        .and_then(Json::as_str)
        .unwrap_or("<no output>")
}

/// Asserts the server hung up: EOF (or a reset) and no further bytes.
fn assert_closed(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(
        n,
        0,
        "expected EOF, got {:?}",
        String::from_utf8_lossy(&rest)
    );
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"{\"id\": 1, \"op\": \"optimize\", \"db\": \"a\"}\n\
              {\"id\": 2, \"op\": \"ping\"}\n\
              {\"id\": 3, \"op\": \"optimize\", \"db\": \"c\"}\n",
        )
        .unwrap();
    let docs = read_responses(&stream, 3);
    let ids: Vec<_> = docs
        .iter()
        .map(|d| d.get("id").and_then(Json::as_u64))
        .collect();
    assert_eq!(ids, [Some(1), Some(2), Some(3)], "{docs:?}");
    assert!(docs.iter().all(is_ok), "{docs:?}");
    assert_eq!(echoed(&docs[0]), "echo: a\n");
    assert_eq!(echoed(&docs[2]), "echo: c\n");
    shutdown_and_join(server);
}

#[test]
fn a_request_written_one_byte_at_a_time_is_answered_once() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for b in b"{\"id\": 5, \"op\": \"optimize\", \"db\": \"bytes\"}\n" {
        stream.write_all(&[*b]).unwrap();
    }
    stream.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    let docs = read_responses(&stream, 2);
    assert_eq!(docs[0].get("id"), Some(&Json::U64(5)), "{docs:?}");
    assert_eq!(echoed(&docs[0]), "echo: bytes\n");
    assert!(is_ok(&docs[1]), "{docs:?}");
    let stats = shutdown_and_join(server);
    assert_eq!(stats.requests, 2);
}

#[test]
fn a_newline_at_the_end_of_a_full_read_ends_the_request() {
    // Reads double from 4 KiB up to READ_CHUNK while a line is pending,
    // so a request of READ_CHUNK bytes, newline last, that arrives at once
    // ends exactly on a read boundary; the next request follows after a
    // pause, in a later read. (The framer's own tests pin both sides of a
    // read boundary deterministically.)
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            max_request_bytes: 1 << 20,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let head = "{\"op\": \"optimize\", \"db\": \"";
    let tail = "\"}\n";
    let pad = mjoin_serve::READ_CHUNK - head.len() - tail.len();
    let line = format!("{head}{}{tail}", "y".repeat(pad));
    assert_eq!(line.len(), mjoin_serve::READ_CHUNK);
    stream.write_all(line.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream
        .write_all(b"{\"id\": 2, \"op\": \"ping\"}\n")
        .unwrap();
    let docs = read_responses(&stream, 2);
    assert_eq!(
        echoed(&docs[0]).len(),
        "echo: \n".len() + pad,
        "{:?}",
        docs[0].get("error")
    );
    assert_eq!(docs[1].get("id"), Some(&Json::U64(2)), "{docs:?}");
    shutdown_and_join(server);
}

#[test]
fn crlf_endings_and_blank_lines_are_framed_like_lf() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"\r\n\n  \t\r\n{\"id\": 1, \"op\": \"ping\"}\r\n\r\n\n{\"id\": 2, \"op\": \"optimize\", \"db\": \"crlf\"}\r\n")
        .unwrap();
    let docs = read_responses(&stream, 2);
    assert_eq!(docs[0].get("id"), Some(&Json::U64(1)), "{docs:?}");
    assert!(is_ok(&docs[0]), "{docs:?}");
    assert_eq!(echoed(&docs[1]), "echo: crlf\n");
    let stats = shutdown_and_join(server);
    assert_eq!(stats.requests, 2, "blank lines are not requests");
}

#[test]
fn invalid_utf8_is_decoded_lossily() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"{\"op\": \"optimize\", \"db\": \"a\xffb\xc3\"}\n")
        .unwrap();
    let doc = read_response(&mut stream);
    assert_eq!(echoed(&doc), "echo: a\u{FFFD}b\u{FFFD}\n", "{doc:?}");
    shutdown_and_join(server);
}

#[test]
fn a_line_at_the_cap_is_answered_and_one_byte_more_is_refused() {
    let _serial = serialize();
    const CAP: usize = 256;
    let server = Server::spawn(
        ServeConfig {
            max_request_bytes: CAP,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let line_of = |len: usize| {
        let head = "{\"op\": \"optimize\", \"db\": \"";
        let line = format!("{head}{}\"}}", "z".repeat(len - head.len() - 2));
        assert_eq!(line.len(), len);
        line
    };
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(format!("{}\n", line_of(CAP)).as_bytes())
        .unwrap();
    let doc = read_response(&mut stream);
    assert!(is_ok(&doc), "{doc:?}");
    stream
        .write_all(format!("{}\n", line_of(CAP + 1)).as_bytes())
        .unwrap();
    let doc = read_response(&mut stream);
    assert_eq!(error_kind(&doc), "too_large", "{doc:?}");
    assert_closed(&mut stream);
    shutdown_and_join(server);
}

#[test]
fn a_prefix_over_the_cap_without_a_newline_is_refused() {
    let _serial = serialize();
    const CAP: usize = 256;
    let server = Server::spawn(
        ServeConfig {
            max_request_bytes: CAP,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // No newline ever comes; the connection stays open on our side.
    stream.write_all(&[b'x'; CAP + 1]).unwrap();
    let doc = read_response(&mut stream);
    assert_eq!(error_kind(&doc), "too_large", "{doc:?}");
    let message = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str);
    assert_eq!(message, Some("request exceeds the 256-byte cap"));
    assert_closed(&mut stream);
    shutdown_and_join(server);
}

#[test]
fn full_queue_sheds_immediately_with_a_retry_hint() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            cache_cap: 0,
            ..config()
        },
        Box::new(SlowEngine(Duration::from_millis(500))),
    )
    .unwrap();
    let addr = server.addr();
    let results: Vec<(Json, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                s.spawn(move || {
                    let started = Instant::now();
                    let doc = request(
                        addr,
                        &format!(r#"{{"id": {i}, "op": "optimize", "db": "x"}}"#),
                    );
                    (doc, started.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = results.iter().filter(|(d, _)| is_ok(d)).count();
    let shed: Vec<_> = results
        .iter()
        .filter(|(d, _)| error_kind(d) == "overloaded")
        .collect();
    assert!(ok >= 1, "at least the in-flight request must succeed");
    assert!(!shed.is_empty(), "6 clients vs 1 worker + 1 slot must shed");
    for (doc, latency) in &shed {
        // Shed responses are immediate (bounded time), with a hint.
        assert!(
            *latency < Duration::from_secs(2),
            "shed response took {latency:?}"
        );
        let hint = doc
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64);
        assert_eq!(hint, Some(50), "{doc:?}");
    }
    let stats = shutdown_and_join(server);
    assert_eq!(stats.shed as usize, shed.len());
}

#[test]
fn queue_wait_burns_the_deadline() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 8,
            cache_cap: 0,
            ..config()
        },
        Box::new(SlowEngine(Duration::from_millis(400))),
    )
    .unwrap();
    let addr = server.addr();
    std::thread::scope(|s| {
        let blocker = s.spawn(move || request(addr, r#"{"op": "optimize", "db": "a"}"#));
        // Let the blocker occupy the single worker first.
        std::thread::sleep(Duration::from_millis(100));
        let doomed = request(addr, r#"{"op": "optimize", "db": "b", "timeout_ms": 100}"#);
        assert_eq!(error_kind(&doomed), "budget_exceeded", "{doomed:?}");
        let msg = doomed
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("admission queue"), "{msg}");
        assert!(is_ok(&blocker.join().unwrap()));
    });
    shutdown_and_join(server);
}

#[test]
fn repeat_requests_hit_the_plan_cache() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
    let addr = server.addr();
    let first = request(addr, r#"{"op": "optimize", "db": "same"}"#);
    let second = request(addr, r#"{"op": "optimize", "db": "same"}"#);
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    // Cached and fresh responses are identical apart from the flag.
    assert_eq!(first.get("output"), second.get("output"));
    assert_eq!(first.get("cost"), second.get("cost"));
    let stats = shutdown_and_join(server);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_len, 1);
}

#[test]
fn cache_never_exceeds_its_cap_over_a_soak() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            cache_cap: 4,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let addr = server.addr();
    for i in 0..32 {
        let doc = request(addr, &format!(r#"{{"op": "optimize", "db": "db-{i}"}}"#));
        assert!(is_ok(&doc), "{doc:?}");
        let stats = request(addr, r#"{"op": "stats"}"#);
        let len = stats
            .get("stats")
            .and_then(|s| s.get("cache_len"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(len <= 4, "cache_len {len} > cap 4 after insert {i}");
    }
    let stats = shutdown_and_join(server);
    assert!(stats.cache_len <= 4);
    assert!(stats.cache_evictions >= 28 - 4, "{stats:?}");
}

#[test]
fn graceful_drain_finishes_in_flight_and_sheds_queued() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 8,
            cache_cap: 0,
            ..config()
        },
        Box::new(SlowEngine(Duration::from_millis(400))),
    )
    .unwrap();
    let addr = server.addr();
    std::thread::scope(|s| {
        let in_flight =
            s.spawn(move || request(addr, r#"{"id": "A", "op": "optimize", "db": "a"}"#));
        std::thread::sleep(Duration::from_millis(100));
        let queued = s.spawn(move || request(addr, r#"{"id": "B", "op": "optimize", "db": "b"}"#));
        std::thread::sleep(Duration::from_millis(100));
        let bye = request(addr, r#"{"op": "shutdown"}"#);
        assert!(is_ok(&bye), "{bye:?}");
        // The in-flight request finishes under its remaining budget...
        let a = in_flight.join().unwrap();
        assert!(is_ok(&a), "in-flight must complete: {a:?}");
        // ...while the queued one is shed with a typed response.
        let b = queued.join().unwrap();
        assert_eq!(error_kind(&b), "shutting_down", "{b:?}");
    });
    let stats = server.join();
    assert_eq!(stats.shed, 1);
}

#[test]
fn engine_panic_becomes_a_typed_error_and_the_pool_survives() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            cache_cap: 0,
            ..config()
        },
        Box::new(PanicEngine),
    )
    .unwrap();
    let addr = server.addr();
    for _ in 0..3 {
        let doc = request(addr, r#"{"op": "optimize", "db": "boom"}"#);
        assert_eq!(error_kind(&doc), "internal", "{doc:?}");
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("panicked"), "{msg}");
    }
    // The single worker survived all three panics.
    assert!(is_ok(&request(addr, r#"{"op": "ping"}"#)));
    let stats = shutdown_and_join(server);
    assert_eq!(stats.handled, 3);
}

/// `prepare` runs on the connection thread, under the same `catch_unwind`
/// as a worker's run: a panicking key computation is one `internal` line,
/// not a dead connection thread and an EOF.
#[test]
fn panicking_prepare_is_one_internal_line_and_the_server_survives() {
    let _serial = serialize();
    let server = Server::spawn(config(), Box::new(PanicKeyEngine)).unwrap();
    let addr = server.addr();
    let doc = request(addr, r#"{"id": 5, "op": "optimize", "db": "boom"}"#);
    assert_eq!(error_kind(&doc), "internal", "{doc:?}");
    assert_eq!(doc.get("id"), Some(&Json::U64(5)));
    let msg = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("panicked"), "{msg}");
    let next = request(addr, r#"{"op": "optimize", "db": "fine"}"#);
    assert!(is_ok(&next), "{next:?}");
    let stats = shutdown_and_join(server);
    assert_eq!(stats.handled, 1, "only the second request reached a worker");
}

/// Parsed once: one `prepare` per request, miss or hit, and a hit never
/// runs the engine.
#[test]
fn prepare_runs_once_per_request_and_a_hit_never_runs_the_engine() {
    let _serial = serialize();
    let engine = CountingEngine::default();
    let (prepared, ran) = (Arc::clone(&engine.prepared), Arc::clone(&engine.ran));
    let calls = || {
        (
            prepared.load(Ordering::Relaxed),
            ran.load(Ordering::Relaxed),
        )
    };
    let server = Server::spawn(config(), Box::new(engine)).unwrap();
    let addr = server.addr();
    let miss = request(addr, r#"{"op": "optimize", "db": "once"}"#);
    assert_eq!(miss.get("cached"), Some(&Json::Bool(false)), "{miss:?}");
    assert_eq!(calls(), (1, 1));
    let hit = request(addr, r#"{"op": "optimize", "db": "once"}"#);
    assert_eq!(hit.get("cached"), Some(&Json::Bool(true)), "{hit:?}");
    assert_eq!(hit.get("output"), miss.get("output"));
    assert_eq!(calls(), (2, 1));
    // Control ops never reach the engine.
    assert!(is_ok(&request(addr, r#"{"op": "ping"}"#)));
    assert_eq!(calls(), (2, 1));
    shutdown_and_join(server);
}

/// A request the engine cannot prepare is answered with the engine's
/// typed kind and message before admission: never queued, never handled.
#[test]
fn prepare_errors_are_answered_typed_and_never_queued() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..config()
        },
        Box::new(RefuseEngine),
    )
    .unwrap();
    let addr = server.addr();
    for _ in 0..3 {
        let doc = request(
            addr,
            r#"{"op": "query", "db": "x", "query": "SELECT * FROM T", "client": "c"}"#,
        );
        assert_eq!(error_kind(&doc), "invalid_request", "{doc:?}");
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str);
        assert_eq!(msg, Some("invalid query: no such table \"T\""), "{doc:?}");
    }
    let stats = request(addr, r#"{"op": "stats"}"#);
    let clients = stats.get("stats").and_then(|s| s.get("clients"));
    let nobody = Json::Obj(Vec::new());
    assert_eq!(clients, Some(&nobody), "nothing was admitted: {stats:?}");
    let stats = shutdown_and_join(server);
    assert_eq!((stats.handled, stats.shed), (0, 0));
}

#[test]
fn typed_engine_errors_map_onto_the_wire_vocabulary() {
    let _serial = serialize();
    for (make, kind) in [
        (
            (|| MjoinError::BudgetExceeded {
                resource: mjoin_guard::Resource::WallClock,
                limit: 10,
            }) as fn() -> MjoinError,
            "budget_exceeded",
        ),
        (
            (|| MjoinError::Cancelled) as fn() -> MjoinError,
            "cancelled",
        ),
        (
            (|| MjoinError::InvalidScheme("bad scheme".to_string())) as fn() -> MjoinError,
            "invalid_request",
        ),
    ] {
        let server = Server::spawn(
            ServeConfig {
                cache_cap: 0,
                ..config()
            },
            Box::new(ErrEngine(make)),
        )
        .unwrap();
        let doc = request(server.addr(), r#"{"op": "optimize", "db": "x"}"#);
        assert_eq!(error_kind(&doc), kind, "{doc:?}");
        shutdown_and_join(server);
    }
}

#[test]
fn every_serve_failpoint_yields_a_typed_error_then_recovers() {
    let _serial = serialize();
    for site in [
        "serve::accept",
        "serve::decode",
        "serve::enqueue",
        "serve::admit_client",
        "serve::brownout",
        "serve::respond",
    ] {
        let server = Server::spawn(config(), Box::new(EchoEngine)).unwrap();
        let addr = server.addr();
        {
            let _fp = ScopedFailpoint::arm_process(site);
            let mut stream = TcpStream::connect(addr).unwrap();
            if site != "serve::accept" {
                stream
                    .write_all(b"{\"op\": \"optimize\", \"db\": \"x\"}\n")
                    .unwrap();
            }
            let doc = read_response(&mut stream);
            assert_eq!(error_kind(&doc), "internal", "{site}: {doc:?}");
            let msg = doc
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap();
            assert!(msg.contains(site), "{site}: {msg}");
        }
        // Disarmed again: the same server answers cleanly.
        let doc = request(addr, r#"{"op": "optimize", "db": "x"}"#);
        assert!(is_ok(&doc), "{site}: server must recover, got {doc:?}");
        shutdown_and_join(server);
    }
}

#[test]
fn stats_snapshot_counts_requests_and_cache_hits() {
    let _serial = serialize();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..config()
        },
        Box::new(EchoEngine),
    )
    .unwrap();
    let addr = server.addr();
    assert!(is_ok(&request(addr, r#"{"op": "optimize", "db": "m"}"#)));
    assert!(is_ok(&request(addr, r#"{"op": "optimize", "db": "m"}"#)));
    let stats = shutdown_and_join(server);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.cache_hits, 1);
}

/// The headline chaos scenario at crate level: ≥ 8 concurrent clients of
/// five species (valid, malformed, oversized, slow-loris, deadline-doomed)
/// against a small queue while every `serve::*` failpoint is armed
/// round-robin by a dedicated chaos thread. The server must stay up, and
/// every completed request must have received exactly one well-formed
/// response line.
#[test]
fn chaos_mixed_workload_under_round_robin_failpoints() {
    let _serial = serialize();
    let iters: usize = if std::env::var("MJOIN_CHAOS_SMOKE").is_ok() {
        4
    } else {
        12
    };
    let server = Server::spawn(
        ServeConfig {
            workers: 2,
            queue_cap: 2,
            cache_cap: 8,
            max_request_bytes: 2048,
            read_timeout_ms: 200,
            ..config()
        },
        Box::new(SlowEngine(Duration::from_millis(20))),
    )
    .unwrap();
    let addr = server.addr();
    let responses = AtomicU64::new(0);
    let malformed_lines = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Chaos thread: arm each serve failpoint in turn while clients run.
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
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut clients = Vec::new();
        for c in 0..8 {
            let responses = &responses;
            let malformed_lines = &malformed_lines;
            clients.push(s.spawn(move || {
                for i in 0..iters {
                    let line = match (c + i) % 5 {
                        0 => format!(r#"{{"id": {c}, "op": "optimize", "db": "db-{c}-{i}"}}"#),
                        1 => "not json at all".to_string(),
                        2 => format!(r#"{{"op": "optimize", "db": "{}"}}"#, "x".repeat(4000)),
                        3 => String::new(), // slow-loris marker
                        _ => format!(
                            r#"{{"id": {c}, "op": "optimize", "db": "d", "timeout_ms": 1}}"#
                        ),
                    };
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    if line.is_empty() {
                        // Slow loris: half a request, then stall.
                        let _ = stream.write_all(b"{\"op\": \"opti");
                    } else {
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                    }
                    // Whatever species, the server owes at most one line —
                    // and that line must be well-formed JSON.
                    let mut reader = BufReader::new(stream);
                    let mut resp = String::new();
                    match reader.read_line(&mut resp) {
                        Ok(n) if n > 0 => {
                            responses.fetch_add(1, Ordering::Relaxed);
                            if json::parse(resp.trim()).is_err() {
                                malformed_lines.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // EOF (accept-fault drop race) or read error
                        // (client-side timeout) — acceptable, as long as
                        // nothing malformed was received.
                        _ => {}
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
        "every response line must parse as JSON"
    );
    assert!(
        responses.load(Ordering::Relaxed) > 0,
        "the workload must have produced responses"
    );
    // The server is still alive and coherent after the storm.
    let stats = request(addr, r#"{"op": "stats"}"#);
    let cache_len = stats
        .get("stats")
        .and_then(|s| s.get("cache_len"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(cache_len <= 8, "cache exceeded its cap: {cache_len}");
    assert!(is_ok(&request(addr, r#"{"op": "ping"}"#)));
    let final_stats = shutdown_and_join(server);
    assert!(final_stats.requests > 0);
}
