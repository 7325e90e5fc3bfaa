//! Multi-tenant fairness and brownout suite: noisy-neighbor isolation
//! (asserted both ways — fairness on protects the light tenant, fairness
//! off demonstrably starves it), DRR drain-order properties driven by a
//! deterministic pseudo-random workload, the brownout ladder under 2×
//! overload, the never-cache-brownout rule, and the jittered retry hint.
//!
//! Timing-sensitive tests serialize on one mutex so parallel test threads
//! can't skew each other's load patterns.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mjoin_guard::MjoinError;
use mjoin_obs::{json, Json};
use mjoin_serve::queue::{Admission, FairnessConfig, Job, SubmitError, ANON_CLIENT};
use mjoin_serve::{Engine, EngineRequest, EngineResponse, Prepared, ServeConfig, Server};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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

fn is_ok(doc: &Json) -> bool {
    doc.get("ok") == Some(&Json::Bool(true))
}

fn error_kind(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("<no error.kind>")
}

fn error_message(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("<no error.message>")
}

fn retry_after(doc: &Json) -> Option<u64> {
    doc.get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_u64)
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

/// Blocks every request on a shared permit gate, so tests control exactly
/// when the worker is busy and what the queue holds.
struct GateEngine(Arc<(Mutex<u64>, Condvar)>);

fn gate() -> Arc<(Mutex<u64>, Condvar)> {
    Arc::new((Mutex::new(0), Condvar::new()))
}

fn release(g: &Arc<(Mutex<u64>, Condvar)>, permits: u64) {
    *g.0.lock().unwrap() += permits;
    g.1.notify_all();
}

impl Engine for GateEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let gate = Arc::clone(&self.0);
        let output = format!("gated: {}\n", req.db);
        Ok(Prepared {
            key: None,
            run: Box::new(move |_| {
                let (m, cv) = &*gate;
                let mut permits = m.lock().unwrap();
                while *permits == 0 {
                    permits = cv.wait(permits).unwrap();
                }
                *permits -= 1;
                Ok(EngineResponse {
                    output,
                    extra: Vec::new(),
                })
            }),
        })
    }
}

/// Mimics the degradation ladder's cost profile: the full ladder is slow,
/// a browned-out request is answered cheaply at the pinned rung. Every
/// answer is a valid "plan", tagged with the rung that produced it.
struct LadderEngine;

impl Engine for LadderEngine {
    fn prepare(&self, req: &EngineRequest) -> Result<Prepared, MjoinError> {
        let output = format!("plan for {}\n", req.db);
        Ok(Prepared {
            key: Some(format!("ladder|{}", req.db)),
            run: Box::new(move |req| {
                let (ms, rung) = match req.brownout.as_deref() {
                    None => (40, "dp"),
                    Some("reduced-dp") => (5, "dp"),
                    Some(_) => (1, "greedy"),
                };
                std::thread::sleep(Duration::from_millis(ms));
                Ok(EngineResponse {
                    output,
                    extra: vec![
                        ("cost", Json::U64(7)),
                        ("rung", Json::Str(rung.to_string())),
                    ],
                })
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// Noisy neighbor, both ways
// ---------------------------------------------------------------------------

struct TenantOutcome {
    ok: usize,
    shed: Vec<Json>,
}

/// One primer job (its own tenant) pins the single worker; then `hog`
/// floods `hog_n` concurrent requests and `well` submits `well_n`.
/// Returns (hog outcome, well outcome) once the gate is released and
/// everything has been answered.
fn noisy_neighbor(
    server: &Server,
    g: &Arc<(Mutex<u64>, Condvar)>,
    hog_n: usize,
    well_n: usize,
) -> (TenantOutcome, TenantOutcome) {
    let addr = server.addr();
    let primer = std::thread::spawn(move || {
        request(
            addr,
            r#"{"op": "optimize", "db": "primer", "client": "primer"}"#,
        )
    });
    // Let the worker pick the primer up and block in the engine.
    std::thread::sleep(Duration::from_millis(100));
    let mut hogs = Vec::new();
    for i in 0..hog_n {
        hogs.push(std::thread::spawn(move || {
            request(
                addr,
                &format!(r#"{{"op": "optimize", "db": "hog-{i}", "client": "hog"}}"#),
            )
        }));
    }
    // Give the flood time to land before the light tenant shows up: the
    // point is that its requests are judged against a queue the hog has
    // already done its worst to.
    std::thread::sleep(Duration::from_millis(100));
    let mut wells = Vec::new();
    for i in 0..well_n {
        wells.push(std::thread::spawn(move || {
            request(
                addr,
                &format!(r#"{{"op": "optimize", "db": "well-{i}", "client": "well"}}"#),
            )
        }));
    }
    std::thread::sleep(Duration::from_millis(100));
    release(g, 1 + hog_n as u64 + well_n as u64);
    let tally = |threads: Vec<std::thread::JoinHandle<Json>>| {
        let mut out = TenantOutcome {
            ok: 0,
            shed: Vec::new(),
        };
        for t in threads {
            let doc = t.join().unwrap();
            if is_ok(&doc) {
                out.ok += 1;
            } else {
                out.shed.push(doc);
            }
        }
        out
    };
    assert!(is_ok(&primer.join().unwrap()));
    (tally(hogs), tally(wells))
}

#[test]
fn fairness_on_sheds_the_hog_against_its_own_quota() {
    let _serial = serialize();
    let g = gate();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 8,
            client_queue_cap: 2,
            cache_cap: 0,
            ..ServeConfig::default()
        },
        Box::new(GateEngine(Arc::clone(&g))),
    )
    .unwrap();
    let addr = server.addr();
    let (hog, well) = noisy_neighbor(&server, &g, 6, 2);
    // The hog is capped at its 2-slot quota; every refusal names the hog
    // and its quota, not the server.
    assert_eq!(hog.ok, 2, "hog should hold exactly its quota");
    assert_eq!(hog.shed.len(), 4);
    for doc in &hog.shed {
        assert_eq!(error_kind(doc), "overloaded", "{doc:?}");
        let msg = error_message(doc);
        assert!(msg.contains("hog") && msg.contains("queue quota"), "{msg}");
    }
    // The well-behaved tenant sheds nothing: ≤ 1% of its 2 requests is 0.
    assert_eq!(
        well.ok, 2,
        "light tenant must not be starved: {:?}",
        well.shed
    );
    assert!(well.shed.is_empty());
    // Per-client accounting surfaces in stats.
    let stats = request(addr, r#"{"op": "stats"}"#);
    let s = stats.get("stats").expect("stats body");
    assert_eq!(s.get("quota_shed").and_then(Json::as_u64), Some(4));
    let clients = s.get("clients").expect("clients breakdown");
    let hog_stats = clients.get("hog").expect("hog entry");
    assert_eq!(hog_stats.get("quota_shed").and_then(Json::as_u64), Some(4));
    assert_eq!(hog_stats.get("admitted").and_then(Json::as_u64), Some(2));
    let well_stats = clients.get("well").expect("well entry");
    assert_eq!(well_stats.get("quota_shed").and_then(Json::as_u64), Some(0));
    assert_eq!(well_stats.get("admitted").and_then(Json::as_u64), Some(2));
    server.shutdown();
    let snap = server.join();
    assert_eq!(snap.quota_shed, 4);
    assert_eq!(snap.shed, 0, "no global sheds: the queue never filled");
}

#[test]
fn fairness_off_lets_the_hog_starve_the_light_tenant() {
    let _serial = serialize();
    let g = gate();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 4,
            cache_cap: 0,
            ..ServeConfig::default()
        },
        Box::new(GateEngine(Arc::clone(&g))),
    )
    .unwrap();
    let (hog, well) = noisy_neighbor(&server, &g, 4, 1);
    // Without per-client quotas the hog owns the whole queue…
    assert_eq!(hog.ok, 4);
    assert!(hog.shed.is_empty());
    // …and the light tenant's single request is shed: starvation.
    assert_eq!(well.ok, 0, "light tenant should have been starved");
    assert_eq!(well.shed.len(), 1);
    assert_eq!(error_kind(&well.shed[0]), "overloaded");
    assert!(error_message(&well.shed[0]).contains("admission queue full"));
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// DRR drain-order properties (deterministic pseudo-random workloads)
// ---------------------------------------------------------------------------

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn queued_job(client: &str) -> (Job, std::sync::mpsc::Receiver<String>) {
    let (tx, rx) = std::sync::mpsc::channel();
    (
        Job {
            id: None,
            client: Arc::from(client),
            request: EngineRequest {
                op: "optimize".to_string(),
                db: String::new(),
                query: None,
                space: None,
                timeout_ms: None,
                max_memo_entries: None,
                max_tuples: None,
                brownout: None,
            },
            work: Prepared {
                key: None,
                run: Box::new(|_| unreachable!("drain-order tests never run a job")),
            },
            enqueued: Instant::now(),
            respond: tx,
        },
        rx,
    )
}

/// Work conservation + starvation freedom, over 16 random workloads: every
/// admitted job is drained exactly once, and in the drain order no client
/// is served twice in a round before every other client with pending work
/// has been served once.
#[test]
fn drr_is_work_conserving_and_starvation_free() {
    let mut seed = 0x5eed_cafe_u64;
    for trial in 0..16 {
        let q = Admission::new(
            64,
            FairnessConfig {
                client_queue_cap: 8,
                client_rps: 0,
            },
        );
        let clients = ["a", "b", "c", "d", "e"];
        let mut admitted: HashMap<String, usize> = HashMap::new();
        let mut rxs = Vec::new();
        for _ in 0..120 {
            let name = clients[(lcg(&mut seed) % clients.len() as u64) as usize];
            let (job, rx) = queued_job(name);
            match q.try_push(job) {
                Ok(()) => {
                    *admitted.entry(name.to_string()).or_default() += 1;
                    rxs.push(rx);
                }
                Err((_, e)) => {
                    assert!(
                        matches!(e, SubmitError::Full | SubmitError::ClientQueueFull),
                        "trial {trial}: unexpected refusal {e:?}"
                    );
                }
            }
        }
        let total: usize = admitted.values().sum();
        assert_eq!(q.depth(), total);
        // Drain completely; the pop order is the property under test.
        let mut order = Vec::new();
        for _ in 0..total {
            order.push(
                q.pop()
                    .expect("queue should not be empty")
                    .client
                    .to_string(),
            );
        }
        assert_eq!(q.depth(), 0, "work conservation: everything drains");
        // Every admitted job came out exactly once.
        let mut drained: HashMap<String, usize> = HashMap::new();
        for c in &order {
            *drained.entry(c.clone()).or_default() += 1;
        }
        assert_eq!(drained, admitted, "trial {trial}");
        // Starvation freedom: when a client is served a second time in a
        // round, every client that still has pending work must already
        // have been served in that round.
        let mut pending = admitted.clone();
        let mut round: Vec<String> = Vec::new();
        for c in &order {
            if round.contains(c) {
                for (other, n) in &pending {
                    if *n > 0 {
                        assert!(
                            round.contains(other),
                            "trial {trial}: {other} starved (round {round:?}, next {c})"
                        );
                    }
                }
                round.clear();
            }
            round.push(c.clone());
            *pending.get_mut(c).unwrap() -= 1;
        }
    }
}

/// The per-client quota and the global cap compose: the client cap is
/// charged first (shedding the flooder against itself), the global cap
/// still backstops aggregate load, and popping frees both.
#[test]
fn client_cap_and_global_cap_interact() {
    let q = Admission::new(
        3,
        FairnessConfig {
            client_queue_cap: 2,
            client_rps: 0,
        },
    );
    let push = |name: &str| {
        let (job, rx) = queued_job(name);
        (q.try_push(job).map_err(|(_, e)| e), rx)
    };
    let (r, _k1) = push("a");
    assert!(r.is_ok());
    let (r, _k2) = push("a");
    assert!(r.is_ok());
    // a's own quota refuses before the global cap is even consulted.
    let (r, _) = push("a");
    assert_eq!(r.unwrap_err(), SubmitError::ClientQueueFull);
    let (r, _k3) = push("b");
    assert!(r.is_ok());
    // b is under its quota but the shared queue is full.
    let (r, _) = push("b");
    assert_eq!(r.unwrap_err(), SubmitError::Full);
    // Draining one of a's jobs frees a slot for b (global) and for a
    // (quota): both succeed again.
    assert_eq!(&*q.pop().unwrap().client, "a");
    let (r, _k4) = push("b");
    assert!(r.is_ok());
    assert_eq!(q.depth(), 3);
    let (r, _) = push("a");
    assert_eq!(r.unwrap_err(), SubmitError::Full);
}

/// With both fairness knobs off and one (anonymous) tenant, drain order is
/// exactly submission order — the contract that keeps a daemon without
/// the new flags byte-identical to the pre-fairness one.
#[test]
fn defaults_preserve_fifo_for_the_anonymous_tenant() {
    let q = Admission::new(32, FairnessConfig::default());
    let mut rxs = Vec::new();
    for i in 0..20u64 {
        let (mut job, rx) = queued_job(ANON_CLIENT);
        job.id = Some(Json::U64(i));
        q.try_push(job).unwrap();
        rxs.push(rx);
    }
    for i in 0..20u64 {
        assert_eq!(q.pop().unwrap().id, Some(Json::U64(i)));
    }
}

// ---------------------------------------------------------------------------
// Brownout
// ---------------------------------------------------------------------------

struct StormOutcome {
    ok: usize,
    shed: usize,
    rungs: Vec<(String, String)>,
}

/// Paced 2×-overload storm: `n` optimize requests, one every `gap` ms,
/// against a queue of 4 and a single worker whose full-ladder cost (40 ms)
/// far exceeds the arrival gap. Returns what each db was answered with.
fn storm(addr: SocketAddr, n: usize) -> StormOutcome {
    let mut threads = Vec::new();
    for i in 0..n {
        threads.push(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5 * i as u64));
            let doc = request(addr, &format!(r#"{{"op": "optimize", "db": "storm-{i}"}}"#));
            (i, doc)
        }));
    }
    let mut out = StormOutcome {
        ok: 0,
        shed: 0,
        rungs: Vec::new(),
    };
    for t in threads {
        let (i, doc) = t.join().unwrap();
        if is_ok(&doc) {
            out.ok += 1;
            let rung = doc
                .get("rung")
                .and_then(Json::as_str)
                .expect("every plan answer names its rung")
                .to_string();
            out.rungs.push((format!("storm-{i}"), rung));
        } else {
            assert_eq!(error_kind(&doc), "overloaded", "{doc:?}");
            out.shed += 1;
        }
    }
    out
}

fn ladder_config(brownout: bool) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 4,
        cache_cap: 64,
        brownout,
        ..ServeConfig::default()
    }
}

#[test]
fn brownout_degrades_instead_of_shedding_and_never_caches() {
    let _serial = serialize();
    const STORM_N: usize = 20;
    // Baseline: same storm against the same ladder with brownout off.
    let baseline = Server::spawn(ladder_config(false), Box::new(LadderEngine)).unwrap();
    let off = storm(baseline.addr(), STORM_N);
    baseline.shutdown();
    baseline.join();
    assert!(
        off.shed >= 3,
        "the baseline must actually overload (shed {})",
        off.shed
    );
    // Every baseline answer ran the full ladder.
    assert!(off.rungs.iter().all(|(_, r)| r == "dp"), "{:?}", off.rungs);

    let server = Server::spawn(ladder_config(true), Box::new(LadderEngine)).unwrap();
    let addr = server.addr();
    // The cache works at Normal: second identical request is a hit.
    assert_eq!(
        request(addr, r#"{"op": "optimize", "db": "warm"}"#).get("cached"),
        Some(&Json::Bool(false))
    );
    assert_eq!(
        request(addr, r#"{"op": "optimize", "db": "warm"}"#).get("cached"),
        Some(&Json::Bool(true))
    );
    let on = storm(addr, STORM_N);
    // Degrade-instead-of-shed: strictly fewer global sheds than the
    // baseline, and the overflow was answered at cheaper rungs instead.
    assert!(
        on.shed < off.shed,
        "brownout should shed less: {} vs baseline {}",
        on.shed,
        off.shed
    );
    assert_eq!(on.ok + on.shed, STORM_N);
    assert!(
        on.rungs.iter().any(|(_, r)| r == "greedy"),
        "some answers should be browned: {:?}",
        on.rungs
    );
    let stats = request(addr, r#"{"op": "stats"}"#);
    let s = stats.get("stats").expect("stats body");
    assert!(s.get("brownout_entered").and_then(Json::as_u64).unwrap() >= 1);
    // Only a browned-out request is answered at the greedy rung; the rest
    // of the degraded answers came from the reduced DP.
    let greedy = on.rungs.iter().filter(|(_, r)| r == "greedy").count() as u64;
    assert_eq!(
        s.get("brownout_greedy_answers").and_then(Json::as_u64),
        Some(greedy)
    );
    assert!(s.get("brownout_dp_answers").and_then(Json::as_u64).unwrap() <= on.ok as u64 - greedy);
    assert!(matches!(
        s.get("brownout").and_then(Json::as_str),
        Some("normal" | "reduced-dp" | "greedy-only")
    ));
    // Never-cache-brownout: the controller is still browned out (exit
    // takes a 16-observation calm streak), so identical repeat requests
    // are answered fresh every time — a degraded plan must never become
    // the canonical cached answer.
    let first = request(addr, r#"{"op": "optimize", "db": "victim"}"#);
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    assert_ne!(first.get("rung").and_then(Json::as_str), Some("dp"));
    let second = request(addr, r#"{"op": "optimize", "db": "victim"}"#);
    assert_eq!(
        second.get("cached"),
        Some(&Json::Bool(false)),
        "a browned-out answer leaked into the cache: {second:?}"
    );
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Jittered retry hints
// ---------------------------------------------------------------------------

#[test]
fn shed_retry_hints_spread_across_the_jitter_window() {
    let _serial = serialize();
    let g = gate();
    let server = Server::spawn(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            cache_cap: 0,
            shed_retry_ms: 50,
            shed_retry_jitter_ms: 100,
            ..ServeConfig::default()
        },
        Box::new(GateEngine(Arc::clone(&g))),
    )
    .unwrap();
    let addr = server.addr();
    let busy = std::thread::spawn(move || request(addr, r#"{"op": "optimize", "db": "b0"}"#));
    std::thread::sleep(Duration::from_millis(50));
    let queued = std::thread::spawn(move || request(addr, r#"{"op": "optimize", "db": "b1"}"#));
    std::thread::sleep(Duration::from_millis(50));
    // Worker busy + queue full: everything below sheds.
    let mut hints = Vec::new();
    for i in 0..16 {
        let doc = request(addr, &format!(r#"{{"op": "optimize", "db": "s{i}"}}"#));
        assert_eq!(error_kind(&doc), "overloaded", "{doc:?}");
        hints.push(retry_after(&doc).expect("shed responses carry a retry hint"));
    }
    assert!(hints.iter().all(|&h| (50..=150).contains(&h)), "{hints:?}");
    let mut distinct = hints.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(
        distinct.len() >= 4,
        "hints should spread, not herd: {hints:?}"
    );
    release(&g, 2);
    assert!(is_ok(&busy.join().unwrap()));
    assert!(is_ok(&queued.join().unwrap()));
    server.shutdown();
    server.join();
}
