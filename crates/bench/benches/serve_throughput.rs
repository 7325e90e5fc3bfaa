//! Serve-mode throughput: requests/second and latency quantiles of the
//! hardened daemon under 1, 4, and 16 concurrent clients, with the real
//! optimizer engine behind it.
//!
//! Each client drives a persistent connection in a closed loop over a
//! small pool of databases, so the cross-request plan cache gets a
//! realistic mix of misses (first sight of each database) and hits
//! (every repeat). The report records, per client count: rps, p50/p99
//! request latency, the cache hit rate, and the shed rate against a
//! deliberately small admission queue — the overload story is part of
//! the measurement, not an error.
//!
//! Smoke mode for CI (`MJOIN_BENCH_SMOKE=1`): fewest iterations, just
//! enough to validate the harness and the report schema.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mjoin_bench::write_bench_report;
use mjoin_cli::MjoinEngine;
use mjoin_obs::{json, Json, Recorder};
use mjoin_serve::{ServeConfig, Server};

fn smoke() -> bool {
    std::env::var("MJOIN_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Distinct databases (distinct cache fingerprints) the clients cycle
/// through; small enough that every plan search is fast, so the bench
/// measures the serving machinery more than the optimizer.
fn db_pool() -> Vec<String> {
    (0..4)
        .map(|i| {
            format!(
                "relation AB\n1 {v}\n2 {w}\n3 30\n\nrelation BC\n{v} 5\n{w} 6\n{v} 7\n",
                v = 10 + i,
                w = 20 + i
            )
        })
        .collect()
}

/// One client's closed loop: `iters` optimize requests on a persistent
/// connection, returning per-request latencies and how many responses
/// were cache hits / sheds.
fn client_loop(
    addr: std::net::SocketAddr,
    dbs: &[String],
    iters: usize,
    offset: usize,
) -> (Vec<Duration>, u64, u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(iters);
    let (mut hits, mut sheds) = (0u64, 0u64);
    for i in 0..iters {
        let db = &dbs[(offset + i) % dbs.len()];
        let mut line = Json::obj(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(db.clone())),
        ])
        .to_compact_string();
        line.push('\n');
        let started = Instant::now();
        writer.write_all(line.as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        latencies.push(started.elapsed());
        let doc = json::parse(resp.trim()).expect("well-formed response");
        if doc.get("cached") == Some(&Json::Bool(true)) {
            hits += 1;
        }
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        if kind == Some("overloaded") {
            sheds += 1;
        } else {
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
        }
    }
    (latencies, hits, sheds)
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs one measurement at `clients` concurrency and returns the report
/// row.
fn measure(clients: usize, iters_per_client: usize) -> Json {
    let server = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            ..ServeConfig::default()
        },
        Box::new(MjoinEngine { threads: 1 }),
    )
    .expect("spawn serve daemon");
    let addr = server.addr();
    let dbs = db_pool();
    let started = Instant::now();
    let per_client: Vec<(Vec<Duration>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let dbs = &dbs;
                s.spawn(move || client_loop(addr, dbs, iters_per_client, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = started.elapsed();
    server.shutdown();
    let stats = server.join();

    let mut latencies: Vec<Duration> = per_client.iter().flat_map(|(l, _, _)| l.clone()).collect();
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let hits: u64 = per_client.iter().map(|(_, h, _)| h).sum();
    let sheds: u64 = per_client.iter().map(|(_, _, s)| s).sum();
    let rps = total as f64 / elapsed.as_secs_f64();
    let p50 = quantile(&latencies, 0.50);
    let p99 = quantile(&latencies, 0.99);
    println!(
        "serve_throughput clients={clients}: {rps:.0} rps, p50 {p50:?}, p99 {p99:?}, \
         hit rate {:.2}, shed rate {:.2}",
        hits as f64 / total as f64,
        sheds as f64 / total as f64,
    );
    assert!(
        stats.cache_len as usize <= 64,
        "cache over cap: {}",
        stats.cache_len
    );
    Json::obj(vec![
        ("clients", Json::U64(clients as u64)),
        ("requests", Json::U64(total)),
        ("rps", Json::F64(rps)),
        ("p50_us", Json::U64(p50.as_micros() as u64)),
        ("p99_us", Json::U64(p99.as_micros() as u64)),
        ("cache_hit_rate", Json::F64(hits as f64 / total as f64)),
        ("shed_rate", Json::F64(sheds as f64 / total as f64)),
    ])
}

/// One tenant connection's closed loop, carrying a `client` identity on
/// the wire. Returns per-request latencies plus ok/shed counts (a shed is
/// not retried — the closed loop just moves on, which keeps the arrival
/// rate honest).
fn tenant_loop(
    addr: std::net::SocketAddr,
    name: &str,
    dbs: &[String],
    iters: usize,
) -> (Vec<Duration>, u64, u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(iters);
    let (mut oks, mut sheds) = (0u64, 0u64);
    for i in 0..iters {
        let db = &dbs[i % dbs.len()];
        let mut line = Json::obj(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(db.clone())),
            ("client", Json::Str(name.to_string())),
        ])
        .to_compact_string();
        line.push('\n');
        let started = Instant::now();
        writer.write_all(line.as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        latencies.push(started.elapsed());
        let doc = json::parse(resp.trim()).expect("well-formed response");
        if doc.get("ok") == Some(&Json::Bool(true)) {
            oks += 1;
        } else {
            sheds += 1;
        }
    }
    (latencies, oks, sheds)
}

/// The noisy-neighbor scenario: one hog tenant driving 12 concurrent
/// connections against four polite single-connection tenants, measured
/// with the fairness knobs off and on. Returns one row per configuration
/// with per-client p50/p99/shed-rate breakdowns.
fn measure_tenants(fair: bool, iters: usize) -> Json {
    let server = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            // No cache: a hit answers from the connection thread and
            // would hide the queue entirely.
            cache_cap: 0,
            client_queue_cap: if fair { 2 } else { 0 },
            ..ServeConfig::default()
        },
        Box::new(MjoinEngine { threads: 1 }),
    )
    .expect("spawn serve daemon");
    let addr = server.addr();
    let dbs = db_pool();
    let mut specs: Vec<String> = vec!["hog".to_string(); 12];
    specs.extend((0..4).map(|i| format!("fair-{i}")));
    let results: Vec<(String, Vec<Duration>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|name| {
                let dbs = &dbs;
                s.spawn(move || {
                    let (lat, oks, sheds) = tenant_loop(addr, name, dbs, iters);
                    (name.clone(), lat, oks, sheds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant"))
            .collect()
    });
    server.shutdown();
    server.join();
    // Aggregate the hog's connections into one row per client name.
    let mut by_client: Vec<(String, Vec<Duration>, u64, u64)> = Vec::new();
    for (name, lat, oks, sheds) in results {
        match by_client.iter_mut().find(|(n, _, _, _)| *n == name) {
            Some((_, l, o, sh)) => {
                l.extend(lat);
                *o += oks;
                *sh += sheds;
            }
            None => by_client.push((name, lat, oks, sheds)),
        }
    }
    let rows: Vec<Json> = by_client
        .into_iter()
        .map(|(name, mut lat, oks, sheds)| {
            lat.sort_unstable();
            let total = (oks + sheds).max(1);
            println!(
                "serve_throughput tenants fairness={fair} client={name}: \
                 p50 {:?}, p99 {:?}, shed rate {:.2}",
                quantile(&lat, 0.50),
                quantile(&lat, 0.99),
                sheds as f64 / total as f64,
            );
            Json::obj(vec![
                ("client", Json::Str(name)),
                ("requests", Json::U64(oks + sheds)),
                ("ok", Json::U64(oks)),
                ("shed", Json::U64(sheds)),
                ("p50_us", Json::U64(quantile(&lat, 0.50).as_micros() as u64)),
                ("p99_us", Json::U64(quantile(&lat, 0.99).as_micros() as u64)),
                ("shed_rate", Json::F64(sheds as f64 / total as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("fairness", Json::Bool(fair)),
        ("clients", Json::Arr(rows)),
    ])
}

fn main() {
    let iters_per_client = if smoke() { 20 } else { 300 };
    // The recorder is armed across all runs so the report's counter
    // section reflects the full workload (requests, hits, evictions, shed).
    let rec = Recorder::arm();
    let rows: Vec<Json> = [1usize, 4, 16]
        .into_iter()
        .map(|clients| measure(clients, iters_per_client))
        .collect();
    let tenant_iters = if smoke() { 10 } else { 100 };
    let tenant_rows: Vec<Json> = [false, true]
        .into_iter()
        .map(|fair| measure_tenants(fair, tenant_iters))
        .collect();
    let snapshot = rec.snapshot();
    drop(rec);
    write_bench_report(
        "serve_throughput",
        1,
        snapshot,
        Json::obj(vec![
            ("iters_per_client", Json::U64(iters_per_client as u64)),
            ("rows", Json::Arr(rows)),
            ("tenant_iters", Json::U64(tenant_iters as u64)),
            ("tenant_rows", Json::Arr(tenant_rows)),
        ]),
    );
}
