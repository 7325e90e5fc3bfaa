//! Deterministic fault injection: every registered failpoint site, when
//! armed, surfaces as a typed [`MjoinError::Internal`] from the layer that
//! owns it — never as a panic, and never swallowed by the degradation
//! ladder (injected faults are bugs-by-construction, not budget trips).
//!
//! The `serve::*` sites fire on the daemon's own threads and
//! `MJOIN_FAIL_INJECT` is process state, so those are armed process-wide
//! and every test here serializes on one mutex; this file is its own
//! integration-test binary, so it cannot interfere with the rest of the
//! suite.

use std::sync::{Mutex, MutexGuard, OnceLock};

use mjoin::failpoints::{self, ScopedFailpoint, SITES};
use mjoin::{
    optimize_database_robust_threaded, try_greedy_bushy, try_ikkbz, try_lindp, try_partitioned_dp,
    Budget, CardinalityOracle, Database, ExactOracle, Guard, MjoinError, SearchSpace,
};
use mjoin_gen::data;
use mjoin_hypergraph::JoinTree;

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn db() -> Database {
    data::paper_example4()
}

/// Minimal engine for driving the serve daemon's failpoints without the
/// real optimizer: every request succeeds instantly, so any error the
/// client sees is the injected one.
struct EchoEngine;

impl mjoin_serve::Engine for EchoEngine {
    fn prepare(
        &self,
        _req: &mjoin_serve::EngineRequest,
    ) -> Result<mjoin_serve::Prepared, MjoinError> {
        Ok(mjoin_serve::Prepared {
            key: None,
            run: Box::new(|_| {
                Ok(mjoin_serve::EngineResponse {
                    output: "ok\n".to_string(),
                    extra: Vec::new(),
                })
            }),
        })
    }
}

/// Drives one request against a live in-process server and converts the
/// typed error response back into the `MjoinError` it carries, so serve
/// sites flow through the same exhaustive loop as everything else.
fn provoke_serve(site: &str) -> MjoinError {
    use std::io::{BufRead as _, BufReader, Write as _};
    let server =
        mjoin_serve::Server::spawn(mjoin_serve::ServeConfig::default(), Box::new(EchoEngine))
            .expect("spawn in-process serve daemon");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    if site != "serve::accept" {
        // With accept armed the server answers and closes before reading,
        // so only the other sites need a request on the wire.
        let mut w = stream.try_clone().expect("clone stream");
        w.write_all(b"{\"op\":\"optimize\",\"db\":\"relation AB\\n1 10\\n\"}\n")
            .expect("send request");
    }
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read response");
    server.shutdown();
    server.join();
    let doc = mjoin_obs::json::parse(line.trim()).expect("well-formed response line");
    let msg = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(mjoin_obs::Json::as_str)
        .unwrap_or_else(|| panic!("{site}: expected an error response, got {line}"))
        .to_string();
    MjoinError::Internal(msg)
}

/// Drives the one entry point that owns `site` and returns its error.
fn provoke(site: &str) -> MjoinError {
    let db = db();
    let full = db.scheme().full_set();
    let guard = Guard::unlimited();
    match site {
        "cost::materialize" => {
            let oracle = ExactOracle::new(&db);
            oracle.try_tau(full).unwrap_err()
        }
        "relation::join" => db
            .state(0)
            .natural_join_guarded(db.state(1), &guard)
            .unwrap_err(),
        "optimizer::dp" => {
            let oracle = ExactOracle::new(&db);
            mjoin_optimizer::try_best_bushy(&oracle, full, &guard).unwrap_err()
        }
        "optimizer::greedy" => {
            let oracle = ExactOracle::new(&db);
            try_greedy_bushy(&oracle, full, &guard).unwrap_err()
        }
        "optimizer::ikkbz" => {
            let oracle = ExactOracle::new(&db);
            try_ikkbz(&oracle, full, &guard).unwrap_err()
        }
        "optimizer::lindp" => {
            let oracle = ExactOracle::new(&db);
            try_lindp(&oracle, full, &guard).unwrap_err()
        }
        "optimizer::partdp" => {
            let oracle = ExactOracle::new(&db);
            try_partitioned_dp(&oracle, full, &guard).unwrap_err()
        }
        "optimizer::exhaustive" | "core::ladder" => {
            optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
                .unwrap_err()
        }
        "semijoin::reduce" => {
            let tree = JoinTree::build(db.scheme()).expect("example 4 is acyclic");
            mjoin_semijoin::try_full_reduce_with_stats(&db, &tree, 0, &guard).unwrap_err()
        }
        "adaptive::materialize" | "adaptive::stage" => {
            let order: Vec<usize> = full.iter().collect();
            let strategy = mjoin::Strategy::left_deep(&order);
            mjoin_adaptive::execute_adaptive(
                &db,
                &strategy,
                &mjoin_adaptive::Estimation::Synthetic,
                &mjoin_adaptive::AdaptiveConfig::default(),
            )
            .unwrap_err()
        }
        "adaptive::replan" => {
            // A first stage that materializes φ drifts infinitely (the
            // estimator floors nonempty inputs at ≥ 1), so the re-plan
            // attempt is reached deterministically and trips the fault.
            let db = Database::from_specs(&[
                ("AB", vec![vec![1, 10]]),
                ("BC", vec![vec![99, 5]]), // no B value matches AB
                ("CD", vec![vec![5, 7]]),
            ])
            .unwrap();
            let order: Vec<usize> = db.scheme().full_set().iter().collect();
            let strategy = mjoin::Strategy::left_deep(&order);
            let config = mjoin_adaptive::AdaptiveConfig {
                replan_threshold: 4.0,
                ..mjoin_adaptive::AdaptiveConfig::default()
            };
            mjoin_adaptive::execute_adaptive(
                &db,
                &strategy,
                &mjoin_adaptive::Estimation::Synthetic,
                &config,
            )
            .unwrap_err()
        }
        "obs::report" => {
            // Every emitted report (CLI --metrics-json, bench BENCH_*.json)
            // funnels through this single guarded renderer.
            let rec = mjoin_obs::Recorder::arm();
            let report = mjoin_obs::RunReport::new("test", 1, rec.snapshot());
            drop(rec);
            mjoin::render_run_report(&report).unwrap_err()
        }
        "serve::accept"
        | "serve::decode"
        | "serve::enqueue"
        | "serve::admit_client"
        | "serve::brownout"
        | "serve::respond" => provoke_serve(site),
        // Both store failpoints fire before any filesystem access, so the
        // load path need not exist and the save run writes nothing.
        "store::load" => {
            mjoin::LoadedStore::open(std::path::Path::new("no-such.store")).unwrap_err()
        }
        "store::save" => {
            let entry = mjoin::StoreEntry::response_only(
                mjoin::fingerprint128("fault-injection"),
                u64::MAX,
                "plan: AB\n".to_string(),
            );
            mjoin::save_optimize_entry(
                std::path::Path::new("/tmp/mjoin-fault-injection-never-written.store"),
                entry,
            )
            .unwrap_err()
        }
        // Both query failpoints fire before any parsing/lowering work, so
        // a perfectly valid query surfaces the injected fault.
        "query::parse" => mjoin::parse_query("SELECT * FROM GS, SC WHERE GS.S = SC.S").unwrap_err(),
        "query::lower" => {
            let q = mjoin::parse_query("SELECT * FROM GS, SC WHERE GS.S = SC.S").unwrap();
            mjoin::lower(&q, &db).unwrap_err()
        }
        other => panic!("unmapped failpoint site {other}: extend this test"),
    }
}

/// Every registered site, once armed, produces a typed internal error that
/// names the site — from the layer that owns it, with no panic anywhere on
/// the path. This loop is exhaustive over [`SITES`], so registering a new
/// site without mapping it here fails the suite.
#[test]
fn every_registered_site_propagates_a_typed_error() {
    let _serial = serialize();
    for site in SITES {
        // The daemon's threads are not this test's: reach them process-wide.
        let fp = if site.starts_with("serve::") {
            ScopedFailpoint::arm_process(site)
        } else {
            ScopedFailpoint::arm(site)
        };
        let err = provoke(site);
        assert!(
            matches!(err, MjoinError::Internal(_)),
            "{site}: expected Internal, got {err:?}"
        );
        assert!(
            err.to_string().contains(site),
            "{site}: message must name the site, got: {err}"
        );
        drop(fp);
        assert!(
            failpoints::armed().is_empty(),
            "scoped failpoint must disarm on drop"
        );
    }
}

/// The ladder refuses to mask injected faults: a fault in a lower rung
/// (greedy) propagates even though a budget error there would degrade.
#[test]
fn ladder_does_not_degrade_over_injected_faults() {
    let _serial = serialize();
    let db = db();
    let _fp = ScopedFailpoint::arm("optimizer::greedy");
    // Tiny memo cap pushes the ladder past exhaustive and DP down to
    // greedy, where the injected fault must surface, not degrade.
    let budget = Budget::unlimited().with_max_memo_entries(1);
    let err =
        optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap_err();
    assert!(
        err.to_string().contains("optimizer::greedy"),
        "expected the injected greedy fault, got: {err}"
    );
}

/// Arming one site leaves every other site clean.
#[test]
fn sites_are_independent() {
    let _serial = serialize();
    let db = db();
    let _fp = ScopedFailpoint::arm("semijoin::reduce");
    let oracle = ExactOracle::new(&db);
    let full = db.scheme().full_set();
    assert!(oracle.try_tau(full).is_ok());
    assert!(mjoin_optimizer::try_best_bushy(&oracle, full, &Guard::unlimited()).is_ok());
}

/// With no site armed, the whole guarded pipeline runs clean — the
/// registry's fast path really is off.
#[test]
fn disarmed_registry_is_invisible() {
    let _serial = serialize();
    assert!(failpoints::armed().is_empty());
    let db = db();
    let r = optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
        .unwrap();
    assert_eq!(r.plan.cost, 11);
}

/// `MJOIN_FAIL_INJECT` arms sites at process start, comma-separated.
#[test]
fn env_var_arms_sites() {
    let _serial = serialize();
    std::env::set_var("MJOIN_FAIL_INJECT", "tests::env-a, tests::env-b");
    let armed = failpoints::init_from_env();
    std::env::remove_var("MJOIN_FAIL_INJECT");
    assert_eq!(
        armed,
        vec!["tests::env-a".to_string(), "tests::env-b".to_string()]
    );
    assert!(failpoints::hit("tests::env-a").is_err());
    assert!(failpoints::hit("tests::env-b").is_err());
    failpoints::disarm("tests::env-a");
    failpoints::disarm("tests::env-b");
    assert!(failpoints::hit("tests::env-a").is_ok());
}
