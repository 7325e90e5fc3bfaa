//! CLI-level robustness: every registered failpoint site is reachable
//! through some command with `--fail-inject`, and surfaces as a clean
//! `Err` (exit 1 in the binary) carrying the typed message — never a
//! panic. Also covers the budget flags end to end.
//!
//! `--fail-inject` arms process-wide, so tests serialize on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use mjoin_cli::run;

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const DB: &str = "relation AB\n1 10\n2 20\n3 30\n\nrelation BC\n10 5\n20 6\n10 7\n";

/// A cycle where every pairwise join is empty while the estimator believes
/// ≥ 1: whichever first stage the planner picks materializes φ, q-error is
/// ∞, and any adaptive execution re-plans after stage 1 — deterministically,
/// with no noise seed involved.
const DRIFT: &str = "relation AB\n1 10\n\nrelation BC\n20 5\n\nrelation CA\n6 2\n";

fn cli(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, |path| {
        Ok(if path == "drift" { DRIFT } else { DB }.to_string())
    })
    .map_err(|e| e.to_string())
}

/// Every registered site has a CLI command that reaches it; injecting a
/// fault there yields a reported error naming the site, with all sites
/// disarmed again afterwards.
#[test]
fn every_site_is_reachable_from_the_cli() {
    let _serial = serialize();
    // site → the command whose pipeline passes through it.
    let routes: &[(&str, &[&str])] = &[
        ("cost::materialize", &["optimize", "db"]),
        ("relation::join", &["show", "db"]),
        ("optimizer::dp", &["optimize", "db"]),
        ("optimizer::greedy", &["compare", "db"]),
        ("optimizer::ikkbz", &["compare", "db"]),
        ("optimizer::lindp", &["compare", "db"]),
        ("optimizer::partdp", &["compare", "db"]),
        (
            "optimizer::exhaustive",
            &["optimize", "db", "--timeout-ms", "10000"],
        ),
        ("core::ladder", &["optimize", "db", "--timeout-ms", "10000"]),
        ("semijoin::reduce", &["reduce", "db"]),
        ("adaptive::materialize", &["execute", "db"]),
        ("adaptive::stage", &["execute", "db"]),
        (
            "adaptive::replan",
            &["execute", "drift", "--adaptive", "--replan-threshold", "4"],
        ),
        (
            "obs::report",
            &["optimize", "db", "--metrics-json", "/dev/null"],
        ),
        // `store::load` fires before the file is even opened, so the path
        // need not exist; `store::save` fires before the write, so the
        // injected run leaves nothing on disk.
        ("store::load", &["store", "inspect", "no-such.store"]),
        (
            "store::save",
            &[
                "optimize",
                "db",
                "--store",
                "/tmp/mjoin-cli-faults-never-written.store",
            ],
        ),
        (
            "query::parse",
            &["query", "db", "SELECT * FROM AB, BC WHERE AB.B = BC.B"],
        ),
        (
            "query::lower",
            &["query", "db", "SELECT * FROM AB, BC WHERE AB.B = BC.B"],
        ),
    ];
    let routed: Vec<&str> = routes.iter().map(|(s, _)| *s).collect();
    for site in mjoin::failpoints::SITES {
        // `serve::*` sites live inside the daemon's accept/decode/enqueue/
        // respond loop, which no one-shot CLI command passes through; they
        // are driven against a live server in crates/serve/tests and the
        // workspace fault-injection suite, and looped through a live
        // `mjoin serve` process by the serve-chaos CI job.
        if site.starts_with("serve::") {
            continue;
        }
        assert!(routed.contains(site), "no CLI route covers site {site}");
    }
    for (site, base) in routes {
        let mut args = base.to_vec();
        args.push("--fail-inject");
        args.push(site);
        let err = cli(&args).expect_err(&format!("{site}: expected an injected failure"));
        assert!(
            err.contains(&format!("injected fault at {site}")),
            "{site}: unexpected message: {err}"
        );
        assert!(
            mjoin::failpoints::armed().is_empty(),
            "{site}: run() must disarm on exit"
        );
    }
}

/// `mjoin-cli failpoints` lists every registered site with its owning
/// module's description — without touching any database file (the reader
/// must never be called).
#[test]
fn failpoints_command_lists_every_site_without_a_db() {
    let _serial = serialize();
    let out = run(&["failpoints".to_string()], |path| {
        panic!("failpoints must not read a database, asked for {path:?}")
    })
    .expect("failpoints listing succeeds");
    assert!(
        out.contains(&format!(
            "registered failpoint sites ({})",
            mjoin::failpoints::SITES.len()
        )),
        "{out}"
    );
    for (site, doc) in mjoin::failpoints::SITE_DOCS {
        assert!(out.contains(site), "missing site {site}:\n{out}");
        assert!(out.contains(doc), "missing description for {site}:\n{out}");
    }
    assert!(
        out.contains("--fail-inject"),
        "must show the arming hint: {out}"
    );
}

/// Unknown sites are rejected up front, with the valid ones listed.
#[test]
fn unknown_fail_inject_site_is_rejected() {
    let _serial = serialize();
    let err = cli(&["optimize", "db", "--fail-inject", "bogus::site"]).unwrap_err();
    assert!(err.contains("bogus::site"), "{err}");
    assert!(
        err.contains("optimizer::dp"),
        "must list valid sites: {err}"
    );
    assert!(mjoin::failpoints::armed().is_empty());
}

/// Any budget flag flips `optimize` into robust-ladder mode, which names
/// the answering rung; `--flag=value` syntax works too.
#[test]
fn budget_flags_enable_the_degradation_report() {
    let _serial = serialize();
    let out = cli(&["optimize", "db", "--timeout-ms=10000"]).unwrap();
    assert!(out.contains("degradation: answered by"), "{out}");
    assert!(out.contains("τ ="), "{out}");
}

/// Without budget flags the legacy output is unchanged (exact strings the
/// seed tests rely on), so governance is strictly opt-in.
#[test]
fn unbudgeted_output_is_the_legacy_format() {
    let _serial = serialize();
    let out = cli(&["optimize", "db"]).unwrap();
    assert!(out.contains("search space: All"), "{out}");
    assert!(!out.contains("degradation"), "{out}");
}

/// A budget so tight nothing can finish still produces a plan and a
/// report — the CLI never comes back empty-handed over a valid database.
#[test]
fn tight_budget_still_answers() {
    let _serial = serialize();
    let out = cli(&[
        "optimize",
        "db",
        "--max-memo-entries",
        "1",
        "--max-tuples",
        "1",
    ])
    .unwrap();
    assert!(out.contains("plan: "), "{out}");
    assert!(out.contains("degradation: answered by"), "{out}");
}

/// The `reduce` command reports per-relation sizes and is budget-aware.
#[test]
fn reduce_reports_sizes_and_respects_budget() {
    let _serial = serialize();
    let out = cli(&["reduce", "db"]).unwrap();
    assert!(out.contains("full reducer"), "{out}");
    assert!(out.contains("-> "), "{out}");
    let err = cli(&["reduce", "db", "--max-tuples", "1"]).unwrap_err();
    assert!(err.contains("budget exceeded"), "{err}");
}

/// Runs the real binary on `examples/chain40.mj` and returns its exit
/// code, killing it (and failing) if it outlives `limit`.
fn binary_on_chain40(args: &[&str], limit: std::time::Duration) -> Option<i32> {
    let chain40 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/chain40.mj");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mjoin-cli"))
        .arg(args[0])
        .arg(chain40)
        .args(&args[1..])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn mjoin-cli");
    let started = std::time::Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait on mjoin-cli") {
            return status.code();
        }
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("mjoin-cli {args:?} on chain40.mj ran past {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// A 40-relation scheme is past what the theorem checks can afford:
/// `analyze` reports them unchecked (exit 0) or a typed error (exit 1),
/// never a panic (exit 2).
#[test]
fn analyze_on_forty_relations_never_panics() {
    let limit = std::time::Duration::from_secs(60);
    for args in [&["analyze"][..], &["analyze", "--timeout-ms", "10000"][..]] {
        let code = binary_on_chain40(args, limit);
        assert!(matches!(code, Some(0 | 1)), "{args:?}: exit {code:?}");
    }
}
