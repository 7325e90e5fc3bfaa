//! End-to-end coverage for `--store`: a cold `optimize` run persists its
//! response (at any scheme width) and reports only the work that answered
//! it, a warm run replays it byte for byte *without optimizing* (proved by
//! arming the DP failpoint, which a warm run must never reach), `store
//! inspect` dumps the file, corruption surfaces as a typed error, and the
//! store is shared with `serve` in both directions — a CLI-written store
//! warms the daemon's plan cache at boot, and a drained daemon's snapshot
//! warms the CLI.
//!
//! `--fail-inject` arms process-wide, so tests serialize on one mutex.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use mjoin_cli::{run, MjoinEngine};
use mjoin_obs::{json, Json};
use mjoin_serve::{ServeConfig, Server};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const DB: &str = "relation AB\n1 10\n2 20\n3 30\n\nrelation BC\n10 5\n20 6\n10 7\n";

fn cli(args: &[&str]) -> Result<String, String> {
    cli_on(DB, args)
}

/// Runs the CLI with every database path reading `db`.
fn cli_on(db: &str, args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args, |_| Ok(db.to_string())).map_err(|e| e.to_string())
}

/// A chain of `n` relations `x_i,x_{i+1}` with two tuples each.
fn chain_db(n: usize) -> String {
    (0..n)
        .map(|i| format!("relation x{i},x{}\n1 1\n{} 2\n", i + 1, i % 3))
        .collect()
}

/// A per-test store path under the system temp dir, removed on drop.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let path = std::env::temp_dir().join(format!(
            "mjoin-cli-store-{}-{tag}.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        TempStore(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The headline acceptance check: for both the full and the product-free
/// search space, a warm run replays the cold run's bytes while the armed
/// `optimizer::dp` failpoint proves no plan search happened — and saving
/// did not perturb the cold run's own output either.
#[test]
fn warm_run_replays_the_cold_run_byte_for_byte() {
    let _serial = serialize();
    for space in [None, Some("nocp")] {
        let store = TempStore::new(space.unwrap_or("all"));
        let mut base = vec!["optimize", "db"];
        if let Some(s) = space {
            base.push(s);
        }
        base.extend(["--threads", "1"]);
        let plain = cli(&base).expect("plain run succeeds");

        let mut with_store = base.clone();
        with_store.extend(["--store", store.as_str()]);
        let cold = cli(&with_store).expect("cold run succeeds");
        assert_eq!(cold, plain, "saving must not change the output");
        assert!(store.0.exists(), "cold run must write the store");

        let mut warm_args = with_store.clone();
        warm_args.extend(["--fail-inject", "optimizer::dp"]);
        let warm = cli(&warm_args)
            .expect("warm run must not reach the optimizer (injected fault untripped)");
        assert_eq!(warm, cold, "warm replay must be byte-identical");
        assert!(
            mjoin::failpoints::armed().is_empty(),
            "run() must disarm on exit"
        );
    }
}

/// `store inspect` renders the header and the saved entry's sections
/// without needing the database file.
#[test]
fn store_inspect_dumps_the_saved_entry() {
    let _serial = serialize();
    let store = TempStore::new("inspect");
    cli(&[
        "optimize",
        "db",
        "nocp",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect("cold run succeeds");
    let out = run(
        &[
            "store".to_string(),
            "inspect".to_string(),
            store.as_str().to_string(),
        ],
        |p| panic!("store inspect must not read a database, asked for {p:?}"),
    )
    .expect("inspect succeeds");
    assert!(out.contains("version 1"), "{out}");
    assert!(out.contains("1 entry"), "{out}");
    assert!(out.contains("plan cost"), "{out}");
    assert!(
        out.contains("response only"),
        "a cold run saves the response alone: {out}"
    );
    assert!(!out.contains("memo:"), "a cold run saves no DP memo: {out}");
    assert!(out.contains("response:"), "{out}");
}

/// Entries are response-only, so a chain wider than the 64 bits of an
/// entry's `within` field saves and replays like any other request.
#[test]
fn schemes_wider_than_64_relations_save_and_replay() {
    let _serial = serialize();
    let db = chain_db(70);
    for space in ["nocp", "linear-nocp"] {
        let store = TempStore::new(&format!("wide-{space}"));
        let base = ["optimize", "db", space, "--threads", "1"];
        let plain = cli_on(&db, &base).expect("plain run succeeds");
        let with_store = [&base[..], &["--store", store.as_str()]].concat();
        let cold = cli_on(&db, &with_store).expect("cold --store run succeeds");
        assert_eq!(cold, plain, "{space}: saving must not change the output");
        let warm_args = [&with_store[..], &["--fail-inject", "optimizer::dp"]].concat();
        let warm = cli_on(&db, &warm_args).expect("warm run replays without optimizing");
        assert_eq!(warm, cold, "{space}: warm replay must be byte-identical");
    }
}

/// The `dp.*` and oracle counters of `--metrics-json` describe the work
/// that answered the request: saving it to the store plans nothing more.
#[test]
fn a_cold_store_run_reports_only_the_work_that_answered() {
    let _serial = serialize();
    let db = chain_db(8);
    let store = TempStore::new("metrics");
    let report = TempStore::new("metrics-json");
    let counters = |extra: &[&str]| {
        let base = ["optimize", "db", "nocp", "--threads", "1"];
        let json_out = ["--metrics-json", report.as_str()];
        cli_on(&db, &[&base[..], &json_out, extra].concat()).expect("run succeeds");
        let text = std::fs::read_to_string(&report.0).expect("read the run report");
        let doc = json::parse(&text).expect("the run report is JSON");
        let Some(Json::Obj(counters)) = doc.get("counters") else {
            panic!("no counters in {text}");
        };
        counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("dp.")
                    || name == "oracle.subsets_counted"
                    || name == "oracle.memo_hits"
            })
            .map(|(name, value)| (name.clone(), value.as_u64().expect("a counter is a u64")))
            .collect::<Vec<_>>()
    };
    let plain = counters(&[]);
    let cold = counters(&["--store", store.as_str()]);
    assert!(store.0.exists(), "the cold run saved its answer");
    assert!(plain.len() > 2, "{plain:?}");
    let pairs = plain
        .iter()
        .find(|(name, _)| name == "dp.ccp_pairs_emitted");
    assert!(pairs.is_some_and(|(_, n)| *n > 0), "{plain:?}");
    assert_eq!(cold, plain);
}

/// Flipping any byte of a saved store makes both the warm path and
/// `store inspect` fail with the typed corruption error — no panic, no
/// silent cold fallback that would mask on-disk rot.
#[test]
fn corrupt_store_is_a_typed_error() {
    let _serial = serialize();
    let store = TempStore::new("corrupt");
    cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect("cold run succeeds");
    let mut bytes = std::fs::read(&store.0).expect("read store");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&store.0, &bytes).expect("rewrite store");

    let err = cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect_err("warm over a corrupt store must fail");
    assert!(err.contains("corrupt store"), "{err}");
    let err = cli(&["store", "inspect", store.as_str()]).expect_err("inspect must fail");
    assert!(err.contains("corrupt store"), "{err}");
}

fn request(addr: std::net::SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .expect("read response");
    json::parse(resp.trim()).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
}

fn optimize_line() -> String {
    Json::obj(vec![
        ("op", Json::Str("optimize".to_string())),
        ("db", Json::Str(DB.to_string())),
    ])
    .to_compact_string()
}

/// A store written by a CLI cold run warms the daemon's plan cache at
/// boot: the very first wire request is a cache hit with the CLI's bytes.
#[test]
fn serve_warm_starts_from_a_cli_store() {
    let _serial = serialize();
    let store = TempStore::new("serve-boot");
    let cold = cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect("cold run succeeds");

    let server = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_path: Some(store.as_str().to_string()),
            ..ServeConfig::default()
        },
        Box::new(MjoinEngine { threads: 1 }),
    )
    .expect("spawn warm daemon");
    let served = request(server.addr(), &optimize_line());
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    assert_eq!(
        served.get("cached"),
        Some(&Json::Bool(true)),
        "first request must hit the warm-started cache: {served:?}"
    );
    assert_eq!(
        served.get("output").and_then(Json::as_str),
        Some(cold.as_str()),
        "warm-started response must be the CLI cold run's bytes"
    );
    server.shutdown();
    server.join();
}

/// A drained daemon snapshots its plan cache, and that snapshot warms the
/// CLI: the follow-up run replays the served bytes with the DP failpoint
/// armed, proving no re-optimization.
#[test]
fn serve_snapshot_on_drain_warms_the_cli() {
    let _serial = serialize();
    let store = TempStore::new("serve-drain");
    let server = Server::spawn(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_path: Some(store.as_str().to_string()),
            ..ServeConfig::default()
        },
        Box::new(MjoinEngine { threads: 1 }),
    )
    .expect("spawn daemon");
    let served = request(server.addr(), &optimize_line());
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    let served_out = served
        .get("output")
        .and_then(Json::as_str)
        .expect("served output")
        .to_string();
    server.shutdown();
    server.join();
    assert!(store.0.exists(), "drain must snapshot the cache");

    let warm = cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
        "--fail-inject",
        "optimizer::dp",
    ])
    .expect("warm run must replay the snapshot without optimizing");
    assert_eq!(warm, served_out, "CLI warm replay must be the served bytes");
}

/// Crash safety against a *real* process death, not just an injected
/// fault: a daemon holding a valid store is SIGKILLed — once while
/// serving, once right as a drain (and therefore a snapshot write) is
/// starting — and the store must remain loadable afterwards. Saves are
/// write-to-temp + fsync + atomic rename, so a kill at any instant leaves
/// either the old bytes or a complete new file, never a torn one; a stale
/// `.tmp` from the killed attempt must not poison later runs.
#[test]
fn sigkilled_daemon_never_tears_the_store() {
    let _serial = serialize();
    let store = TempStore::new("sigkill");
    let cold = cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect("cold run succeeds");
    let original = std::fs::read(&store.0).expect("read cold store");
    // A leftover temp file from some earlier crashed save must be ignored
    // and eventually overwritten, never merged or trusted.
    let tmp = store.0.with_extension("tmp");
    std::fs::write(&tmp, b"torn partial write from a past crash").unwrap();

    let spawn_daemon = |tag: &str| {
        let addr_file = std::env::temp_dir().join(format!(
            "mjoin-cli-store-sigkill-{}-{tag}.addr",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_mjoin-cli"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--store",
                store.as_str(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn mjoin-cli serve");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if let Ok(a) = s.trim().parse::<std::net::SocketAddr>() {
                    break a;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never wrote its address file"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&addr_file);
        (child, addr)
    };

    // Kill #1: mid-serving, nothing draining. The store must be untouched.
    let (mut child, addr) = spawn_daemon("running");
    let served = request(addr, &optimize_line());
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    child.kill().expect("SIGKILL the serving daemon");
    child.wait().expect("reap");
    assert_eq!(
        std::fs::read(&store.0).expect("store still readable"),
        original,
        "a kill outside any save must leave the store byte-identical"
    );

    // Kill #2: fire a shutdown (which triggers the drain-time snapshot)
    // and SIGKILL immediately, racing the save itself.
    let (mut child, addr) = spawn_daemon("draining");
    // Grow the cache so the snapshot actually rewrites the file.
    let other_db = "relation AB\n1 10\n\nrelation BC\n10 5\n10 6\n";
    let grow = request(
        addr,
        &Json::obj(vec![
            ("op", Json::Str("optimize".to_string())),
            ("db", Json::Str(other_db.to_string())),
        ])
        .to_compact_string(),
    );
    assert_eq!(grow.get("ok"), Some(&Json::Bool(true)), "{grow:?}");
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
        let _ = stream.flush();
    }
    child.kill().expect("SIGKILL the draining daemon");
    child.wait().expect("reap");

    // Whatever instant the kill landed at, the store must parse: either
    // the original bytes or a complete new snapshot — never torn.
    let inspected = cli(&["store", "inspect", store.as_str()])
        .expect("store must stay loadable after a SIGKILL");
    assert!(inspected.contains("version 1"), "{inspected}");
    // And the surviving store still warm-starts a fresh run.
    let warm = cli(&[
        "optimize",
        "db",
        "--threads",
        "1",
        "--store",
        store.as_str(),
    ])
    .expect("warm run over the surviving store succeeds");
    assert_eq!(warm, cold, "surviving store must replay the cold bytes");
    let _ = std::fs::remove_file(&tmp);
}
