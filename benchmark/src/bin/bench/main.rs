//! `bench` — the end-to-end benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! bench run      [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat K] [--out FILE]
//! bench compare  BASE.json NEW.json
//! bench bless
//! bench requests --workload W [--seed N] [--count N | --dump INDEX]
//! ```

mod check;
mod compare;
mod daemon;
mod e2e;
mod host;
mod report;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use mjoin_benchmark::gen::{Generator, Workload, DEFAULT_SEED};
use mjoin_benchmark::json::Json;
use mjoin_benchmark::metrics::PER_LAYER;

use report::Record;

/// The ladder's exhaustive rung enumerates schemes of up to this many
/// relations; `bless` cross-checks every request that small against it.
const EXHAUSTIVE_CUTOFF: usize = 7;

/// `run_seconds` of `BENCHMARK.json`: how long a run measures by default.
const DEFAULT_SECONDS: f64 = 15.0;

/// A run is aborted once its timed phase has taken this many times the
/// requested seconds (plus a minute): a wedged daemon cannot hang the
/// harness, and a run always ends inside the contract's 180 s.
fn wall_cap(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 4.0 + 60.0).min(150.0))
}

/// `--flag value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{flag} needs a value")),
            },
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// Fails on any `--flag` not in `known`: a mistyped `--second 5` must
    /// not silently run the default length.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
        {
            Some(flag) => Err(format!("unknown flag {flag} (known: {})", known.join(" "))),
            None => Ok(()),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload")? {
            None => Ok(None),
            Some(name) => Workload::parse(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            }),
        }
    }
}

fn requests(args: &Args) -> Result<(), String> {
    args.only(&["--workload", "--seed", "--count", "--dump"])?;
    let workload = args.workload()?.ok_or("requests needs --workload")?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let count = args.parsed("--count", workload.traced().end)?;
    let generator = Generator::new(workload, seed);
    if let Some(index) = args.value("--dump")? {
        let index = index
            .parse()
            .map_err(|_| format!("--dump: bad index {index:?}"))?;
        println!("{}", generator.request(index).line);
        return Ok(());
    }
    println!(
        "{:>6}  {:<22} {:>9}  {:>6}  expect",
        "index", "shape", "bytes", "tables"
    );
    for i in 0..count {
        let started = std::time::Instant::now();
        let r = generator.request(i);
        let think = started.elapsed();
        let mut expect = String::new();
        if let Some(n) = r.expect_result_tuples {
            expect.push_str(&format!("result_tuples={n} "));
        }
        if r.expect_cached {
            expect.push_str("cached ");
        }
        println!(
            "{:>6}  {:<22} {:>9}  {:>6}  {expect}(generated in {:.1} ms)",
            r.index,
            r.shape,
            r.line.len(),
            r.tables.len(),
            think.as_secs_f64() * 1000.0
        );
    }
    Ok(())
}

/// One end-to-end run, or — given the trace binary — one per-layer run.
fn one_run(
    daemon: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_binary: Option<&Path>,
) -> Result<Record, String> {
    let Some(trace_binary) = trace_binary else {
        let length = e2e::Length::Seconds(seconds);
        let outcome = e2e::run(
            daemon,
            workload,
            seed,
            e2e::SETUPS,
            length,
            wall_cap(seconds),
        )?;
        let metrics = outcome.metrics();
        return Ok(Record::new(workload, false, &outcome, metrics));
    };
    // Per layer: exactly the first pass, whatever `--seconds` says — counts
    // must cover the same requests on every commit.
    let pass = e2e::run(
        daemon,
        workload,
        seed,
        1,
        e2e::Length::Passes(1),
        wall_cap(seconds),
    )?;
    let layers = trace::layers(
        daemon,
        trace_binary,
        &host::out_dir()?,
        workload,
        seed,
        &pass,
    )?;
    let metrics = PER_LAYER.iter().map(|m| (m.name, layers[m.name])).collect();
    Ok(Record::new(workload, true, &pass, metrics))
}

fn run(args: &Args) -> Result<bool, String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--smoke",
        "--repeat",
        "--out",
    ])?;
    host::require_repo_root()?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let smoke = args.has("--smoke");
    let mut seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if smoke {
        seconds /= 20.0;
    }
    let repeat: usize = args.parsed("--repeat", 1)?;
    let only = args.workload()?;
    let trace = match args.value("--trace")? {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let daemon = host::build_daemon()?;
    let trace_binary = match trace {
        Some(false) => None,
        _ => Some(host::build_trace_binary()?),
    };
    // Everything is built: from here on one CPU is enough, and steadier.
    let host = host::pin_and_describe(&daemon);
    println!(
        "seed {seed}, {seconds} s per run{}; host {}",
        if smoke {
            " (SMOKE: 1/20 length, numbers are not comparable)"
        } else {
            ""
        },
        host.compact()
    );

    let workloads: Vec<Workload> = only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut records: Vec<Record> = Vec::new();
    for &workload in &workloads {
        if trace != Some(true) {
            for _ in 0..repeat.max(1) {
                let record = one_run(&daemon, workload, seed, seconds, None)?;
                record.print();
                records.push(record);
            }
        }
        if trace_binary.is_some() {
            let record = one_run(&daemon, workload, seed, seconds, trace_binary.as_deref())?;
            record.print();
            records.push(record);
        }
    }

    let report = Json::obj(vec![
        ("schema", Json::Int(1)),
        ("comparable", Json::Bool(!smoke)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("host", host),
        (
            "runs",
            Json::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ]);
    let out = match args.value("--out")? {
        Some(path) => path.into(),
        None => host::out_dir()?.join(format!("report.seed{seed}.json")),
    };
    std::fs::write(&out, report.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("report written to {}", out.display());
    // The benchmark contract's result line, for a run of one workload in
    // one mode: the last line of standard output.
    if let ([record], Some(_), Some(_)) = (records.as_slice(), only, trace) {
        println!("{}", record.contract_line());
    }
    Ok(records.iter().all(|r| r.failed == 0))
}

/// Regenerates `benchmark/expected/<workload>.tau.json` at the default
/// seed. Refuses unless, for every request of at most 7 relations, the
/// DP's answer equals the exhaustive rung's.
fn bless() -> Result<bool, String> {
    host::require_repo_root()?;
    let daemon_binary = host::build_daemon()?;
    let out_dir = host::out_dir()?;
    let mut files: Vec<(std::path::PathBuf, String)> = Vec::new();
    for workload in Workload::ALL.into_iter().filter(|w| w.pins_cost()) {
        let generator = Generator::new(workload, DEFAULT_SEED);
        // The warm-up and the fixed list (for hot_repeat, whose hits only
        // repeat its pool, the two are the same requests).
        let pinned = workload.traced().end;
        let mut daemon = daemon::Daemon::spawn(&daemon_binary, &out_dir)?;
        let mut costs: Vec<Json> = Vec::new();
        let mut cross_checked = 0;
        for index in 0..pinned {
            let request = generator.request(index);
            let ask =
                |daemon: &mut daemon::Daemon, line: &str| -> Result<check::Observed, String> {
                    let (response, _) = daemon.request(line).map_err(|b| b.0)?;
                    check::check(&request, &response, None).map_err(|why| {
                        format!(
                            "{} request {index} ({}): {why}",
                            workload.name(),
                            request.shape
                        )
                    })
                };
            let seen = ask(&mut daemon, &request.line)?;
            if request.tables.len() <= EXHAUSTIVE_CUTOFF {
                // Any budget sends the request down the ladder, whose first
                // rung enumerates every strategy of the space.
                let open = request
                    .line
                    .strip_suffix('}')
                    .expect("a request is an object");
                let budgeted = format!("{open},\"timeout_ms\":100000}}");
                let exhaustive = ask(&mut daemon, &budgeted)?;
                if exhaustive.rung.as_deref() != Some("exhaustive") || exhaustive.cost != seen.cost
                {
                    return Err(format!(
                        "refusing to bless: {} request {index} ({}): DP says {:?}, the {} rung says {:?}",
                        workload.name(),
                        request.shape,
                        seen.cost,
                        exhaustive.rung.as_deref().unwrap_or("?"),
                        exhaustive.cost
                    ));
                }
                cross_checked += 1;
            }
            costs.push(Json::obj(vec![
                ("index", Json::Int(index)),
                ("shape", Json::Str(request.shape.clone())),
                ("cost", seen.cost.map_or(Json::Null, Json::Int)),
            ]));
        }
        daemon.shutdown();
        println!(
            "{}: {} costs pinned, {cross_checked} of them cross-checked against the exhaustive rung",
            workload.name(),
            costs.len()
        );
        let doc = Json::obj(vec![
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Int(DEFAULT_SEED)),
            ("costs", Json::Arr(costs)),
        ]);
        files.push((host::tau_file(workload), doc.pretty()));
    }
    // Nothing is written unless every workload passed.
    for (path, text) in files {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "run" => run(&args),
        "compare" => match args.0.as_slice() {
            [base, new] => compare::compare(base, new),
            _ => Err("usage: bench compare BASE.json NEW.json".into()),
        },
        "bless" => bless(),
        "requests" => requests(&args).map(|()| true),
        _ => Err(
            "usage: bench <run|compare|bless|requests> [FLAGS] (see benchmark/README.md)".into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
