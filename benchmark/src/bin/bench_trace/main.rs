//! `bench_trace` — the outside-in layer trace.
//!
//! Replays the first pass of a workload (the 64-entry pool for
//! `hot_repeat`) in-process, single-threaded, with a span around every
//! call into a public entry point of a layer. Spans are kept in memory and
//! written to `--out` at exit, together with a per-metric summary that
//! `bench run --trace 1` folds into its per-layer metrics.
//!
//! ```text
//! bench_trace --workload W --seed N --out benchmark/out/trace.W.json
//! ```
//!
//! Two kinds of span. *On-path* spans are the calls the daemon itself
//! makes for the request, in its order: `serve.decode`, `cli.fingerprint`,
//! `cli.handle`, `serve.encode`. *Probe* spans re-run, after the request,
//! the public entry points `cli.handle` is made of, on the same input, and
//! are booked as its children — until the program carries spans of its
//! own, that is as far inside as a benchmark-side trace can see.
//! `cli.handle_self` is `cli.handle` less its probes.

mod layers;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mjoin_benchmark::gen::{Generator, Workload, DEFAULT_SEED};
use mjoin_benchmark::json::Json;
use mjoin_benchmark::metrics::RUNGS;

/// One recorded span.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Re-run after the request rather than observed inside it.
    probe: bool,
}

/// The in-memory span log.
struct Tracer {
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its id and result.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.epoch.elapsed();
        let value = black_box(f());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start,
            end,
            probe,
        });
        (self.spans.len() - 1, value)
    }

    /// Books an interval the callee measured itself (a rung of the ladder).
    fn derived(&mut self, name: &'static str, parent: usize, start: Duration, took: Duration) {
        self.spans.push(Span {
            name,
            request: self.request,
            parent: Some(parent),
            start,
            end: start + took,
            probe: true,
        });
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64() * 1000.0
    }
}

/// One request's milliseconds, by per-layer metric name.
type Row = BTreeMap<&'static str, f64>;

/// Replays one request; returns its row of milliseconds.
fn replay(tracer: &mut Tracer, line: &str, cached_path: bool) -> Row {
    let root = tracer.spans.len();
    let start = tracer.epoch.elapsed();
    tracer.spans.push(Span {
        name: "request",
        request: tracer.request,
        parent: None,
        start,
        end: start,
        probe: false,
    });
    let (decode, decoded) = tracer.span("serve.decode", Some(root), false, || layers::decode(line));
    let (fingerprint, _) = tracer.span("cli.fingerprint", Some(root), false, || {
        layers::fingerprint(&decoded)
    });
    // A cache hit is answered from the connection thread: `handle` is not
    // on its path, so there it counts as a probe.
    let (handle, response) = tracer.span("cli.handle", Some(root), cached_path, || {
        layers::handle(&decoded)
    });
    let (encode, _) = tracer.span("serve.encode", Some(root), false, || {
        layers::encode(&decoded, &response, cached_path)
    });
    tracer.spans[root].end = tracer.epoch.elapsed();

    let mut row = Row::from([
        ("serve.decode_ms", tracer.ms(decode)),
        ("cli.fingerprint_ms", tracer.ms(fingerprint)),
        ("cli.handle_ms", tracer.ms(handle)),
        ("serve.encode_ms", tracer.ms(encode)),
    ]);
    let on_path = if cached_path { 0.0 } else { tracer.ms(handle) };
    row.insert(
        "in_process_ms",
        tracer.ms(decode) + tracer.ms(fingerprint) + on_path + tracer.ms(encode),
    );
    let children = probes(tracer, handle, &decoded, &mut row);
    row.insert("cli.handle_self_ms", tracer.ms(handle) - children);
    row
}

/// Re-runs what `cli.handle` is made of, layer by layer, booking each
/// duration in `row`. Returns the milliseconds of `handle`'s direct
/// children.
fn probes(tracer: &mut Tracer, handle: usize, decoded: &layers::Decoded, row: &mut Row) -> f64 {
    let parent = Some(handle);
    let request = &decoded.engine;
    let (id, input) = tracer.span("cli.parse_input", parent, true, || {
        layers::parse_input(&request.db)
    });
    let mut children = tracer.ms(id);
    row.insert("cli.parse_input_ms", tracer.ms(id));
    match request.op.as_str() {
        "query" => {
            let sql = request.query.as_deref().expect("query ops carry a query");
            let (id, query) = tracer.span("query.parse", parent, true, || layers::parse_query(sql));
            row.insert("query.parse_ms", tracer.ms(id));
            children += tracer.ms(id);
            let (id, lowered) = tracer.span("query.lower", parent, true, || {
                layers::lower(&query, &input)
            });
            row.insert("query.lower_ms", tracer.ms(id));
            children += tracer.ms(id);
            let mut oracle = layers::oracle(&input, &lowered);
            let exact = matches!(oracle, layers::Oracle::Exact(_));
            let (first, _) = tracer.span("optimizer.search", parent, true, || {
                layers::search(&mut oracle, decoded.space)
            });
            children += tracer.ms(first);
            if exact {
                // The first search also materialized every subset it asked
                // about; a second one over the now-memoized oracle is the
                // search alone. The difference is `cost`'s.
                let (again, _) =
                    tracer.span("optimizer.search(memoized)", Some(first), true, || {
                        layers::search(&mut oracle, decoded.space)
                    });
                row.insert("optimizer.search_ms", tracer.ms(again));
                row.insert("cost.materialize_ms", tracer.ms(first) - tracer.ms(again));
            } else {
                row.insert("optimizer.search_ms", tracer.ms(first));
            }
        }
        "execute" => {
            let db = &input.database;
            let (whole, (plan, _)) = tracer.span("adaptive.plan_and_execute", parent, true, || {
                layers::plan_and_execute(db, decoded)
            });
            children += tracer.ms(whole);
            // The same plan again, first through the adaptive executor
            // alone, then through the bare joins alone.
            let (adaptive, _) = tracer.span("adaptive.execute", Some(whole), true, || {
                layers::execute_adaptive(db, &plan, decoded)
            });
            let (joins, _) = tracer.span("relation.join", Some(adaptive), true, || {
                layers::execute_static(&plan, db)
            });
            row.insert("adaptive.plan_ms", tracer.ms(whole) - tracer.ms(adaptive));
            row.insert("adaptive.execute_ms", tracer.ms(adaptive));
            row.insert("adaptive.self_ms", tracer.ms(adaptive) - tracer.ms(joins));
            row.insert("relation.join_ms", tracer.ms(joins));
        }
        "optimize" => {
            let timeout_ms = request
                .timeout_ms
                .expect("ladder requests carry a deadline");
            let (id, run) = tracer.span("core.ladder", parent, true, || {
                layers::ladder(&input.database, decoded.space, timeout_ms)
            });
            row.insert("core.ladder_ms", tracer.ms(id));
            children += tracer.ms(id);
            // Rungs run one after the other from the ladder's start.
            let mut at = tracer.spans[id].start;
            for (rung, took) in &run.rungs {
                let (span, metric, _) = RUNGS
                    .into_iter()
                    .find(|(name, _, _)| name == rung)
                    .unwrap_or_else(|| panic!("unknown rung {rung:?}"));
                tracer.derived(span, id, at, *took);
                at += *took;
                *row.entry(metric).or_insert(0.0) += took.as_secs_f64() * 1000.0;
            }
            let answering = run
                .rungs
                .last()
                .map_or(0.0, |(_, t)| t.as_secs_f64() * 1000.0);
            row.insert("rung_useful_ms", answering);
        }
        other => panic!("no probes for op {other:?}"),
    }
    children
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(workload) = value("--workload").and_then(|w| Workload::parse(w)) else {
        eprintln!("usage: bench_trace --workload W [--seed N] --out FILE");
        return ExitCode::from(2);
    };
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let Some(out) = value("--out") else {
        eprintln!("bench_trace: --out FILE is required");
        return ExitCode::from(2);
    };

    let generator = Generator::new(workload, seed);
    let cached_path = workload == Workload::HotRepeat;
    // The workload's warm-up first, untraced, exactly as the daemon gets it
    // before the timed phase (for `hot_repeat`: the whole pool once, cold).
    let mut untraced = Tracer::new();
    for index in 0..workload.warmup() as u64 {
        replay(&mut untraced, &generator.request(index).line, cached_path);
    }
    let mut tracer = Tracer::new();

    let mut rows: Vec<Row> = Vec::new();
    for index in workload.traced() {
        let request = generator.request(index);
        tracer.request = index;
        rows.push(replay(&mut tracer, &request.line, cached_path));
    }

    // Means per traced request, by per-layer metric name.
    let total = |key: &str| rows.iter().filter_map(|r| r.get(key)).sum::<f64>();
    let keys: std::collections::BTreeSet<&str> =
        rows.iter().flat_map(|r| r.keys().copied()).collect();
    let mut summary: Vec<(String, Json)> = keys
        .iter()
        .map(|key| (key.to_string(), Json::Num(total(key) / rows.len() as f64)))
        .collect();
    // The answering rung's share of all ladder time: what the rungs above
    // it burnt is the rest.
    if total("core.ladder_ms") > 0.0 {
        let useful = total("rung_useful_ms") / total("core.ladder_ms");
        summary.push(("core.rung_useful_share".into(), Json::Num(useful)));
    }

    let ns = |d: Duration| Json::Int(d.as_nanos() as u64);
    let spans: Vec<Json> = tracer
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj(vec![
                ("id", Json::Int(id as u64)),
                ("name", Json::Str(s.name.into())),
                ("request", Json::Int(s.request)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("start_ns", ns(s.start)),
                ("end_ns", ns(s.end)),
                ("probe", Json::Bool(s.probe)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Int(seed)),
        ("requests", Json::Int(rows.len() as u64)),
        ("summary", Json::Obj(summary)),
        ("spans", Json::Arr(spans)),
    ]);
    if let Err(e) = std::fs::write(out, doc.compact()) {
        eprintln!("bench_trace: {out}: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
