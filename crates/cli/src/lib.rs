//! Command-line interface to the `mjoin` analyzer.
//!
//! The binary (`mjoin`) reads a plain-text database description and runs
//! the paper's machinery over it:
//!
//! ```text
//! mjoin analyze    db.mj            # conditions, theorems, safe space
//! mjoin optimize   db.mj [SPACE]    # best plan in a search space
//! mjoin cost       db.mj "EXPR"     # explain a hand-written strategy
//! mjoin conditions db.mj            # condition report with witnesses
//! ```
//!
//! # Database file format
//!
//! ```text
//! # comments start with '#'
//! relation AB          # a scheme spec (single letters, or "a,b,c")
//! 1 10                 # rows: whitespace-separated values; integers
//! 2 20                 # when they parse, strings otherwise
//!
//! relation BC
//! 10 hello
//!
//! fd B -> C            # optional functional dependencies
//! ```
//!
//! All functionality lives in this library so it can be tested; the binary
//! is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod serve;

pub use serve::MjoinEngine;

use std::fmt::Write as _;
use std::time::Duration;

use mjoin::{
    analyze_guarded, failpoints, optimize_robust, try_optimize, BrownoutLevel, Budget,
    CardinalityOracle, Condition, Database, ExactOracle, Guard, MjoinError, SearchSpace, Strategy,
    Value,
};
use mjoin_fd::FdSet;
use mjoin_hypergraph::{DbScheme, JoinTree};
use mjoin_obs::{Json, Recorder, RunReport};
use mjoin_relation::{AttrSet, Catalog, Relation, RelationError};

/// A parsed input file: the database plus any declared FDs and
/// statistics.
#[derive(Clone, Debug)]
pub struct Input {
    /// The database (states may be empty when only statistics are given).
    pub database: Database,
    /// Declared functional dependencies (possibly empty).
    pub fds: FdSet,
    /// Declared per-relation cardinality estimates (`relation AB 1000`).
    pub cards: Vec<Option<u64>>,
    /// Declared attribute domain sizes (`domain B 50`).
    pub domains: Vec<(String, u64)>,
}

/// CLI errors, as display-ready strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parses the database file format described in the crate docs.
pub fn parse_input(text: &str) -> Result<Input, CliError> {
    let mut catalog = Catalog::new();
    let mut specs: Vec<String> = Vec::new();
    let mut cards: Vec<Option<u64>> = Vec::new();
    let mut rows: Vec<Rows> = Vec::new();
    let mut fd_specs: Vec<String> = Vec::new();
    let mut domains: Vec<(String, u64)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(spec) = line.strip_prefix("relation ") {
            let mut parts = spec.split_whitespace();
            let name = parts.next().unwrap_or("").to_string();
            let card = match parts.next() {
                Some(tok) => Some(tok.parse::<u64>().map_err(|_| {
                    CliError(format!("line {}: bad cardinality {tok:?}", lineno + 1))
                })?),
                None => None,
            };
            specs.push(name);
            cards.push(card);
            rows.push(Rows::default());
        } else if let Some(fd) = line.strip_prefix("fd ") {
            fd_specs.push(fd.trim().to_string());
        } else if let Some(dom) = line.strip_prefix("domain ") {
            let mut parts = dom.split_whitespace();
            let (Some(attr), Some(size)) = (parts.next(), parts.next()) else {
                return err(format!("line {}: expected 'domain ATTR SIZE'", lineno + 1));
            };
            let size = size
                .parse::<u64>()
                .map_err(|_| CliError(format!("line {}: bad domain size {size:?}", lineno + 1)))?;
            domains.push((attr.to_string(), size));
        } else {
            let Some(current) = rows.last_mut() else {
                return err(format!(
                    "line {}: row before any 'relation' header",
                    lineno + 1
                ));
            };
            current.push_row(line.split_whitespace().map(|tok| match tok.parse::<i64>() {
                Ok(i) => Value::Int(i),
                Err(_) => Value::str(tok),
            }));
        }
    }
    if specs.is_empty() {
        return err("no relations declared (expected 'relation <SCHEME>' lines)");
    }

    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let scheme = DbScheme::parse(&mut catalog, &spec_refs)
        .map_err(|e| CliError(format!("bad scheme: {e}")))?;
    let states = rows
        .into_iter()
        .enumerate()
        .map(|(i, rs)| {
            rs.into_relation(scheme.scheme(i))
                .map_err(|e| CliError(format!("relation {}: {e}", specs[i])))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fd_refs: Vec<&str> = fd_specs.iter().map(String::as_str).collect();
    let fds = if fd_refs.is_empty() {
        FdSet::new()
    } else {
        FdSet::parse(&mut catalog, &fd_refs)
    };
    Ok(Input {
        database: Database::new(catalog, scheme, states),
        fds,
        cards,
        domains,
    })
}

/// One relation's rows as [`parse_input`] reads them: every cell appended
/// to one row-major buffer. The scheme, and so the arity, is known only
/// once every header is read, so the row widths are checked at the end:
/// all rows are as wide as the first, except the first row that is not.
#[derive(Default)]
struct Rows {
    values: Vec<Value>,
    len: usize,
    first_width: usize,
    /// The width of the first row whose width differs from the first's.
    odd_width: Option<usize>,
}

impl Rows {
    fn push_row(&mut self, cells: impl Iterator<Item = Value>) {
        let start = self.values.len();
        self.values.extend(cells);
        let width = self.values.len() - start;
        if self.len == 0 {
            self.first_width = width;
        } else if width != self.first_width && self.odd_width.is_none() {
            self.odd_width = Some(width);
        }
        self.len += 1;
    }

    /// The relation over `scheme` holding these rows.
    ///
    /// # Errors
    /// [`RelationError::ArityMismatch`] for the first row whose width is
    /// not the scheme's arity.
    fn into_relation(self, scheme: AttrSet) -> Result<Relation, RelationError> {
        let expected = scheme.len();
        let bad = if self.len > 0 && self.first_width != expected {
            Some(self.first_width)
        } else {
            self.odd_width
        };
        if let Some(got) = bad {
            return Err(RelationError::ArityMismatch { expected, got });
        }
        Ok(Relation::from_row_major(scheme, self.len, self.values))
    }
}

/// The synthetic cardinality model over `scheme`, whose relation `i` is
/// the input's relation `tables[i]`: base cardinalities come from the
/// declared statistics (else the actual state size, else 1000), domains
/// from declared `domain` lines (default 100).
fn synthetic_model(
    input: &Input,
    scheme: &DbScheme,
    tables: &[usize],
) -> Result<mjoin::SyntheticOracle, MjoinError> {
    let db = &input.database;
    let bases: Vec<u64> = tables
        .iter()
        .map(|&i| {
            input.cards[i].unwrap_or(match db.state(i).tau() {
                0 => 1000,
                t => t,
            })
        })
        .collect();
    let mut oracle = mjoin::SyntheticOracle::try_new(scheme.clone(), bases, 100)?;
    for (name, size) in &input.domains {
        let Some(attr) = db.catalog().lookup(name) else {
            return Err(MjoinError::InvalidScheme(format!(
                "domain declared for unknown attribute {name:?}"
            )));
        };
        if *size == 0 {
            return Err(MjoinError::InvalidScheme(format!(
                "domain size for {name:?} must be ≥ 1"
            )));
        }
        oracle.try_set_domain(attr.index(), *size)?;
    }
    Ok(oracle)
}

/// The `estimate` command's model: `synthetic_model` over the whole
/// input.
pub fn synthetic_oracle(input: &Input) -> Result<mjoin::SyntheticOracle, CliError> {
    let tables: Vec<usize> = (0..input.database.len()).collect();
    synthetic_model(input, input.database.scheme(), &tables).map_err(|e| match e {
        MjoinError::InvalidScheme(msg) => CliError(msg),
        e => CliError(e.to_string()),
    })
}

/// Resource-governance options stripped from the command line before
/// command dispatch.
#[derive(Clone, Debug, Default)]
pub struct GuardOptions {
    /// Wall-clock deadline (`--timeout-ms N`).
    pub timeout_ms: Option<u64>,
    /// Optimizer memo-entry cap (`--max-memo-entries N`).
    pub max_memo_entries: Option<u64>,
    /// Intermediate-tuple cap (`--max-tuples N`).
    pub max_tuples: Option<u64>,
    /// Fault-injection sites to arm (`--fail-inject a,b`).
    pub fail_inject: Vec<String>,
    /// Worker threads for hash joins (`--threads N`); plan search is
    /// sequential.
    pub threads: Option<usize>,
    /// Append a human-readable metrics table to the output (`--metrics`).
    pub metrics: bool,
    /// Write the machine-readable run report here (`--metrics-json PATH`).
    pub metrics_json: Option<String>,
    /// Persistent optimizer store path (`--store PATH`): `optimize`
    /// warm-starts from a matching entry and saves cold results back;
    /// `serve` warm-starts its plan cache and snapshots on drain.
    pub store: Option<String>,
}

impl GuardOptions {
    /// Is any budget limit set (deadline or cap)?
    pub fn is_limited(&self) -> bool {
        self.timeout_ms.is_some() || self.max_memo_entries.is_some() || self.max_tuples.is_some()
    }

    /// Did the invocation ask for metrics in any form?
    pub fn wants_metrics(&self) -> bool {
        self.metrics || self.metrics_json.is_some()
    }

    /// The corresponding [`Budget`].
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_memo_entries {
            b = b.with_max_memo_entries(n);
        }
        if let Some(n) = self.max_tuples {
            b = b.with_max_tuples(n);
        }
        b
    }

    /// The effective hash-join worker count: the `--threads` flag, else
    /// the `MJOIN_THREADS` environment variable, else 1. The joins clamp
    /// it to the host's cores. Output does not depend on it.
    pub fn threads(&self) -> usize {
        self.threads
            .or_else(|| std::env::var("MJOIN_THREADS").ok()?.parse().ok())
            .unwrap_or(1)
            .max(1)
    }
}

/// A scan over `--flag value` / `--flag=value` arguments: each argument
/// splits at its first `=`, and a flag that takes a value reads it from
/// the inline part, else from the next argument.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

/// One scanned argument: the whole text, and its parts around the `=`.
struct Flag<'a> {
    arg: &'a String,
    name: &'a str,
    inline: Option<&'a str>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter() }
    }

    fn next_flag(&mut self) -> Option<Flag<'a>> {
        let arg = self.args.next()?;
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        Some(Flag { arg, name, inline })
    }

    fn value(&mut self, flag: &Flag<'a>) -> Result<String, CliError> {
        flag.inline
            .or_else(|| self.args.next().map(String::as_str))
            .map(str::to_string)
            .ok_or_else(|| CliError(format!("flag {} requires a value", flag.name)))
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &Flag<'a>) -> Result<T, CliError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| CliError(format!("flag {}: bad number {v:?}", flag.name)))
    }
}

/// Splits `--timeout-ms`, `--max-memo-entries`, `--max-tuples`,
/// `--fail-inject`, `--threads`, `--metrics` and `--metrics-json` (both
/// `--flag value` and `--flag=value` forms) out of `args`, returning the
/// remaining positional arguments and the parsed options.
pub fn parse_guard_flags(args: &[String]) -> Result<(Vec<String>, GuardOptions), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = GuardOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.name {
            "--timeout-ms" => opts.timeout_ms = Some(flags.number(&flag)?),
            "--threads" => {
                let n: u64 = flags.number(&flag)?;
                if n == 0 {
                    return err("flag --threads: thread count must be ≥ 1");
                }
                opts.threads = Some(n as usize);
            }
            "--max-memo-entries" => opts.max_memo_entries = Some(flags.number(&flag)?),
            "--max-tuples" => opts.max_tuples = Some(flags.number(&flag)?),
            "--metrics" => opts.metrics = true,
            "--metrics-json" => opts.metrics_json = Some(flags.value(&flag)?),
            "--store" => opts.store = Some(flags.value(&flag)?),
            "--fail-inject" => {
                for site in flags.value(&flag)?.split(',').filter(|s| !s.is_empty()) {
                    if !failpoints::is_known(site) {
                        return err(format!(
                            "unknown fault-injection site {site:?} (known: {})",
                            failpoints::SITES.join(", ")
                        ));
                    }
                    opts.fail_inject.push(site.to_string());
                }
            }
            _ => rest.push(flag.arg.clone()),
        }
    }
    Ok((rest, opts))
}

/// The SPACE argument of a command or request; absent means the full space.
fn parse_space(s: Option<&str>) -> Result<SearchSpace, CliError> {
    let Some(s) = s else {
        return Ok(SearchSpace::All);
    };
    match s {
        "all" => Ok(SearchSpace::All),
        "linear" => Ok(SearchSpace::Linear),
        "nocp" | "no-cartesian" => Ok(SearchSpace::NoCartesian),
        "linear-nocp" | "linear-no-cartesian" => Ok(SearchSpace::LinearNoCartesian),
        "avoid" | "avoid-cartesian" => Ok(SearchSpace::AvoidCartesian),
        other => err(format!(
            "unknown search space {other:?} (expected all | linear | nocp | linear-nocp | avoid)"
        )),
    }
}

/// The answer to a [`Request`]: exactly the text the command prints, plus
/// the structured pieces the serve daemon, the store and the metrics
/// sections reuse.
#[derive(Clone, Debug, Default)]
pub struct Response {
    /// The report text, byte-identical to the command's output.
    pub text: String,
    /// The plan's τ, when one was costed within budget.
    pub cost: Option<u64>,
    /// The daemon's structured fields: `cost`, a query's `join_edges` and
    /// `filters`, a ladder run's `rung` and `optimal`, a pinned
    /// `brownout`, an execution's `result_tuples`.
    pub extra: Vec<(&'static str, Json)>,
    /// `optimize`/`query`: the winning plan, which the store saves.
    pub plan: Option<mjoin::Plan>,
    /// Ladder runs only: the degradation ladder's full result.
    pub robust: Option<mjoin::RobustPlan>,
    /// `execute` only: the stage-by-stage trace.
    pub trace: Option<mjoin_adaptive::ExecutionTrace>,
}

/// Renders a degradation-ladder result — the one rendering of a budgeted or
/// browned-out answer. A pinned brownout `level` adds exactly a `brownout:`
/// line naming it, so a degraded answer can never be mistaken for a
/// full-ladder one.
fn ladder_outcome(
    db: &Database,
    space: SearchSpace,
    r: mjoin::RobustPlan,
    level: BrownoutLevel,
) -> Response {
    let costed = r.plan.cost != u64::MAX;
    let mut text = String::new();
    let _ = writeln!(text, "search space: {space:?}");
    let _ = writeln!(
        text,
        "plan: {}",
        r.plan.strategy.render(db.catalog(), db.scheme())
    );
    if costed {
        let _ = writeln!(text, "τ = {}", r.plan.cost);
    } else {
        let _ = writeln!(text, "τ = (not costed within budget)");
    }
    let _ = writeln!(text, "degradation: {}", r.report);
    if level != BrownoutLevel::Normal {
        let _ = writeln!(text, "brownout: {level}");
    }
    Response {
        text,
        cost: costed.then_some(r.plan.cost),
        plan: Some(r.plan.clone()),
        robust: Some(r),
        ..Response::default()
    }
}

/// Renders an unbudgeted search's result — the one rendering of a plain
/// plan: the search-space header (with `model`, a note naming a synthetic
/// cardinality model, or empty) and the plan explained against `oracle`,
/// or the empty-space line.
fn plan_outcome<O: CardinalityOracle>(
    plan: Option<mjoin::Plan>,
    space: SearchSpace,
    model: &str,
    catalog: &Catalog,
    oracle: &O,
) -> Response {
    let mut text = String::new();
    match &plan {
        Some(plan) => {
            let _ = writeln!(text, "search space: {space:?}{model}");
            let _ = writeln!(text, "{}", plan.explain(catalog, oracle));
        }
        None => {
            let _ = writeln!(
                text,
                "search space {space:?} is empty for this (unconnected) scheme"
            );
        }
    }
    Response {
        text,
        cost: plan.as_ref().map(|p| p.cost),
        plan,
        ..Response::default()
    }
}

/// Runs the `optimize` command's planning paths — degradation ladder or
/// the space's DP — and renders the report. Shared by the
/// CLI and the serve daemon so a served plan is byte-identical to the
/// CLI's.
///
/// Any budget limit, or a server-pinned brownout `level` other than
/// `Normal`, runs the ladder — which always answers with some valid
/// strategy and reports which rung produced it — from the level's entry
/// rung under the level's tightened budget, so a browned-out answer is
/// cheap to find by construction.
pub fn optimize_outcome(
    db: &Database,
    space: SearchSpace,
    gopts: &GuardOptions,
    level: BrownoutLevel,
) -> Result<Response, MjoinError> {
    let threads = gopts.threads();
    let full = db.scheme().full_set();
    if gopts.is_limited() || level != BrownoutLevel::Normal {
        let budget = level.apply(gopts.budget());
        let r = optimize_robust(db, full, space, budget, None, threads, level.entry_rung())?;
        return Ok(ladder_outcome(db, space, r, level));
    }
    let guard = Guard::new(gopts.budget());
    let oracle = ExactOracle::with_guard(db, guard.clone()).with_join_threads(threads);
    let plan = try_optimize(&oracle, full, space, &guard)?;
    Ok(plan_outcome(plan, space, "", db.catalog(), &oracle))
}

/// The `estimate` command's model restricted to a lowered query's tables
/// (`synthetic_model` over its sub-scheme). Filter selectivities are
/// *not* folded here; call
/// [`LoweredQuery::fold_into`](mjoin::LoweredQuery::fold_into) for the
/// selectivity-aware model (tests compare both).
pub fn query_synthetic_oracle(
    input: &Input,
    lowered: &mjoin::LoweredQuery,
) -> Result<mjoin::SyntheticOracle, MjoinError> {
    synthetic_model(input, lowered.database.scheme(), &lowered.table_map)
}

/// One `optimize`, `query` or `execute` request, parsed once: the input,
/// the search space, and for `query` the lowered query. [`Request::key`]
/// is its store and plan-cache key, [`Request::respond`] its answer. The
/// CLI and the serve daemon both build one with [`Request::new`], so a
/// served answer is the CLI's by construction.
pub struct Request {
    input: Input,
    /// The SPACE argument as given, which the key hashes.
    space_name: Option<String>,
    space: SearchSpace,
    op: Op,
}

/// What a [`Request`] plans beyond its input and space.
enum Op {
    Optimize,
    Query {
        lowered: Box<mjoin::LoweredQuery>,
        /// The canonical query text, which the key hashes.
        rendered: String,
    },
    Execute {
        estimation: mjoin_adaptive::Estimation,
        replan_threshold: f64,
    },
}

impl Request {
    /// Builds the `op` request over an already-parsed `input`: `query` is
    /// a `query` op's DSL text and `space` the SPACE argument. `execute`
    /// plans under the synthetic model and never re-plans. A bad space or
    /// op is `InvalidScheme`, a bad query `InvalidQuery`.
    pub fn new(
        op: &str,
        input: Input,
        query: Option<&str>,
        space: Option<&str>,
    ) -> Result<Request, MjoinError> {
        let parsed = parse_space(space).map_err(|e| MjoinError::InvalidScheme(e.0))?;
        let op = match op {
            "optimize" => Op::Optimize,
            "query" => {
                let sql = query.ok_or_else(|| {
                    MjoinError::InvalidQuery("op \"query\" needs a \"query\" field".into())
                })?;
                let query = mjoin::parse_query(sql)?;
                let lowered = Box::new(mjoin::lower(&query, &input.database)?);
                Op::Query {
                    rendered: query.render(),
                    lowered,
                }
            }
            "execute" => Op::Execute {
                estimation: mjoin_adaptive::Estimation::Synthetic,
                replan_threshold: f64::INFINITY,
            },
            other => {
                return Err(MjoinError::InvalidScheme(format!(
                    "unsupported engine op {other:?}"
                )))
            }
        };
        Ok(Request {
            input,
            space_name: space.map(str::to_string),
            space: parsed,
            op,
        })
    }

    /// The `--store` and plan-cache key: the planned database, the SPACE
    /// argument as given, and every option that can change the answer. A
    /// `query` hashes its lowered database and namespaces the space slot
    /// with its canonical text, so it never collides with an `optimize`.
    /// `None` for `execute` (it returns data) and for statistics-only
    /// queries (declared statistics live outside the hashed states).
    pub fn key(&self, gopts: &GuardOptions) -> Option<String> {
        let fingerprint = |db, space: Option<&str>| {
            mjoin::optimize_fingerprint(
                db,
                space,
                gopts.timeout_ms,
                gopts.max_memo_entries,
                gopts.max_tuples,
                gopts.threads(),
            )
        };
        let space = self.space_name.as_deref();
        match &self.op {
            Op::Optimize => Some(fingerprint(&self.input.database, space)),
            Op::Query { lowered, rendered } => lowered.has_rows().then(|| {
                let ns = format!("query|{}|{rendered}", space.unwrap_or(""));
                fingerprint(&lowered.database, Some(&ns))
            }),
            Op::Execute { .. } => None,
        }
    }

    /// Plans (and for `execute`, runs) the request under `gopts`. A
    /// server-pinned brownout `level` other than `Normal` runs the ladder
    /// from the level's entry rung (see [`optimize_outcome`]) and adds a
    /// `brownout` field; statistics-only queries and `execute` ignore it.
    pub fn respond(
        &self,
        gopts: &GuardOptions,
        level: BrownoutLevel,
    ) -> Result<Response, MjoinError> {
        let mut resp = match &self.op {
            Op::Optimize => optimize_outcome(&self.input.database, self.space, gopts, level)?,
            Op::Query { lowered, rendered } => {
                self.query_outcome(lowered, rendered, gopts, level)?
            }
            Op::Execute {
                estimation,
                replan_threshold,
            } => return self.execute(estimation, *replan_threshold, gopts),
        };
        let mut extra = vec![("cost", resp.cost.map(Json::U64).unwrap_or(Json::Null))];
        extra.append(&mut resp.extra);
        if let Some(r) = &resp.robust {
            extra.push(("rung", Json::Str(r.report.answered_by.to_string())));
            extra.push(("optimal", Json::Bool(r.report.optimal)));
        }
        if level != BrownoutLevel::Normal {
            extra.push(("brownout", Json::Str(level.name().to_string())));
        }
        resp.extra = extra;
        Ok(resp)
    }

    /// The `execute` report: plan under `estimation`, run stage by stage,
    /// and trace estimated against actual cardinalities.
    fn execute(
        &self,
        estimation: &mjoin_adaptive::Estimation,
        replan_threshold: f64,
        gopts: &GuardOptions,
    ) -> Result<Response, MjoinError> {
        let db = &self.input.database;
        let config = mjoin_adaptive::AdaptiveConfig {
            space: self.space,
            budget: gopts.budget(),
            threads: gopts.threads(),
            replan_threshold,
            ..mjoin_adaptive::AdaptiveConfig::default()
        };
        let (plan, outcome) = mjoin_adaptive::plan_and_execute(db, estimation, &config)?;
        let mut text = String::new();
        let _ = writeln!(text, "search space: {:?}", self.space);
        let _ = writeln!(
            text,
            "plan: {}",
            plan.strategy.render(db.catalog(), db.scheme())
        );
        if plan.cost == u64::MAX {
            let _ = writeln!(text, "believed τ = (not costed)");
        } else {
            let _ = writeln!(text, "believed τ = {}", plan.cost);
        }
        text.push_str(&outcome.trace.render(db.catalog(), db.scheme()));
        let _ = writeln!(text, "result: {} tuples", outcome.result.tau());
        Ok(Response {
            text,
            extra: vec![("result_tuples", Json::U64(outcome.result.tau()))],
            trace: Some(outcome.trace),
            ..Response::default()
        })
    }

    /// The `query` report: a lowering header (per-table rows before→after
    /// the pushed-down filters, the join edges), then the plan over the
    /// filtered sub-database — via the `optimize` paths when the database
    /// has rows, via the selectivity-folded synthetic model when it is
    /// statistics-only.
    fn query_outcome(
        &self,
        lowered: &mjoin::LoweredQuery,
        rendered: &str,
        gopts: &GuardOptions,
        level: BrownoutLevel,
    ) -> Result<Response, MjoinError> {
        let (input, space) = (&self.input, self.space);
        let has_rows = lowered.has_rows();
        let mut out = String::new();
        let _ = writeln!(out, "query: {rendered}");
        let _ = writeln!(out, "tables:");
        for (pos, name) in lowered.table_names.iter().enumerate() {
            let filters = lowered.filter_counts[pos];
            if !has_rows {
                // Statistics-only input: the states are empty, so report the
                // declared (or defaulted) cardinality the model will use.
                let card = input.cards[lowered.table_map[pos]].unwrap_or(1000);
                if filters == 0 {
                    let _ = writeln!(out, "  {name}: {card} tuples (declared)");
                } else {
                    let _ = writeln!(
                        out,
                        "  {name}: {card} tuples (declared; {} filter{}, selectivity {:.4})",
                        filters,
                        if filters == 1 { "" } else { "s" },
                        lowered.selectivities[pos]
                    );
                }
            } else if filters == 0 {
                let _ = writeln!(out, "  {name}: {} tuples", lowered.base_taus[pos]);
            } else {
                let _ = writeln!(
                    out,
                    "  {name}: {} -> {} tuples ({} filter{}, selectivity {:.4})",
                    lowered.base_taus[pos],
                    lowered.filtered_taus[pos],
                    filters,
                    if filters == 1 { "" } else { "s" },
                    lowered.selectivities[pos]
                );
            }
        }
        if lowered.join_edges.is_empty() {
            let _ = writeln!(
                out,
                "join edges: (none — every pair joins as a Cartesian product)"
            );
        } else {
            let edges: Vec<String> = lowered
                .join_edges
                .iter()
                .map(|e| {
                    format!(
                        "{}~{} on {}",
                        lowered.table_names[e.left], lowered.table_names[e.right], e.attr
                    )
                })
                .collect();
            let _ = writeln!(out, "join edges: {}", edges.join(", "));
        }
        let plan = if has_rows {
            optimize_outcome(&lowered.database, space, gopts, level)?
        } else {
            let mut oracle = query_synthetic_oracle(input, lowered)?;
            lowered.fold_into(&mut oracle)?;
            let guard = Guard::new(gopts.budget());
            let full = lowered.database.scheme().full_set();
            let plan = try_optimize(&oracle, full, space, &guard)?;
            plan_outcome(
                plan,
                space,
                " (synthetic cardinality model, filters folded)",
                lowered.database.catalog(),
                &oracle,
            )
        };
        out.push_str(&plan.text);
        let extra = vec![
            ("join_edges", Json::U64(lowered.join_edges.len() as u64)),
            ("filters", Json::U64(lowered.total_filters() as u64)),
        ];
        Ok(Response {
            text: out,
            extra,
            ..plan
        })
    }
}

/// Answers `req` through `--store`. A store entry under the request's
/// key replays the cold run's response byte for byte, skipping planning
/// entirely; otherwise the request is answered and saved back as a
/// response-only entry (key, plan cost, response text), the shape the
/// serve drain snapshot writes too. Budgeted (ladder) runs are not
/// persisted: their responses carry rung context that a replay could not
/// reproduce faithfully under a changed budget clock. Without `--store`,
/// or for an unkeyed request, it is just [`Request::respond`].
fn plan_through_store(gopts: &GuardOptions, req: &Request) -> Result<Response, CliError> {
    let fail = |e: MjoinError| CliError(e.to_string());
    let store = gopts
        .store
        .as_deref()
        .and_then(|path| Some((std::path::Path::new(path), req.key(gopts)?)));
    if let Some((path, fp)) = &store {
        if path.exists() {
            let loaded = mjoin::LoadedStore::open(path).map_err(fail)?;
            if let Some(entry) = loaded.entry(fp) {
                return Ok(Response {
                    text: entry.response().to_string(),
                    ..Response::default()
                });
            }
        }
    }
    let resp = req.respond(gopts, BrownoutLevel::Normal).map_err(fail)?;
    if let (Some((path, fp)), None) = (store, &resp.robust) {
        let cost = resp.plan.as_ref().map_or(u64::MAX, |p| p.cost);
        let entry = mjoin::StoreEntry::response_only(fp, cost, resp.text.clone());
        mjoin::save_optimize_entry(path, entry).map_err(fail)?;
    }
    Ok(resp)
}

/// Runs a CLI invocation (`args` excludes the program name) against `read`,
/// a file loader — injected so tests run without a filesystem. Returns the
/// full report text.
pub fn run<F>(args: &[String], read: F) -> Result<String, CliError>
where
    F: Fn(&str) -> Result<String, String>,
{
    let usage = "usage: mjoin <analyze|optimize|query|execute|cost|conditions|compare|estimate|dot|show> <db-file> [ARGS] [FLAGS]\n\
                 \n\
                 analyze    DB             conditions, theorems, recommended search space\n\
                 optimize   DB [SPACE]     cheapest plan (SPACE: all | linear | nocp | linear-nocp | avoid)\n\
                 query      DB SQL [SPACE] plan a SQL-ish join query (SELECT * FROM .. WHERE ..);\n\
                 \u{20}                         filters push below the joins; SQL may be @FILE\n\
                 execute    DB [SPACE]     run the best plan stage by stage, tracing est vs actual\n\
                 cost       DB EXPR        explain a strategy, e.g. \"(AB ⋈ BC) ⋈ CD\"\n\
                 conditions DB             per-condition verdicts with violation witnesses\n\
                 compare    DB             every search space and heuristic side by side\n\
                 estimate   DB [SPACE]     plan from declared statistics (relation R CARD / domain A SIZE)\n\
                 dot        DB [SPACE]     best plan as a Graphviz digraph\n\
                 reduce     DB             semijoin-reduce the database (full reducer / fixpoint)\n\
                 show       DB             print every relation state and the join result\n\
                 serve      [FLAGS]        TCP daemon: newline-delimited JSON optimize/execute requests\n\
                 store inspect PATH        dump a persistent store's header and entries\n\
                 failpoints                list every registered fault-injection site\n\
                 \n\
                 serve mode (serve):\n\
                 --addr HOST:PORT          bind address (default 127.0.0.1:7411; port 0 = OS-assigned)\n\
                 --workers N               worker threads draining the queue (default 2)\n\
                 --queue-cap N             admission-queue capacity; beyond it requests are shed (default 64)\n\
                 --max-request-bytes N     per-request size cap (default 1048576)\n\
                 --read-timeout-ms N       per-connection read timeout (default 10000)\n\
                 --max-timeout-ms N        ceiling on any per-request deadline (default 600000)\n\
                 --cache-cap N             plan-cache entry cap, 0 disables (default 256)\n\
                 --shed-retry-ms N         retry-after hint on shed responses (default 50)\n\
                 --shed-retry-jitter-ms N  deterministic jitter window added to the retry hint (default 0)\n\
                 --client-queue-cap N      per-client in-queue quota, 0 = off (default 0)\n\
                 --client-rps N            per-client token-bucket admission rate, 0 = off (default 0)\n\
                 --brownout                degrade-instead-of-shed: pin the ladder entry rung under load\n\
                 --addr-file PATH          write the bound address here once listening\n\
                 \n\
                 persistent store (optimize, query, serve):\n\
                 --store PATH              optimize/query: warm-start from a matching entry, save cold runs;\n\
                 \u{20}                         serve: warm-start the plan cache, snapshot on drain\n\
                 \n\
                 adaptive execution (execute):\n\
                 --adaptive                re-optimize mid-query when a stage's q-error drifts\n\
                 --replan-threshold F      drift trigger, q-error > F (implies --adaptive; default 2)\n\
                 --noise-q F               plan under seeded estimation error within envelope F (≥ 1)\n\
                 --noise-seed N            seed for the injected noise (default 0)\n\
                 \n\
                 resource governance (any command):\n\
                 --timeout-ms N            wall-clock deadline; optimize degrades gracefully\n\
                 --max-memo-entries N      cap on memoized intermediate results\n\
                 --max-tuples N            cap on intermediate tuples generated\n\
                 --threads N               worker threads for hash joins; plan search is sequential\n\
                 \u{20}                         (default: $MJOIN_THREADS or 1)\n\
                 --fail-inject SITE[,..]   arm deterministic fault injection (testing)\n\
                 \n\
                 observability (any command):\n\
                 --metrics                 append a counter/span table to the output\n\
                 --metrics-json PATH       write the machine-readable run report (stable JSON schema)";
    let (args, gopts) = parse_guard_flags(args)?;
    let Some(command) = args.first() else {
        return err(usage);
    };
    if command == "help" || command == "--help" {
        return Ok(usage.to_string());
    }
    if command == "failpoints" {
        // Operator discovery: every injectable site with its owner, so
        // nobody has to read the guard crate to find the names.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "registered failpoint sites ({}):",
            failpoints::SITES.len()
        );
        for (site, doc) in failpoints::SITE_DOCS {
            let _ = writeln!(out, "  {site:<24} {doc}");
        }
        let _ = writeln!(
            out,
            "arm with --fail-inject SITE[,SITE..] or MJOIN_FAIL_INJECT=SITE[,SITE..]"
        );
        return Ok(out);
    }
    // Disarmed on drop, so in-process callers (tests) don't leak armed
    // sites across invocations.
    let _armed: Vec<_> = gopts
        .fail_inject
        .iter()
        .map(|site| failpoints::ScopedFailpoint::arm_process(site))
        .collect();
    if command == "serve" {
        return serve::serve_command(&args[1..], &gopts);
    }
    if command == "store" {
        // Store maintenance needs no database file; handled before the
        // db-file load like the other fileless commands.
        return match args.get(1).map(String::as_str) {
            Some("inspect") => {
                let Some(path) = args.get(2) else {
                    return err("store inspect: missing store PATH");
                };
                let store = mjoin::LoadedStore::open(std::path::Path::new(path))
                    .map_err(|e| CliError(e.to_string()))?;
                Ok(store.inspect(path))
            }
            _ => err("store: expected 'store inspect PATH'"),
        };
    }
    let guard = Guard::new(gopts.budget());
    let fail = |e: mjoin::MjoinError| CliError(e.to_string());
    let Some(path) = args.get(1) else {
        return err(format!("missing database file\n{usage}"));
    };
    let text = read(path).map_err(CliError)?;
    let input = parse_input(&text)?;
    let db = &input.database;
    let mut out = String::new();
    // Armed only on request: without a metrics flag the registry stays
    // disarmed and every instrumentation site is a single relaxed load,
    // so the output (and the work done) is byte-identical to a build
    // without the observability layer.
    let recorder = gopts.wants_metrics().then(Recorder::arm);
    let mut sections: Vec<(&'static str, Json)> = Vec::new();
    // Set by the `optimize`, `query` and `execute` arms, which only parse
    // their arguments; the request is answered after the match.
    let mut planned: Option<Request> = None;

    match command.as_str() {
        "analyze" => {
            let a = analyze_guarded(db, &guard).map_err(fail)?;
            let _ = writeln!(out, "relations: {}", db.len());
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {} ({} tuples)",
                    db.catalog().render(*s),
                    db.state(i).tau()
                );
            }
            let _ = writeln!(out, "connected: {}", a.connected);
            let _ = writeln!(out, "R_D nonempty: {}", a.result_nonempty);
            let _ = writeln!(out, "acyclicity: {:?}", a.acyclicity);
            let _ = writeln!(
                out,
                "conditions: C1={} C1'={} C2={} C3={} C4={}",
                a.conditions.c1,
                a.conditions.c1_strict,
                a.conditions.c2,
                a.conditions.c3,
                a.conditions.c4
            );
            for (name, r) in [
                ("theorem 1", a.theorem1),
                ("theorem 2", a.theorem2),
                ("theorem 3", a.theorem3),
            ] {
                let conclusion = match r.beyond_reach {
                    Some(max) => format!("not checked (n = {} > {max})", db.len()),
                    None => r.conclusion_holds.to_string(),
                };
                let _ = writeln!(
                    out,
                    "{name}: preconditions={} conclusion={conclusion}",
                    r.preconditions_hold
                );
            }
            if !input.fds.is_empty() {
                let _ = writeln!(
                    out,
                    "declared FDs: {} (all joins on superkeys: {})",
                    input.fds.len(),
                    mjoin_fd::all_joins_on_superkeys(db.scheme(), &input.fds)
                );
            }
            let safe = a.safe_search_space();
            let _ = writeln!(out, "recommended search space: {safe:?}");
            if safe == SearchSpace::All && db.len() > mjoin::FULL_SPACE_DP_MAX_RELS {
                let _ = writeln!(
                    out,
                    "plan: not computed (n = {} > {})",
                    db.len(),
                    mjoin::FULL_SPACE_DP_MAX_RELS
                );
            } else {
                let oracle = ExactOracle::with_guard(db, guard.clone());
                if let Some(plan) =
                    try_optimize(&oracle, db.scheme().full_set(), safe, &guard).map_err(fail)?
                {
                    let _ = writeln!(out, "{}", plan.explain(db.catalog(), &oracle));
                }
            }
        }
        "optimize" => {
            let space = args.get(2).map(String::as_str);
            // Validated here for the CLI's own wording of a bad SPACE.
            parse_space(space)?;
            planned = Some(Request::new(command, input, None, space).map_err(fail)?);
        }
        "query" => {
            let Some(raw) = args.get(2) else {
                return err("query requires the DSL text (or @FILE) as its argument");
            };
            let sql = match raw.strip_prefix('@') {
                Some(p) => read(p).map_err(CliError)?,
                None => raw.clone(),
            };
            let space = args.get(3).map(String::as_str);
            parse_space(space)?;
            planned = Some(Request::new(command, input, Some(&sql), space).map_err(fail)?);
        }
        "execute" => {
            let mut space = None;
            let mut adaptive = false;
            let mut noise_q = 1.0f64;
            let mut noise_seed = 0u64;
            let mut threshold: Option<f64> = None;
            let mut flags = Flags::new(&args[2..]);
            while let Some(flag) = flags.next_flag() {
                match flag.name {
                    "--adaptive" => adaptive = true,
                    "--noise-q" => noise_q = flags.number(&flag)?,
                    "--noise-seed" => noise_seed = flags.number(&flag)?,
                    "--replan-threshold" => {
                        adaptive = true;
                        threshold = Some(flags.number(&flag)?);
                    }
                    s if s.starts_with("--") => {
                        return err(format!("execute: unknown flag {s:?}"));
                    }
                    s => {
                        if space.is_some() {
                            return err(format!("execute: unexpected argument {s:?}"));
                        }
                        parse_space(Some(s))?;
                        space = Some(s);
                    }
                }
            }
            if !noise_q.is_finite() || noise_q < 1.0 {
                return err(format!(
                    "flag --noise-q: envelope must be ≥ 1, got {noise_q}"
                ));
            }
            let estimation = if noise_q > 1.0 {
                mjoin_adaptive::Estimation::Noisy {
                    q: noise_q,
                    seed: noise_seed,
                }
            } else {
                mjoin_adaptive::Estimation::Synthetic
            };
            let replan_threshold = if adaptive {
                threshold.unwrap_or(mjoin_adaptive::DEFAULT_REPLAN_THRESHOLD)
            } else {
                f64::INFINITY
            };
            let mut req = Request::new(command, input, None, space).map_err(fail)?;
            req.op = Op::Execute {
                estimation,
                replan_threshold,
            };
            planned = Some(req);
        }
        "cost" => {
            let Some(expr) = args.get(2) else {
                return err("cost requires a strategy expression");
            };
            let strategy = Strategy::parse(expr, db.catalog(), db.scheme())
                .map_err(|e| CliError(e.to_string()))?;
            if strategy.set() != db.scheme().full_set() {
                return err("the strategy must mention every relation exactly once");
            }
            let oracle = ExactOracle::with_guard(db, guard.clone());
            let cost = strategy.try_cost(&oracle).map_err(fail)?;
            let plan = mjoin::Plan { strategy, cost };
            let _ = writeln!(out, "{}", plan.explain(db.catalog(), &oracle));
            let Some(best) =
                try_optimize(&oracle, db.scheme().full_set(), SearchSpace::All, &guard)
                    .map_err(fail)?
            else {
                return err("the full search space cannot be empty");
            };
            let _ = writeln!(
                out,
                "global optimum: τ = {} ({})",
                best.cost,
                if best.cost == cost {
                    "this strategy is τ-optimum".to_string()
                } else {
                    format!(
                        "this strategy is {:.2}× worse",
                        cost as f64 / best.cost as f64
                    )
                }
            );
        }
        "estimate" => {
            let space = parse_space(args.get(2).map(String::as_str))?;
            let oracle = synthetic_oracle(&input)?;
            let plan =
                try_optimize(&oracle, db.scheme().full_set(), space, &guard).map_err(fail)?;
            let model = " (synthetic cardinality model)";
            out.push_str(&plan_outcome(plan, space, model, db.catalog(), &oracle).text);
        }
        "dot" => {
            let space = parse_space(args.get(2).map(String::as_str))?;
            let oracle = ExactOracle::with_guard(db, guard.clone());
            let Some(plan) =
                try_optimize(&oracle, db.scheme().full_set(), space, &guard).map_err(fail)?
            else {
                return err(format!("search space {space:?} is empty for this scheme"));
            };
            let _ = write!(out, "{}", plan.strategy.to_dot(db.catalog(), db.scheme()));
        }
        "compare" => {
            let oracle = ExactOracle::with_guard(db, guard.clone());
            let full = db.scheme().full_set();
            let Some(best) = try_optimize(&oracle, full, SearchSpace::All, &guard).map_err(fail)?
            else {
                return err("the full search space cannot be empty");
            };
            let best = best.cost;
            let _ = writeln!(out, "{:<22} {:>8}  {:>7}  plan", "planner", "τ", "vs best");
            let mut report = |name: &str, plan: Option<mjoin::Plan>| match plan {
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "{:<22} {:>8}  {:>6.2}x  {}",
                        name,
                        p.cost,
                        p.cost as f64 / best.max(1) as f64,
                        p.strategy.render(db.catalog(), db.scheme())
                    );
                }
                None => {
                    let _ = writeln!(out, "{name:<22} {:>8}  {:>7}  (space is empty)", "-", "-");
                }
            };
            report(
                "exhaustive (all)",
                try_optimize(&oracle, full, SearchSpace::All, &guard).map_err(fail)?,
            );
            report(
                "linear",
                try_optimize(&oracle, full, SearchSpace::Linear, &guard).map_err(fail)?,
            );
            report(
                "no-cartesian",
                try_optimize(&oracle, full, SearchSpace::NoCartesian, &guard).map_err(fail)?,
            );
            report(
                "linear no-cartesian",
                try_optimize(&oracle, full, SearchSpace::LinearNoCartesian, &guard)
                    .map_err(fail)?,
            );
            report(
                "avoid-cartesian",
                try_optimize(&oracle, full, SearchSpace::AvoidCartesian, &guard).map_err(fail)?,
            );
            report(
                "ikkbz (tree queries)",
                mjoin_optimizer::try_ikkbz(&oracle, full, &guard).map_err(fail)?,
            );
            report(
                "linearized dp",
                mjoin_optimizer::try_lindp(&oracle, full, &guard).map_err(fail)?,
            );
            report(
                "partitioned dpccp",
                mjoin_optimizer::try_partitioned_dp(&oracle, full, &guard).map_err(fail)?,
            );
            report(
                "greedy bushy",
                Some(mjoin_optimizer::try_greedy_bushy(&oracle, full, &guard).map_err(fail)?),
            );
            report(
                "greedy linear",
                Some(mjoin_optimizer::try_greedy_linear(&oracle, full, &guard).map_err(fail)?),
            );
            let bp = mjoin::best_bottleneck(&oracle, full);
            let _ = writeln!(
                out,
                "{:<22} {:>8}  {:>7}  {}   (cost shown = largest intermediate)",
                "min-bottleneck",
                bp.cost,
                "-",
                bp.strategy.render(db.catalog(), db.scheme())
            );
        }
        "reduce" => {
            let before: Vec<u64> = (0..db.len()).map(|i| db.state(i).tau()).collect();
            let (reduced, stats) = match JoinTree::build(db.scheme()) {
                Some(tree) => {
                    let (reduced, stats) =
                        mjoin_semijoin::try_full_reduce_with_stats(db, &tree, 0, &guard)
                            .map_err(fail)?;
                    let _ = writeln!(out, "full reducer (α-acyclic scheme, root {})", 0);
                    (reduced, Some(stats))
                }
                None => {
                    let reduced = mjoin_semijoin::try_pairwise_consistent_fixpoint(db, &guard)
                        .map_err(fail)?;
                    let _ = writeln!(out, "pairwise-consistency fixpoint (cyclic scheme)");
                    (reduced, None)
                }
            };
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{}: {} -> {} tuples",
                    db.catalog().render(*s),
                    before[i],
                    reduced.state(i).tau()
                );
            }
            if let Some(stats) = stats {
                let _ = writeln!(
                    out,
                    "semijoins: {}, tuples removed: {}, tuples scanned: {}",
                    stats.semijoins, stats.tuples_removed, stats.tuples_scanned
                );
            }
        }
        "show" => {
            for (i, s) in db.scheme().schemes().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "-- {} ({} tuples)",
                    db.catalog().render(*s),
                    db.state(i).tau()
                );
                let _ = writeln!(out, "{}", db.state(i).to_text(db.catalog()));
                let _ = writeln!(out);
            }
            let oracle = ExactOracle::with_guard(db, guard.clone());
            let result = oracle.try_relation(db.scheme().full_set()).map_err(fail)?;
            let _ = writeln!(
                out,
                "-- R_D = join of all relations ({} tuples)",
                result.tau()
            );
            let _ = writeln!(out, "{}", result.to_text(db.catalog()));
        }
        "conditions" => {
            let oracle = ExactOracle::with_guard(db, guard.clone());
            for cond in [
                Condition::C1,
                Condition::C1Strict,
                Condition::C2,
                Condition::C3,
                Condition::C4,
            ] {
                if let Some(e) = oracle.tripped() {
                    return Err(fail(e.clone()));
                }
                match mjoin::first_violation(&oracle, cond) {
                    None => {
                        let _ = writeln!(out, "{cond}: holds");
                    }
                    Some(v) => {
                        let witness: Vec<String> = v
                            .witness
                            .iter()
                            .map(|&w| db.scheme().render(db.catalog(), w))
                            .collect();
                        let _ = writeln!(
                            out,
                            "{cond}: VIOLATED at {} — {}",
                            witness.join(", "),
                            v.detail
                        );
                    }
                }
            }
            if let Some(e) = oracle.tripped() {
                return Err(fail(e.clone()));
            }
        }
        other => return err(format!("unknown command {other:?}\n{usage}")),
    }
    // Set by a ladder run (`optimize`/`query` under a budget).
    let mut ladder = None;
    if let Some(req) = planned {
        let resp = plan_through_store(&gopts, &req)?;
        out.push_str(&resp.text);
        if let (Some(trace), Some(_)) = (&resp.trace, &recorder) {
            let db = &req.input.database;
            sections.push(("adaptive", trace.to_section(db.catalog(), db.scheme())));
        }
        ladder = resp.robust;
    }
    if let Some(rec) = recorder {
        let snapshot = rec.snapshot();
        drop(rec);
        if let Some(r) = &ladder {
            sections.push(("degradation", mjoin::degradation_section(&r.report)));
        }
        let mut report = RunReport::new(command, gopts.threads(), snapshot);
        for (name, value) in sections {
            report = report.with_section(name, value);
        }
        if gopts.metrics {
            out.push_str(&report.to_table());
        }
        if let Some(path) = &gopts.metrics_json {
            let text = mjoin::render_run_report(&report).map_err(fail)?;
            std::fs::write(path, text)
                .map_err(|e| CliError(format!("--metrics-json {path}: {e}")))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Example 4 from the paper
relation GS
Hockey Mokhtar
Tennis Mokhtar
Tennis Lin

relation SC
Mokhtar Lang22
Mokhtar Lit104
Mokhtar Phy101
Lin Phy101
Lin Hist103
Lin Psch123
Katina Lang22
Katina Lit104
Katina Phy101
Sundram Phy101
Sundram Lang22
Sundram Hist103

relation CL
Phy101 Fermi
Lang22 Chomsky
";

    fn fake_fs(path: &str) -> Result<String, String> {
        if path == "db.mj" {
            Ok(SAMPLE.to_string())
        } else {
            Err(format!("no such file: {path}"))
        }
    }

    fn run_ok(args: &[&str]) -> String {
        run(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            fake_fs,
        )
        .expect("command succeeds")
    }

    #[test]
    fn parse_input_shapes() {
        let input = parse_input(SAMPLE).unwrap();
        assert_eq!(input.database.len(), 3);
        assert_eq!(input.database.state(0).tau(), 3);
        assert_eq!(input.database.state(1).tau(), 12);
        assert!(input.fds.is_empty());
    }

    #[test]
    fn parse_input_with_fds_and_ints() {
        let text = "relation AB\n1 10\n2 20\nrelation BC\n10 5\nfd B -> C\n";
        let input = parse_input(text).unwrap();
        assert_eq!(input.fds.len(), 1);
        assert_eq!(input.database.state(0).tau(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_input("").is_err());
        assert!(parse_input("1 2 3\n").is_err()); // row before relation
        assert!(parse_input("relation AB\n1\n").is_err()); // arity mismatch
    }

    /// The rows of relation `i`, as parsed.
    fn rows_of(input: &Input, i: usize) -> Vec<Vec<Value>> {
        input
            .database
            .state(i)
            .rows()
            .map(<[Value]>::to_vec)
            .collect()
    }

    #[test]
    fn a_bad_row_after_good_ones_names_its_relation() {
        let e = parse_input("relation AB\n1 2\nrelation BC\n2 3\n4 5\n6\n7 8\n").unwrap_err();
        assert_eq!(
            e.0,
            "relation BC: row has 1 values but scheme has 2 attributes"
        );
        let e = parse_input("relation AB\n1 2\n3 4 5\n").unwrap_err();
        assert_eq!(
            e.0,
            "relation AB: row has 3 values but scheme has 2 attributes"
        );
    }

    #[test]
    fn rows_take_comments_tabs_and_the_integer_extremes() {
        let text = format!(
            "relation AB\n1 2 # 3 is a comment\n\t4\t5\t \r\n{} {}\n-0 +7\n",
            i64::MIN,
            i64::MAX
        );
        let int = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        assert_eq!(
            rows_of(&parse_input(&text).unwrap(), 0),
            [int(i64::MIN, i64::MAX), int(0, 7), int(1, 2), int(4, 5)]
        );
    }

    #[test]
    fn cells_that_are_not_i64_are_strings() {
        let text = "relation AB\nx -y\n9223372036854775808 é\n中\u{3000}文\n";
        let strs = |a: &str, b: &str| vec![Value::str(a), Value::str(b)];
        assert_eq!(
            rows_of(&parse_input(text).unwrap(), 0),
            [
                strs("9223372036854775808", "é"),
                strs("x", "-y"),
                strs("中", "文")
            ]
        );
    }

    #[test]
    fn rows_come_out_sorted_and_deduplicated() {
        let input = parse_input("relation AB\n3 1\n1 2\nb 1\n3 1\n2 a\n1 2\n").unwrap();
        assert_eq!(
            rows_of(&input, 0),
            [
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::str("a")],
                vec![Value::Int(3), Value::Int(1)],
                vec![Value::str("b"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn a_relation_without_rows_is_empty() {
        let input = parse_input("relation AB\n# nothing here\n\nrelation BC\n1 2\n").unwrap();
        assert_eq!(input.database.state(0).tau(), 0);
        assert_eq!(input.database.state(1).tau(), 1);
    }

    #[test]
    fn analyze_reports_unchecked_theorems_beyond_their_reach() {
        let chain40 = include_str!("../../../examples/chain40.mj");
        let args = ["analyze", "chain40.mj"].map(String::from);
        let out = run(&args, |_| Ok(chain40.to_string())).expect("analyze answers");
        assert!(
            out.contains("theorem 1: preconditions=false conclusion=not checked (n = 40 > 8)"),
            "{out}"
        );
        assert!(
            out.contains("theorem 2: preconditions=false conclusion=not checked (n = 40 > 14)"),
            "{out}"
        );
        assert!(
            out.contains("theorem 3: preconditions=false conclusion=not checked (n = 40 > 14)"),
            "{out}"
        );
        assert!(out.ends_with("plan: not computed (n = 40 > 14)\n"), "{out}");
    }

    #[test]
    fn analyze_command() {
        let out = run_ok(&["analyze", "db.mj"]);
        assert!(out.contains("connected: true"));
        assert!(out.contains("C1=false"), "{out}");
        assert!(out.contains("C2=true"), "{out}");
        assert!(out.contains("recommended search space: All"));
    }

    #[test]
    fn optimize_command_spaces() {
        let all = run_ok(&["optimize", "db.mj"]);
        assert!(all.contains("τ = 6 + 5 = 11"), "{all}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp"]);
        assert!(nocp.contains("= 12"), "{nocp}");
        assert!(run(
            &["optimize".into(), "db.mj".into(), "bogus".into()],
            fake_fs
        )
        .is_err());
    }

    #[test]
    fn cost_command_matches_paper() {
        let out = run_ok(&["cost", "db.mj", "(GS ⋈ SC) ⋈ CL"]);
        assert!(out.contains("τ = 9 + 5 = 14"), "{out}");
        assert!(out.contains("1.27× worse"), "{out}");
        let opt = run_ok(&["cost", "db.mj", "(GS ⋈ CL) ⋈ SC"]);
        assert!(opt.contains("τ-optimum"), "{opt}");
    }

    #[test]
    fn execute_command_traces_stages() {
        let out = run_ok(&["execute", "db.mj"]);
        assert!(out.contains("plan: "), "{out}");
        assert!(out.contains("stage 1:"), "{out}");
        assert!(out.contains("executed τ = "), "{out}");
        assert!(out.contains("result: 5 tuples"), "{out}");
        assert!(
            !out.contains("replan"),
            "static run must not re-plan: {out}"
        );
    }

    #[test]
    fn execute_adaptive_without_drift_matches_static_byte_for_byte() {
        // Example 4's synthetic q-errors stay under the default threshold,
        // so the adaptive run never re-plans and its whole report — plan
        // line included — is byte-identical to the static one.
        let stat = run_ok(&["execute", "db.mj"]);
        let adap = run_ok(&["execute", "db.mj", "--adaptive"]);
        assert_eq!(stat, adap);
    }

    #[test]
    fn execute_with_noise_replans_and_names_the_rung() {
        let out = run_ok(&[
            "execute",
            "db.mj",
            "--adaptive",
            "--replan-threshold",
            "1",
            "--noise-q",
            "16",
            "--noise-seed",
            "0",
        ]);
        assert!(out.contains("replan after stage 1"), "{out}");
        assert!(out.contains("answered by"), "{out}");
        assert!(out.contains("result: 5 tuples"), "{out}");
    }

    #[test]
    fn execute_flag_errors_are_reported() {
        let run_err = |args: &[&str]| {
            run(
                &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                fake_fs,
            )
            .unwrap_err()
            .to_string()
        };
        let err = run_err(&["execute", "db.mj", "--bogus"]);
        assert!(err.contains("unknown flag"), "{err}");
        let err = run_err(&["execute", "db.mj", "--noise-q", "0.5"]);
        assert!(err.contains("≥ 1"), "{err}");
        let err = run_err(&["execute", "db.mj", "--replan-threshold", "0.5"]);
        assert!(err.contains("≥ 1"), "{err}");
    }

    #[test]
    fn threads_one_output_is_identical_to_default() {
        // `--threads 1` joins on the calling thread; its output must match
        // the legacy expectations exactly.
        let all = run_ok(&["optimize", "db.mj", "--threads", "1"]);
        assert!(all.contains("τ = 6 + 5 = 11"), "{all}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp", "--threads", "1"]);
        assert!(nocp.contains("= 12"), "{nocp}");
        // And when the environment doesn't override the default, flagless
        // output is byte-identical to `--threads 1`. (Skipped under
        // MJOIN_THREADS, where the default is two join workers — CI's
        // 2-thread suite run.)
        if std::env::var("MJOIN_THREADS").is_err() {
            for space in [None, Some("nocp"), Some("linear"), Some("avoid")] {
                let mut base = vec!["optimize", "db.mj"];
                if let Some(s) = space {
                    base.push(s);
                }
                let mut flagged = base.clone();
                flagged.extend(["--threads", "1"]);
                assert_eq!(run_ok(&base), run_ok(&flagged), "{space:?}");
            }
        }
    }

    #[test]
    fn threads_two_finds_the_same_cost() {
        let seq = run_ok(&["optimize", "db.mj"]);
        let par = run_ok(&["optimize", "db.mj", "--threads", "2"]);
        assert!(par.contains("τ = 6 + 5 = 11"), "{par}");
        assert!(seq.contains("τ = 6 + 5 = 11"), "{seq}");
        let nocp = run_ok(&["optimize", "db.mj", "nocp", "--threads", "4"]);
        assert!(nocp.contains("= 12"), "{nocp}");
        // Plan search is sequential at every thread count, and the join
        // workers build the same τ, so the plan bytes are the same. The
        // 40-chain has equal-cost splits everywhere, so a tie-break
        // difference would show there.
        let chain40 = include_str!("../../../examples/chain40.mj");
        for space in ["nocp", "avoid"] {
            let optimize = |file: &str, threads: &str| {
                let args = ["optimize", file, space, "--threads", threads];
                run(&args.map(String::from), |path| match path {
                    "chain40.mj" => Ok(chain40.to_string()),
                    _ => fake_fs(path),
                })
                .expect("command succeeds")
            };
            for file in ["db.mj", "chain40.mj"] {
                let one = optimize(file, "1");
                for threads in ["2", "4"] {
                    assert_eq!(one, optimize(file, threads), "{file} {space} @{threads}");
                }
            }
        }
    }

    #[test]
    fn threads_sixty_four_prints_what_one_thread_prints() {
        // The join workers are clamped to the host's cores, and a join's
        // result does not depend on how many ran: 64 asks for more than a
        // test host has, and the output is the one-thread bytes.
        let commands: [&[&str]; 4] = [
            &["optimize", "db.mj"],
            &["optimize", "db.mj", "nocp", "--timeout-ms", "60000"],
            &["execute", "db.mj"],
            &["show", "db.mj"],
        ];
        for command in commands {
            let at = |threads| run_ok(&[command, &["--threads", threads]].concat());
            assert_eq!(at("64"), at("1"), "{command:?}");
        }
    }

    #[test]
    fn threads_flag_reaches_the_budgeted_ladder() {
        let out = run_ok(&[
            "optimize",
            "db.mj",
            "--timeout-ms",
            "60000",
            "--threads",
            "2",
        ]);
        assert!(out.contains("degradation: answered by"), "{out}");
        assert!(out.contains("τ = 11"), "{out}");
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        for bad in [
            &["optimize", "db.mj", "--threads", "0"][..],
            &["optimize", "db.mj", "--threads", "lots"][..],
        ] {
            assert!(run(
                &bad.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                fake_fs
            )
            .is_err());
        }
    }

    #[test]
    fn conditions_command() {
        let out = run_ok(&["conditions", "db.mj"]);
        assert!(out.contains("C1: VIOLATED"), "{out}");
        assert!(out.contains("C2: holds"), "{out}");
    }

    #[test]
    fn show_command_prints_tables() {
        let out = run_ok(&["show", "db.mj"]);
        assert!(out.contains("-- GS (3 tuples)"), "{out}");
        assert!(out.contains("Hockey"), "{out}");
        assert!(out.contains("R_D = join of all relations"), "{out}");
    }

    #[test]
    fn compare_command_lists_all_planners() {
        let out = run_ok(&["compare", "db.mj"]);
        for name in [
            "exhaustive (all)",
            "linear no-cartesian",
            "avoid-cartesian",
            "linearized dp",
            "partitioned dpccp",
            "greedy bushy",
            "min-bottleneck",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        // Example 4: the exhaustive optimum is 11, product-free spaces 12.
        assert!(out.contains("11"), "{out}");
        assert!(out.contains("1.09x"), "{out}");
    }

    const SCHEMA_ONLY: &str = "\
relation AB 1000
relation BC 1000
relation CD 1000
domain B 100000
domain C 10
";

    fn fake_fs2(path: &str) -> Result<String, String> {
        if path == "db.mj" {
            Ok(SAMPLE.to_string())
        } else if path == "schema.mj" {
            Ok(SCHEMA_ONLY.to_string())
        } else {
            Err(format!("no such file: {path}"))
        }
    }

    #[test]
    fn estimate_command_plans_from_statistics() {
        let out = run(&["estimate".to_string(), "schema.mj".to_string()], fake_fs2).unwrap();
        assert!(out.contains("synthetic cardinality model"), "{out}");
        // The selective B attribute forces AB ⋈ BC first (10 tuples).
        assert!(out.contains("AB ⋈ BC"), "{out}");
        let out2 = run(
            &[
                "estimate".to_string(),
                "schema.mj".to_string(),
                "linear".to_string(),
            ],
            fake_fs2,
        )
        .unwrap();
        assert!(out2.contains("Linear"), "{out2}");
    }

    #[test]
    fn estimate_parses_statistics() {
        let input = parse_input(SCHEMA_ONLY).unwrap();
        assert_eq!(input.cards, vec![Some(1000), Some(1000), Some(1000)]);
        assert_eq!(input.domains.len(), 2);
        assert!(input.database.state(0).is_empty());
        let oracle = synthetic_oracle(&input).unwrap();
        use mjoin::{CardinalityOracle, RelSet};
        assert_eq!(oracle.tau(RelSet::singleton(0)), 1000);
        // AB ⋈ BC over B (domain 100000): 1000·1000/100000 = 10.
        assert_eq!(oracle.tau(RelSet::from_indices([0, 1])), 10);
        // Bad statistics are rejected.
        assert!(parse_input("relation AB xyz\n").is_err());
        assert!(parse_input("relation AB 10\ndomain\n").is_err());
        assert!(synthetic_oracle(&parse_input("relation AB 10\ndomain Z 5\n").unwrap()).is_err());
    }

    #[test]
    fn dot_command_emits_graphviz() {
        let out = run_ok(&["dot", "db.mj"]);
        assert!(out.starts_with("digraph strategy {"), "{out}");
        assert!(out.contains("GS"), "{out}");
        assert!(
            out.contains("style=dashed"),
            "Example 4's optimum uses a product"
        );
    }

    #[test]
    fn metrics_flag_appends_table_without_touching_the_report() {
        // Pinned to one thread so the table header (and the memo-hit
        // split between the plain and shared oracles) is stable under an
        // ambient MJOIN_THREADS.
        let plain = run_ok(&["optimize", "db.mj", "--threads", "1"]);
        let with = run_ok(&["optimize", "db.mj", "--threads", "1", "--metrics"]);
        // The metrics table is strictly appended: everything before it is
        // byte-identical to the metrics-free run.
        assert!(with.starts_with(&plain), "{with}");
        let table = &with[plain.len()..];
        assert!(table.contains("metrics (optimize @ 1 thread)"), "{table}");
        assert!(table.contains("dp.subsets_expanded"), "{table}");
        assert!(table.contains("oracle.subsets_materialized"), "{table}");
    }

    #[test]
    fn metrics_json_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("mjoin-cli-metrics-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(
            &[
                "execute".to_string(),
                "db.mj".to_string(),
                "--metrics-json".to_string(),
                path_str.clone(),
            ],
            fake_fs,
        )
        .unwrap();
        // The JSON goes to the file, not the report text.
        assert!(!out.contains("schema_version"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mjoin_obs::json::parse(&text).unwrap();
        mjoin_obs::validate_schema(&doc).unwrap();
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("execute"));
        let adaptive = doc.get("adaptive").expect("adaptive section present");
        assert!(adaptive.get("q_error_histogram").is_some());
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("adaptive.stages_executed"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budgeted_metrics_json_carries_the_degradation_section() {
        let path = std::env::temp_dir().join("mjoin-cli-metrics-degr-test.json");
        let path_str = path.to_str().unwrap().to_string();
        run(
            &[
                "optimize".to_string(),
                "db.mj".to_string(),
                "--timeout-ms".to_string(),
                "60000".to_string(),
                "--metrics-json".to_string(),
                path_str,
            ],
            fake_fs,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mjoin_obs::json::parse(&text).unwrap();
        mjoin_obs::validate_schema(&doc).unwrap();
        let degr = doc.get("degradation").expect("degradation section present");
        assert!(degr.get("answered_by").and_then(Json::as_str).is_some());
        assert!(degr.get("attempts").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn browned_report_is_the_ladder_report_plus_the_brownout_line() {
        let db = parse_input(SAMPLE).unwrap().database;
        let gopts = GuardOptions {
            threads: Some(1),
            ..GuardOptions::default()
        };
        for level in [BrownoutLevel::ReducedDp, BrownoutLevel::GreedyOnly] {
            // A pinned level runs the ladder even with no budget flag set…
            let browned = optimize_outcome(&db, SearchSpace::All, &gopts, level).unwrap();
            let r = browned.robust.expect("a browned run is a ladder run");
            assert_eq!(r.report.answered_by, level.entry_rung());
            // …and renders it exactly as an unpinned run would, plus one line.
            let normal = ladder_outcome(&db, SearchSpace::All, r, BrownoutLevel::Normal);
            assert_eq!(browned.text, format!("{}brownout: {level}\n", normal.text));
            assert_eq!(browned.cost, normal.cost);
        }
    }

    #[test]
    fn usage_and_errors() {
        assert!(run(&[], fake_fs).is_err());
        assert!(run(&["help".to_string()], fake_fs)
            .unwrap()
            .contains("usage"));
        assert!(run(&["analyze".to_string()], fake_fs).is_err());
        assert!(run(&["analyze".to_string(), "missing.mj".to_string()], fake_fs).is_err());
        assert!(run(&["frobnicate".to_string(), "db.mj".to_string()], fake_fs).is_err());
        // cost with a partial strategy is rejected.
        assert!(run(
            &[
                "cost".to_string(),
                "db.mj".to_string(),
                "GS ⋈ SC".to_string()
            ],
            fake_fs
        )
        .is_err());
    }
}
