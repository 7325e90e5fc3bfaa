//! The five seeded workloads.
//!
//! A workload is an endless, deterministic request stream: request `i` is
//! a pure function of `(workload, seed, i)`. The first [`Workload::warmup`]
//! requests warm the daemon up; after them every [`Workload::pass_len`]
//! consecutive requests form one *pass*, and the first pass is the fixed
//! list that τ sums, counters and the layer trace are taken over.
//!
//! Each pass visits the same fixed table of *shapes* (topology, relation
//! count, row counts, skew, filter count — whatever the request's cost
//! depends on), one per slot. The shape table is a constant of the
//! workload; `--seed` draws only the *data* (values, cardinalities, filter
//! constants). That is what keeps a latency percentile comparable from
//! one seed to the next: every seed runs the same mix of sizes.

use std::fmt::Write as _;

use crate::count::{connected_subsets, count_join};
use crate::db::{letters, Db, Rel};
use crate::json::escape_into;
use crate::rng::{Rng, Zipf};

/// The seed every committed number and τ file is taken at.
pub const DEFAULT_SEED: u64 = 1990;

/// Requests per pass of every workload but `hot_repeat`; also the number of
/// requests the layer trace replays.
pub const PASS_LEN: usize = 40;

/// Seeds the shape tables. A constant: shapes never depend on `--seed`.
const SHAPE_SEED: u64 = 0x5348_4150_4553; // "SHAPES"

/// `exec_skew`: the `max_tuples` every request carries, and the size the
/// generator keeps every product-free intermediate under so that no plan
/// the optimizer may pick can trip it.
pub const EXEC_MAX_TUPLES: u64 = 5_000_000;
/// See [`EXEC_MAX_TUPLES`].
pub const EXEC_JOIN_BOUND: u128 = 300_000;

/// `ladder_deadline`: the per-request deadline.
pub const LADDER_TIMEOUT_MS: u64 = 80;

/// `hot_repeat`: pool size (fits the daemon's 256-entry plan cache) and
/// the Zipf exponent requests are drawn with.
pub const HOT_POOL: usize = 64;
/// See [`HOT_POOL`].
pub const HOT_ZIPF_S: f64 = 1.1;

/// Declared domain of every `wide_stats` attribute: with cardinalities of
/// 200–900 a join shrinks or grows by at most ×1.3, so no estimate gets
/// near `u64::MAX`.
pub const STATS_DOMAIN: u64 = 700;

/// One of the five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Distinct `query` ops over materialized star/snowflake databases.
    StarExact,
    /// Distinct statistics-only `query` ops over wide join graphs.
    WideStats,
    /// `execute` ops over Zipf-skewed, blow-up-prone databases.
    ExecSkew,
    /// `optimize` ops under a deadline, mostly far too large for the DP.
    LadderDeadline,
    /// `query` ops drawn Zipf from a pool that fits the plan cache.
    HotRepeat,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::StarExact,
        Workload::WideStats,
        Workload::ExecSkew,
        Workload::LadderDeadline,
        Workload::HotRepeat,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StarExact => "star_exact",
            Workload::WideStats => "wide_stats",
            Workload::ExecSkew => "exec_skew",
            Workload::LadderDeadline => "ladder_deadline",
            Workload::HotRepeat => "hot_repeat",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests sent before timing starts. For `hot_repeat` this is the
    /// cold pass that fills the plan cache, one request per pool entry.
    pub fn warmup(self) -> usize {
        match self {
            Workload::HotRepeat => HOT_POOL,
            _ => 10,
        }
    }

    /// Requests per pass.
    pub fn pass_len(self) -> usize {
        match self {
            Workload::HotRepeat => 2000,
            _ => PASS_LEN,
        }
    }

    /// The fixed list: the stream indices every count, τ sum and layer time
    /// is taken over. The first timed pass — or, for `hot_repeat`, whose
    /// timed requests only repeat them, the pool's cold pass.
    pub fn traced(self) -> std::ops::Range<u64> {
        match self {
            Workload::HotRepeat => 0..HOT_POOL as u64,
            _ => self.warmup() as u64..(self.warmup() + PASS_LEN) as u64,
        }
    }

    /// The daemon op this workload sends.
    pub fn op(self) -> &'static str {
        match self {
            Workload::StarExact | Workload::WideStats | Workload::HotRepeat => "query",
            Workload::ExecSkew => "execute",
            Workload::LadderDeadline => "optimize",
        }
    }

    /// Are responses and counters a function of the input alone? Not under
    /// a deadline, where they depend on which rung had time to answer.
    pub fn deterministic(self) -> bool {
        self != Workload::LadderDeadline
    }

    /// Is the response's `cost` the optimum of the requested space, which
    /// no correct planner may change, so that a τ file can pin it? Not
    /// under a deadline, and `execute` responses carry no `cost` (their
    /// executed τ depends on the plan picked from estimates: a metric).
    pub fn pins_cost(self) -> bool {
        !matches!(self, Workload::LadderDeadline | Workload::ExecSkew)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One generated request plus what its response must look like.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the workload's stream; sent as `id` and echoed back.
    pub index: u64,
    /// The request line (no trailing newline).
    pub line: String,
    /// The op it asks for, which the response must echo.
    pub op: &'static str,
    /// The shape this request instantiates, e.g. `chain-18/nocp`.
    pub shape: String,
    /// Engine-side names of the requested tables: the response's `plan:`
    /// line must name each exactly once.
    pub tables: Vec<String>,
    /// The `cached` flag the response must carry.
    pub expect_cached: bool,
    /// `execute`: the result size, from the counting evaluator.
    pub expect_result_tuples: Option<u64>,
    /// `hot_repeat`: the pool entry this request repeats; a hit's `output`
    /// must equal the cold-pass answer for the same entry byte for byte.
    pub pool_slot: Option<usize>,
    /// The request's `timeout_ms`, if it carries one.
    pub timeout_ms: Option<u64>,
}

/// The body of a request: everything but the `id`.
#[derive(Clone, Debug)]
struct Body {
    /// `"op":…,"db":…` — the members after `id`, without braces.
    members: String,
    shape: String,
    tables: Vec<String>,
    expect_result_tuples: Option<u64>,
    timeout_ms: Option<u64>,
}

/// A workload's request stream under one seed.
#[derive(Clone, Debug)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// `hot_repeat` only: the pool and the sampler requests are drawn with.
    pool: Vec<Body>,
    zipf: Zipf,
    /// `exec_skew` only: each slot's calibrated value domain.
    exec_domains: Vec<u64>,
}

impl Generator {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let pool = match workload {
            Workload::HotRepeat => (0..HOT_POOL as u64)
                .map(|slot| hot_pool_entry(&mut Rng::stream(seed, workload.tag(), slot)))
                .collect(),
            _ => Vec::new(),
        };
        let exec_domains = match workload {
            Workload::ExecSkew => (0..PASS_LEN).map(exec_domain).collect(),
            _ => Vec::new(),
        };
        Generator {
            workload,
            seed,
            pool,
            zipf: Zipf::new(HOT_POOL, HOT_ZIPF_S),
            exec_domains,
        }
    }

    /// Request `index` of the stream.
    pub fn request(&self, index: u64) -> Request {
        let w = self.workload;
        let mut rng = Rng::stream(self.seed, w.tag(), index);
        let slot = (index % PASS_LEN as u64) as usize;
        let mut pool_slot = None;
        let body = match w {
            Workload::StarExact => star_exact(slot, &mut rng),
            Workload::WideStats => wide_stats(slot, &mut rng),
            Workload::ExecSkew => exec_skew(slot, self.exec_domains[slot], &mut rng),
            Workload::LadderDeadline => ladder_deadline(slot, &mut rng),
            Workload::HotRepeat => {
                // The cold pass walks the pool in order; after it, draws
                // are Zipf over a fixed popularity ranking (entry = rank).
                let entry = if (index as usize) < HOT_POOL {
                    index as usize
                } else {
                    // The pool was generated from streams 0..HOT_POOL, so
                    // draws use a disjoint tag.
                    self.zipf
                        .sample(&mut Rng::stream(self.seed, w.tag() + 100, index))
                };
                pool_slot = Some(entry);
                self.pool[entry].clone()
            }
        };
        Request {
            index,
            line: format!("{{\"id\":{index},{}}}", body.members),
            op: w.op(),
            shape: body.shape,
            tables: body.tables,
            expect_cached: w == Workload::HotRepeat && index as usize >= HOT_POOL,
            expect_result_tuples: body.expect_result_tuples,
            pool_slot,
            timeout_ms: body.timeout_ms,
        }
    }
}

/// A request's wire members other than `id`.
struct Wire<'a> {
    op: &'a str,
    db: &'a str,
    query: Option<&'a str>,
    space: &'a str,
    timeout_ms: Option<u64>,
    max_tuples: Option<u64>,
}

impl Wire<'_> {
    fn members(&self) -> String {
        let mut out = String::with_capacity(self.db.len() + self.db.len() / 16 + 256);
        out.push_str("\"op\":");
        escape_into(&mut out, self.op);
        out.push_str(",\"db\":");
        escape_into(&mut out, self.db);
        if let Some(q) = self.query {
            out.push_str(",\"query\":");
            escape_into(&mut out, q);
        }
        out.push_str(",\"space\":");
        escape_into(&mut out, self.space);
        if let Some(t) = self.timeout_ms {
            let _ = write!(out, ",\"timeout_ms\":{t}");
        }
        if let Some(t) = self.max_tuples {
            let _ = write!(out, ",\"max_tuples\":{t}");
        }
        out
    }
}

/// Attribute letter `i`: `A`–`Z`, then `a`–`z`. The query DSL addresses a
/// table by its concatenated single-letter attributes, so `query`
/// workloads are limited to these 52.
fn letter(i: usize) -> String {
    let c = match i {
        0..=25 => b'A' + i as u8,
        26..=51 => b'a' + (i - 26) as u8,
        _ => panic!("query workloads have 52 attribute letters, asked for #{i}"),
    };
    (c as char).to_string()
}

/// `SELECT * FROM <all tables> WHERE <every shared attribute equated>
/// [AND <filters>]`.
fn select_all(db: &Db, filters: &[String]) -> String {
    let names = db.table_names();
    let mut preds: Vec<String> = Vec::new();
    for i in 0..db.rels.len() {
        for j in i + 1..db.rels.len() {
            for a in db.shared(i, j) {
                preds.push(format!("{}.{a} = {}.{a}", names[i], names[j]));
            }
        }
    }
    preds.extend(filters.iter().cloned());
    let mut sql = format!("SELECT * FROM {}", names.join(", "));
    if !preds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&preds.join(" AND "));
    }
    sql
}

// ───────────────────────────── star_exact ─────────────────────────────

/// A materialized star, optionally with one snowflaked dimension:
/// `fact(k₁…k_d, M)`, `dimᵢ(kᵢ, pᵢ[, tᵢ])`, `sub(tᵢ, qᵢ)`.
struct StarShape {
    dims: usize,
    fact_rows: u64,
    dim_rows: Vec<u64>,
    /// Index of the dimension that has a sub-dimension, if any.
    snowflake: Option<usize>,
    /// Range filters: (table index, keep values `< c` or `≥ c`, `c`). Part
    /// of the shape, not of the data: how many rows survive the pushdown
    /// decides what a request costs.
    filters: Vec<(usize, bool, u64)>,
}

fn star_shape(slot: usize) -> StarShape {
    let mut s = Rng::stream(SHAPE_SEED, Workload::StarExact.tag(), slot as u64);
    let dims = 4 + slot % 3;
    let fact_rows = s.range(2_000, 10_000);
    let dim_rows = (0..dims).map(|_| s.range(100, 500)).collect();
    let snowflake = (slot % 4 == 3).then(|| s.below(dims as u64) as usize);
    // 1–3 filters on distinct non-fact tables (1..=dims, plus the
    // sub-dimension when there is one).
    let mut targets: Vec<usize> = (1..=dims + usize::from(snowflake.is_some())).collect();
    s.shuffle(&mut targets);
    targets.truncate(1 + (slot / 3) % 3);
    StarShape {
        dims,
        fact_rows,
        dim_rows,
        snowflake,
        filters: targets
            .into_iter()
            .map(|t| (t, s.chance(0.5), s.range(30, 80)))
            .collect(),
    }
}

/// Values of every filterable (non-key) attribute are uniform in `0..100`,
/// so `attr < c` keeps about `c` percent of a table.
const ATTR_RANGE: u64 = 100;

fn star_db(shape: &StarShape, rng: &mut Rng) -> Db {
    let d = shape.dims;
    // Letters: keys A.., measure M, dimension attributes N.., snowflake
    // link T, sub-dimension attribute U.
    let key = |i: usize| letter(i);
    let mut fact_attrs: Vec<String> = (0..d).map(key).collect();
    fact_attrs.push("M".into());
    let fact_rows = (0..shape.fact_rows)
        .map(|m| {
            let mut row: Vec<u32> = shape
                .dim_rows
                .iter()
                .map(|&r| rng.below(r) as u32)
                .collect();
            row.push(m as u32);
            row
        })
        .collect();
    let mut rels = vec![Rel::new(fact_attrs, fact_rows)];
    let sub_rows = 60u64;
    for i in 0..d {
        let snow = shape.snowflake == Some(i);
        let mut attrs = vec![key(i), letter(13 + i)];
        if snow {
            attrs.push("T".into());
        }
        let mut rows = Vec::new();
        for k in 0..shape.dim_rows[i] {
            // Most keys once, a few missing, a few twice: joins neither
            // all keep nor all drop fact rows, so join orders differ in τ.
            let copies = match rng.below(20) {
                0 | 1 => 0,
                2 => 2,
                _ => 1,
            };
            for _ in 0..copies {
                let mut row = vec![k as u32, rng.below(ATTR_RANGE) as u32];
                if snow {
                    row.push(rng.below(sub_rows) as u32);
                }
                rows.push(row);
            }
        }
        rels.push(Rel::new(attrs, rows));
    }
    if shape.snowflake.is_some() {
        let rows = (0..sub_rows)
            .map(|t| vec![t as u32, rng.below(ATTR_RANGE) as u32])
            .collect();
        rels.push(Rel::new(letters("TU"), rows));
    }
    Db {
        rels,
        domains: Vec::new(),
    }
}

/// The shape's range filters, on each table's value attribute.
fn star_filters(db: &Db, shape: &StarShape) -> Vec<String> {
    shape
        .filters
        .iter()
        .map(|&(t, below, c)| {
            // attrs[1] is the table's value attribute (attrs[0] its key).
            let rel = &db.rels[t];
            format!(
                "{}.{} {} {c}",
                rel.name(),
                rel.attrs[1],
                if below { "<" } else { ">=" }
            )
        })
        .collect()
}

fn star_query_body(shape: &StarShape, label: String, rng: &mut Rng) -> Body {
    let db = star_db(shape, rng);
    let filters = star_filters(&db, shape);
    let sql = select_all(&db, &filters);
    Body {
        members: Wire {
            op: "query",
            db: &db.text(),
            query: Some(&sql),
            space: "nocp",
            timeout_ms: None,
            max_tuples: None,
        }
        .members(),
        shape: label,
        tables: db.table_names(),
        expect_result_tuples: None,
        timeout_ms: None,
    }
}

fn star_exact(slot: usize, rng: &mut Rng) -> Body {
    let shape = star_shape(slot);
    let label = format!(
        "star-{}{}/{}k",
        shape.dims,
        if shape.snowflake.is_some() {
            "+snow"
        } else {
            ""
        },
        shape.fact_rows / 1000
    );
    star_query_body(&shape, label, rng)
}

// ───────────────────────────── hot_repeat ─────────────────────────────

/// Every pool entry has the same shape (≈ 6 KB), so which entries the Zipf
/// draw favours does not change the size mix.
fn hot_pool_entry(rng: &mut Rng) -> Body {
    let shape = StarShape {
        dims: 3,
        fact_rows: 300,
        dim_rows: vec![40; 3],
        snowflake: None,
        filters: vec![(1, true, 50)],
    };
    star_query_body(&shape, "star-3/300".into(), rng)
}

// ───────────────────────────── wide_stats ─────────────────────────────

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Topology {
    Chain,
    Cycle,
    Star,
    Tree,
}

impl Topology {
    fn name(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Cycle => "cycle",
            Topology::Star => "star",
            Topology::Tree => "tree",
        }
    }
}

/// The fixed 40-slot table: every topology at four sizes under `nocp`,
/// chains and cycles at two sizes under `all`, each twice. `all` is kept
/// to chains and cycles because their largest product-only subset is n/2
/// relations (900⁶ fits `u64`; the 11 dimensions of a 12-star do not).
fn stats_shape(slot: usize) -> (Topology, usize, &'static str) {
    const NOCP: [(Topology, [usize; 4]); 4] = [
        (Topology::Chain, [12, 14, 16, 18]),
        (Topology::Cycle, [10, 12, 14, 16]),
        (Topology::Star, [8, 10, 12, 14]),
        (Topology::Tree, [9, 11, 13, 15]),
    ];
    let k = slot % 20;
    if k < 16 {
        let (topology, sizes) = NOCP[k % 4];
        (topology, sizes[k / 4], "nocp")
    } else {
        let topology = [Topology::Chain, Topology::Cycle][k % 2];
        (topology, [10, 12][(k - 16) / 2], "all")
    }
}

/// The attribute lists of an `n`-relation join graph of the given
/// topology, in canonical order, named by `name(i)`. Tree parents come
/// from `shape` (the topology is part of the shape, not of the data).
fn topology_attrs(
    topology: Topology,
    n: usize,
    name: &dyn Fn(usize) -> String,
    shape: &mut Rng,
) -> Vec<Vec<String>> {
    match topology {
        Topology::Chain => (0..n).map(|i| vec![name(i), name(i + 1)]).collect(),
        // The closing relation is (x₀, x₍ₙ₋₁₎): x₀ was interned first.
        Topology::Cycle => (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![name(i), name(i + 1)]
                } else {
                    vec![name(0), name(i)]
                }
            })
            .collect(),
        // Hub of n − 1 keys; dimension i = (keyᵢ, its own attribute).
        Topology::Star => std::iter::once((0..n - 1).map(name).collect())
            .chain((0..n - 1).map(|i| vec![name(i), name(n - 1 + i)]))
            .collect(),
        // Relation i = (edge to its parent, own attribute, edges to its
        // children): every join-graph edge has an attribute of its own,
        // so the graph is exactly the tree. Attributes are numbered in
        // order of first appearance, which keeps each list canonical.
        Topology::Tree => {
            let parents: Vec<usize> = (1..n).map(|i| shape.below(i as u64) as usize).collect();
            let mut next = 0;
            let mut fresh = || {
                next += 1;
                next - 1
            };
            let mut edge_attr = vec![usize::MAX; n];
            (0..n)
                .map(|i| {
                    let mut attrs = Vec::new();
                    if i > 0 {
                        attrs.push(edge_attr[i]);
                    }
                    attrs.push(fresh());
                    for c in (i + 1..n).filter(|&c| parents[c - 1] == i) {
                        edge_attr[c] = fresh();
                        attrs.push(edge_attr[c]);
                    }
                    attrs.into_iter().map(name).collect()
                })
                .collect()
        }
    }
}

/// The statistics-only database of `wide_stats` request `index`, and the
/// space it is planned in.
pub fn wide_stats_db(seed: u64, index: u64) -> (Db, &'static str) {
    let mut rng = Rng::stream(seed, Workload::WideStats.tag(), index);
    let (db, space, _) = stats_db((index % PASS_LEN as u64) as usize, &mut rng);
    (db, space)
}

fn stats_db(slot: usize, rng: &mut Rng) -> (Db, &'static str, String) {
    let (topology, n, space) = stats_shape(slot);
    let mut shape = Rng::stream(SHAPE_SEED, Workload::WideStats.tag(), slot as u64);
    let attrs = topology_attrs(topology, n, &letter, &mut shape);
    let mut domains: Vec<(String, u64)> = Vec::new();
    for a in attrs.iter().flatten() {
        if !domains.iter().any(|(d, _)| d == a) {
            domains.push((a.clone(), STATS_DOMAIN));
        }
    }
    let db = Db {
        rels: attrs
            .into_iter()
            .map(|a| Rel::declared(a, rng.range(200, 900)))
            .collect(),
        domains,
    };
    (db, space, format!("{}-{n}/{space}", topology.name()))
}

fn wide_stats(slot: usize, rng: &mut Rng) -> Body {
    let (db, space, label) = stats_db(slot, rng);
    // Half the requests carry one filter; statistics-only lowering folds
    // its heuristic selectivity into the model.
    let mut filters = Vec::new();
    if rng.chance(0.5) {
        let rel = &db.rels[rng.below(db.rels.len() as u64) as usize];
        let attr = &rel.attrs[rng.below(rel.attrs.len() as u64) as usize];
        let op = if rng.chance(0.5) { "=" } else { "<" };
        filters.push(format!("{}.{attr} {op} {}", rel.name(), rng.below(100)));
    }
    let sql = select_all(&db, &filters);
    Body {
        members: Wire {
            op: "query",
            db: &db.text(),
            query: Some(&sql),
            space,
            timeout_ms: None,
            max_tuples: None,
        }
        .members(),
        shape: label,
        tables: db.table_names(),
        expect_result_tuples: None,
        timeout_ms: None,
    }
}

// ───────────────────────────── exec_skew ──────────────────────────────

#[derive(Clone, Copy, Debug)]
enum ExecKind {
    Chain(usize),
    Star(usize),
    Cycle(usize),
}

/// 24 chains (n = 4, 5, 6), 8 stars (3 or 4 dimensions) and a cyclic
/// minority of 8 (triangles and 4-cycles), interleaved.
fn exec_kind(slot: usize) -> ExecKind {
    match slot % 5 {
        0..=2 => ExecKind::Chain(4 + (slot / 5) % 3),
        3 => ExecKind::Star(3 + (slot / 5) % 2),
        _ => ExecKind::Cycle(3 + (slot / 5) % 2),
    }
}

/// What `exec_skew` fixes per slot: the join graph, the row counts, the
/// Zipf exponent.
struct ExecShape {
    attrs: Vec<Vec<String>>,
    label: String,
    rows: Vec<u64>,
    skew: f64,
}

fn exec_shape(slot: usize, shape: &mut Rng) -> ExecShape {
    let (topology, n, label) = match exec_kind(slot) {
        ExecKind::Chain(n) => (Topology::Chain, n, format!("chain-{n}")),
        ExecKind::Star(d) => (Topology::Star, d + 1, format!("star-{d}")),
        ExecKind::Cycle(n) => (Topology::Cycle, n, format!("cycle-{n}")),
    };
    let attrs = topology_attrs(topology, n, &letter, shape);
    let rows = attrs.iter().map(|_| shape.range(1_500, 6_000)).collect();
    ExecShape {
        attrs,
        label,
        rows,
        skew: 0.4 + 0.3 * shape.unit(),
    }
}

/// Every column of every relation drawn Zipf over the same ranking of
/// `domain` values: hot keys line up across relations, so joins blow up the
/// way they do on skewed data.
fn exec_db(shape: &ExecShape, domain: u64, rng: &mut Rng) -> Db {
    let zipf = Zipf::new(domain as usize, shape.skew);
    Db {
        rels: shape
            .attrs
            .iter()
            .zip(&shape.rows)
            .map(|(a, &r)| {
                let rows = (0..r)
                    .map(|_| a.iter().map(|_| zipf.sample(rng) as u32).collect())
                    .collect();
                Rel::new(a.clone(), rows)
            })
            .collect(),
        domains: Vec::new(),
    }
}

/// The size of the full join, if it and every other product-free
/// intermediate fit [`EXEC_JOIN_BOUND`] — so that whichever plan the
/// optimizer picks, no step can trip `max_tuples`, and the worst request
/// stays well under a second.
fn exec_result_if_bounded(db: &Db) -> Option<u128> {
    // Smallest subsets first: a blow-up shows before the full join (and
    // before a cycle's half-path maps) is attempted.
    let mut subsets = connected_subsets(db);
    subsets.sort_by_key(Vec::len);
    let mut result = 0;
    for subset in &subsets {
        result = count_join(db, subset);
        if result > EXEC_JOIN_BOUND {
            return None;
        }
    }
    Some(result)
}

/// The value domain of `exec_skew` slot `slot`: starting from an expected
/// fan-out near 2, widened (×1.5 a step) until a database drawn *from the
/// shape stream* is bounded, plus a quarter. Calibrating on the shape
/// stream keeps the domain — and with it the size of every join — the same
/// under every seed; a seed whose own draw still overshoots widens further.
fn exec_domain(slot: usize) -> u64 {
    let mut shape_rng = Rng::stream(SHAPE_SEED, Workload::ExecSkew.tag(), slot as u64);
    let shape = exec_shape(slot, &mut shape_rng);
    let mut domain = shape.rows.iter().copied().max().unwrap_or(2) / 2;
    while exec_result_if_bounded(&exec_db(&shape, domain, &mut shape_rng)).is_none() {
        domain += domain / 2;
    }
    domain + domain / 4
}

fn exec_skew(slot: usize, mut domain: u64, rng: &mut Rng) -> Body {
    let shape = exec_shape(
        slot,
        &mut Rng::stream(SHAPE_SEED, Workload::ExecSkew.tag(), slot as u64),
    );
    let (db, result) = loop {
        let db = exec_db(&shape, domain, rng);
        if let Some(result) = exec_result_if_bounded(&db) {
            break (db, result);
        }
        domain += domain / 2;
    };
    Body {
        members: Wire {
            op: "execute",
            db: &db.text(),
            query: None,
            space: "nocp",
            timeout_ms: None,
            max_tuples: Some(EXEC_MAX_TUPLES),
        }
        .members(),
        shape: shape.label,
        tables: db.table_names(),
        expect_result_tuples: Some(result as u64),
        timeout_ms: None,
    }
}

// ─────────────────────────── ladder_deadline ──────────────────────────

/// 10 small requests the DP rung answers at once (n = 8–10) and 30 large
/// ones it cannot finish, interleaved one small to three large.
fn ladder_shape(slot: usize) -> (Topology, usize) {
    const SMALL: [(Topology, usize); 10] = [
        (Topology::Chain, 8),
        (Topology::Cycle, 9),
        (Topology::Star, 8),
        (Topology::Tree, 10),
        (Topology::Chain, 10),
        (Topology::Cycle, 8),
        (Topology::Star, 9),
        (Topology::Tree, 9),
        (Topology::Chain, 9),
        (Topology::Cycle, 10),
    ];
    const LARGE: [(Topology, usize); 30] = [
        (Topology::Chain, 40),
        (Topology::Cycle, 40),
        (Topology::Star, 16),
        (Topology::Chain, 60),
        (Topology::Cycle, 60),
        (Topology::Tree, 24),
        (Topology::Chain, 100),
        (Topology::Star, 24),
        (Topology::Chain, 40),
        (Topology::Cycle, 40),
        (Topology::Tree, 24),
        (Topology::Chain, 60),
        (Topology::Cycle, 60),
        (Topology::Star, 16),
        (Topology::Chain, 100),
        (Topology::Star, 24),
        (Topology::Chain, 40),
        (Topology::Cycle, 40),
        (Topology::Tree, 24),
        (Topology::Chain, 60),
        (Topology::Cycle, 60),
        (Topology::Star, 16),
        (Topology::Chain, 100),
        (Topology::Star, 24),
        (Topology::Chain, 40),
        (Topology::Cycle, 40),
        (Topology::Tree, 24),
        (Topology::Chain, 60),
        (Topology::Cycle, 60),
        (Topology::Chain, 100),
    ];
    if slot.is_multiple_of(4) {
        SMALL[slot / 4]
    } else {
        LARGE[slot - slot / 4 - 1]
    }
}

fn ladder_deadline(slot: usize, rng: &mut Rng) -> Body {
    let (topology, n) = ladder_shape(slot);
    let mut shape = Rng::stream(SHAPE_SEED, Workload::LadderDeadline.tag(), slot as u64);
    // More attributes than letters: comma-form names, all ≥ 2 characters.
    let attrs = topology_attrs(topology, n, &|i| format!("x{i}"), &mut shape);
    // 4–40 rows per relation, and every join a foreign-key join pointing
    // away from the first relation: where a relation's first attribute was
    // introduced by an earlier relation (the previous chain link, the
    // star's hub, the tree parent) it is a key, holding each of 0..rows
    // once, and the earlier relation's column draws from exactly that
    // range. Every row of a join's first member then extends in exactly
    // one way, so no product-free intermediate has more tuples than one
    // relation: deadlines are spent searching, not materializing, while τ
    // still depends on the order (small relations first).
    let rows: Vec<u64> = attrs.iter().map(|_| rng.range(4, 40)).collect();
    let mut seen: Vec<&str> = Vec::new();
    // Key attribute → (the relation it is the key of, that relation's rows).
    let mut keys: Vec<(&str, usize, u64)> = Vec::new();
    for (i, (a, &r)) in attrs.iter().zip(&rows).enumerate() {
        if seen.contains(&a[0].as_str()) {
            keys.push((&a[0], i, r));
        }
        seen.extend(a.iter().map(String::as_str));
    }
    let rels = attrs
        .iter()
        .zip(&rows)
        .enumerate()
        .map(|(i, (a, &r))| {
            let columns: Vec<Vec<u32>> = a
                .iter()
                .map(|name| {
                    match keys.iter().find(|(k, _, _)| k == name) {
                        // This relation's own key.
                        Some(&(_, owner, _)) if owner == i => {
                            let mut column: Vec<u32> = (0..r as u32).collect();
                            rng.shuffle(&mut column);
                            column
                        }
                        // A reference to another relation's key.
                        Some(&(_, _, target)) => (0..r).map(|_| rng.below(target) as u32).collect(),
                        // Shared with nobody, or (the two ends a cycle's
                        // closing relation ties together) with no key side.
                        None => (0..r).map(|_| rng.below(8) as u32).collect(),
                    }
                })
                .collect();
            let rows = (0..r as usize)
                .map(|row| columns.iter().map(|col| col[row]).collect())
                .collect();
            Rel::new(a.clone(), rows)
        })
        .collect();
    let db = Db {
        rels,
        domains: Vec::new(),
    };
    Body {
        members: Wire {
            op: "optimize",
            db: &db.text(),
            query: None,
            space: "nocp",
            timeout_ms: Some(LADDER_TIMEOUT_MS),
            max_tuples: None,
        }
        .members(),
        shape: format!("{}-{n}", topology.name()),
        tables: db.table_names(),
        expect_result_tuples: None,
        timeout_ms: Some(LADDER_TIMEOUT_MS),
    }
}
