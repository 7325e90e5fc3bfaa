//! Planner scaling on large queries — the "hundreds of joins" regime the
//! paper's introduction anticipates, under the synthetic cardinality
//! model.
//!
//! The curve crosses topology (chain / star / cycle at n ∈ {20, 50, 100},
//! plus a 20-clique) with planner arm (greedy bushy, greedy linear, the
//! IKKBZ-linearized interval DP, partitioned DPccp, and the full DPccp
//! where it is feasible). Every row lands in
//! `BENCH_planner_scaling.json` with its wall clock, plan cost, and
//! τ-ratio against the best available baseline (the exact DP where it
//! ran, the best measured arm elsewhere).
//!
//! Asserted invariants, enforced before anything is written:
//!
//! * `lindp` and `partdp` cost ≤ both greedy arms on **every** row, and
//!   strictly below greedy on at least one topology per n;
//! * the n = 100 chain is planned by both polynomial rungs inside a
//!   250 ms deadline (relaxed 10× in smoke mode, which runs unoptimized);
//! * every arm is deterministic — three repetitions, bit-identical plans;
//! * pinned at `LinDp` / `PartitionedDp`, the threaded ladder over a real
//!   database returns bit-identical plans at 1, 2, and 4 threads.
//!
//! Smoke mode for CI (`MJOIN_BENCH_SMOKE=1`): a trimmed grid (n = 20
//! plus the n = 100 chain), minimum criterion samples — every code path,
//! seconds of wall clock.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mjoin::{optimize_robust, Budget, Rung, SearchSpace};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_guard::Guard;
use mjoin_hypergraph::DbScheme;
use mjoin_obs::{Json, Recorder};
use mjoin_optimizer::{
    try_best_no_cartesian, try_greedy_bushy, try_greedy_linear, try_lindp, try_partitioned_dp, Plan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn smoke() -> bool {
    std::env::var("MJOIN_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// `(topology, n)` grid. The full curve is chain/star/cycle × {20, 50,
/// 100} plus a 20-clique (the 50- and 100-clique join graphs have more
/// attributes than the catalog holds, and no realistic workload joins 100
/// relations pairwise-all); smoke trims to n = 20 plus the n = 100 chain
/// the acceptance deadline is pinned on.
fn grid() -> Vec<(&'static str, usize)> {
    if smoke() {
        vec![
            ("chain", 20),
            ("chain", 100),
            ("star", 20),
            ("cycle", 20),
            ("clique", 10),
        ]
    } else {
        vec![
            ("chain", 20),
            ("chain", 50),
            ("chain", 100),
            ("star", 20),
            ("star", 50),
            ("star", 100),
            ("cycle", 20),
            ("cycle", 50),
            ("cycle", 100),
            ("clique", 20),
        ]
    }
}

fn scheme_for(topo: &str, n: usize) -> DbScheme {
    match topo {
        "chain" => schemes::chain(n).1,
        "star" => schemes::star(n).1,
        "cycle" => schemes::cycle(n).1,
        "clique" => schemes::clique(n).1,
        other => panic!("unknown topology {other}"),
    }
}

/// Seeded per-relation base cardinalities in `[200, 900)` under a fixed
/// domain of 700: most join steps shrink (ratio < 1), some grow, so the
/// planners genuinely disagree — while the worst-case interval estimate
/// `900 · (900/700)^{n−1}` stays far inside `u64` even at n = 100.
fn oracle_for(topo: &str, n: usize, scheme: &DbScheme) -> SyntheticOracle {
    let seed = topo.bytes().map(u64::from).sum::<u64>() * 1009 + n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<u64> = (0..scheme.len()).map(|_| rng.gen_range(200..900)).collect();
    SyntheticOracle::new(scheme.clone(), bases, 700)
}

/// The exact DP is part of the curve only where it can finish: sparse
/// topologies up to n = 20, cliques up to 14 (past that the csg–cmp pair
/// count explodes). Smoke mode (unoptimized build) also drops the
/// 20-spoke star, whose ~5M pairs are release-build material.
fn dp_feasible(topo: &str, n: usize) -> bool {
    let cap = if topo == "clique" { 14 } else { 20 };
    n <= cap && !(smoke() && topo == "star" && n >= 20)
}

fn run_arm(arm: &str, topo: &str, n: usize, scheme: &DbScheme, guard: &Guard) -> Option<Plan> {
    let oracle = oracle_for(topo, n, scheme);
    let full = scheme.full_set();
    match arm {
        "greedy" => Some(try_greedy_bushy(&oracle, full, guard).expect("within budget")),
        "greedy_linear" => Some(try_greedy_linear(&oracle, full, guard).expect("within budget")),
        "lindp" => Some(
            try_lindp(&oracle, full, guard)
                .expect("within budget")
                .expect("grid topologies are connected"),
        ),
        "partdp" => Some(
            try_partitioned_dp(&oracle, full, guard)
                .expect("within budget")
                .expect("grid topologies are connected"),
        ),
        "dp" => {
            if !dp_feasible(topo, n) {
                return None;
            }
            Some(
                try_best_no_cartesian(&oracle, full, guard)
                    .expect("within budget")
                    .expect("grid topologies are connected"),
            )
        }
        other => panic!("unknown arm {other}"),
    }
}

/// Min-of-reps wall clock for one arm, asserting the arm is deterministic
/// (bit-identical plans on every repetition).
fn timed(arm: &str, topo: &str, n: usize, scheme: &DbScheme, guard: &Guard) -> Option<(Plan, f64)> {
    let reps = if smoke() { 1 } else { 3 };
    let started = Instant::now();
    let plan = run_arm(arm, topo, n, scheme, guard)?;
    let mut seconds = started.elapsed().as_secs_f64();
    for _ in 1..reps {
        let started = Instant::now();
        let again = run_arm(arm, topo, n, scheme, guard)?;
        seconds = seconds.min(started.elapsed().as_secs_f64());
        assert_eq!(
            again.cost, plan.cost,
            "{topo} n={n} {arm}: nondeterministic cost"
        );
        assert_eq!(
            again.strategy, plan.strategy,
            "{topo} n={n} {arm}: nondeterministic plan"
        );
    }
    Some((plan, seconds))
}

const ARMS: [&str; 5] = ["greedy", "greedy_linear", "lindp", "partdp", "dp"];

/// One grid cell: run every arm, enforce the dominance invariants, emit
/// one report row per arm that ran.
fn run_cell(topo: &str, n: usize) -> (Vec<Json>, bool) {
    let scheme = scheme_for(topo, n);
    // The acceptance deadline: the n = 100 chain must be planned by the
    // polynomial rungs inside 250 ms. Other cells get an unlimited guard —
    // their wall clock is reported, not bounded. Smoke mode runs an
    // unoptimized build, so its deadline is 10× looser; the committed
    // release-mode run enforces the real bound.
    let deadline_ms = if smoke() { 2500 } else { 250 };
    let mut results: Vec<(&str, Plan, f64)> = Vec::new();
    for arm in ARMS {
        let guard = if topo == "chain" && n == 100 && (arm == "lindp" || arm == "partdp") {
            Guard::new(Budget::unlimited().with_deadline(Duration::from_millis(deadline_ms)))
        } else {
            Guard::unlimited()
        };
        if let Some((plan, seconds)) = timed(arm, topo, n, &scheme, &guard) {
            assert_eq!(
                plan.strategy.set(),
                scheme.full_set(),
                "{topo} n={n} {arm}: plan must cover every relation"
            );
            results.push((arm, plan, seconds));
        }
    }
    let cost_of = |arm: &str| {
        results
            .iter()
            .find(|(a, _, _)| *a == arm)
            .map(|(_, p, _)| p.cost)
    };
    let greedy = cost_of("greedy").expect("greedy always runs");
    let greedy_linear = cost_of("greedy_linear").expect("greedy_linear always runs");
    let lindp = cost_of("lindp").expect("lindp always runs");
    let partdp = cost_of("partdp").expect("partdp always runs");
    let greedy_best = greedy.min(greedy_linear);
    assert!(
        lindp <= greedy_best,
        "{topo} n={n}: lindp {lindp} must not lose to greedy {greedy_best}"
    );
    assert!(
        partdp <= greedy_best,
        "{topo} n={n}: partdp {partdp} must not lose to greedy {greedy_best}"
    );
    if let Some(dp) = cost_of("dp") {
        assert!(
            dp <= lindp && dp <= partdp,
            "{topo} n={n}: the exact DP ({dp}) can never lose to a heuristic rung"
        );
    }
    // τ-ratio baseline: the exact optimum where the DP ran, the best
    // measured arm elsewhere ("best known").
    let baseline = cost_of("dp").unwrap_or_else(|| {
        results
            .iter()
            .map(|(_, p, _)| p.cost)
            .min()
            .expect("nonempty")
    });
    let strictly_better = lindp < greedy_best || partdp < greedy_best;
    let rows = results
        .iter()
        .map(|(arm, plan, seconds)| {
            println!(
                "{topo} n={n} {arm}: cost {} ({:.3}s, τ-ratio {:.4})",
                plan.cost,
                seconds,
                plan.cost as f64 / baseline.max(1) as f64
            );
            Json::obj(vec![
                ("topology", Json::Str(topo.to_string())),
                ("n", Json::U64(n as u64)),
                ("arm", Json::Str(arm.to_string())),
                ("seconds", Json::F64(*seconds)),
                ("cost", Json::U64(plan.cost)),
                (
                    "tau_ratio",
                    Json::F64(plan.cost as f64 / baseline.max(1) as f64),
                ),
                ("baseline_exact", Json::Bool(cost_of("dp").is_some())),
            ])
        })
        .collect();
    (rows, strictly_better)
}

/// Pinned at each new rung, the threaded ladder over a *real* database
/// returns bit-identical plans at 1, 2, and 4 threads — the rungs run
/// sequentially on the shared-oracle handle, so thread count must be
/// invisible.
fn assert_thread_invariant() {
    let n = if smoke() { 12 } else { 50 };
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (cat, scheme) = schemes::chain(n);
    let cfg = DataConfig {
        tuples_per_relation: 2,
        domain: 4,
        ensure_nonempty: true,
    };
    let db = data::uniform(cat, scheme, &cfg, &mut rng);
    let full = db.scheme().full_set();
    for entry in [Rung::LinDp, Rung::PartitionedDp] {
        let plans: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                optimize_robust(
                    &db,
                    full,
                    SearchSpace::All,
                    Budget::unlimited(),
                    None,
                    threads,
                    entry,
                )
                .expect("unlimited budget cannot trip")
            })
            .collect();
        for p in &plans {
            assert_eq!(p.report.answered_by, entry, "{}", p.report);
        }
        for pair in plans.windows(2) {
            assert_eq!(
                pair[0].plan.cost, pair[1].plan.cost,
                "{entry}: thread-variant cost"
            );
            assert_eq!(
                pair[0].plan.strategy, pair[1].plan.strategy,
                "{entry}: thread-variant plan"
            );
        }
    }
    println!("thread invariance: lindp/partdp plans identical at 1/2/4 threads (n={n})");
}

fn bench_planner_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(if smoke() { 1 } else { 500 }));
    group.measurement_time(Duration::from_millis(if smoke() { 1 } else { 2000 }));
    let sizes: &[usize] = if smoke() { &[20] } else { &[20, 50, 100] };
    for &n in sizes {
        let scheme = scheme_for("chain", n);
        for arm in ["greedy", "lindp", "partdp"] {
            group.bench_with_input(
                BenchmarkId::new(format!("chain_{arm}"), n),
                &scheme,
                |b, scheme| {
                    b.iter(|| {
                        run_arm(arm, "chain", n, scheme, &Guard::unlimited())
                            .expect("chain arms always run")
                            .cost
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_planner_scaling);

fn main() {
    let rec = Recorder::arm();
    let mut rows = Vec::new();
    let mut strict_by_n: std::collections::BTreeMap<usize, bool> =
        std::collections::BTreeMap::new();
    for (topo, n) in grid() {
        let (cell_rows, strictly_better) = run_cell(topo, n);
        rows.extend(cell_rows);
        *strict_by_n.entry(n).or_insert(false) |= strictly_better;
    }
    // Strictness is asserted per curve size: greedy must be strictly
    // beaten somewhere at each of n ∈ {20, 50, 100}. (The extra clique
    // cell rides outside the curve — on a small clique with near-uniform
    // selectivities greedy is simply optimal, and a tie is the right
    // answer, not a regression.)
    for (n, strict) in &strict_by_n {
        if ![20, 50, 100].contains(n) {
            continue;
        }
        assert!(
            strict,
            "n={n}: some topology must have a polynomial rung strictly beat greedy"
        );
    }
    assert_thread_invariant();
    let snapshot = rec.snapshot();
    drop(rec);
    mjoin_bench::write_bench_report(
        "planner_scaling",
        1,
        snapshot,
        Json::obj(vec![("rows", Json::Arr(rows))]),
    );
    benches();
}
