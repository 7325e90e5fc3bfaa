//! Old-vs-new DPccp enumeration: per-target `connected_subsets` rescans
//! against the streaming csg–cmp-pair enumerator with its splitmix64-hashed
//! memos.
//!
//! Both arms return bit-identical plans and costs — this bench asserts
//! that *unconditionally* before timing anything — but they differ in what
//! they count: the rescan arm's `dp.candidates_scanned` includes every
//! connected subset it re-enumerated per target, while the streaming arm
//! scans exactly its `dp.ccp_pairs_emitted` candidates. Both numbers land
//! in `BENCH_dp_enumeration.json` alongside the wall clock, and on the
//! 14-relation clique the streaming arm must be ≥ 2× faster at 1 thread.
//!
//! Smoke mode for CI (`MJOIN_BENCH_SMOKE=1`): n = 10 only, minimum
//! criterion samples — exercises every code path in seconds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::schemes;
use mjoin_guard::Guard;
use mjoin_hypergraph::DbScheme;
use mjoin_obs::{Counter, Json, Recorder, Snapshot};
use mjoin_optimizer::{try_best_no_cartesian, Plan};
use mjoin_reference::try_best_no_cartesian_ccp_rescan;
use mjoin_relation::Catalog;

fn smoke() -> bool {
    std::env::var("MJOIN_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn sizes() -> &'static [usize] {
    if smoke() {
        &[10]
    } else {
        &[10, 12, 14]
    }
}

type SchemeBuilder = fn(usize) -> (Catalog, DbScheme);

fn topologies(n: usize) -> Vec<(&'static str, DbScheme)> {
    let build: [(&'static str, SchemeBuilder); 4] = [
        ("chain", schemes::chain),
        ("star", schemes::star),
        ("cycle", schemes::cycle),
        ("clique", schemes::clique),
    ];
    build.into_iter().map(|(name, f)| (name, f(n).1)).collect()
}

fn oracle_for(scheme: &DbScheme, n: usize) -> SyntheticOracle {
    SyntheticOracle::new(scheme.clone(), vec![1000; n], 500)
}

fn run_rescan(scheme: &DbScheme, n: usize) -> Plan {
    let oracle = oracle_for(scheme, n);
    try_best_no_cartesian_ccp_rescan(&oracle, scheme.full_set(), &Guard::unlimited())
        .expect("unlimited guard cannot trip")
        .expect("bench topologies are connected")
}

fn run_streaming(scheme: &DbScheme, n: usize) -> Plan {
    let oracle = oracle_for(scheme, n);
    try_best_no_cartesian(&oracle, scheme.full_set(), &Guard::unlimited())
        .expect("unlimited guard cannot trip")
        .expect("bench topologies are connected")
}

/// Min-of-3 timing of one arm (the minimum is the scheduler-noise-robust
/// statistic for a deterministic computation), with the plan-search
/// counter deltas of the first run — every repetition is deterministic and
/// produces identical deltas. The recorder stays armed across the whole
/// bench, so deltas are computed against a before-snapshot.
fn timed<F: Fn() -> Plan>(rec: &Recorder, run: F) -> (Plan, f64, u64, u64) {
    let reps = if smoke() { 1 } else { 3 };
    let before: Snapshot = rec.snapshot();
    let started = Instant::now();
    let mut plan = run();
    let mut seconds = started.elapsed().as_secs_f64();
    let after = rec.snapshot();
    let scanned =
        after.counter(Counter::DpCandidatesScanned) - before.counter(Counter::DpCandidatesScanned);
    let emitted =
        after.counter(Counter::DpCcpPairsEmitted) - before.counter(Counter::DpCcpPairsEmitted);
    for _ in 1..reps {
        let started = Instant::now();
        plan = run();
        seconds = seconds.min(started.elapsed().as_secs_f64());
    }
    (plan, seconds, scanned, emitted)
}

/// Runs both arms on one topology, asserts they agree, enforces the
/// 14-clique speedup floor, and returns the two report rows.
fn compare(rec: &Recorder, topo: &str, n: usize, scheme: &DbScheme) -> Vec<Json> {
    let (old_plan, old_secs, old_scanned, old_emitted) = timed(rec, || run_rescan(scheme, n));
    let (new_plan, new_secs, new_scanned, new_emitted) = timed(rec, || run_streaming(scheme, n));
    assert_eq!(old_plan.cost, new_plan.cost, "{topo} n={n}");
    assert_eq!(old_plan.strategy, new_plan.strategy, "{topo} n={n}");
    assert_eq!(
        new_scanned, new_emitted,
        "{topo} n={n}: the streaming arm must scan exactly the emitted pairs"
    );
    let speedup = old_secs / new_secs.max(f64::EPSILON);
    println!(
        "{topo} n={n}: rescan {old_secs:.4}s ({old_scanned} scanned) → streaming \
         {new_secs:.4}s ({new_scanned} scanned) = {speedup:.2}x"
    );
    if topo == "clique" && n == 14 && !smoke() {
        assert!(
            speedup >= 2.0,
            "streaming DPccp on the 14-clique ran only {speedup:.2}x faster than the rescan"
        );
    }
    let row = |arm: &str, secs: f64, scanned: u64, emitted: u64, cost: u64| {
        Json::obj(vec![
            ("topology", Json::Str(topo.to_string())),
            ("n", Json::U64(n as u64)),
            ("arm", Json::Str(arm.to_string())),
            ("seconds", Json::F64(secs)),
            ("candidates_scanned", Json::U64(scanned)),
            ("ccp_pairs_emitted", Json::U64(emitted)),
            ("cost", Json::U64(cost)),
        ])
    };
    vec![
        row("rescan", old_secs, old_scanned, old_emitted, old_plan.cost),
        row(
            "streaming",
            new_secs,
            new_scanned,
            new_emitted,
            new_plan.cost,
        ),
    ]
}

fn bench_dp_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_enumeration");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(if smoke() { 1 } else { 500 }));
    group.measurement_time(Duration::from_millis(if smoke() { 1 } else { 2000 }));
    for &n in sizes() {
        for (topo, scheme) in topologies(n) {
            // Criterion timings cover the streaming arm only; the rescan
            // arm is too slow to sample at n = 14 and is timed (once per
            // topology) in `main` instead.
            group.bench_with_input(
                BenchmarkId::new(format!("streaming_{topo}"), n),
                &scheme,
                |b, scheme| b.iter(|| run_streaming(scheme, n).cost),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dp_enumeration);

fn main() {
    // The old-vs-new comparison runs with the metrics registry armed so
    // the report carries real counter values alongside the timings.
    let rec = Recorder::arm();
    let mut rows = Vec::new();
    for &n in sizes() {
        for (topo, scheme) in topologies(n) {
            rows.extend(compare(&rec, topo, n, &scheme));
        }
    }
    let snapshot = rec.snapshot();
    drop(rec);
    mjoin_bench::write_bench_report(
        "dp_enumeration",
        1,
        snapshot,
        Json::obj(vec![("rows", Json::Arr(rows))]),
    );
    benches();
}
