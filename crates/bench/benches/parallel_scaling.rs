//! Multi-core plan search: DPccp over clique queries at 1/2/4 threads.
//!
//! The parallel DP promises two things: bit-identical plans and costs at
//! any thread count, and wall-clock speedup on multi-core hosts. This
//! bench checks the first *unconditionally* before timing anything, prints
//! the observed 1→2→4-thread speedups, and asserts the ≥2× four-thread
//! speedup on the 13-relation clique only when the host actually has four
//! cores to give ([`std::thread::available_parallelism`]) — on a one-core
//! box the parallel runs still must be correct, just not faster.
//!
//! Smoke mode for CI (`MJOIN_BENCH_SMOKE=1`): smallest clique only, minimum
//! samples — exercises every code path in seconds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::schemes;
use mjoin_guard::Guard;
use mjoin_obs::{Json, Recorder};
use mjoin_optimizer::{try_best_no_cartesian_parallel, Plan};

fn smoke() -> bool {
    std::env::var("MJOIN_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn clique_oracle(n: usize) -> SyntheticOracle {
    let (_, scheme) = schemes::clique(n);
    SyntheticOracle::new(scheme, vec![1000; n], 500)
}

fn run_dpccp(oracle: &SyntheticOracle, n: usize, threads: usize) -> Plan {
    let (_, scheme) = schemes::clique(n);
    try_best_no_cartesian_parallel(oracle, scheme.full_set(), &Guard::unlimited(), threads)
        .expect("unlimited guard cannot trip")
        .expect("cliques are connected")
}

/// One timed run per thread count: checks determinism, prints speedups,
/// and (on hosts with ≥ 4 cores) asserts the 13-relation 4-thread run is
/// at least 2× faster than sequential. Returns one result row per thread
/// count for the `BENCH_parallel_scaling.json` report.
fn check_determinism_and_speedup(n: usize) -> Vec<Json> {
    let oracle = clique_oracle(n);
    let mut timings: Vec<(usize, Duration)> = Vec::new();
    let base = run_dpccp(&oracle, n, 1);
    for threads in [1usize, 2, 4] {
        let started = Instant::now();
        let plan = run_dpccp(&oracle, n, threads);
        timings.push((threads, started.elapsed()));
        assert_eq!(plan.cost, base.cost, "clique {n}, {threads} threads");
        assert_eq!(
            plan.strategy, base.strategy,
            "clique {n}, {threads} threads"
        );
    }
    let t1 = timings[0].1.as_secs_f64();
    for &(threads, t) in &timings[1..] {
        println!(
            "clique {n}: {threads} threads {:?} ({:.2}x vs 1 thread)",
            t,
            t1 / t.as_secs_f64().max(f64::EPSILON)
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if n == 13 && cores >= 4 && !smoke() {
        let t4 = timings[2].1.as_secs_f64();
        assert!(
            t1 / t4 >= 2.0,
            "4-thread DPccp on the 13-clique ran only {:.2}x faster ({} cores available)",
            t1 / t4,
            cores
        );
    }
    timings
        .iter()
        .map(|&(threads, t)| {
            Json::obj(vec![
                ("clique", Json::U64(n as u64)),
                ("threads", Json::U64(threads as u64)),
                ("seconds", Json::F64(t.as_secs_f64())),
                (
                    "speedup_vs_1",
                    Json::F64(t1 / t.as_secs_f64().max(f64::EPSILON)),
                ),
            ])
        })
        .collect()
}

fn sizes() -> &'static [usize] {
    if smoke() {
        &[12]
    } else {
        &[12, 13, 14]
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let sizes = sizes();
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(if smoke() { 1 } else { 500 }));
    group.measurement_time(Duration::from_millis(if smoke() { 1 } else { 2000 }));
    for &n in sizes {
        let oracle = clique_oracle(n);
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("dpccp_clique{n}"), threads),
                &threads,
                |b, &threads| b.iter(|| run_dpccp(&oracle, n, threads).cost),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);

fn main() {
    // Determinism checks run with the metrics registry armed, so the
    // emitted report carries real counter values alongside the timings.
    let rec = Recorder::arm();
    let mut rows = Vec::new();
    for &n in sizes() {
        rows.extend(check_determinism_and_speedup(n));
    }
    let snapshot = rec.snapshot();
    drop(rec);
    mjoin_bench::write_bench_report(
        "parallel_scaling",
        4,
        snapshot,
        Json::obj(vec![("rows", Json::Arr(rows))]),
    );
    benches();
}
