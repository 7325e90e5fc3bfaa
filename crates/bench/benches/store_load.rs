//! Persistent-store performance: save size, mmap-load latency, and
//! warm-start (memo replay) vs cold (full DPccp) planning on the clique —
//! the topology whose memo is largest, so every number here is the
//! worst case, not the friendly one.
//!
//! The mmap load of a clique-sized store must come in under 1 ms — that is
//! the headline the zero-copy format buys: warm-starting costs less than a
//! millisecond of setup before the memo is usable. The warm arm must also
//! rebuild *exactly* the cold plan (same cost, same strategy) — asserted
//! unconditionally before anything is reported.
//!
//! Smoke mode for CI (`MJOIN_BENCH_SMOKE=1`): n = 10 only, minimum
//! criterion samples.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mjoin::{
    entry_from_optimize, fingerprint128, memo_from_entry, plan_from_memo,
    try_best_no_cartesian_ccp_with_memo, Guard, LoadedStore,
};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::schemes;
use mjoin_hypergraph::DbScheme;
use mjoin_obs::{Json, Recorder};
use mjoin_optimizer::{DpMemoExport, Plan};

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

fn store_path(n: usize) -> PathBuf {
    std::env::temp_dir().join(format!("mjoin-bench-store-{}-{n}.store", std::process::id()))
}

fn cold_plan(scheme: &DbScheme, n: usize) -> (Plan, DpMemoExport) {
    let oracle = SyntheticOracle::new(scheme.clone(), vec![1000; n], 500);
    try_best_no_cartesian_ccp_with_memo(&oracle, scheme.full_set(), &Guard::unlimited())
        .expect("unlimited guard cannot trip")
        .expect("the clique is connected")
}

/// Min-of-N wall clock for a deterministic computation.
fn timed<T>(reps: usize, mut run: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut out = run();
    let mut seconds = started.elapsed().as_secs_f64();
    for _ in 1..reps {
        let started = Instant::now();
        out = run();
        seconds = seconds.min(started.elapsed().as_secs_f64());
    }
    (out, seconds)
}

/// One clique size end to end: cold plan → save → mmap load → warm
/// rebuild, with the bit-identity and <1 ms floors asserted inline.
fn measure(n: usize) -> Json {
    let reps = if smoke() { 3 } else { 10 };
    let scheme = schemes::clique(n).1;
    let full = scheme.full_set();
    let ((plan, memo), cold_secs) = timed(if smoke() { 1 } else { 3 }, || cold_plan(&scheme, n));

    let fp = fingerprint128(&format!("bench|store_load|clique|{n}"));
    let entry = entry_from_optimize(
        fp.clone(),
        full,
        Some((&plan.strategy, plan.cost)),
        Some(&memo),
        &[],
        &format!("bench plan, clique n={n}\n"),
    )
    .expect("bench cliques fit the store's 64-bit format");
    let path = store_path(n);
    let _ = std::fs::remove_file(&path);
    let (save_bytes, save_secs) = timed(1, || {
        mjoin::save_optimize_entry(&path, entry.clone()).expect("save bench store")
    });

    let (store, mmap_secs) = timed(reps, || LoadedStore::open(&path).expect("mmap the store"));
    assert!(store.via_mmap(), "bench must measure the zero-copy path");
    assert!(
        mmap_secs < 1e-3,
        "clique n={n}: mmap load took {mmap_secs:.6}s, the format promises < 1 ms"
    );
    let (_, buffered_secs) = timed(reps, || {
        LoadedStore::open_buffered(&path).expect("buffered load")
    });

    // Warm-start: fingerprint lookup + memo rebuild, no oracle calls.
    let (warm_plan, warm_secs) = timed(reps, || {
        let e = store.entry(&fp).expect("entry saved above");
        plan_from_memo(&memo_from_entry(&e), full)
            .expect("a saved memo rebuilds")
            .expect("the full set is solved")
    });
    assert_eq!(warm_plan.cost, plan.cost, "clique n={n}: warm cost drifted");
    assert_eq!(
        warm_plan.strategy, plan.strategy,
        "clique n={n}: warm strategy drifted"
    );

    println!(
        "clique n={n}: save {save_bytes}B {save_secs:.4}s, mmap {mmap_secs:.6}s, \
         buffered {buffered_secs:.6}s, cold {cold_secs:.4}s → warm {warm_secs:.6}s \
         ({:.0}x)",
        cold_secs / warm_secs.max(f64::EPSILON)
    );
    let _ = std::fs::remove_file(&path);
    Json::obj(vec![
        ("topology", Json::Str("clique".to_string())),
        ("n", Json::U64(n as u64)),
        ("save_bytes", Json::U64(save_bytes)),
        ("save_seconds", Json::F64(save_secs)),
        ("mmap_load_seconds", Json::F64(mmap_secs)),
        ("buffered_load_seconds", Json::F64(buffered_secs)),
        ("cold_plan_seconds", Json::F64(cold_secs)),
        ("warm_plan_seconds", Json::F64(warm_secs)),
        ("cost", Json::U64(plan.cost)),
    ])
}

fn bench_store_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_load");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(if smoke() { 1 } else { 500 }));
    group.measurement_time(Duration::from_millis(if smoke() { 1 } else { 2000 }));
    for &n in sizes() {
        let scheme = schemes::clique(n).1;
        let full = scheme.full_set();
        let (plan, memo) = cold_plan(&scheme, n);
        let entry = entry_from_optimize(
            fingerprint128("bench|criterion"),
            full,
            Some((&plan.strategy, plan.cost)),
            Some(&memo),
            &[],
            "criterion\n",
        )
        .expect("bench cliques fit the store's 64-bit format");
        let path = store_path(n);
        let _ = std::fs::remove_file(&path);
        mjoin::save_optimize_entry(&path, entry).expect("save criterion store");
        group.bench_with_input(BenchmarkId::new("mmap_open", n), &path, |b, path| {
            b.iter(|| LoadedStore::open(path).expect("mmap").len())
        });
        group.bench_with_input(BenchmarkId::new("warm_rebuild", n), &path, |b, path| {
            let store = LoadedStore::open(path).expect("mmap");
            b.iter(|| {
                let e = store.entry_at(0);
                plan_from_memo(&memo_from_entry(&e), full)
                    .expect("rebuilds")
                    .expect("solved")
                    .cost
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

criterion_group!(benches, bench_store_load);

fn main() {
    let rec = Recorder::arm();
    let rows: Vec<Json> = sizes().iter().map(|&n| measure(n)).collect();
    let snapshot = rec.snapshot();
    drop(rec);
    mjoin_bench::write_bench_report(
        "store_load",
        1,
        snapshot,
        Json::obj(vec![("rows", Json::Arr(rows))]),
    );
    benches();
}
