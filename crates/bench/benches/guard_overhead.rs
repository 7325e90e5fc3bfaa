//! Overhead of resource governance on the hot paths.
//!
//! Every join kernel and every DP loop now runs under a [`Guard`]. The
//! design claim is that this is (near) free: an *unlimited* guard reduces
//! every check to one predictable branch, and an *armed* guard (deadline +
//! caps, none of them binding) costs one relaxed atomic op amortized over
//! [`mjoin::CHECK_STRIDE`]-sized strides. This bench measures both against
//! each other on the join kernel and the bushy DP, and `verify` asserts
//! the armed-vs-unlimited overhead stays under 2% (best-of-N timing, so
//! scheduler noise cannot fail the build spuriously).

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use mjoin_cost::SyntheticOracle;
use mjoin_gen::schemes;
use mjoin_guard::{Budget, Guard};
use mjoin_obs::{Json, Recorder};
use mjoin_optimizer::try_best_bushy;
use mjoin_relation::{Catalog, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_pair(rows: usize, matches_per_key: i64) -> (Relation, Relation) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut cat = Catalog::new();
    let ab = cat.scheme("AB").unwrap();
    let bc = cat.scheme("BC").unwrap();
    let keys = (rows as i64 / matches_per_key).max(1);
    let r = Relation::from_int_rows(
        ab,
        (0..rows as i64)
            .map(|i| vec![i, rng.gen_range(0..keys)])
            .collect(),
    )
    .unwrap();
    let s = Relation::from_int_rows(
        bc,
        (0..rows as i64)
            .map(|i| vec![rng.gen_range(0..keys), i])
            .collect(),
    )
    .unwrap();
    (r, s)
}

/// An armed guard whose limits can never bind during the bench: the full
/// checkpoint/charge machinery runs, but nothing trips.
fn armed_guard() -> Guard {
    Guard::new(
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_memo_entries(u64::MAX / 2)
            .with_max_tuples(u64::MAX / 2),
    )
}

fn bench_join_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_overhead/join");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (r, s) = make_pair(1000, 8);
    let unlimited = Guard::unlimited();
    let armed = armed_guard();
    group.bench_function("unlimited_guard", |b| {
        b.iter(|| r.natural_join_guarded(&s, &unlimited).unwrap().tau())
    });
    group.bench_function("armed_guard", |b| {
        b.iter(|| r.natural_join_guarded(&s, &armed).unwrap().tau())
    });
    group.finish();
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_overhead/dp_bushy");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (_cat, scheme) = schemes::chain(12);
    let full = scheme.full_set();
    let base = vec![100u64; scheme.len()];
    let unlimited = Guard::unlimited();
    let armed = armed_guard();
    group.bench_function("unlimited_guard", |b| {
        let oracle = SyntheticOracle::new(scheme.clone(), base.clone(), 10);
        b.iter(|| try_best_bushy(&oracle, full, &unlimited).unwrap().cost)
    });
    group.bench_function("armed_guard", |b| {
        let oracle = SyntheticOracle::new(scheme.clone(), base.clone(), 10);
        b.iter(|| try_best_bushy(&oracle, full, &armed).unwrap().cost)
    });
    group.finish();
}

/// Best-of-`samples` wall time of `iters` runs of `f` — the minimum is the
/// noise-robust estimator for a deterministic workload.
fn min_time<F: FnMut()>(mut f: F, iters: u32, samples: u32) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed());
    }
    best
}

fn overhead_pct(base: Duration, test: Duration) -> f64 {
    (test.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Asserts the <2% overhead claim with best-of-N timing and a few retries.
/// Three scenarios on the join kernel and the bushy DP: an armed guard, and
/// an armed guard *with the metrics recorder live* — instrumentation must
/// stay inside the same budget. Returns one result row per scenario plus
/// the counter snapshot from the recorder-armed passes for the
/// `BENCH_guard_overhead.json` report.
fn verify() -> (Vec<Json>, mjoin_obs::Snapshot) {
    let (r, s) = make_pair(1000, 8);
    let (_cat, scheme) = schemes::chain(12);
    let full = scheme.full_set();
    let base = vec![100u64; scheme.len()];
    let unlimited = Guard::unlimited();
    let armed = armed_guard();

    let mut pcts = [f64::INFINITY; 4];
    let mut snapshot = None;
    for attempt in 0..5 {
        if !(pcts[0] < 2.0 && pcts[1] < 2.0) {
            let raw = min_time(
                || {
                    criterion::black_box(r.natural_join_guarded(&s, &unlimited).unwrap().tau());
                },
                40,
                8,
            );
            if pcts[0] >= 2.0 {
                let guarded = min_time(
                    || {
                        criterion::black_box(r.natural_join_guarded(&s, &armed).unwrap().tau());
                    },
                    40,
                    8,
                );
                pcts[0] = overhead_pct(raw, guarded);
                println!(
                    "verify join kernel          (attempt {attempt}): armed-guard overhead {:+.2}%",
                    pcts[0]
                );
            }
            if pcts[1] >= 2.0 {
                let rec = Recorder::arm();
                let recorded = min_time(
                    || {
                        criterion::black_box(r.natural_join_guarded(&s, &armed).unwrap().tau());
                    },
                    40,
                    8,
                );
                snapshot = Some(rec.snapshot());
                drop(rec);
                pcts[1] = overhead_pct(raw, recorded);
                println!(
                    "verify join kernel          (attempt {attempt}): armed-guard + recorder {:+.2}%",
                    pcts[1]
                );
            }
        }
        if !(pcts[2] < 2.0 && pcts[3] < 2.0) {
            let o1 = SyntheticOracle::new(scheme.clone(), base.clone(), 10);
            let raw = min_time(
                || {
                    criterion::black_box(try_best_bushy(&o1, full, &unlimited).unwrap().cost);
                },
                20,
                8,
            );
            if pcts[2] >= 2.0 {
                let o2 = SyntheticOracle::new(scheme.clone(), base.clone(), 10);
                let guarded = min_time(
                    || {
                        criterion::black_box(try_best_bushy(&o2, full, &armed).unwrap().cost);
                    },
                    20,
                    8,
                );
                pcts[2] = overhead_pct(raw, guarded);
                println!(
                    "verify bushy DP n=12        (attempt {attempt}): armed-guard overhead {:+.2}%",
                    pcts[2]
                );
            }
            if pcts[3] >= 2.0 {
                let rec = Recorder::arm();
                let o3 = SyntheticOracle::new(scheme.clone(), base.clone(), 10);
                let recorded = min_time(
                    || {
                        criterion::black_box(try_best_bushy(&o3, full, &armed).unwrap().cost);
                    },
                    20,
                    8,
                );
                snapshot = Some(rec.snapshot());
                drop(rec);
                pcts[3] = overhead_pct(raw, recorded);
                println!(
                    "verify bushy DP n=12        (attempt {attempt}): armed-guard + recorder {:+.2}%",
                    pcts[3]
                );
            }
        }
        if pcts.iter().all(|&p| p < 2.0) {
            break;
        }
    }
    assert!(pcts[0] < 2.0, "join-kernel guard overhead exceeded 2%");
    assert!(
        pcts[1] < 2.0,
        "join-kernel guard + recorder overhead exceeded 2%"
    );
    assert!(pcts[2] < 2.0, "bushy-DP guard overhead exceeded 2%");
    assert!(
        pcts[3] < 2.0,
        "bushy-DP guard + recorder overhead exceeded 2%"
    );
    println!(
        "verify: guard overhead within the 2% budget on both hot paths, recorder armed or not"
    );
    let scenarios = [
        "join_kernel/armed_guard",
        "join_kernel/armed_guard_with_recorder",
        "dp_bushy/armed_guard",
        "dp_bushy/armed_guard_with_recorder",
    ];
    let rows = scenarios
        .iter()
        .zip(pcts)
        .map(|(&scenario, pct)| {
            Json::obj(vec![
                ("scenario", Json::Str(scenario.to_string())),
                ("overhead_pct", Json::F64(pct)),
                ("budget_pct", Json::F64(2.0)),
            ])
        })
        .collect();
    (rows, snapshot.expect("recorder scenarios always run"))
}

criterion_group!(benches, bench_join_kernel, bench_dp);

fn main() {
    benches();
    let (rows, snapshot) = verify();
    mjoin_bench::write_bench_report(
        "guard_overhead",
        1,
        snapshot,
        Json::obj(vec![("rows", Json::Arr(rows))]),
    );
}
