//! Ablation: hash vs sort-merge vs nested-loop natural join.
//!
//! τ (the paper's cost) is identical across algorithms; wall-clock is not.
//! This bench quantifies the difference so the shipped kernel (hash) is a
//! measured choice, not folklore; the other two are `mjoin-reference`'s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mjoin_reference::{nested_loop_join, sort_merge_join};
use mjoin_relation::{Catalog, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A natural-join implementation.
type Join = fn(&Relation, &Relation) -> Relation;

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

fn bench_join_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_algorithms");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &rows in &[100usize, 1000] {
        for &fanout in &[1i64, 8] {
            let (r, s) = make_pair(rows, fanout);
            let algorithms: [(&str, Join); 3] = [
                ("hash", Relation::natural_join),
                ("sort_merge", sort_merge_join),
                ("nested_loop", nested_loop_join),
            ];
            for (name, join) in algorithms {
                group.bench_with_input(
                    BenchmarkId::new(name, format!("rows{rows}_fanout{fanout}")),
                    &(&r, &s),
                    |b, (r, s)| b.iter(|| join(r, s).tau()),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join_algorithms);
criterion_main!(benches);
