//! Ablation: condition checking with output-sensitive connected-subset
//! enumeration vs the naive 2ⁿ filter.
//!
//! `C1`–`C4` quantify over connected subsets; how those are enumerated
//! dominates the checker's cost on sparse schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mjoin::{condition_report, ExactOracle};
use mjoin_gen::{data, data::DataConfig, schemes};
use mjoin_hypergraph::{DbScheme, RelSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn naive_connected_subsets(scheme: &DbScheme, within: RelSet) -> Vec<RelSet> {
    within
        .subsets()
        .filter(|s| !s.is_empty() && scheme.connected(*s))
        .collect()
}

fn bench_condition_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("condition_check");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Enumeration ablation.
    for &n in &[8usize, 14, 20] {
        let (_, scheme) = schemes::chain(n);
        group.bench_with_input(
            BenchmarkId::new("enumerate_output_sensitive", n),
            &scheme,
            |b, s| b.iter(|| s.connected_subsets(s.full_set()).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("enumerate_naive_filter", n),
            &scheme,
            |b, s| b.iter(|| naive_connected_subsets(s, s.full_set()).len()),
        );
    }

    // Full condition report on exact data.
    for &n in &[3usize, 5] {
        let mut rng = StdRng::seed_from_u64(11);
        let (cat, scheme) = schemes::chain(n);
        let cfg = DataConfig {
            tuples_per_relation: 5,
            domain: 6,
            ensure_nonempty: true,
        };
        let db = data::uniform(cat, scheme, &cfg, &mut rng);
        group.bench_with_input(BenchmarkId::new("condition_report", n), &db, |b, db| {
            b.iter(|| {
                let o = ExactOracle::new(db);
                condition_report(&o)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_condition_check);
criterion_main!(benches);
