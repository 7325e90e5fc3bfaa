//! Thread-count invariance of the hash-join workers.
//!
//! Plan search runs on one thread; `threads` is the number of workers the
//! exact oracle's partitioned hash join (and adaptive execution's) may
//! use. A join's result is the same set at any worker count, so plans,
//! costs and counters must not move with it. These tests hold the
//! searches over a multi-worker oracle to that over randomized schemes
//! and states — and check that a tripping budget produces the *same typed
//! error* no matter how many join workers were running when it tripped.

use mjoin::{
    try_best_strategy, try_optimize, Budget, Database, ExactOracle, Guard, NoisyOracle,
    SearchSpace, Strategy,
};
use mjoin_gen::{data, schemes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected database with `n` relations, deterministic in `seed`.
fn random_db(n: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let extra = rng.gen_range(0..=2);
    let (cat, scheme) = schemes::random_connected(n, extra, &mut rng);
    data::uniform(cat, scheme, &data::DataConfig::default(), &mut rng)
}

#[test]
fn parallel_dps_are_thread_count_invariant() {
    // The product-free DP over an oracle whose joins run on 1, 2 and 4
    // workers: the same plan, bit for bit.
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
        let n = rng.gen_range(4..=8);
        let db = random_db(n, seed);
        let subset = db.scheme().full_set();
        let run = |threads: usize| {
            let oracle = ExactOracle::new(&db).with_join_threads(threads);
            try_optimize(
                &oracle,
                subset,
                SearchSpace::NoCartesian,
                &Guard::unlimited(),
            )
            .unwrap()
        };
        let base = run(1);
        for threads in [2, 4] {
            let got = run(threads);
            match (&base, &got) {
                (None, None) => {}
                (Some(b), Some(g)) => {
                    assert_eq!(g.cost, b.cost, "seed {seed} x{threads}");
                    assert_eq!(g.strategy, b.strategy, "seed {seed} x{threads}");
                }
                _ => panic!("seed {seed} x{threads}: Some/None mismatch"),
            }
        }
    }
}

#[test]
fn parallel_exhaustive_is_thread_count_invariant() {
    // The exhaustive scan over an oracle whose joins run on 1, 2 and 4
    // workers, in three subspaces: the same first minimum every time.
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE7);
        let n = rng.gen_range(4..=6);
        let db = random_db(n, seed.wrapping_add(100));
        let subset = db.scheme().full_set();
        let scheme = db.scheme().clone();
        type Accept = Box<dyn Fn(&Strategy) -> bool>;
        let filters: [(&str, Accept); 3] = [
            ("all", Box::new(|_: &Strategy| true)),
            ("linear", Box::new(|s: &Strategy| s.is_linear())),
            (
                "product-free",
                Box::new(move |s: &Strategy| !s.uses_cartesian(&scheme)),
            ),
        ];
        for (name, accept) in &filters {
            let run = |threads: usize| {
                let oracle = ExactOracle::new(&db).with_join_threads(threads);
                try_best_strategy(&oracle, subset, &Guard::unlimited(), accept.as_ref()).unwrap()
            };
            let base = run(1);
            for threads in [2, 4] {
                let got = run(threads);
                assert_eq!(got, base, "seed {seed} filter {name} x{threads}");
            }
        }
    }
}

#[test]
fn exhaustive_and_dp_agree_on_the_product_free_optimum() {
    // Cross-check the two searches against each other over a four-worker
    // oracle: the cheapest product-free strategy found by enumeration must
    // cost exactly what the product-free DP reports.
    for seed in 0..3u64 {
        let db = random_db(5, seed.wrapping_add(40));
        let subset = db.scheme().full_set();
        let scheme = db.scheme().clone();
        let oracle = ExactOracle::new(&db).with_join_threads(4);
        let guard = Guard::unlimited();
        let dp = try_optimize(&oracle, subset, SearchSpace::NoCartesian, &guard).unwrap();
        let exhaustive = try_best_strategy(&oracle, subset, &guard, &|s: &Strategy| {
            !s.uses_cartesian(&scheme)
        })
        .unwrap();
        match (dp, exhaustive) {
            (Some(p), Some((_, c))) => assert_eq!(p.cost, c, "seed {seed}"),
            (None, None) => {}
            _ => panic!("seed {seed}: DP and enumeration disagree on emptiness"),
        }
    }
}

#[test]
fn noisy_estimates_keep_the_parallel_dp_thread_count_invariant() {
    // The seeded noise is a pure function of (seed, subset), so a noisy
    // oracle over exact joins is exactly as thread-count invariant as the
    // exact one: plans searched under injected estimation error must be
    // bit-identical at 1, 2, and 4 join workers.
    for seed in 0..4u64 {
        let db = random_db(6, seed.wrapping_add(200));
        let subset = db.scheme().full_set();
        for q in [2.0, 16.0] {
            let run = |threads: usize| {
                let exact = ExactOracle::new(&db).with_join_threads(threads);
                let oracle = NoisyOracle::try_new(exact, q, seed).expect("valid envelope");
                try_optimize(
                    &oracle,
                    subset,
                    SearchSpace::NoCartesian,
                    &Guard::unlimited(),
                )
                .unwrap()
            };
            let base = run(1);
            for threads in [2, 4] {
                let got = run(threads);
                match (&base, &got) {
                    (None, None) => {}
                    (Some(b), Some(g)) => {
                        assert_eq!(g.cost, b.cost, "seed {seed} q {q} x{threads}");
                        assert_eq!(g.strategy, b.strategy, "seed {seed} q {q} x{threads}");
                    }
                    _ => panic!("seed {seed} q {q} x{threads}: Some/None mismatch"),
                }
            }
        }
    }
}

#[test]
fn tripping_budgets_error_identically_at_every_thread_count() {
    let db = random_db(6, 7);
    let subset = db.scheme().full_set();
    // A memo cap the exact oracle must blow through while materializing.
    let budget = Budget::unlimited().with_max_memo_entries(2);

    let dp_err = |threads: usize| {
        let guard = Guard::new(budget);
        let oracle = ExactOracle::with_guard(&db, guard.clone()).with_join_threads(threads);
        try_optimize(&oracle, subset, SearchSpace::NoCartesian, &guard).unwrap_err()
    };
    let base = dp_err(1);
    for threads in [2, 4] {
        assert_eq!(dp_err(threads), base, "DP error at {threads} threads");
    }

    let enum_err = |threads: usize| {
        let guard = Guard::new(budget);
        let oracle = ExactOracle::with_guard(&db, guard.clone()).with_join_threads(threads);
        try_best_strategy(&oracle, subset, &guard, &|_: &Strategy| true).unwrap_err()
    };
    let base = enum_err(1);
    for threads in [2, 4] {
        assert_eq!(
            enum_err(threads),
            base,
            "enumeration error at {threads} threads"
        );
    }
}

#[test]
fn oracle_distinct_subset_count_is_thread_invariant() {
    // The exact oracle charges each distinct subset exactly once, and the
    // join workers only change how a built subset is joined — so the
    // distinct-subset counters (counted and built) must not move with the
    // thread count.
    use mjoin_obs::{Counter, Recorder};
    for seed in 0..4u64 {
        let db = random_db(6, seed.wrapping_add(300));
        let subset = db.scheme().full_set();
        let count = |threads: usize| {
            let rec = Recorder::arm();
            let oracle = ExactOracle::new(&db).with_join_threads(threads);
            try_optimize(
                &oracle,
                subset,
                SearchSpace::NoCartesian,
                &Guard::unlimited(),
            )
            .unwrap();
            let snap = rec.snapshot();
            (
                snap.counter(Counter::OracleSubsetsCounted),
                snap.counter(Counter::OracleSubsetsMaterialized),
            )
        };
        let base = count(1);
        assert!(
            base.0 + base.1 > 0,
            "seed {seed}: the DP must price subsets"
        );
        for threads in [2, 4] {
            assert_eq!(
                count(threads),
                base,
                "seed {seed}: distinct-subset count moved at {threads} threads"
            );
        }
    }
}

#[test]
fn dp_and_exhaustive_searches_share_one_memo() {
    // One trait, one oracle: the product-free DP and the product-free
    // exhaustive scan take the same `&ExactOracle`, so the scan, run
    // second, finds every connected subset already priced.
    use mjoin_obs::{Counter, Recorder};
    let db = random_db(6, 500);
    let subset = db.scheme().full_set();
    let guard = Guard::unlimited();
    for threads in [1, 2, 4] {
        let rec = Recorder::arm();
        let priced = || {
            let snap = rec.snapshot();
            snap.counter(Counter::OracleSubsetsCounted)
                + snap.counter(Counter::OracleSubsetsMaterialized)
        };
        let oracle = ExactOracle::new(&db).with_join_threads(threads);
        let dp = try_optimize(&oracle, subset, SearchSpace::NoCartesian, &guard)
            .unwrap()
            .unwrap();
        // Each memo entry is charged to exactly one of the two counters,
        // once: a counted subset later built in place counts no second time.
        let memo = oracle.memo_len();
        let first = priced();
        assert_eq!(first, memo as u64, "{threads} threads");
        let scheme = db.scheme();
        let (_, scan) = try_best_strategy(&oracle, subset, &guard, &|s: &Strategy| {
            !s.uses_cartesian(scheme)
        })
        .unwrap()
        .unwrap();
        assert_eq!(scan, dp.cost, "{threads} threads");
        assert_eq!(oracle.memo_len(), memo, "{threads} threads: memo grew");
        assert_eq!(
            priced(),
            first,
            "{threads} threads: the second search re-priced a subset"
        );
    }
}

#[test]
fn adaptive_replan_count_is_thread_invariant() {
    // Replans trigger on q-errors, which depend only on (seed, subset) —
    // never on how many workers materialized the stages. Both the trace
    // and the `adaptive.replans` counter must agree at 1, 2, and 4 threads.
    use mjoin_adaptive::{plan_and_execute, AdaptiveConfig, Estimation};
    use mjoin_obs::{Counter, Recorder};
    for seed in 0..3u64 {
        let db = random_db(6, seed.wrapping_add(400));
        let estimation = Estimation::Noisy { q: 16.0, seed };
        let run = |threads: usize| {
            let rec = Recorder::arm();
            let config = AdaptiveConfig {
                threads,
                replan_threshold: 1.5,
                ..AdaptiveConfig::default()
            };
            let (_, outcome) = plan_and_execute(&db, &estimation, &config).unwrap();
            (
                outcome.trace.replans.len(),
                rec.snapshot().counter(Counter::AdaptiveReplans),
                outcome.result.tau(),
                outcome.trace.executed_tau,
            )
        };
        let base = run(1);
        assert_eq!(
            base.0 as u64, base.1,
            "seed {seed}: trace and counter disagree on replans"
        );
        for threads in [2, 4] {
            assert_eq!(run(threads), base, "seed {seed} at {threads} threads");
        }
    }
}
