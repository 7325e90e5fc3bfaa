//! Integration suite for the adaptive executor: static parity, drift
//! recovery, determinism across threads and seeds, budgets, cancellation,
//! and fault injection through the three `adaptive::*` sites.

use std::time::Duration;

use mjoin::{failpoints, Budget, CancelToken, Database, MjoinError, SearchSpace};
use mjoin_adaptive::{
    execute_adaptive, plan_and_execute, q_error, regret_sweep, AdaptiveConfig, Estimation,
};
use mjoin_gen::{data, schemes};
use mjoin_strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected database with `n` relations, deterministic in `seed`.
fn random_db(n: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let extra = rng.gen_range(0..=2);
    let (cat, scheme) = schemes::random_connected(n, extra, &mut rng);
    data::uniform(cat, scheme, &data::DataConfig::default(), &mut rng)
}

/// Any left-deep strategy over the full set, as a drift-prone initial plan.
fn left_deep_full(db: &Database) -> Strategy {
    let order: Vec<usize> = db.scheme().full_set().iter().collect();
    Strategy::left_deep(&order)
}

#[test]
fn static_execution_matches_the_strategy_executor() {
    for seed in 0..6u64 {
        let db = random_db(5, seed);
        let strategy = left_deep_full(&db);
        let outcome = execute_adaptive(
            &db,
            &strategy,
            &Estimation::Synthetic,
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.result, strategy.execute(&db), "seed {seed}");
        assert!(outcome.trace.replans.is_empty(), "seed {seed}");
        assert_eq!(
            outcome.trace.stages.len(),
            strategy.num_steps(),
            "seed {seed}"
        );
        let sum: u64 = outcome.trace.stages.iter().map(|s| s.actual).sum();
        assert_eq!(outcome.trace.executed_tau, sum, "seed {seed}");
        for s in &outcome.trace.stages {
            assert_eq!(s.q_error, q_error(s.estimated, s.actual), "seed {seed}");
        }
    }
}

#[test]
fn perfect_estimation_never_replans_even_at_the_lowest_threshold() {
    for seed in 0..4u64 {
        let db = random_db(5, seed.wrapping_add(30));
        let strategy = left_deep_full(&db);
        let config = AdaptiveConfig {
            replan_threshold: 1.0,
            ..AdaptiveConfig::default()
        };
        let outcome = execute_adaptive(&db, &strategy, &Estimation::Perfect, &config).unwrap();
        assert!(outcome.trace.replans.is_empty(), "seed {seed}");
        assert!(
            outcome.trace.stages.iter().all(|s| s.q_error == 1.0),
            "seed {seed}"
        );
        assert_eq!(outcome.result, strategy.execute(&db), "seed {seed}");
    }
}

#[test]
fn adaptive_and_static_agree_when_the_threshold_is_unreachable() {
    // The acceptance bar: with the threshold unreachable, the adaptive
    // path IS the static path — same result relation, same trace.
    for seed in 0..4u64 {
        let db = random_db(6, seed.wrapping_add(60));
        let strategy = left_deep_full(&db);
        let estimation = Estimation::Noisy { q: 16.0, seed };
        let static_out =
            execute_adaptive(&db, &strategy, &estimation, &AdaptiveConfig::default()).unwrap();
        let unreachable = AdaptiveConfig {
            replan_threshold: f64::INFINITY,
            ..AdaptiveConfig::default()
        };
        let adaptive_out = execute_adaptive(&db, &strategy, &estimation, &unreachable).unwrap();
        assert_eq!(adaptive_out.result, static_out.result, "seed {seed}");
        assert_eq!(adaptive_out.trace, static_out.trace, "seed {seed}");
    }
}

#[test]
fn drifting_estimates_trigger_replans_that_name_their_rung() {
    // Heavy noise and a hair-trigger threshold: over a small corpus at
    // least one run must re-plan, every event must carry consistent
    // bookkeeping, and the result must still be the true join.
    let mut total_replans = 0;
    for seed in 0..6u64 {
        let db = random_db(6, seed.wrapping_add(90));
        let strategy = left_deep_full(&db);
        let estimation = Estimation::Noisy { q: 16.0, seed };
        let config = AdaptiveConfig {
            replan_threshold: 1.0,
            ..AdaptiveConfig::default()
        };
        let outcome = execute_adaptive(&db, &strategy, &estimation, &config).unwrap();
        assert_eq!(
            outcome.result,
            db.evaluate(),
            "seed {seed}: result must be the true join"
        );
        for r in &outcome.trace.replans {
            assert!(r.q_error > r.threshold, "seed {seed}");
            assert!(r.after_stage >= 1 && r.after_stage <= outcome.trace.stages.len());
            let stage = &outcome.trace.stages[r.after_stage - 1];
            assert_eq!(stage.set, r.trigger, "seed {seed}");
            assert!(
                r.live.len() >= 2,
                "seed {seed}: re-plan needs ≥ 2 live nodes"
            );
            assert!(
                r.report.contains(&format!("answered by {}", r.rung)),
                "seed {seed}: report must name the rung: {}",
                r.report
            );
            assert!(!r.new_plan.is_empty(), "seed {seed}");
        }
        total_replans += outcome.trace.replans.len();
    }
    assert!(
        total_replans >= 1,
        "the corpus must exercise at least one re-plan"
    );
}

#[test]
fn adaptive_never_does_worse_than_static_under_injected_error() {
    // The regression corpus from the acceptance criteria: q-error
    // envelopes ≥ 4, unlimited budget. Re-plans answer at an optimal rung
    // (≤ 7 live nodes ⇒ exhaustive), so the adaptive executed τ can never
    // exceed the static one — the static plan's continuation is always a
    // candidate.
    let mut improved = 0;
    for seed in 0..8u64 {
        let db = random_db(7, seed.wrapping_add(200));
        for q in [4.0, 16.0] {
            let rows = regret_sweep(
                &format!("corpus-{seed}"),
                &db,
                SearchSpace::All,
                &[q],
                seed,
                2.0,
                1,
            )
            .unwrap();
            for row in rows {
                assert!(
                    row.adaptive_tau <= row.static_tau,
                    "seed {seed} q {q}: adaptive {} > static {}",
                    row.adaptive_tau,
                    row.static_tau
                );
                if row.adaptive_tau < row.static_tau {
                    improved += 1;
                }
            }
        }
    }
    assert!(
        improved >= 1,
        "re-planning should win somewhere on the corpus"
    );
}

#[test]
fn traces_are_identical_at_one_two_and_four_threads() {
    // Schemes small enough that every re-plan answers at the exhaustive
    // rung, which is bit-identical at any thread count.
    for seed in 0..4u64 {
        let db = random_db(6, seed.wrapping_add(300));
        let strategy = left_deep_full(&db);
        let estimation = Estimation::Noisy { q: 16.0, seed };
        let run = |threads: usize| {
            let config = AdaptiveConfig {
                threads,
                replan_threshold: 1.5,
                ..AdaptiveConfig::default()
            };
            execute_adaptive(&db, &strategy, &estimation, &config).unwrap()
        };
        let base = run(1);
        for threads in [2, 4] {
            let got = run(threads);
            assert_eq!(got.trace, base.trace, "seed {seed} x{threads}");
            assert_eq!(got.result, base.result, "seed {seed} x{threads}");
        }
    }
}

#[test]
fn same_seed_reproduces_the_run_bit_for_bit() {
    let db = random_db(6, 414);
    let strategy = left_deep_full(&db);
    let estimation = Estimation::Noisy { q: 8.0, seed: 5 };
    let config = AdaptiveConfig {
        replan_threshold: 1.5,
        ..AdaptiveConfig::default()
    };
    let a = execute_adaptive(&db, &strategy, &estimation, &config).unwrap();
    let b = execute_adaptive(&db, &strategy, &estimation, &config).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.result, b.result);
}

#[test]
fn max_replans_zero_is_the_static_path() {
    let db = random_db(6, 500);
    let strategy = left_deep_full(&db);
    let estimation = Estimation::Noisy { q: 16.0, seed: 1 };
    let config = AdaptiveConfig {
        replan_threshold: 1.0,
        max_replans: 0,
        ..AdaptiveConfig::default()
    };
    let outcome = execute_adaptive(&db, &strategy, &estimation, &config).unwrap();
    assert!(outcome.trace.replans.is_empty());
    assert_eq!(outcome.result, strategy.execute(&db));
}

#[test]
fn empty_intermediates_are_infinite_drift_and_still_finish() {
    // Two relations that cannot join: the first pair stage materializes φ,
    // the estimator (floored at ≥ 1 on nonempty inputs) misses it, q = ∞
    // fires a re-plan, and the final result is correctly empty.
    let db = Database::from_specs(&[
        ("AB", vec![vec![1, 10], vec![2, 20]]),
        ("BC", vec![vec![99, 5], vec![98, 6]]), // no B value matches
        ("CD", vec![vec![5, 7], vec![6, 8]]),
    ])
    .unwrap();
    let strategy = left_deep_full(&db);
    let config = AdaptiveConfig {
        replan_threshold: 4.0,
        ..AdaptiveConfig::default()
    };
    let outcome = execute_adaptive(&db, &strategy, &Estimation::Synthetic, &config).unwrap();
    assert!(outcome.result.is_empty());
    assert_eq!(outcome.trace.stages[0].actual, 0);
    assert!(outcome.trace.stages[0].q_error.is_infinite());
    assert_eq!(outcome.trace.replans.len(), 1);
}

#[test]
fn deadlines_and_cancellation_surface_as_typed_errors() {
    let db = random_db(6, 600);
    let strategy = left_deep_full(&db);
    let config = AdaptiveConfig {
        budget: Budget::unlimited().with_deadline(Duration::ZERO),
        ..AdaptiveConfig::default()
    };
    let err = execute_adaptive(&db, &strategy, &Estimation::Synthetic, &config).unwrap_err();
    assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err:?}");

    let cancel = CancelToken::new();
    cancel.cancel();
    let config = AdaptiveConfig {
        cancel: Some(cancel),
        ..AdaptiveConfig::default()
    };
    let err = execute_adaptive(&db, &strategy, &Estimation::Synthetic, &config).unwrap_err();
    assert!(matches!(err, MjoinError::Cancelled), "{err:?}");
}

#[test]
fn tuple_caps_bound_execution() {
    let db = random_db(6, 700);
    let strategy = left_deep_full(&db);
    let config = AdaptiveConfig {
        budget: Budget::unlimited().with_max_tuples(1),
        ..AdaptiveConfig::default()
    };
    let err = execute_adaptive(&db, &strategy, &Estimation::Synthetic, &config).unwrap_err();
    assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err:?}");
}

#[test]
fn plan_and_execute_round_trips_every_estimation_mode() {
    let db = random_db(5, 800);
    for estimation in [
        Estimation::Perfect,
        Estimation::Synthetic,
        Estimation::Noisy { q: 4.0, seed: 2 },
    ] {
        let (plan, outcome) =
            plan_and_execute(&db, &estimation, &AdaptiveConfig::default()).unwrap();
        assert_eq!(outcome.result, db.evaluate(), "{estimation:?}");
        assert_eq!(outcome.trace.stages.len(), plan.strategy.num_steps());
    }
}

#[test]
fn invalid_inputs_are_typed_errors() {
    let db = random_db(4, 900);
    // Partial strategy.
    let partial = Strategy::left_deep(&[0, 1]);
    let err = execute_adaptive(
        &db,
        &partial,
        &Estimation::Synthetic,
        &AdaptiveConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, MjoinError::InvalidScheme(_)), "{err:?}");
    // Bad threshold.
    for bad in [0.5, f64::NAN] {
        let config = AdaptiveConfig {
            replan_threshold: bad,
            ..AdaptiveConfig::default()
        };
        let strategy = left_deep_full(&db);
        let err = execute_adaptive(&db, &strategy, &Estimation::Synthetic, &config).unwrap_err();
        assert!(
            matches!(err, MjoinError::InvalidScheme(_)),
            "{bad}: {err:?}"
        );
    }
}

#[test]
fn every_adaptive_failpoint_yields_a_typed_error() {
    let db = random_db(5, 1000);
    let strategy = left_deep_full(&db);
    // `adaptive::materialize` and `adaptive::stage` fire on every run;
    // `adaptive::replan` needs drift, so run under heavy noise with a
    // hair-trigger threshold (the drift corpus above proves this fires).
    let config = AdaptiveConfig {
        replan_threshold: 1.0,
        ..AdaptiveConfig::default()
    };
    let estimation = Estimation::Noisy { q: 16.0, seed: 0 };
    // Sanity: with no site armed this run re-plans (so the replan site is
    // actually on the executed path).
    let clean = execute_adaptive(&db, &strategy, &estimation, &config).unwrap();
    assert!(
        !clean.trace.replans.is_empty(),
        "pick a drifting seed for this test"
    );
    for site in [
        "adaptive::materialize",
        "adaptive::stage",
        "adaptive::replan",
    ] {
        let fp = failpoints::ScopedFailpoint::arm(site);
        let err = execute_adaptive(&db, &strategy, &estimation, &config).unwrap_err();
        assert!(matches!(err, MjoinError::Internal(_)), "{site}: {err:?}");
        assert!(err.to_string().contains(site), "{site}: {err}");
        drop(fp);
        assert!(failpoints::armed().is_empty());
    }
}

#[test]
fn single_relation_queries_execute_without_stages() {
    let db = Database::from_specs(&[("AB", vec![vec![1, 10], vec![2, 20]])]).unwrap();
    let strategy = Strategy::leaf(0);
    let outcome = execute_adaptive(
        &db,
        &strategy,
        &Estimation::Synthetic,
        &AdaptiveConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.result, *db.state(0));
    assert!(outcome.trace.stages.is_empty());
    assert_eq!(outcome.trace.executed_tau, 0);
}
