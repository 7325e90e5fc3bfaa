//! Robustness of the budgeted pipeline: hostile inputs under tight
//! budgets, cancellation of long-running searches, and the guarantee that
//! resource governance never changes an answer when it isn't binding.

use std::time::{Duration, Instant};

use mjoin::{
    optimize_database_robust_threaded, try_greedy_bushy, try_optimize, Budget, CancelToken,
    CardinalityOracle, Database, ExactOracle, Guard, MjoinError, Rung, SearchSpace,
};
use mjoin_gen::{data, data::DataConfig, schemes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A clique join graph: `n` relations that all share attribute `X`, each
/// with `2 · per_x` tuples spread over two `X` values. Every pair joins,
/// and the join of any `k` of them has `2 · per_x^k` tuples — intermediate
/// results grow geometrically, which is exactly what a budget must tame.
fn clique_db(n: usize, per_x: i64) -> Database {
    const NAMES: [&str; 14] = [
        "XA", "XB", "XC", "XD", "XE", "XF", "XG", "XH", "XI", "XJ", "XK", "XL", "XM", "XN",
    ];
    assert!(n <= NAMES.len());
    let specs: Vec<(&str, Vec<Vec<i64>>)> = NAMES[..n]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut rows = Vec::new();
            for x in 0..2i64 {
                for j in 0..per_x {
                    rows.push(vec![x, 1000 + (i as i64) * 100 + x * 10 + j]);
                }
            }
            (*name, rows)
        })
        .collect();
    Database::from_specs(&specs).unwrap()
}

/// A genuinely cyclic clique: `schemes::clique(n)` gives every pair of
/// relations an attribute of its own, so every sub-scheme of three or more
/// relations is α-cyclic and the exact oracle must *build* it (the `X`
/// clique above is α-acyclic — a star through `X` — so it is counted
/// without a single tuple). Uniform binary values, `rows` tuples per
/// relation: joining `k` relations keeps about `rows^k / 2^(k(k−1)/2)`.
fn cyclic_clique_db(n: usize, rows: usize) -> Database {
    let (cat, scheme) = schemes::clique(n);
    let config = DataConfig {
        tuples_per_relation: rows,
        domain: 2,
        ensure_nonempty: true,
    };
    data::uniform(cat, scheme, &config, &mut StdRng::seed_from_u64(14))
}

/// The ISSUE's acceptance scenario: a 14-relation clique under a 50 ms
/// deadline. Exhaustive search is out (n > 7), the DP cannot finish, the
/// exact oracle cannot even materialize the big intermediates — yet the
/// ladder must hand back a valid covering strategy, promptly, with a
/// report naming the rung that answered.
#[test]
fn hostile_clique_under_tight_deadline_returns_valid_plan() {
    let db = clique_db(14, 4);
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(50));
    let started = Instant::now();
    let r = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    let elapsed = started.elapsed();

    // No hang: the deadline is 50 ms; allow generous slack for slow CI.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    // A valid strategy covering every relation, always.
    assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
    assert!(r.plan.strategy.validate(db.scheme()));

    // The report names the answering rung and explains the ones above it.
    assert!(r.report.answered_by >= Rung::Dp, "{}", r.report);
    assert!(!r.report.attempts.is_empty());
    let text = r.report.to_string();
    assert!(
        text.contains(&r.report.answered_by.to_string()),
        "report must name the rung: {text}"
    );
    assert!(
        text.contains("enumeration cutoff"),
        "exhaustive rung must be reported as skipped: {text}"
    );
}

/// A clique whose binding limit is the intermediate-tuple cap: the exact
/// oracle's materialization of the cyclic sub-joins trips it
/// deterministically, and the ladder degrades instead of failing. Plan
/// search runs on one thread, so no two workers build the same subset and
/// the cap trips at the same rung, with the same plan and the same
/// per-attempt notes, at every hash-join thread count, run after run.
#[test]
fn hostile_clique_under_tuple_cap_degrades() {
    let db = cyclic_clique_db(14, 12);
    let budget = Budget::unlimited().with_max_tuples(10_000);
    for space in [SearchSpace::All, SearchSpace::NoCartesian] {
        let run = |threads| {
            let r = optimize_database_robust_threaded(&db, space, budget, None, threads).unwrap();
            let outcomes: Vec<String> = r
                .report
                .attempts
                .iter()
                .map(|a| a.outcome.clone())
                .collect();
            (r, outcomes)
        };
        let (r, outcomes) = run(1);
        assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
        assert!(r.plan.strategy.validate(db.scheme()));
        assert!(r.report.answered_by > Rung::Dp, "{space:?}: {}", r.report);
        // Some rung above must have reported a budget trip, not a skip.
        assert!(
            outcomes.iter().any(|o| o.contains("budget exceeded")),
            "{space:?}: {}",
            r.report
        );
        for threads in [1, 2, 4] {
            for round in 0..3 {
                let (again, again_outcomes) = run(threads);
                let case = format!("{space:?}, {threads} threads, round {round}");
                assert_eq!(again.report.answered_by, r.report.answered_by, "{case}");
                assert_eq!(again.plan.cost, r.plan.cost, "{case}");
                assert_eq!(again_outcomes, outcomes, "{case}");
            }
        }
    }
}

/// Every rung the ladder actually ran — failed attempts and the answering
/// rung alike — records what it consumed: elapsed wall clock plus the memo
/// entries and intermediate tuples charged to the guard. Skipped rungs
/// record zeros, and none of this leaks into the `Display` line the CLI
/// prints.
#[test]
fn rung_attempts_record_elapsed_and_budget_consumed() {
    let db = cyclic_clique_db(14, 12);
    let budget = Budget::unlimited().with_max_tuples(10_000);
    let r = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    // At n = 14 the exhaustive rung is skipped (space too large) without
    // doing any work; the DP rung runs and trips the tuple cap.
    let skipped = r
        .report
        .attempts
        .iter()
        .find(|a| a.rung == Rung::Exhaustive)
        .expect("exhaustive rung is attempted first");
    assert!(skipped.outcome.contains("skipped"), "{}", skipped.outcome);
    assert_eq!(skipped.stats, mjoin::RungStats::default());
    let tripped = r
        .report
        .attempts
        .iter()
        .find(|a| a.outcome.contains("budget exceeded"))
        .expect("some rung trips the tuple cap");
    assert!(
        tripped.stats.tuples_used > 0,
        "a tripping rung must have consumed tuples: {:?}",
        tripped.stats
    );
    // The answering rung's own consumption is recorded on the report.
    assert!(
        r.report.answered_stats.memo_used > 0 || r.report.answered_stats.tuples_used > 0,
        "{:?}",
        r.report.answered_stats
    );
    // Display stays the pre-stats format: rungs and outcomes only.
    let line = r.report.to_string();
    assert!(line.starts_with("answered by "), "{line}");
    assert!(
        !line.contains("memo"),
        "stats must not leak into Display: {line}"
    );
    assert!(
        !line.contains("elapsed"),
        "stats must not leak into Display: {line}"
    );
}

/// Stats are budget *consumption*, so the deterministic caps make them
/// reproducible run to run (elapsed excepted — wall clock is explicitly
/// outside the determinism contract).
#[test]
fn rung_budget_consumption_is_deterministic() {
    let db = clique_db(10, 2);
    let budget = Budget::unlimited().with_max_memo_entries(16);
    let a = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    let b = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    assert_eq!(
        a.report.answered_stats.memo_used,
        b.report.answered_stats.memo_used
    );
    assert_eq!(
        a.report.answered_stats.tuples_used,
        b.report.answered_stats.tuples_used
    );
    for (x, y) in a.report.attempts.iter().zip(&b.report.attempts) {
        assert_eq!(x.rung, y.rung);
        assert_eq!(x.stats.memo_used, y.stats.memo_used);
        assert_eq!(x.stats.tuples_used, y.stats.tuples_used);
    }
}

/// A 60-relation query — hostile to every exact rung: the exhaustive
/// enumeration is skipped outright (n > 7) and the full DP's `2⁶⁰` subset
/// space devours its budget without finishing. The polynomial rungs must
/// pick it up: the ladder answers from `LinDp` or `PartitionedDp` with a
/// valid covering plan, never falling all the way to greedy.
#[test]
fn sixty_relation_chain_is_answered_by_a_polynomial_rung() {
    let mut rng = StdRng::seed_from_u64(60);
    let (cat, scheme) = schemes::chain(60);
    // Domain 4 keeps the exact intermediates small (≈ tuples²/domain per
    // step), so the polynomial rungs can afford their τ queries — the
    // hostility here is the 2⁶⁰ search space, not the data volume.
    let cfg = DataConfig {
        tuples_per_relation: 2,
        domain: 4,
        ensure_nonempty: true,
    };
    let db = data::uniform(cat, scheme, &cfg, &mut rng);
    // A work cap, not a wall-clock deadline, so the outcome does not
    // depend on how fast or how loaded the host is: the cap is charged to
    // each rung whole, the full DP's 2⁶⁰ subsets run through it at once,
    // and the 60·61/2 = 1830 intervals of the linearized DP fit several
    // times over.
    let budget = Budget::unlimited().with_max_memo_entries(16_384);
    let r = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();

    assert!(
        matches!(r.report.answered_by, Rung::LinDp | Rung::PartitionedDp),
        "a polynomial rung must answer the 60-relation chain: {}",
        r.report
    );
    assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
    assert!(r.plan.strategy.validate(db.scheme()));
    // The DP above it really was attempted and really did trip its budget.
    assert!(
        r.report
            .attempts
            .iter()
            .any(|a| a.rung == Rung::Dp && a.outcome.contains("budget exceeded")),
        "{}",
        r.report
    );
}

/// The product-free DP's split scan polls its guard on a stride. On a star
/// or a tree nearly all of a subset's `2^{n−1}` splits are pruned by the
/// connectivity test without touching the oracle, so before the stride
/// poll one subset's scan ran far past the Dp rung's slice (a 24-star
/// answered an 80 ms request in ~330 ms; a 50-tree pinned a serve worker
/// for a minute), every rung below found the deadline spent, and the
/// ladder fell through to an uncosted fallback.
#[test]
fn product_free_dp_honours_its_deadline_on_stars_and_trees() {
    let deadline = Duration::from_millis(80);
    let cfg = DataConfig {
        tuples_per_relation: 2,
        domain: 4,
        ensure_nonempty: true,
    };
    let mut rng = StdRng::seed_from_u64(24);
    let (cat, scheme) = schemes::star(24);
    let star = data::uniform(cat, scheme, &cfg, &mut rng);
    let (cat, scheme) = schemes::random_tree(30, &mut rng);
    let tree = data::uniform(cat, scheme, &cfg, &mut rng);
    for (name, db) in [("star-24", &star), ("tree-30", &tree)] {
        let full = db.scheme().full_set();
        // Real wall-clock deadlines ⇒ sensitive to scheduler noise; allow
        // a couple of retries, as for the chain above.
        let mut last = String::new();
        let ok = (0..3).any(|_| {
            let guard = Guard::new(Budget::unlimited().with_deadline(deadline));
            let oracle = ExactOracle::with_guard(db, guard.clone());
            let started = Instant::now();
            let dp = try_optimize(&oracle, full, SearchSpace::NoCartesian, &guard);
            let dp_elapsed = started.elapsed();

            let budget = Budget::unlimited().with_deadline(deadline);
            let started = Instant::now();
            let space = SearchSpace::NoCartesian;
            let r = optimize_database_robust_threaded(db, space, budget, None, 1).unwrap();
            let ladder_elapsed = started.elapsed();
            assert_eq!(r.plan.strategy.set(), full);
            assert!(r.plan.strategy.validate(db.scheme()));

            last = format!(
                "dp {dp:?} in {dp_elapsed:?}; ladder in {ladder_elapsed:?}: {}",
                r.report
            );
            // The Dp rung kept to its slice, so the rung below it ran.
            let lindp_ran = r
                .report
                .attempts
                .iter()
                .all(|a| a.rung != Rung::LinDp || !a.outcome.starts_with("skipped"));
            // How far the polynomial rungs get in their slices is the
            // machine's business; an optimized build answers from one of
            // them, costed.
            let costed = r.report.answered_by < Rung::Fallback && r.plan.cost != u64::MAX;
            matches!(dp, Err(MjoinError::BudgetExceeded { .. }))
                && dp_elapsed < 2 * deadline
                && ladder_elapsed < 2 * deadline
                && lindp_ran
                && (costed || cfg!(debug_assertions))
        });
        assert!(ok, "{name}: {last}");
    }
}

/// Cancellation from another thread interrupts a search that would
/// otherwise run for a very long time (the 12-relation clique DP), and
/// surfaces as `Cancelled` — not as a degraded answer and not as a hang.
#[test]
fn cancellation_interrupts_a_long_search() {
    let db = clique_db(12, 4);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let started = Instant::now();
    let err = optimize_database_robust_threaded(
        &db,
        SearchSpace::All,
        Budget::unlimited(),
        Some(&token),
        1,
    )
    .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, MjoinError::Cancelled);
    assert!(started.elapsed() < Duration::from_secs(60));
}

/// The memo cap alone (no deadline) is deterministic: same input, same
/// trip point, same rung, same strategy — run twice and compare.
#[test]
fn capped_runs_are_deterministic() {
    let db = clique_db(10, 2);
    let budget = Budget::unlimited().with_max_memo_entries(16);
    let a = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    let b = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
    assert_eq!(a.report.answered_by, b.report.answered_by);
    assert!(a.plan.strategy.eq_unordered(&b.plan.strategy));
    assert_eq!(a.plan.cost, b.plan.cost);
}

fn random_db(seed: u64, n: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cat, scheme) = schemes::random_tree(n, &mut rng);
    let cfg = DataConfig {
        tuples_per_relation: 4,
        domain: 4,
        ensure_nonempty: true,
    };
    data::uniform(cat, scheme, &cfg, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property (a): however tight the budget, the ladder still returns a
    /// valid strategy covering every relation.
    #[test]
    fn budget_exhausted_runs_still_cover_all_relations(
        seed: u64,
        n in 2usize..6,
        cap in 1u64..16,
    ) {
        let db = random_db(seed, n);
        let budget = Budget::unlimited()
            .with_max_memo_entries(cap)
            .with_max_tuples(cap);
        let r = optimize_database_robust_threaded(&db, SearchSpace::All, budget, None, 1).unwrap();
        prop_assert_eq!(r.plan.strategy.set(), db.scheme().full_set());
        prop_assert!(r.plan.strategy.validate(db.scheme()));
    }

    /// Property (b): with no budget pressure the ladder answers at an
    /// optimal rung, so its cost is never worse than the greedy heuristic.
    #[test]
    fn ladder_never_worse_than_greedy(seed: u64, n in 2usize..6) {
        let db = random_db(seed, n);
        let r = optimize_database_robust_threaded(&db, SearchSpace::All, Budget::unlimited(), None, 1)
            .unwrap();
        prop_assert!(r.report.optimal, "{}", r.report);
        let oracle = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let greedy = try_greedy_bushy(&oracle, full, &Guard::unlimited()).unwrap();
        prop_assert!(
            r.plan.cost <= greedy.cost,
            "ladder {} vs greedy {}",
            r.plan.cost,
            greedy.cost
        );
    }

    /// Property (c): an unlimited guard (fault injection disabled) is
    /// invisible — the guarded entry points return exactly what the legacy
    /// unguarded ones do, in every search space.
    #[test]
    fn unlimited_guard_is_bit_identical_to_unguarded(seed: u64, n in 2usize..5) {
        let db = random_db(seed, n);
        let full = db.scheme().full_set();
        for space in [
            SearchSpace::All,
            SearchSpace::Linear,
            SearchSpace::NoCartesian,
            SearchSpace::LinearNoCartesian,
            SearchSpace::AvoidCartesian,
        ] {
            let legacy_oracle = ExactOracle::new(&db);
            let legacy = mjoin::optimize(&legacy_oracle, full, space);
            let guarded_oracle = ExactOracle::new(&db);
            let guarded =
                try_optimize(&guarded_oracle, full, space, &Guard::unlimited()).unwrap();
            match (legacy, guarded) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.cost, b.cost, "{:?}", space);
                    prop_assert_eq!(
                        format!("{:?}", a.strategy),
                        format!("{:?}", b.strategy),
                        "{:?}",
                        space
                    );
                }
                (a, b) => prop_assert!(false, "{:?}: {:?} vs {:?}", space, a, b),
            }
        }
        // And the oracles did the same materialization work.
        prop_assert_eq!(
            legacy_tau_profile(&db),
            guarded_tau_profile(&db)
        );
    }
}

/// Every subset's τ via the legacy infallible surface.
fn legacy_tau_profile(db: &Database) -> Vec<u64> {
    let oracle = ExactOracle::new(db);
    subsets(db).into_iter().map(|s| oracle.tau(s)).collect()
}

/// Every subset's τ via the guarded surface under an unlimited guard.
fn guarded_tau_profile(db: &Database) -> Vec<u64> {
    let oracle = ExactOracle::with_guard(db, Guard::unlimited());
    subsets(db)
        .into_iter()
        .map(|s| oracle.try_tau(s).unwrap())
        .collect()
}

fn subsets(db: &Database) -> Vec<mjoin::RelSet> {
    let n = db.scheme().len();
    (1u32..(1 << n))
        .map(|bits| mjoin::RelSet::from_indices((0..n).filter(move |&i| bits & (1u32 << i) != 0)))
        .collect()
}

/// Deadline accounting under contention: several budgeted searches racing
/// on the same machine must each come back close to their own deadline —
/// the rung-slice arithmetic may not let queueing behind siblings inflate
/// a 60 ms budget into seconds. The slack bound is deliberately loose for
/// CI (the guard polls the clock every 64 oracle operations, so one poll
/// interval of overshoot is legitimate), but it is far below the
/// multi-second overshoot a slicing bug produces on this clique.
#[test]
fn concurrent_threaded_searches_respect_their_deadlines() {
    let deadline = Duration::from_millis(60);
    let slack = Duration::from_millis(2000);
    let results: Vec<(Duration, mjoin::RobustPlan)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    // Distinct sizes so the racing searches don't share a
                    // lockstep work profile.
                    let db = clique_db(10 + i % 4, 4);
                    let budget = Budget::unlimited().with_deadline(deadline);
                    let started = Instant::now();
                    let r = mjoin::optimize_database_robust_threaded(
                        &db,
                        SearchSpace::All,
                        budget,
                        None,
                        2,
                    )
                    .unwrap();
                    (started.elapsed(), r)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (elapsed, r) in &results {
        assert!(
            *elapsed < deadline + slack,
            "deadline {deadline:?} overshot to {elapsed:?} under contention: {}",
            r.report
        );
        assert!(r.plan.strategy.set().len() >= 10);
    }
}

/// One `CancelToken` observed by several concurrent ladder searches: every
/// search reports the typed `Cancelled` error — no thread hangs, and no
/// thread smuggles out a partial plan instead of the error.
#[test]
fn concurrent_searches_all_observe_one_cancellation() {
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let results: Vec<(Duration, Result<mjoin::RobustPlan, MjoinError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let token = token.clone();
                s.spawn(move || {
                    // Long enough (12-relation clique DP) that every
                    // thread is still searching at cancel time.
                    let db = clique_db(12, 4);
                    let started = Instant::now();
                    let r = mjoin::optimize_database_robust_threaded(
                        &db,
                        SearchSpace::All,
                        Budget::unlimited(),
                        Some(&token),
                        2,
                    );
                    (started.elapsed(), r)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    canceller.join().unwrap();
    for (elapsed, result) in results {
        assert_eq!(
            result.err(),
            Some(MjoinError::Cancelled),
            "every concurrent search must surface the typed cancellation"
        );
        assert!(elapsed < Duration::from_secs(60), "cancel must be prompt");
    }
}

/// The façade's Result conversion keeps the analysis itself unchanged: an
/// unlimited guard produces the same `Analysis` as the plain entry point.
#[test]
fn guarded_facade_matches_unguarded_on_paper_examples() {
    for db in [data::paper_example4(), data::paper_example5()] {
        let plain = mjoin::analyze(&db).unwrap();
        let guarded = mjoin::analyze_guarded(&db, &Guard::unlimited()).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{guarded:?}"));
    }
}
