//! Differential tests over a seeded corpus: every optimizer that claims
//! the product-free optimum must agree on τ, the heuristics must never
//! beat it, and the DP's work counters must match closed-form counts.
//!
//! The corpus is generated (chains, stars, cliques ≤ 10 relations, seeded
//! uniform data), so these are *engine-vs-engine* checks — no hand-priced
//! expectations to go stale. The observability layer turns the same suite
//! into a work-count lockdown: `dp.subsets_expanded` on an n-chain must be
//! exactly n(n+1)/2 (the number of connected subgraphs of a path), and
//! `exhaustive.strategies_enumerated` must be (2k−3)!!.

use mjoin::{optimize_robust, try_optimize, Budget, ExactOracle, Guard, Plan, Rung, SearchSpace};
use mjoin_gen::data::{self, DataConfig};
use mjoin_gen::schemes;
use mjoin_obs::{Counter, Recorder};
use mjoin_optimizer::{try_best_bushy, try_best_no_cartesian, try_greedy_bushy, try_greedy_linear};
use mjoin_reference::{try_best_no_cartesian_ccp_rescan, try_best_no_cartesian_dpsize};
use mjoin_strategy::try_best_strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mjoin_cost::Database;

/// Seeded corpus: product-free-searchable (connected) schemes with small
/// uniform states. Sizes are kept where exhaustive enumeration ((2k−3)!!
/// strategies) stays in the thousands.
fn corpus() -> Vec<(String, Database)> {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let cfg = DataConfig {
        tuples_per_relation: 6,
        domain: 4,
        ensure_nonempty: true,
    };
    let mut out = Vec::new();
    for n in 3..=6 {
        let (c, s) = schemes::chain(n);
        out.push((format!("chain{n}"), data::uniform(c, s, &cfg, &mut rng)));
    }
    for n in 3..=6 {
        let (c, s) = schemes::star(n);
        out.push((format!("star{n}"), data::uniform(c, s, &cfg, &mut rng)));
    }
    for n in 3..=5 {
        let (c, s) = schemes::clique(n);
        out.push((format!("clique{n}"), data::uniform(c, s, &cfg, &mut rng)));
    }
    out
}

/// Every engine that claims the product-free optimum agrees on τ:
/// exhaustive enumeration, DPsize and DPccp.
#[test]
fn all_product_free_optimizers_agree_on_tau() {
    for (name, db) in corpus() {
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let scheme = db.scheme();

        let shared = ExactOracle::new(&db);
        let accept = |s: &mjoin::Strategy| !s.uses_cartesian(scheme);
        let exhaustive = try_best_strategy(&shared, full, &guard, &accept)
            .unwrap()
            .expect("connected scheme has a product-free strategy");

        let mut taus = vec![("exhaustive", exhaustive.1)];
        for algo in ["DpSize", "DpCcp"] {
            let oracle = ExactOracle::new(&db);
            let plan = match algo {
                "DpSize" => try_best_no_cartesian_dpsize(&oracle, full, &guard),
                _ => try_best_no_cartesian(&oracle, full, &guard),
            };
            let plan = plan
                .unwrap()
                .expect("connected scheme has a product-free DP plan");
            taus.push(("dp", plan.cost));
        }
        let reference = taus[0].1;
        for (engine, tau) in &taus {
            assert_eq!(
                *tau, reference,
                "{name}: {engine} disagrees with exhaustive (τ {tau} vs {reference})"
            );
        }
    }
}

/// Chains long enough that τ saturates to `u64::MAX`: every split of every
/// large connected subset ties at the saturated cost, so an enumerator
/// that accepts only a strictly cheaper candidate leaves those subsets
/// unsolved and calls the space empty. DPsize (the independent reference),
/// DPccp and the retained rescan DPccp must all answer with the same cost,
/// and the ladder's exact `Dp` rung must be the one that answers, at one
/// hash-join thread and at two.
#[test]
fn saturating_chains_are_solved_by_every_product_free_dp() {
    let cfg = DataConfig {
        tuples_per_relation: 3000,
        domain: 10,
        ensure_nonempty: true,
    };
    for n in [36, 40, 44] {
        let (c, s) = schemes::chain(n);
        let db = data::uniform(c, s, &cfg, &mut StdRng::seed_from_u64(1));
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let oracle = ExactOracle::new(&db);
        let solve = |engine: &str, plan: Option<Plan>| -> (String, u64) {
            let plan = plan.unwrap_or_else(|| panic!("chain{n}: {engine} calls the space empty"));
            (engine.to_string(), plan.cost)
        };
        let nocp = SearchSpace::NoCartesian;
        let costs = [
            solve(
                "dpsize",
                try_best_no_cartesian_dpsize(&oracle, full, &guard).unwrap(),
            ),
            solve("dpccp", try_optimize(&oracle, full, nocp, &guard).unwrap()),
            solve(
                "dpccp-rescan",
                try_best_no_cartesian_ccp_rescan(&oracle, full, &guard).unwrap(),
            ),
        ];
        for (engine, cost) in &costs {
            assert_eq!(
                *cost,
                u64::MAX,
                "chain{n}: {engine} must see the saturation"
            );
        }
        for threads in [1, 2] {
            let r = optimize_robust(
                &db,
                full,
                nocp,
                Budget::unlimited(),
                None,
                threads,
                Rung::Exhaustive,
            )
            .unwrap();
            assert_eq!(
                r.report.answered_by,
                Rung::Dp,
                "chain{n} @{threads}: {}",
                r.report
            );
            assert_eq!(r.plan.cost, u64::MAX, "chain{n} @{threads}");
        }
    }
}

/// The greedy heuristics are admissible upper bounds: never cheaper than
/// the bushy optimum over the full space.
#[test]
fn greedy_never_beats_the_optimum() {
    for (name, db) in corpus() {
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let oracle = ExactOracle::new(&db);
        let best = try_best_bushy(&oracle, full, &guard).unwrap();
        let bushy = try_greedy_bushy(&oracle, full, &guard).unwrap();
        let linear = try_greedy_linear(&oracle, full, &guard).unwrap();
        assert!(
            bushy.cost >= best.cost,
            "{name}: greedy bushy {} beats the optimum {}",
            bushy.cost,
            best.cost
        );
        assert!(
            linear.cost >= best.cost,
            "{name}: greedy linear {} beats the optimum {}",
            linear.cost,
            best.cost
        );
    }
}

/// On an n-chain the connected subgraphs are exactly the contiguous runs:
/// n(n+1)/2 of them. Both bottom-up DPs expand (insert into their table)
/// each connected subset exactly once, so `dp.subsets_expanded` must hit
/// that closed form.
#[test]
fn chain_dp_expands_the_closed_form_subset_count() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = DataConfig::default();
    for n in 2..=8usize {
        let (c, s) = schemes::chain(n);
        let db = data::uniform(c, s, &cfg, &mut rng);
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let expected = (n * (n + 1) / 2) as u64;

        for algo in ["DpSize", "DpCcp"] {
            let rec = Recorder::arm();
            let oracle = ExactOracle::new(&db);
            let plan = match algo {
                "DpSize" => try_best_no_cartesian_dpsize(&oracle, full, &guard),
                _ => try_best_no_cartesian(&oracle, full, &guard),
            };
            plan.unwrap().expect("chains are connected");
            let snap = rec.snapshot();
            assert_eq!(
                snap.counter(Counter::DpSubsetsExpanded),
                expected,
                "chain{n} {algo}: expanded subsets must be n(n+1)/2"
            );
        }
    }
}

/// DPccp's candidate scan is output-sensitive: on a 12-chain the streaming
/// csg–cmp enumerator emits exactly the n(n−1)(n+1)/6 = 286 valid
/// (contiguous-run, contiguous-run) splits, the DP scans each pair exactly
/// once — no per-target `connected_subsets` rescans — and still expands
/// every one of the n(n+1)/2 = 78 connected subsets.
#[test]
fn chain_dpccp_scans_only_the_emitted_ccp_pairs() {
    // Closed-form oracle: 12 relations of exact materialization would
    // dominate the test; the counters under scrutiny are pure plan-search
    // counts and identical for any oracle.
    let n = 12usize;
    let (_c, s) = schemes::chain(n);
    let full = s.full_set();
    let guard = Guard::unlimited();
    let pairs = (n * (n - 1) * (n + 1) / 6) as u64;
    let subsets = (n * (n + 1) / 2) as u64;

    let rec = Recorder::arm();
    let oracle = mjoin::SyntheticOracle::new(s.clone(), vec![1000; n], 500);
    try_best_no_cartesian(&oracle, full, &guard)
        .unwrap()
        .expect("chains are connected");
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::DpCcpPairsEmitted), pairs);
    assert_eq!(
        snap.counter(Counter::DpCandidatesScanned),
        pairs,
        "every scanned candidate must be an emitted csg–cmp pair"
    );
    assert_eq!(snap.counter(Counter::DpSubsetsExpanded), subsets);
}

/// Exhaustive enumeration visits exactly (2k−3)!! strategies, and the
/// counter sees each exactly once.
#[test]
fn exhaustive_enumeration_count_is_the_double_factorial() {
    let double_factorial = |k: usize| -> u64 {
        // (2k−3)!! for k ≥ 2; 1 for k = 1.
        let mut out = 1u64;
        let mut i = 2 * k as u64 - 3;
        while i >= 2 {
            out *= i;
            i -= 2;
        }
        out
    };
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = DataConfig::default();
    for n in 2..=6usize {
        let (c, s) = schemes::chain(n);
        let db = data::uniform(c, s, &cfg, &mut rng);
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let rec = Recorder::arm();
        let oracle = ExactOracle::new(&db);
        try_best_strategy(&oracle, full, &guard, &|_| true)
            .unwrap()
            .expect("the unrestricted space is never empty");
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(Counter::ExhaustiveStrategies),
            double_factorial(n),
            "chain{n}: enumeration count"
        );
    }
}

/// Repeated single-threaded runs produce bit-identical counter snapshots —
/// the whole vector, not just the headline numbers. (Spans carry wall-clock
/// time and are excluded by the determinism contract.)
#[test]
fn single_threaded_counter_snapshots_are_reproducible() {
    let take = |db: &Database| {
        let rec = Recorder::arm();
        let full = db.scheme().full_set();
        let guard = Guard::unlimited();
        let oracle = ExactOracle::new(db);
        try_best_no_cartesian(&oracle, full, &guard)
            .unwrap()
            .expect("corpus schemes are connected");
        try_greedy_bushy(&oracle, full, &guard).unwrap();
        let snap = rec.snapshot();
        snap.counters_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>()
    };
    for (name, db) in corpus() {
        let first = take(&db);
        let second = take(&db);
        assert_eq!(
            first, second,
            "{name}: counter snapshot must be reproducible"
        );
    }
}
