//! Property tests for the oracle layer: exactness, memo transparency, and
//! the inequalities the paper takes for granted.

use mjoin_cost::{CardinalityOracle, Database, ExactOracle, NoisyOracle, SyntheticOracle};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_relation::{Catalog, Relation};
use proptest::prelude::*;

/// A random small database over chain-ish schemes with colliding values.
fn arb_database() -> impl Strategy<Value = Database> {
    (
        2usize..5,
        proptest::collection::vec(proptest::collection::vec((0i64..4, 0i64..4), 0..8), 2..5),
    )
        .prop_map(|(n, all_rows)| {
            let n = n.min(all_rows.len());
            let mut cat = Catalog::new();
            let specs: Vec<String> = (0..n).map(|i| format!("x{i},x{}", i + 1)).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let scheme = DbScheme::parse(&mut cat, &refs).expect("chain scheme");
            let states: Vec<Relation> = (0..n)
                .map(|i| {
                    let rows: Vec<Vec<i64>> =
                        all_rows[i].iter().map(|&(a, b)| vec![a, b]).collect();
                    Relation::from_int_rows(scheme.scheme(i), rows).expect("arity 2")
                })
                .collect();
            Database::new(cat, scheme, states)
        })
}

/// Like [`arb_database`], but with an all-zeros witness row planted in
/// every relation, so every subset join is provably nonempty.
fn arb_witnessed_database() -> impl Strategy<Value = Database> {
    (
        2usize..5,
        proptest::collection::vec(proptest::collection::vec((0i64..4, 0i64..4), 0..8), 2..5),
    )
        .prop_map(|(n, all_rows)| {
            let n = n.min(all_rows.len());
            let mut cat = Catalog::new();
            let specs: Vec<String> = (0..n).map(|i| format!("x{i},x{}", i + 1)).collect();
            let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
            let scheme = DbScheme::parse(&mut cat, &refs).expect("chain scheme");
            let states: Vec<Relation> = (0..n)
                .map(|i| {
                    let mut rows: Vec<Vec<i64>> =
                        all_rows[i].iter().map(|&(a, b)| vec![a, b]).collect();
                    rows.push(vec![0, 0]); // the witness
                    Relation::from_int_rows(scheme.scheme(i), rows).expect("arity 2")
                })
                .collect();
            Database::new(cat, scheme, states)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exact oracle reports exactly the materialized sizes, for every
    /// subset, on a memo miss and on the memo hit that follows it.
    #[test]
    fn exact_oracle_is_exact(db in arb_database()) {
        let o = ExactOracle::new(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let truth = db.evaluate_subset(subset).tau();
            prop_assert_eq!(o.tau(subset), truth);
            prop_assert_eq!(o.tau(subset), truth);
        }
    }

    /// τ(R_{D₁} ⋈ R_{D₂}) ≤ τ(R_{D₁}) · τ(R_{D₂}), with equality when the
    /// subsets are not linked — the inequality stated right after the
    /// paper defines τ.
    #[test]
    fn join_bound(db in arb_database(), a: u64, b: u64) {
        let full = db.scheme().full_set();
        let (a, b) = (
            RelSet(u128::from(a)).intersect(full),
            RelSet(u128::from(b)).intersect(full),
        );
        prop_assume!(!a.is_empty() && !b.is_empty() && a.is_disjoint(b));
        let o = ExactOracle::new(&db);
        let joined = o.tau_join(a, b);
        prop_assert!(joined <= o.tau(a).saturating_mul(o.tau(b)));
        if !db.scheme().linked(a, b) {
            prop_assert_eq!(joined, o.tau(a) * o.tau(b));
        }
    }

    /// `result_is_empty` agrees with direct evaluation.
    #[test]
    fn emptiness_detection(db in arb_database()) {
        let o = ExactOracle::new(&db);
        prop_assert_eq!(o.result_is_empty(), db.evaluate().is_empty());
    }

    /// The synthetic oracle is monotone in base cardinalities and always
    /// reports at least 1.
    #[test]
    fn synthetic_monotone(bases in proptest::collection::vec(1u64..1000, 3), domain in 1u64..50) {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let small = SyntheticOracle::new(scheme.clone(), bases.clone(), domain);
        let bigger: Vec<u64> = bases.iter().map(|b| b * 2).collect();
        let large = SyntheticOracle::new(scheme, bigger, domain);
        for subset in RelSet::full(3).subsets() {
            if subset.is_empty() {
                continue;
            }
            let s = small.tau(subset);
            let l = large.tau(subset);
            prop_assert!(s >= 1);
            prop_assert!(l >= s, "doubling inputs must not shrink estimates");
        }
    }

    /// The synthetic estimate of a singleton is its base cardinality.
    #[test]
    fn synthetic_singletons(bases in proptest::collection::vec(1u64..10_000, 3), domain in 1u64..100) {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let o = SyntheticOracle::new(scheme, bases.clone(), domain);
        for (i, &b) in bases.iter().enumerate() {
            prop_assert_eq!(o.tau(RelSet::singleton(i)), b);
        }
    }

    /// On databases where every subset join is witnessed nonempty, the
    /// noiseless model's q-error against ground truth is finite for every
    /// subset: both sides are ≥ 1, so neither ratio divides by zero.
    #[test]
    fn noiseless_model_q_error_is_finite_on_witnessed_databases(db in arb_witnessed_database()) {
        let exact = ExactOracle::new(&db);
        let model = SyntheticOracle::from_database(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let est = model.tau(subset);
            let act = exact.tau(subset);
            prop_assert!(est >= 1, "{subset:?}: witnessed estimate must be ≥ 1");
            prop_assert!(act >= 1, "{subset:?}: witness row keeps the join nonempty");
            let q = (est as f64 / act as f64).max(act as f64 / est as f64);
            prop_assert!(q.is_finite() && q >= 1.0);
        }
    }

    /// The noisy oracle never leaves its q-error envelope around the inner
    /// estimate (up to integer rounding, which stays within floor/ceil).
    #[test]
    fn noise_stays_within_its_envelope(
        db in arb_witnessed_database(),
        q10 in 10u64..160,
        seed: u64,
    ) {
        let q = q10 as f64 / 10.0;
        let model = SyntheticOracle::from_database(&db);
        let noisy = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let base = model.tau(subset) as f64;
            let n = noisy.tau(subset) as f64;
            prop_assert!(n >= (base / q).floor().max(1.0), "{subset:?}: {n} under-shoots {base}/{q}");
            prop_assert!(n <= (base * q).ceil(), "{subset:?}: {n} over-shoots {base}·{q}");
        }
    }

    /// The same (envelope, seed) pair reproduces every noisy estimate bit
    /// for bit across independently constructed oracles — the property the
    /// adaptive executor's determinism guarantees rest on.
    #[test]
    fn seeded_noise_is_bit_reproducible(
        db in arb_witnessed_database(),
        q10 in 10u64..160,
        seed: u64,
    ) {
        let q = q10 as f64 / 10.0;
        let a = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        let b = NoisyOracle::try_new(SyntheticOracle::from_database(&db), q, seed).unwrap();
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            prop_assert_eq!(a.tau(subset), b.tau(subset));
        }
    }
}

// ───────────── counted τ ≡ materialized τ (join-tree counting) ─────────────

mod counting {
    use super::*;
    use mjoin_guard::{Budget, CancelToken, Guard, MjoinError, Resource, Scope};
    use mjoin_obs::{Counter, Recorder};
    use mjoin_relation::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How attribute values are drawn.
    #[derive(Clone, Copy, Debug)]
    enum Values {
        /// Uniform on `0..domain`.
        Uniform(i64),
        /// Zipf(1.2) on `0..domain`: a few hot keys, a long tail.
        Zipf(i64),
        /// Strings `"v0".."v{domain-1}"`, uniform.
        Strings(i64),
        /// Uniform on `0..4·domain`: most tuples dangle.
        Dangling(i64),
    }

    fn zipf(rng: &mut StdRng, domain: i64) -> i64 {
        let weights: Vec<f64> = (1..=domain).map(|k| (k as f64).powf(-1.2)).collect();
        let mut u = rng.gen::<f64>() * weights.iter().sum::<f64>();
        for (k, w) in weights.iter().enumerate() {
            if u < *w {
                return k as i64;
            }
            u -= w;
        }
        domain - 1
    }

    fn draw(rng: &mut StdRng, values: Values) -> Value {
        match values {
            Values::Uniform(d) => Value::Int(rng.gen_range(0..d)),
            Values::Zipf(d) => Value::Int(zipf(rng, d)),
            Values::Strings(d) => Value::str(&format!("v{}", rng.gen_range(0..d))),
            Values::Dangling(d) => Value::Int(rng.gen_range(0..4 * d)),
        }
    }

    /// A database over `specs` (comma-separated attribute names), up to
    /// `max_rows` tuples per relation; every fifth relation may come out
    /// empty.
    fn database(specs: &[String], max_rows: usize, values: Values, rng: &mut StdRng) -> Database {
        let mut cat = Catalog::new();
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let scheme = DbScheme::parse(&mut cat, &refs).expect("generated scheme");
        let states = (0..scheme.len())
            .map(|i| {
                let arity = scheme.scheme(i).len();
                let rows = if rng.gen_range(0..5) == 0 {
                    rng.gen_range(0..2)
                } else {
                    max_rows
                };
                let rows: Vec<Vec<Value>> = (0..rows)
                    .map(|_| (0..arity).map(|_| draw(rng, values)).collect())
                    .collect();
                Relation::from_rows(scheme.scheme(i), rows).expect("arity")
            })
            .collect();
        Database::new(cat, scheme, states)
    }

    fn names(prefix: &str, ids: &[usize]) -> String {
        ids.iter()
            .map(|i| format!("{prefix}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn chain(n: usize) -> Vec<String> {
        (0..n).map(|i| names("x", &[i, i + 1])).collect()
    }

    fn star(n: usize) -> Vec<String> {
        let hub: Vec<usize> = (0..n - 1).collect();
        let mut specs = vec![format!("{},m", names("k", &hub))];
        specs.extend((0..n - 1).map(|i| format!("k{i},d{i}")));
        specs
    }

    fn random_tree(n: usize, rng: &mut StdRng) -> Vec<String> {
        let mut attrs: Vec<Vec<String>> = vec![vec!["a0".into(), "r0".into()]];
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            let link = format!("t{i}");
            attrs[parent].push(link.clone());
            attrs.push(vec![link, format!("a{i}")]);
        }
        attrs.into_iter().map(|a| a.join(",")).collect()
    }

    /// Relations of one to three attributes over a five-letter pool:
    /// multi-attribute overlaps, cyclic and acyclic, sometimes
    /// disconnected.
    fn random_hypergraph(n: usize, rng: &mut StdRng) -> Vec<String> {
        (0..n)
            .map(|_| {
                let k = rng.gen_range(1..=3);
                let mut picked: Vec<char> = Vec::new();
                while picked.len() < k {
                    let c = ['A', 'B', 'C', 'D', 'E'][rng.gen_range(0..5usize)];
                    if !picked.contains(&c) {
                        picked.push(c);
                    }
                }
                picked.sort_unstable();
                picked.into_iter().collect()
            })
            .collect()
    }

    fn fixed(specs: &[&str]) -> Vec<String> {
        specs.iter().map(|s| s.to_string()).collect()
    }

    /// Every generated shape, with every value distribution.
    fn corpus() -> Vec<(String, Database)> {
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for round in 0..6 {
            let shapes: Vec<(&str, Vec<String>)> = vec![
                ("chain", chain(rng.gen_range(2..=6))),
                ("star", star(rng.gen_range(3..=6))),
                ("tree", random_tree(rng.gen_range(2..=6), &mut rng)),
                ("hyperedges", fixed(&["A,B,C", "B,C,D", "C,D,E"])),
                (
                    "hypergraph",
                    random_hypergraph(rng.gen_range(2..=6), &mut rng),
                ),
                // A cyclic triangle inside an acyclic scheme: the full
                // scheme has a join tree (ABC covers the triangle), the
                // subset {AB, BC, CA} has none.
                (
                    "cyclic-inside-acyclic",
                    fixed(&["A,B,C", "A,B", "B,C", "C,A"]),
                ),
                ("disconnected", {
                    let mut s = chain(3);
                    s.push("y0,y1".into());
                    s.push("y1,z".into());
                    s
                }),
            ];
            for (shape, specs) in shapes {
                for values in [
                    Values::Uniform(3),
                    Values::Zipf(6),
                    Values::Strings(3),
                    Values::Dangling(3),
                ] {
                    let rows = 2 + (round % 3) * 4;
                    let db = database(&specs, rows, values, &mut rng);
                    out.push((format!("{shape} {specs:?} {values:?} round {round}"), db));
                }
            }
        }
        out
    }

    fn nonempty_subsets(db: &Database) -> Vec<RelSet> {
        db.scheme()
            .full_set()
            .subsets()
            .filter(|s| !s.is_empty())
            .collect()
    }

    #[test]
    fn counted_tau_equals_materialized_tau_on_every_subset() {
        let (mut counted, mut built) = (0, 0);
        for (label, db) in corpus() {
            let subsets = nonempty_subsets(&db);
            let truth: Vec<u64> = subsets
                .iter()
                .map(|&s| db.evaluate_subset(s).tau())
                .collect();
            let rec = Recorder::arm();
            let oracle = ExactOracle::new(&db);
            for (&subset, &truth) in subsets.iter().zip(&truth) {
                assert_eq!(
                    oracle.try_tau(subset).unwrap(),
                    truth,
                    "{label}: {subset:?}"
                );
            }
            let snap = rec.snapshot();
            counted += snap.counter(Counter::OracleSubsetsCounted);
            built += snap.counter(Counter::OracleSubsetsMaterialized);
            // Only the cyclic residue builds tuples.
            let scheme = db.scheme();
            let residue = subsets
                .into_iter()
                .flat_map(|s| scheme.components(s))
                .any(|c| !scheme.alpha_acyclic_within(c));
            if !residue {
                assert_eq!(snap.counter(Counter::KernelTuplesEmitted), 0, "{label}");
                assert_eq!(
                    snap.counter(Counter::OracleSubsetsMaterialized),
                    0,
                    "{label}"
                );
            }
        }
        assert!(counted > 1000, "{counted} subsets counted");
        assert!(
            built > 10,
            "{built} subsets built: the residue must be exercised"
        );
    }

    #[test]
    fn counting_after_building_and_building_after_counting_agree() {
        // `try_relation` upgrades a counted entry in place; τ requests on a
        // built entry read its length. Either order, one entry per subset.
        for (label, db) in corpus().into_iter().step_by(7) {
            let subsets = nonempty_subsets(&db);
            let counted_first = ExactOracle::new(&db);
            let built_first = ExactOracle::new(&db);
            for &s in &subsets {
                let truth = db.evaluate_subset(s);
                assert_eq!(counted_first.try_tau(s).unwrap(), truth.tau(), "{label}");
                assert_eq!(*counted_first.try_relation(s).unwrap(), truth, "{label}");
                assert_eq!(*built_first.try_relation(s).unwrap(), truth, "{label}");
                assert_eq!(built_first.try_tau(s).unwrap(), truth.tau(), "{label}");
            }
            assert_eq!(counted_first.memo_len(), subsets.len(), "{label}");
            assert_eq!(built_first.memo_len(), subsets.len(), "{label}");
            assert_eq!(
                counted_first.memo_taus(),
                built_first.memo_taus(),
                "{label}"
            );
        }
    }

    #[test]
    fn memo_footprint_and_memo_cap_trips_match_a_pure_materializer() {
        // `try_relation` builds every subset it is asked for — the
        // materializer the oracle used to be. Counting must memoize the
        // very same subsets after every request, in any request order, so
        // a memo-entry cap trips at the same request.
        let mut rng = StdRng::seed_from_u64(5);
        for (label, db) in corpus().into_iter().step_by(3) {
            let mut subsets = nonempty_subsets(&db);
            for i in (1..subsets.len()).rev() {
                subsets.swap(i, rng.gen_range(0..=i));
            }
            let (counting, building) = (ExactOracle::new(&db), ExactOracle::new(&db));
            for &s in &subsets {
                counting.try_tau(s).unwrap();
                building.try_relation(s).unwrap();
                let keys = |o: &ExactOracle| {
                    o.memo_taus()
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect::<Vec<_>>()
                };
                assert_eq!(keys(&counting), keys(&building), "{label}: after {s:?}");
            }
            let cap = rng.gen_range(1..=subsets.len() as u64);
            let trip = |relations: bool| {
                let guard = Guard::new(Budget::unlimited().with_max_memo_entries(cap));
                let o = ExactOracle::with_guard(&db, guard);
                subsets.iter().position(|&s| {
                    if relations {
                        o.try_relation(s).is_err()
                    } else {
                        o.try_tau(s).is_err()
                    }
                })
            };
            assert_eq!(trip(false), trip(true), "{label}: memo cap {cap}");
        }
    }

    #[test]
    fn racing_workers_count_each_subset_once() {
        // A scheme with a cyclic triangle inside, so racing workers cross
        // both the counted path and the residue. Each worker asks for the
        // subsets in its own shuffled order, every third one for its
        // tuples, so who reaches a subset first, and how, varies by run.
        let mut rng = StdRng::seed_from_u64(11);
        let specs = fixed(&["A,B,C", "A,B", "B,C", "C,A", "C,D", "D,E"]);
        let db = database(&specs, 12, Values::Zipf(4), &mut rng);
        let subsets = nonempty_subsets(&db);
        let truth: Vec<u64> = subsets
            .iter()
            .map(|&s| db.evaluate_subset(s).tau())
            .collect();
        let run = |threads: usize, seed: u64| {
            let rec = Recorder::arm();
            // A memo cap of exactly one entry per subset: a second charge
            // for any subset would trip it.
            let guard = Guard::new(Budget::unlimited().with_max_memo_entries(subsets.len() as u64));
            let oracle = ExactOracle::with_guard(&db, guard.clone());
            let orders: Vec<Vec<usize>> = (0..threads)
                .map(|w| {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + w as u64);
                    let mut order: Vec<usize> = (0..subsets.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    order
                })
                .collect();
            let (start, scope) = (std::sync::Barrier::new(threads), Scope::capture());
            let (oracle, subsets, start, scope) = (&oracle, &subsets, &start, &scope);
            std::thread::scope(|s| {
                let workers: Vec<_> = orders
                    .iter()
                    .map(|order| {
                        s.spawn(move || {
                            scope.enter(|| {
                                start.wait();
                                let mut taus = vec![0; subsets.len()];
                                for &i in order {
                                    taus[i] = if i % 3 == 0 {
                                        oracle.try_relation(subsets[i]).unwrap().tau()
                                    } else {
                                        oracle.try_tau(subsets[i]).unwrap()
                                    };
                                }
                                taus
                            })
                        })
                    })
                    .collect();
                for w in workers {
                    assert_eq!(w.join().unwrap(), truth, "{threads} threads");
                }
            });
            assert_eq!(oracle.memo_len(), subsets.len(), "{threads} threads");
            assert_eq!(guard.memo_used(), subsets.len() as u64, "{threads} threads");
            let snap = rec.snapshot();
            let counts = (
                snap.counter(Counter::OracleSubsetsCounted),
                snap.counter(Counter::OracleSubsetsMaterialized),
            );
            assert_eq!(
                counts.0 + counts.1,
                subsets.len() as u64,
                "{threads} threads"
            );
            counts
        };
        let one = run(1, 0);
        assert!(one.0 > 0 && one.1 > 0, "{one:?}");
        for seed in 1..=4 {
            assert_eq!(
                run(1, seed),
                one,
                "the counters moved with the request order"
            );
            assert_eq!(
                run(4, seed),
                one,
                "the counters moved with the thread count"
            );
        }
    }

    /// A chain whose middle relation is large: counting `{0, 1, 2}` after
    /// `{1, 2}` is memoized is one pass over relation 1 and one over 0.
    fn long_chain() -> Database {
        let specs = chain(3);
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &refs).unwrap();
        let rows = |i: usize, n: i64| -> Relation {
            let rows = (0..n).map(|k| vec![k % 97, k]).collect();
            Relation::from_int_rows(scheme.scheme(i), rows).unwrap()
        };
        let states = vec![rows(0, 1000), rows(1, 200_000), rows(2, 1000)];
        Database::new(cat, scheme, states)
    }

    #[test]
    fn cancellation_and_deadlines_stop_a_count_with_a_typed_error() {
        let db = long_chain();
        let full = db.scheme().full_set();
        let rest = RelSet::from_indices([1, 2]);
        for (guard, expected) in [
            {
                let token = CancelToken::new();
                token.cancel();
                (
                    Guard::with_cancel(Budget::unlimited(), token),
                    MjoinError::Cancelled,
                )
            },
            (
                Guard::new(Budget::unlimited().with_deadline(std::time::Duration::ZERO)),
                MjoinError::BudgetExceeded {
                    resource: Resource::WallClock,
                    limit: 0,
                },
            ),
        ] {
            let mut oracle = ExactOracle::new(&db);
            // The peel chain is memoized unguarded, so the only work left
            // for the full set is its counting pass.
            oracle.try_tau(rest).unwrap();
            let memo = oracle.memo_len();
            oracle.rearm(guard);
            assert_eq!(oracle.try_tau(full).unwrap_err(), expected);
            assert_eq!(oracle.memo_len(), memo, "a stopped count memoizes nothing");
            assert_eq!(oracle.tripped(), Some(&expected));
        }
        // Unguarded, the same count completes.
        let oracle = ExactOracle::new(&db);
        assert_eq!(
            oracle.try_tau(full).unwrap(),
            db.evaluate_subset(full).tau()
        );
    }

    #[test]
    fn counts_saturate_instead_of_overflowing() {
        // Eight relations of 300 tuples over disjoint attributes: the
        // product 300⁸ ≈ 6.6·10¹⁹ exceeds u64::MAX.
        let specs: Vec<String> = (0..8).map(|i| names("c", &[2 * i, 2 * i + 1])).collect();
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &refs).unwrap();
        let states = (0..8)
            .map(|i| {
                let rows = (0..300).map(|k| vec![k, k]).collect();
                Relation::from_int_rows(scheme.scheme(i), rows).unwrap()
            })
            .collect();
        let db = Database::new(cat, scheme, states);
        let oracle = ExactOracle::new(&db);
        assert_eq!(oracle.try_tau(db.scheme().full_set()).unwrap(), u64::MAX);
        assert_eq!(
            oracle.try_tau(RelSet::from_indices([0, 1, 2])).unwrap(),
            300u64.pow(3)
        );
    }
}
