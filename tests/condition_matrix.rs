//! The consolidated condition/theorem matrix: one table-driven test
//! asserting, for every paper example and every constructed family, which
//! conditions hold and which theorem conclusions follow — the whole
//! paper's logical content in one place.

use mjoin::{analyze, Analysis};
use mjoin_gen::{data, data::DataConfig, schemes};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Expectation {
    name: &'static str,
    db: mjoin::Database,
    connected: bool,
    c1: bool,
    c1_strict: bool,
    c2: bool,
    c3: bool,
    /// Expected (preconditions, conclusion) for Theorems 1–3; `None` means
    /// "don't pin" (instance-dependent).
    t1: Option<(bool, bool)>,
    t2: Option<(bool, bool)>,
    t3: Option<(bool, bool)>,
}

fn check(e: &Expectation) {
    let a: Analysis = analyze(&e.db).unwrap();
    assert_eq!(a.connected, e.connected, "{}: connected", e.name);
    assert_eq!(a.conditions.c1, e.c1, "{}: C1", e.name);
    assert_eq!(a.conditions.c1_strict, e.c1_strict, "{}: C1'", e.name);
    assert_eq!(a.conditions.c2, e.c2, "{}: C2", e.name);
    assert_eq!(a.conditions.c3, e.c3, "{}: C3", e.name);
    for (label, expected, got) in [
        ("T1", e.t1, a.theorem1),
        ("T2", e.t2, a.theorem2),
        ("T3", e.t3, a.theorem3),
    ] {
        if let Some((pre, conc)) = expected {
            assert_eq!(got.preconditions_hold, pre, "{}: {label} pre", e.name);
            assert_eq!(got.conclusion_holds, conc, "{}: {label} conclusion", e.name);
        }
        // The implication itself must never fail — that would falsify the
        // paper.
        assert!(got.implication_holds(), "{}: {label} implication", e.name);
    }
}

#[test]
fn paper_examples_matrix() {
    let mut rng = StdRng::seed_from_u64(7777);
    let (cat, scheme) = schemes::chain(3);
    let cfg = DataConfig {
        tuples_per_relation: 4,
        domain: 8,
        ensure_nonempty: true,
    };
    let (superkey_db, _) = data::superkey(cat, scheme, &cfg, &mut rng);

    let rows = vec![
        Expectation {
            name: "example1",
            db: data::paper_example1(),
            connected: false,
            c1: true,
            // C1' holds here: AB–BC is the only linked pair, and every
            // non-vacuous triple's inequality is strict (10 < 28, …).
            // Theorem 1 still doesn't apply — the scheme is unconnected.
            c1_strict: true,
            c2: false,
            c3: false,
            // Unconnected: theorem preconditions all fail.
            t1: Some((false, true)), // vacuously: no linear strategy is globally optimal? pinned below
            t2: Some((false, false)),
            t3: Some((false, false)),
            // t1 conclusion: is every τ-optimum linear strategy CP-free?
            // The optimum (546) is bushy, so no linear strategy is
            // τ-optimum → vacuous → conclusion "holds".
        },
        Expectation {
            name: "example3",
            db: data::paper_example3(),
            connected: true,
            c1: true,
            c1_strict: false,
            c2: true,
            c3: false,
            t1: Some((false, false)), // the CP-using linear optimum
            t2: Some((true, true)),
            t3: Some((false, true)), // all strategies tie: linear ties too
        },
        Expectation {
            name: "example4",
            db: data::paper_example4(),
            connected: true,
            c1: false,
            c1_strict: false,
            c2: true,
            c3: false,
            t1: Some((false, false)),
            t2: Some((false, false)),
            t3: Some((false, false)),
        },
        Expectation {
            name: "example5",
            db: data::paper_example5(),
            connected: true,
            c1: true,
            c1_strict: true,
            c2: true,
            c3: false,
            t1: None, // vacuous-ness is instance detail; implication asserted anyway
            t2: Some((true, true)),
            t3: Some((false, false)), // unique bushy optimum
        },
        Expectation {
            name: "superkey-chain",
            db: superkey_db,
            connected: true,
            c1: true,
            c1_strict: true,
            c2: true,
            c3: true,
            t1: Some((true, true)),
            t2: Some((true, true)),
            t3: Some((true, true)),
        },
    ];
    for e in &rows {
        check(e);
    }
}

/// Example 1's Theorem-1 vacuousness, pinned explicitly: its τ-optimum is
/// bushy, so no linear strategy is globally optimal and Theorem 1's
/// conclusion holds vacuously.
#[test]
fn example1_theorem1_is_vacuous() {
    let db = data::paper_example1();
    let o = mjoin::ExactOracle::new(&db);
    let r = mjoin::theorem1(&o);
    assert!(r.vacuous);
    assert!(r.conclusion_holds);
}
