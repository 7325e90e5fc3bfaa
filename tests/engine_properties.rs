//! Property-based tests of the relational substrate: the algebraic laws
//! every higher layer relies on.

use mjoin_reference::{nested_loop_join, sort_merge_join};
use mjoin_relation::{AttrSet, Catalog, Relation, Value};
use proptest::prelude::*;

/// Strategy: a relation over a random 2-attribute scheme drawn from a
/// 4-attribute pool, with small integer values (forcing collisions).
fn arb_relation(pool: &'static str) -> impl Strategy<Value = Relation> {
    let pairs = prop::collection::vec((0i64..5, 0i64..5), 0..12);
    (0usize..pool.len(), 1usize..pool.len(), pairs).prop_map(move |(i, off, rows)| {
        let mut cat = Catalog::with_letters();
        let chars: Vec<char> = pool.chars().collect();
        let a = chars[i];
        let b = chars[(i + off) % chars.len()];
        if a == b {
            unreachable!("off is nonzero modulo pool length only if distinct");
        }
        let scheme = cat.scheme(&format!("{a}{b}")).unwrap();
        // Canonical order: ascending attribute; letters pool is ascending,
        // so sort the pair.
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|(x, y)| vec![Value::Int(x), Value::Int(y)])
            .collect();
        Relation::from_rows(scheme, rows).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All three join algorithms produce identical canonical relations.
    #[test]
    fn join_algorithms_agree(r in arb_relation("ABCD"), s in arb_relation("ABCD")) {
        let hash = r.natural_join(&s);
        let merge = sort_merge_join(&r, &s);
        let nested = nested_loop_join(&r, &s);
        prop_assert_eq!(&hash, &merge);
        prop_assert_eq!(&hash, &nested);
    }

    /// ⋈ is commutative.
    #[test]
    fn join_commutes(r in arb_relation("ABCD"), s in arb_relation("ABCD")) {
        prop_assert_eq!(r.natural_join(&s), s.natural_join(&r));
    }

    /// ⋈ is associative.
    #[test]
    fn join_associates(
        r in arb_relation("ABC"),
        s in arb_relation("ABC"),
        t in arb_relation("ABC"),
    ) {
        let left = r.natural_join(&s).natural_join(&t);
        let right = r.natural_join(&s.natural_join(&t));
        prop_assert_eq!(left, right);
    }

    /// τ(R ⋈ S) ≤ τ(R)·τ(S), with equality for disjoint schemes — the
    /// inequality the paper states right after defining τ.
    #[test]
    fn join_bounded_by_product(r in arb_relation("ABCD"), s in arb_relation("ABCD")) {
        let j = r.natural_join(&s);
        prop_assert!(j.tau() <= r.tau() * s.tau());
        if r.scheme().is_disjoint(s.scheme()) {
            prop_assert_eq!(j.tau(), r.tau() * s.tau());
        }
    }

    /// Semijoin output is a subset of the left input, and never larger.
    #[test]
    fn semijoin_shrinks(r in arb_relation("ABCD"), s in arb_relation("ABCD")) {
        let sj = r.semijoin(&s);
        prop_assert!(sj.tau() <= r.tau());
        for t in sj.rows() {
            prop_assert!(r.contains(t));
        }
        // Semijoin is the projection of the join onto the left scheme.
        let via_join = r.natural_join(&s).project(r.scheme()).unwrap();
        prop_assert_eq!(sj, via_join);
    }

    /// Projection never grows a relation and is idempotent.
    #[test]
    fn projection_properties(r in arb_relation("ABCD")) {
        let target = AttrSet::singleton(*r.attrs().first().unwrap());
        let p = r.project(target).unwrap();
        prop_assert!(p.tau() <= r.tau());
        prop_assert_eq!(p.project(target).unwrap(), p);
    }

    /// Mutual semijoin reduction reaches pairwise consistency.
    #[test]
    fn semijoin_reduction_fixpoint(r in arb_relation("ABCD"), s in arb_relation("ABCD")) {
        let mut a = r.clone();
        let mut b = s.clone();
        for _ in 0..8 {
            let a2 = a.semijoin(&b);
            let b2 = b.semijoin(&a2);
            if a2 == a && b2 == b {
                break;
            }
            a = a2;
            b = b2;
        }
        prop_assert!(a.consistent_with(&b));
        // Reduction preserves the join.
        prop_assert_eq!(a.natural_join(&b), r.natural_join(&s));
    }

    /// Set operations satisfy the usual identities.
    #[test]
    fn set_operation_identities(r in arb_relation("AB"), s in arb_relation("AB")) {
        if r.scheme() != s.scheme() {
            return Ok(());
        }
        let u = r.union(&s);
        let i = r.intersection(&s);
        let d = r.difference(&s);
        prop_assert_eq!(u.tau() + i.tau(), r.tau() + s.tau());
        prop_assert_eq!(d.tau() + i.tau(), r.tau());
        prop_assert_eq!(r.intersection(&r), r.clone());
        prop_assert_eq!(r.union(&r), r);
    }
}
