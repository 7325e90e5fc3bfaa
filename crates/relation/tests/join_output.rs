//! Properties of a join's output, which is kept in emission order rather
//! than sorted: it is still a set, it is `==` to (and hashes like) its own
//! canonical rebuild, it renders the same text, its order is the same on
//! every run, and every operation that looks tuples up in it agrees with
//! the rebuild. The flat row-major storage is checked against the
//! reference sort-merge and nested-loop joins, zero-arity relations
//! included.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use mjoin_guard::Guard;
use mjoin_reference::{nested_loop_join, sort_merge_join};
use mjoin_relation::{AttrSet, Catalog, Relation, Value};
use proptest::prelude::*;

/// Strategy: a relation over the attributes of `ABCD` picked by a 4-bit
/// mask from `masks` (mask 0 is the empty scheme), with 0–13 rows of small
/// integers and one-letter strings (so keys collide), no rows as likely as
/// any other count.
fn arb_relation(masks: impl Strategy<Value = u8>) -> impl Strategy<Value = Relation> {
    let rows = prop::collection::vec(prop::collection::vec(0u8..6, 4), 0..14);
    (masks, rows).prop_map(|(mask, rows)| {
        let cat = Catalog::with_letters();
        let attrs: Vec<_> = ["A", "B", "C", "D"]
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, name)| cat.lookup(name).unwrap())
            .collect();
        let value = |x: u8| match x {
            0..=2 => Value::Int(i64::from(x)),
            _ => Value::str(["x", "y", "z"][usize::from(x) - 3]),
        };
        let rows = rows
            .into_iter()
            .map(|row| row[..attrs.len()].iter().map(|&x| value(x)).collect())
            .collect();
        Relation::from_rows(AttrSet::from_iter(attrs), rows).unwrap()
    })
}

/// `r` rebuilt from its rows: the canonical relation holding them.
fn rebuild(r: &Relation) -> Relation {
    Relation::from_row_major(
        r.scheme(),
        r.rows().len(),
        r.rows().flatten().cloned().collect(),
    )
}

fn hash_of(r: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Every other tuple of `r`, in `r`'s order.
fn every_other(r: &Relation) -> Relation {
    let mut keep = false;
    r.select(|_| {
        keep = !keep;
        keep
    })
}

/// Checks `r ⋈ s` against its canonical rebuild.
fn check_join(r: &Relation, s: &Relation) -> Result<(), String> {
    let cat = Catalog::with_letters();
    let j = r.natural_join(s);

    let mut sorted: Vec<&[Value]> = j.rows().collect();
    sorted.sort();
    sorted.dedup();
    prop_assert_eq!(sorted.len(), j.rows().len(), "a join emitted a tuple twice");

    let canon = rebuild(&j);
    prop_assert_eq!(&j, &canon);
    prop_assert_eq!(hash_of(&j), hash_of(&canon));
    prop_assert_eq!(j.to_text(&cat), canon.to_text(&cat));
    let again = r.natural_join(s);
    prop_assert!(again.rows().eq(j.rows()), "emission order changed");

    for threads in 1..=4 {
        let run = || {
            r.natural_join_partitioned(s, threads, &Guard::unlimited())
                .unwrap()
        };
        let (p, again) = (run(), run());
        prop_assert_eq!(&p, &canon, "threads={}", threads);
        prop_assert_eq!(hash_of(&p), hash_of(&canon), "threads={}", threads);
        prop_assert_eq!(p.to_text(&cat), canon.to_text(&cat), "threads={}", threads);
        prop_assert!(again.rows().eq(p.rows()), "threads={}", threads);
    }

    // Members, and non-members that differ from a member in one value.
    for t in canon.rows() {
        prop_assert!(j.contains(t));
        let mut other = t.to_vec();
        if let Some(first) = other.first_mut() {
            *first = Value::Int(99);
            prop_assert!(!j.contains(&other));
        }
    }

    // Set operations with a join output on either side, against a
    // canonical relation and against a part of itself that is not one.
    let half = every_other(&j);
    for (x, y) in [(&j, &half), (&half, &j), (&j, &j)] {
        let (cx, cy) = (x.union(x), y.union(y));
        prop_assert_eq!(x.intersection(y), cx.intersection(&cy));
        prop_assert_eq!(x.difference(y), cx.difference(&cy));
        prop_assert_eq!(x.union(y), cx.union(&cy));
    }
    for side in [r, s] {
        prop_assert_eq!(j.semijoin(side), canon.semijoin(side));
        prop_assert_eq!(j.antijoin(side), canon.antijoin(side));
        prop_assert_eq!(side.semijoin(&j), side.semijoin(&canon));
        prop_assert_eq!(side.antijoin(&j), side.antijoin(&canon));
        prop_assert_eq!(side.semijoin(&half), side.semijoin(&half.union(&half)));
    }
    Ok(())
}

/// Checks the flat relations built from `r` and `s`, either of which may
/// be over the empty scheme, against the reference joins: the hash join
/// equals the sort-merge and nested-loop joins and renders their text,
/// and a projection onto no attribute holds τ ∈ {0, 1} tuples, which join,
/// semijoin and `consistent_with` treat as the empty tuple or nothing.
fn check_against_reference(r: &Relation, s: &Relation) -> Result<(), String> {
    let cat = Catalog::with_letters();
    let j = r.natural_join(s);
    for (name, reference) in [
        ("sort_merge", sort_merge_join(r, s)),
        ("nested_loop", nested_loop_join(r, s)),
    ] {
        prop_assert_eq!(&j, &reference, "{}", name);
        prop_assert_eq!(j.tau(), reference.tau(), "{}", name);
        prop_assert_eq!(j.to_text(&cat), reference.to_text(&cat), "{}", name);
    }
    check_join(r, s)?;

    let none = AttrSet::empty();
    let (pr, ps) = (r.project(none).unwrap(), s.project(none).unwrap());
    prop_assert_eq!(pr.tau(), r.tau().min(1));
    prop_assert_eq!(pr.rows().len(), pr.tau() as usize);
    prop_assert!(pr.rows().all(<[Value]>::is_empty));
    prop_assert_eq!(pr.contains(&[]), !r.is_empty());
    let or_empty = |keep: bool, x: &Relation| {
        if keep {
            x.clone()
        } else {
            Relation::empty(x.scheme())
        }
    };
    prop_assert_eq!(pr.natural_join(s), or_empty(!r.is_empty(), s));
    prop_assert_eq!(s.natural_join(&pr), or_empty(!r.is_empty(), s));
    prop_assert_eq!(pr.natural_join(&ps), or_empty(!s.is_empty(), &pr));
    prop_assert_eq!(s.semijoin(&pr), or_empty(!r.is_empty(), s));
    prop_assert_eq!(pr.semijoin(s), or_empty(!s.is_empty(), &pr));
    prop_assert_eq!(s.antijoin(&pr), or_empty(r.is_empty(), s));
    check_join(&pr, s)?;
    check_join(&pr, &ps)?;

    // Consistency is equal projections onto the shared attributes, which
    // is each side surviving its semijoin with the other.
    let consistent = r.semijoin(s) == *r && s.semijoin(r) == *s;
    prop_assert_eq!(r.consistent_with(s), consistent);
    prop_assert_eq!(pr.consistent_with(s), pr.is_empty() == s.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any two schemes, the empty one included, over mixed `Int`/`Str`
    /// rows.
    #[test]
    fn flat_relations_match_the_reference_joins(
        r in arb_relation(0u8..16),
        s in arb_relation(0u8..16),
    ) {
        check_against_reference(&r, &s)?;
    }

    /// Any two schemes: overlapping, nested, disjoint or equal.
    #[test]
    fn join_output_is_its_canonical_set(r in arb_relation(1u8..16), s in arb_relation(1u8..16)) {
        check_join(&r, &s)?;
    }

    /// Disjoint schemes: the join is the Cartesian product.
    #[test]
    fn cartesian_output_is_its_canonical_set(
        pair in (1u8..15).prop_flat_map(|m| (arb_relation(Just(m)), arb_relation(Just(15 & !m))))
    ) {
        let (r, s) = pair;
        prop_assert_eq!(r.natural_join(&s).tau(), r.tau() * s.tau());
        check_join(&r, &s)?;
    }

    /// Equal schemes: the join is the intersection.
    #[test]
    fn full_overlap_output_is_its_canonical_set(
        pair in (1u8..16).prop_flat_map(|m| (arb_relation(Just(m)), arb_relation(Just(m))))
    ) {
        let (r, s) = pair;
        prop_assert_eq!(r.natural_join(&s), r.intersection(&s));
        check_join(&r, &s)?;
    }
}

/// Semijoin and antijoin against a relation with no shared attribute keep
/// all or nothing, on canonical relations and on join outputs alike.
#[test]
fn semijoin_over_disjoint_schemes_keeps_all_or_nothing() {
    let mut cat = Catalog::with_letters();
    let ab =
        Relation::from_int_rows(cat.scheme("AB").unwrap(), vec![vec![1, 2], vec![3, 4]]).unwrap();
    let c = Relation::from_int_rows(cat.scheme("C").unwrap(), vec![vec![5], vec![6]]).unwrap();
    let empty = Relation::empty(cat.scheme("D").unwrap());
    let abc = ab.natural_join(&c);
    for r in [&ab, &abc] {
        assert_eq!(&r.semijoin(&empty), &Relation::empty(r.scheme()));
        assert_eq!(&r.antijoin(&empty), r);
        let d = Relation::from_int_rows(cat.scheme("D").unwrap(), vec![vec![7]]).unwrap();
        assert_eq!(&r.semijoin(&d), r);
        assert!(r.antijoin(&d).is_empty());
    }
}
