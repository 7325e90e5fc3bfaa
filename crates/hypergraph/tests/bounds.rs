//! Release-mode bound hardening: oversized inputs must be rejected at the
//! scheme-construction boundary with a typed error.
//!
//! `RelSet` only `debug_assert!`s its `i < 128` bounds — in a release build
//! an out-of-range shift would wrap and silently corrupt the set. The
//! construction boundary (`DbScheme::new`/`parse`) is therefore a hard
//! check in every profile; this suite is run under `--release` by the CI
//! `store` job to prove the rejection does not compile away.

use mjoin_hypergraph::{DbScheme, RelSet, MAX_RELATIONS};
use mjoin_relation::{AttrSet, Catalog, RelationError};

fn singleton_schemes(n: usize) -> Vec<AttrSet> {
    let mut cat = Catalog::new();
    // Two relations per attribute keeps the attribute count under the
    // catalog cap while exceeding the relation cap.
    (0..n)
        .map(|i| {
            AttrSet::singleton(
                cat.intern(&format!("a{}", i / 2))
                    .expect("catalog has room"),
            )
        })
        .collect()
}

#[test]
fn one_past_the_cap_is_rejected_not_wrapped() {
    let err = DbScheme::new(singleton_schemes(MAX_RELATIONS + 1)).unwrap_err();
    assert_eq!(
        err,
        RelationError::TooManyRelations {
            max: MAX_RELATIONS,
            got: MAX_RELATIONS + 1
        }
    );
    assert!(err.to_string().contains("129"), "{err}");
}

#[test]
fn the_cap_itself_still_constructs() {
    let d = DbScheme::new(singleton_schemes(MAX_RELATIONS)).unwrap();
    assert_eq!(d.len(), MAX_RELATIONS);
    // full_set at the cap is the all-ones word, not a wrapped shift.
    assert_eq!(d.full_set(), RelSet(u128::MAX));
}

#[test]
fn far_oversized_inputs_report_their_size() {
    let err = DbScheme::new(singleton_schemes(200)).unwrap_err();
    assert_eq!(
        err,
        RelationError::TooManyRelations {
            max: MAX_RELATIONS,
            got: 200
        }
    );
}

#[test]
fn the_paper_scale_100_relation_scheme_constructs() {
    // Tay's §1 motivates ~100-join queries; those must be representable.
    let d = DbScheme::new(singleton_schemes(100)).unwrap();
    assert_eq!(d.len(), 100);
    assert_eq!(d.full_set().len(), 100);
}
