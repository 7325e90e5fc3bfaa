//! Allocation regression for the hash join, the semijoin and building a
//! relation: rows live in one row-major buffer per relation and keys are
//! borrowed views of them, so neither building nor probing a table
//! allocates per row, and no tuple is boxed. A join allocates a constant
//! (column plan, table, chain links, the growth of its one output buffer);
//! so does a semijoin (key set, kept-row buffer) and the sort that builds
//! a relation (row permutation, gathered buffer). A `Vec` key per build or
//! probe row, a projected tuple per row or a box per tuple adds thousands
//! and blows every bound.
//!
//! This file is its own integration-test binary so the counting global
//! allocator cannot interfere with any other test, and it holds one test
//! so no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mjoin_relation::{Catalog, Relation};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counter only ever increments, so `count_allocs` is immune to frees
// of temporaries (`realloc` counts as one: it is one new block).
// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's guarantees and `System`'s carry over; the counter is a static
// atomic, not memory this allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Allocations a join, semijoin or build may make in all: about a dozen
/// fixed ones and the doubling of the output buffer (15 steps to the
/// 24 000 values of 8 000 rows). A per-row key or a per-tuple box costs
/// 1 000 at the least.
const BOUND: u64 = 40;

/// `R(A, B) ⋈ S(B, C)` with 2 000 rows a side over 500 `B` values: every
/// row meets 4 on the other side, so the join emits 500 · 4 · 4 = 8 000
/// tuples.
#[test]
fn join_semijoin_and_build_allocate_a_constant() {
    let mut cat = Catalog::with_letters();
    let (n, keys) = (2_000i64, 500i64);
    let r = Relation::from_int_rows(
        cat.scheme("AB").unwrap(),
        (0..n).map(|i| vec![i, i % keys]).collect(),
    )
    .unwrap();
    let s = Relation::from_int_rows(
        cat.scheme("BC").unwrap(),
        (0..n).map(|i| vec![i % keys, i]).collect(),
    )
    .unwrap();
    // Warm any lazily set-up state (metric recorders, thread locals).
    drop(r.natural_join(&s));

    let (join_allocs, j) = count_allocs(|| r.natural_join(&s));
    assert_eq!(j.tau(), 8_000);
    assert!(
        join_allocs <= BOUND,
        "the join did {join_allocs} allocations for {} tuples; bound {BOUND} — \
         does the build table or the probe allocate a key per row, or the \
         output a box per tuple?",
        j.tau(),
    );

    // Keeps the 1 000 rows of R whose B value is even.
    let even = Relation::from_int_rows(
        cat.scheme("BD").unwrap(),
        (0..n).map(|i| vec![2 * (i % (keys / 2)), i]).collect(),
    )
    .unwrap();
    let (semi_allocs, kept) = count_allocs(|| r.semijoin(&even));
    assert_eq!(kept.tau(), 1_000);
    assert!(
        semi_allocs <= BOUND,
        "the semijoin did {semi_allocs} allocations for {} kept tuples; bound {BOUND} — \
         does it build a key per row?",
        kept.tau(),
    );

    // Rebuilding the join's 8 000 unsorted rows sorts and gathers them.
    let values: Vec<_> = j.rows().flatten().cloned().collect();
    let (build_allocs, built) =
        count_allocs(|| Relation::from_row_major(j.scheme(), 8_000, values));
    assert_eq!(built, j);
    assert!(
        build_allocs <= BOUND,
        "building 8 000 rows did {build_allocs} allocations; bound {BOUND} — \
         does the sort box a tuple per row?",
    );
}
