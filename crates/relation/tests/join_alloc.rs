//! Allocation regression for the hash join and the semijoin: keys are
//! borrowed views of their rows, so neither building nor probing a table
//! allocates per row. A join allocates one box per emitted tuple plus a
//! constant (column plan, table, chain links, the growth of the output
//! list); a semijoin one box per kept tuple plus a constant. A `Vec` key
//! per build or probe row, or a projected tuple per row, adds thousands
//! and blows either bound.
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

/// Allocations a join or semijoin may make beyond one per output tuple:
/// about a dozen fixed ones and the doubling of the output list (13 steps
/// to 8 000). A per-row key costs 2 000 at the least.
const SLACK: u64 = 40;

/// `R(A, B) ⋈ S(B, C)` with 2 000 rows a side over 500 `B` values: every
/// row meets 4 on the other side, so the join emits 500 · 4 · 4 = 8 000
/// tuples.
#[test]
fn join_and_semijoin_allocate_per_output_tuple_only() {
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
        join_allocs <= j.tau() + SLACK,
        "the join did {join_allocs} allocations for {} tuples; bound {} — \
         does the build table or the probe allocate a key per row?",
        j.tau(),
        j.tau() + SLACK
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
        semi_allocs <= kept.tau() + SLACK,
        "the semijoin did {semi_allocs} allocations for {} kept tuples; bound {} — \
         does it build a key per row?",
        kept.tau(),
        kept.tau() + SLACK
    );
}
