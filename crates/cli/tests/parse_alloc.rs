//! Allocation regression for `parse_input`: cells are appended straight
//! into one row-major buffer per relation, so parsing allocates per
//! relation (its name, its buffer's growth, the sort that canonicalizes
//! it) and not per row. A row or a tuple boxed on the way adds thousands
//! and blows the bound. Integer cells allocate nothing; a string cell
//! allocates its one shared copy, so the inputs here are integers.
//!
//! This file is its own integration-test binary so the counting global
//! allocator cannot interfere with any other test, and it holds one test
//! so no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use mjoin_cli::parse_input;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counter only ever increments (`realloc` counts as one: it is one new
// block).
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

/// Allocations parsing may make per relation: the header's name, the
/// buffer's doubling (15 steps to the 24 000 cells below), the sort's
/// permutation and gathered buffer, the relation's attribute list, and the
/// scheme's share of the catalog.
const PER_RELATION: u64 = 40;

/// Allocations parsing may make once: the lists of names, relations and
/// statistics, and the database around them.
const FIXED: u64 = 60;

/// A chain `AB, BC, CD, …` of `relations` relations of `rows` rows each,
/// in descending order so that canonicalizing has to sort them.
fn chain(relations: usize, rows: i64) -> String {
    let mut text = String::new();
    for r in 0..relations {
        let (a, b) = (char::from(b'A' + r as u8), char::from(b'B' + r as u8));
        writeln!(text, "relation {a}{b}").unwrap();
        for i in (0..rows).rev() {
            writeln!(text, "{i} {}", i % 97).unwrap();
        }
    }
    text
}

/// Three relations of 12 000 rows parse in a number of allocations that
/// depends on the relations, not on the 36 000 rows.
#[test]
fn parse_input_allocates_per_relation_not_per_row() {
    let relations = 3;
    let text = chain(relations, 12_000);
    // Warm any lazily set-up state (metric recorders, thread locals).
    drop(parse_input(&text).unwrap());

    let (allocs, input) = count_allocs(|| parse_input(&text).unwrap());
    assert_eq!(input.database.states().len(), relations);
    assert!(input.database.states().iter().all(|s| s.tau() == 12_000));
    let bound = FIXED + PER_RELATION * relations as u64;
    assert!(
        allocs <= bound,
        "parsing {relations} relations of 12 000 rows did {allocs} allocations; \
         bound {bound} — does a row or a tuple get its own allocation?",
    );
}
