//! The natural join.
//!
//! The paper defines the natural join
//! `R ⋈ R' = { t over R ∪ R' : t[R] ∈ R and t[R'] ∈ R' }` and measures a
//! strategy by how many tuples its joins emit — never by *how* each join is
//! executed. Every join here is a hash join, sequential or partitioned
//! across workers; both return the same set, kept in the order emitted,
//! neither sorted nor deduplicated (a join of duplicate-free relations has
//! no duplicates). Each output row's values are appended to one output
//! buffer, so a join allocates nothing per tuple. The sort-merge and
//! nested-loop joins it is checked against live in `mjoin-reference`.

use crate::attr::{AttrSet, Attribute};
use crate::relation::{Key, Relation};
use crate::value::Value;
use mjoin_guard::{failpoints, Guard, MjoinError, Resource, Scope};
use mjoin_obs::{incr, Counter};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Output-tuple charges reach the guard in batches of this size, so a
/// guarded join costs one atomic per batch of emitted rows.
const CHARGE_BATCH: u64 = 1024;

/// The error for an output buffer the system would not let grow past
/// the `held` values it has.
fn out_of_memory(held: usize) -> MjoinError {
    MjoinError::BudgetExceeded {
        resource: Resource::Memory,
        limit: (held * std::mem::size_of::<Value>()) as u64,
    }
}

/// Column plan for assembling an output row from a pair of matching
/// input rows.
struct JoinPlan {
    out_scheme: AttrSet,
    /// Shared attribute columns in `left` (ascending by attribute).
    left_key: Vec<usize>,
    /// Shared attribute columns in `right`, in the same attribute order as
    /// `left_key`.
    right_key: Vec<usize>,
    /// For each output column: (from_left, source column index).
    sources: Vec<(bool, usize)>,
}

impl JoinPlan {
    fn new(left: &Relation, right: &Relation) -> Self {
        let shared = left.scheme().intersect(right.scheme());
        let out_scheme = left.scheme().union(right.scheme());
        let sources = out_scheme
            .iter()
            .map(|a: Attribute| match left.column_of(a) {
                Some(c) => (true, c),
                None => (false, right.column_of(a).expect("attr in one side")),
            })
            .collect();
        JoinPlan {
            out_scheme,
            left_key: left.columns(shared),
            right_key: right.columns(shared),
            sources,
        }
    }

    /// Appends the output row of `l` and `r` to `out`.
    #[inline]
    fn emit(&self, l: &[Value], r: &[Value], out: &mut Vec<Value>) {
        out.extend(self.sources.iter().map(|&(from_left, c)| {
            if from_left {
                l[c].clone()
            } else {
                r[c].clone()
            }
        }));
    }
}

/// The rows one side of a hash join reads: a whole relation's, or one
/// partition's.
trait Rows: Sync {
    fn len(&self) -> usize;
    fn row(&self, i: usize) -> &[Value];
}

impl Rows for Relation {
    #[inline]
    fn len(&self) -> usize {
        self.tau() as usize
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        Relation::row(self, i)
    }
}

/// The rows of `rel` listed in `ids`, in that order.
struct Part<'a> {
    rel: &'a Relation,
    ids: Vec<u32>,
}

impl Rows for Part<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        self.rel.row(self.ids[i] as usize)
    }
}

/// Joins two relations.
pub(crate) fn join(left: &Relation, right: &Relation) -> Relation {
    join_guarded(left, right, &Guard::unlimited()).expect("unlimited guard cannot trip")
}

/// Joins two relations, charging every emitted tuple to `guard` so runaway
/// intermediates stop at the budget instead of exhausting memory.
pub(crate) fn join_guarded(
    left: &Relation,
    right: &Relation,
    guard: &Guard,
) -> Result<Relation, MjoinError> {
    failpoints::hit("relation::join")?;
    incr(Counter::KernelJoins, 1);
    let plan = JoinPlan::new(left, right);
    let (out, len) = hash_join(left, right, &plan, guard)?;
    incr(Counter::KernelTuplesEmitted, len as u64);
    Ok(Relation::from_join(plan.out_scheme, out, len))
}

/// The end of a build-table chain.
const END: u32 = u32::MAX;

/// The hash join of two row sets — two relations, or one partition of
/// each: a table on the smaller side keyed by the shared attributes,
/// probed with the larger. O(|R| + |S| + |out|) expected. Returns the
/// output rows' values, row-major, and how many rows there are.
///
/// The table maps each distinct key to the first build row holding it, and
/// `next[i]` is the build row after row `i` with the same key, so building
/// and probing allocate nothing per row. Output rows are appended to one
/// buffer that grows as they are emitted, each charged to `guard` first:
/// a join stops at its budget — tuple cap or deadline — holding about what
/// it emitted, and a buffer the system will not let grow is a typed error,
/// not an abort. Output follows the probe side, and each probe row's
/// matches follow the build side.
fn hash_join<S: Rows>(
    left: &S,
    right: &S,
    plan: &JoinPlan,
    guard: &Guard,
) -> Result<(Vec<Value>, usize), MjoinError> {
    let build_is_left = left.len() <= right.len();
    let (build, build_key, probe, probe_key) = if build_is_left {
        (left, &plan.left_key, right, &plan.right_key)
    } else {
        (right, &plan.right_key, left, &plan.left_key)
    };
    assert!(build.len() < END as usize, "build side exceeds u32 row ids");
    let mut heads: HashMap<Key, u32> = HashMap::with_capacity(build.len());
    let mut next = vec![END; build.len()];
    // Built back to front, so every chain runs in build order.
    for i in (0..build.len()).rev() {
        let head = heads.entry(Key::of(build.row(i), build_key)).or_insert(END);
        next[i] = std::mem::replace(head, i as u32);
    }
    incr(Counter::KernelTuplesProbed, probe.len() as u64);
    let arity = plan.sources.len();
    let (mut out, mut len) = (Vec::new(), 0u64);
    for p in 0..probe.len() {
        let t = probe.row(p);
        let mut m = heads.get(&Key::of(t, probe_key)).copied().unwrap_or(END);
        while m != END {
            len += 1;
            if len % CHARGE_BATCH == 0 {
                guard.charge_tuples(CHARGE_BATCH)?;
            }
            if out.capacity() - out.len() < arity {
                out.try_reserve(arity)
                    .map_err(|_| out_of_memory(out.len()))?;
            }
            let b = build.row(m as usize);
            if build_is_left {
                plan.emit(b, t, &mut out);
            } else {
                plan.emit(t, b, &mut out);
            }
            m = next[m as usize];
        }
    }
    match len % CHARGE_BATCH {
        0 => {}
        rest => guard.charge_tuples(rest)?,
    }
    Ok((out, len as usize))
}

/// The hash-join workers that `threads` asks for on a host with `cores`
/// cores: no more than the cores, and at least one.
fn join_workers(threads: usize, cores: usize) -> usize {
    threads.min(cores).max(1)
}

/// The host's cores, read once per process (1 when the system does not
/// say).
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Partitioned parallel hash join on `threads` workers, clamped to the
/// host's cores: one worker runs the sequential kernel directly, more run
/// [`join_in_parts`] with one partition per worker.
pub(crate) fn join_partitioned(
    left: &Relation,
    right: &Relation,
    threads: usize,
    guard: &Guard,
) -> Result<Relation, MjoinError> {
    match join_workers(threads, host_cores()) {
        1 => join_guarded(left, right, guard),
        workers => join_in_parts(left, right, workers, guard),
    }
}

/// The join of `left` and `right` in `parts` partitions: both sides are
/// split into lists of row ids by a deterministic hash of the
/// shared-attribute [`Key`], one scoped worker joins each partition pair,
/// and the outputs are concatenated, longest first (ties in partition
/// order). Matching rows always hash to the same partition, so the union
/// of the partition joins is exactly the sequential join: the result is
/// equal to it as a set for any `parts`, and its emission order is fixed
/// by the inputs and `parts`. Every worker charges the same shared
/// `guard` (its counters are atomic). A partition whose worker the system
/// will not start is joined on the calling thread, and a worker that
/// panics is reported as [`MjoinError::Internal`].
fn join_in_parts(
    left: &Relation,
    right: &Relation,
    parts: usize,
    guard: &Guard,
) -> Result<Relation, MjoinError> {
    failpoints::hit("relation::join")?;
    incr(Counter::KernelJoins, 1);
    let plan = JoinPlan::new(left, right);
    let lparts = partition(left, &plan.left_key, parts);
    let rparts = partition(right, &plan.right_key, parts);
    let (plan_ref, run) = (&plan, &Scope::capture());
    let results: Vec<Result<(Vec<Value>, usize), MjoinError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = lparts
            .iter()
            .zip(&rparts)
            .map(|(lp, rp)| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || {
                        run.enter(|| hash_join(lp, rp, plan_ref, guard))
                    })
                    .map_err(|_| hash_join(lp, rp, plan_ref, guard))
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| match worker {
                Ok(handle) => handle.join().unwrap_or_else(|_| {
                    Err(MjoinError::Internal("a hash-join worker panicked".into()))
                }),
                Err(joined_here) => joined_here,
            })
            .collect()
    });
    let mut results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Longest first: its buffer grows into the output, so only the shorter
    // ones are copied, each freed once it is.
    results.sort_by_key(|(values, _)| std::cmp::Reverse(values.len()));
    let total: usize = results.iter().map(|(values, _)| values.len()).sum();
    let mut results = results.into_iter();
    let (mut out, mut len) = results.next().expect("parts > 1");
    out.try_reserve_exact(total - out.len())
        .map_err(|_| out_of_memory(out.len()))?;
    for (mut values, n) in results {
        out.append(&mut values);
        len += n;
    }
    incr(Counter::KernelTuplesEmitted, len as u64);
    Ok(Relation::from_join(plan.out_scheme, out, len))
}

/// Splits `rel`'s rows into `parts` partitions by the hash of their
/// [`Key`] on the columns `key`. `DefaultHasher::new()` is keyed with
/// constants, so partitioning and emission order are deterministic — not
/// that correctness needs it (any partitioning by key yields the same set
/// of matches).
fn partition<'a>(rel: &'a Relation, key: &[usize], parts: usize) -> Vec<Part<'a>> {
    assert!(rel.tau() < u64::from(END), "relation exceeds u32 row ids");
    let mut ids = vec![Vec::new(); parts];
    for (i, row) in rel.rows().enumerate() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Key::of(row, key).hash(&mut h);
        ids[(h.finish() % parts as u64) as usize].push(i as u32);
    }
    ids.into_iter().map(|ids| Part { rel, ids }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;
    use std::time::Duration;

    fn rel(spec: &str, rows: Vec<Vec<i64>>) -> Relation {
        let s = Catalog::with_letters().scheme(spec).unwrap();
        Relation::from_int_rows(s, rows).unwrap()
    }

    #[test]
    fn join_on_shared_attribute() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]);
        let s = rel("BC", vec![vec![10, 100], vec![20, 200], vec![20, 201]]);
        let j = r.natural_join(&s);
        // B=10: 1 pair. B=20: 2 left × 2 right = 4 pairs.
        assert_eq!(j.tau(), 5);
        assert_eq!(j.scheme().len(), 3);
    }

    #[test]
    fn disjoint_schemes_give_cartesian_product() {
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        let s = rel("CD", vec![vec![5, 6], vec![7, 8], vec![9, 10]]);
        let j = r.natural_join(&s);
        assert_eq!(j.tau(), r.tau() * s.tau());
    }

    #[test]
    fn join_with_empty_relation_is_empty() {
        let r = rel("AB", vec![vec![1, 2]]);
        let s = Relation::empty(Catalog::with_letters().scheme("BC").unwrap());
        assert!(r.natural_join(&s).is_empty());
        assert!(s.natural_join(&r).is_empty());
    }

    #[test]
    fn join_over_full_overlap_is_intersection() {
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        let s = rel("AB", vec![vec![3, 4], vec![5, 6]]);
        let j = r.natural_join(&s);
        assert_eq!(j.tau(), 1);
        assert_eq!(j.row(0)[0], Value::Int(3));
    }

    #[test]
    fn join_is_commutative() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20]]);
        let s = rel("BC", vec![vec![10, 5], vec![10, 6]]);
        assert_eq!(r.natural_join(&s), s.natural_join(&r));
    }

    #[test]
    fn join_is_associative() {
        let r = rel("AB", vec![vec![1, 10], vec![2, 20]]);
        let s = rel("BC", vec![vec![10, 5], vec![20, 6]]);
        let t = rel("CD", vec![vec![5, 7], vec![6, 8]]);
        let left_first = r.natural_join(&s).natural_join(&t);
        let right_first = r.natural_join(&s.natural_join(&t));
        assert_eq!(left_first, right_first);
    }

    #[test]
    fn algorithms_agree_on_paper_example_1() {
        // Example 1 of the paper: τ(R1 ⋈ R2) = 10.
        let r1 = rel(
            "AB",
            vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]],
        );
        let r2 = rel(
            "BC",
            vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]],
        );
        assert_eq!(r1.natural_join(&r2).tau(), 10);
    }

    #[test]
    fn output_follows_the_probe_side_then_the_build_side() {
        // R is the build side (smaller), S the probe side.
        let r = rel("AB", vec![vec![1, 10], vec![2, 10], vec![3, 20]]);
        let s = rel(
            "BC",
            vec![vec![10, 100], vec![10, 101], vec![20, 102], vec![30, 103]],
        );
        let rows: Vec<Vec<i64>> = r
            .natural_join(&s)
            .rows()
            .map(|t| t.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        let expected = [
            [1, 10, 100],
            [2, 10, 100],
            [1, 10, 101],
            [2, 10, 101],
            [3, 20, 102],
        ];
        assert_eq!(rows, expected);
    }

    #[test]
    fn partitioned_join_matches_sequential_at_every_thread_count() {
        let r = rel("AB", (0..40).map(|i| vec![i, i % 7]).collect());
        let s = rel("BC", (0..30).map(|i| vec![i % 7, 100 + i]).collect());
        let sequential = r.natural_join(&s);
        for threads in 1..=4 {
            let guard = Guard::unlimited();
            let par = r.natural_join_partitioned(&s, threads, &guard).unwrap();
            assert_eq!(par, sequential, "threads={threads}");
        }
    }

    #[test]
    fn join_workers_are_clamped_to_the_cores() {
        assert_eq!(join_workers(1, 8), 1);
        assert_eq!(join_workers(4, 8), 4);
        assert_eq!(join_workers(64, 2), 2);
        assert_eq!(join_workers(64, 1), 1);
        assert_eq!(join_workers(0, 4), 1);
        assert!(join_workers(usize::MAX, host_cores()) <= host_cores());
    }

    #[test]
    fn more_parts_than_cores_join_the_same_set() {
        // The partitioned kernel itself, whatever this host's core count.
        let r = rel("AB", (0..40).map(|i| vec![i, i % 7]).collect());
        let s = rel("BC", (0..30).map(|i| vec![i % 7, 100 + i]).collect());
        let sequential = r.natural_join(&s);
        for parts in [2, 3, 8] {
            let par = join_in_parts(&r, &s, parts, &Guard::unlimited()).unwrap();
            assert_eq!(par, sequential, "parts={parts}");
        }
    }

    #[test]
    fn partitioned_join_charges_the_same_tuple_total() {
        let r = rel("AB", (0..40).map(|i| vec![i, i % 7]).collect());
        let s = rel("BC", (0..30).map(|i| vec![i % 7, 100 + i]).collect());
        let charged = |threads: usize| -> u64 {
            let guard = Guard::new(mjoin_guard::Budget::unlimited().with_max_tuples(1_000_000));
            r.natural_join_partitioned(&s, threads, &guard).unwrap();
            guard.tuples_used()
        };
        let seq = charged(1);
        assert!(seq > 0);
        for threads in 2..=4 {
            assert_eq!(charged(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn partitioned_join_respects_tuple_budget() {
        let r = rel("AB", (0..50).map(|i| vec![i, 0]).collect());
        let s = rel("BC", (0..50).map(|i| vec![0, i]).collect());
        let guard = Guard::new(mjoin_guard::Budget::unlimited().with_max_tuples(100));
        let err = r.natural_join_partitioned(&s, 4, &guard).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn deadline_stops_a_cartesian_product_too_big_to_hold() {
        // 70 000² rows of two values: 235 GB, more than any host grants.
        // With only a deadline, the join must stop at it holding about what
        // it emitted, and report it as a typed error.
        let n = 70_000;
        let r = rel("A", (0..n).map(|i| vec![i]).collect());
        let s = rel("B", (0..n).map(|i| vec![i]).collect());
        for threads in [1, 2] {
            let budget = mjoin_guard::Budget::unlimited().with_deadline(Duration::from_millis(20));
            let guard = Guard::new(budget);
            let err = r.natural_join_partitioned(&s, threads, &guard).unwrap_err();
            assert!(
                matches!(
                    err,
                    MjoinError::BudgetExceeded {
                        resource: Resource::WallClock,
                        ..
                    }
                ),
                "threads={threads}: {err}"
            );
            assert!(
                guard.tuples_used() < (n * n / 100) as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_buffer_that_cannot_grow_is_a_memory_error() {
        let mut out: Vec<Value> = vec![Value::Int(0); 4];
        let err = out
            .try_reserve(usize::MAX / 2)
            .map_err(|_| out_of_memory(out.len()))
            .unwrap_err();
        let limit = 4 * std::mem::size_of::<Value>() as u64;
        assert_eq!(
            err,
            MjoinError::BudgetExceeded {
                resource: Resource::Memory,
                limit
            }
        );
    }

    #[test]
    fn partitioned_cartesian_product_is_correct() {
        // Disjoint schemes: the key is empty, every tuple lands in one
        // partition, and the join must still equal the Cartesian product.
        let r = rel("AB", vec![vec![1, 2], vec![3, 4]]);
        let s = rel("CD", vec![vec![5, 6], vec![7, 8], vec![9, 10]]);
        let guard = Guard::unlimited();
        let par = r.natural_join_partitioned(&s, 4, &guard).unwrap();
        assert_eq!(par, r.natural_join(&s));
        assert_eq!(par.tau(), 6);
    }

    #[test]
    fn column_ordering_is_attribute_ascending_regardless_of_sides() {
        // Join CD ⋈ AC: output scheme ACD in ascending attribute order.
        let mut cat = Catalog::with_letters();
        let cd = cat.scheme("CD").unwrap();
        let ac = cat.scheme("AC").unwrap();
        let r = Relation::from_int_rows(cd, vec![vec![1, 2]]).unwrap();
        let s = Relation::from_int_rows(ac, vec![vec![9, 1]]).unwrap();
        let j = r.natural_join(&s);
        let names: Vec<&str> = j.attrs().iter().map(|&a| cat.name(a).unwrap()).collect();
        assert_eq!(names, vec!["A", "C", "D"]);
        assert_eq!(j.row(0), &[Value::Int(9), Value::Int(1), Value::Int(2)]);
    }
}
