//! Deterministic observability for the mjoin stack.
//!
//! Three pieces, all dependency-free:
//!
//! * **run-scoped metrics** — a [`Recorder`] owns one fixed array of
//!   relaxed [`AtomicU64`] counters indexed by [`Counter`], plus monotonic
//!   span accumulators indexed by [`Span`], and installs it as the calling
//!   thread's [`Sink`]. [`incr`] and [`span`] write to the calling
//!   thread's sink and to nothing else, so two recorders armed at once —
//!   or an armed test beside an unarmed one — never see each other's work.
//!   While no thread has a sink (the default), every instrumentation site
//!   is a single relaxed load of one `AtomicUsize` and a branch — no clock
//!   reads, no contention, no allocation — so un-instrumented runs stay
//!   byte- and cost-identical;
//! * a [`Sink`] handle a spawning thread passes to its workers
//!   ([`Sink::current`] / [`Sink::enter`]; `mjoin_guard::Scope` bundles it
//!   with the armed failpoints), so join workers count into the run that
//!   started them. [`Recorder::snapshot`] hands back an immutable
//!   [`Snapshot`] of everything counted into the recorder's sink;
//! * a [`RunReport`] that serializes a snapshot (plus
//!   caller-provided sections such as the degradation ladder's report or
//!   an adaptive execution trace) to a stable JSON schema, with a
//!   hand-rolled writer and a matching minimal parser in [`json`] so CI
//!   can round-trip-validate emitted files without external crates.
//!
//! ## Determinism contract
//!
//! Every **count** metric is deterministic: bit-identical across repeated
//! single-threaded runs, and the exact oracle's per-subset counters
//! ([`Counter::OracleSubsetsCounted`], [`Counter::OracleSubsetsMaterialized`])
//! are invariant under the worker-thread count because the oracle charges
//! each distinct subset exactly once under its shard's write lock.
//! **Timings** (spans, and span-derived fields in reports) are explicitly
//! excluded from the contract — tests must never assert on them.

pub mod json;
pub mod report;

pub use json::Json;
pub use report::{validate_schema, RunReport, SCHEMA_VERSION};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Declares a metric enum from one table: the variants (a variant's
/// discriminant is its index into a sink's array), `ALL` in index order,
/// and the stable dotted `name` of each.
macro_rules! metric_enum {
    ($(#[$meta:meta])* pub enum $Enum:ident {
        $($(#[$vmeta:meta])* $Variant:ident => $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $Enum { $($(#[$vmeta])* $Variant,)* }

        impl $Enum {
            /// Every variant, in index order.
            pub const ALL: [$Enum; [$($name),*].len()] = [$($Enum::$Variant),*];

            /// Stable dotted name used as the JSON key and table row label.
            pub fn name(self) -> &'static str {
                match self { $($Enum::$Variant => $name,)* }
            }
        }
    };
}

metric_enum! {
    /// Every counter the stack maintains; the dotted name is the key in
    /// reports. Counters are *counts of work*, never timings, so each is
    /// deterministic for a fixed input at a fixed thread count — and the
    /// ones charged exactly once per distinct unit of work
    /// (`OracleSubsetsCounted`, `OracleSubsetsMaterialized`,
    /// `AdaptiveReplans`) are invariant under the thread count too.
    pub enum Counter {
        /// `ExactOracle` memo lookups that found the subset (threads that
        /// share one oracle may compute a subset twice, which moves this;
        /// never assert on it there).
        OracleMemoHits => "oracle.memo_hits",
        /// Subsets the `ExactOracle` memoized as relations: the cyclic
        /// residue alone (subsets with a component that has no join
        /// tree). A counted subset whose tuples are asked for later is
        /// upgraded in place and not counted again. Charged once per
        /// subset under the shard write lock, hence thread-invariant.
        OracleSubsetsMaterialized => "oracle.subsets_materialized",
        /// Subsets whose `τ` the `ExactOracle` counted over join trees
        /// without building a tuple — charged once per subset under the
        /// shard write lock, hence thread-invariant.
        OracleSubsetsCounted => "oracle.subsets_counted",
        /// τ computations (counted or built), or relations built for a
        /// counted entry, that an `ExactOracle` worker completed only to
        /// find the shard already held them (first-writer-wins
        /// contention).
        OracleDuplicateMaterializations => "oracle.duplicate_materializations",
        /// Subset estimates served by a `NoisyOracle`.
        OracleNoisyEstimates => "oracle.noisy_estimates",
        /// Join-kernel invocations: hash joins, sequential or partitioned.
        KernelJoins => "kernel.joins",
        /// Tuples on the probe/right side scanned by join kernels.
        KernelTuplesProbed => "kernel.tuples_probed",
        /// Tuples emitted by join kernels (before canonical dedup).
        KernelTuplesEmitted => "kernel.tuples_emitted",
        /// Memo-table entries the DPs expanded (one per distinct subset
        /// solved). On an `n`-chain with no Cartesian products this equals the
        /// connected-subgraph count `n(n+1)/2`.
        DpSubsetsExpanded => "dp.subsets_expanded",
        /// Candidate splits the DPs scanned.
        DpCandidatesScanned => "dp.candidates_scanned",
        /// csg–cmp pairs the streaming DPccp enumerator emitted — the
        /// output-sensitive size of the product-free split space. On an
        /// `n`-chain this is `n(n−1)(n+1)/6` and equals the DPccp
        /// `dp.candidates_scanned` (each pair is scanned exactly once).
        DpCcpPairsEmitted => "dp.ccp_pairs_emitted",
        /// Candidate splits discarded (disconnected, overlapping, or costed
        /// worse than the incumbent).
        DpCandidatesPruned => "dp.candidates_pruned",
        /// Complete strategies enumerated by the exhaustive search.
        ExhaustiveStrategies => "exhaustive.strategies_enumerated",
        /// Cardinality-oracle calls issued by the greedy optimizers.
        GreedyOracleCalls => "greedy.oracle_calls",
        /// Merge steps the greedy optimizers committed.
        GreedyMerges => "greedy.merges",
        /// Linear orderings scored by IK/KBZ.
        IkkbzOrderings => "ikkbz.orderings_scored",
        /// Precedence-graph linearizations the linearized DP interval-solved.
        IkkbzLinearizations => "ikkbz.linearizations",
        /// Connected order-intervals the linearized DP solved.
        LindpIntervalsSolved => "lindp.intervals_solved",
        /// Blocks the partitioned DPccp cut the join graph into (charged only
        /// when the query actually partitions, i.e. `n > k`).
        PartdpPartitions => "partdp.partitions",
        /// Rungs the degradation ladder attempted.
        LadderRungsAttempted => "ladder.rungs_attempted",
        /// Pipeline stages the adaptive executor ran to completion.
        AdaptiveStagesExecuted => "adaptive.stages_executed",
        /// Mid-query re-optimizations the adaptive executor triggered.
        AdaptiveReplans => "adaptive.replans",
        /// Persistent-store fingerprint lookups that found an entry.
        StoreHits => "store.hits",
        /// Persistent stores opened and validated successfully.
        StoreLoads => "store.loads",
        /// Bytes mapped by successful zero-copy store loads (0 when the
        /// buffered fallback path served the load).
        StoreBytesMapped => "store.bytes_mapped",
        /// DSL queries parsed successfully by the query front end.
        QueryParsed => "query.parsed",
        /// Join-edge predicates resolved during query lowering.
        QueryJoinEdges => "query.join_edges",
        /// Filter predicates pushed below the joins during query lowering.
        QueryFiltersPushed => "query.filters_pushed",
    }
}

metric_enum! {
    /// Monotonic span accumulators: wall-clock total + entry count per site.
    /// Span *totals* are timings and carry no determinism guarantee; span
    /// *counts* mirror an existing counter and are deterministic.
    pub enum Span {
        /// One full optimization call (any entry point).
        Optimize => "optimize",
        /// One full plan execution (static or adaptive).
        Execute => "execute",
        /// One rung attempt inside the degradation ladder.
        LadderRung => "ladder.rung",
        /// One adaptive pipeline stage.
        AdaptiveStage => "adaptive.stage",
        /// One mid-query re-optimization.
        AdaptiveReplan => "adaptive.replan",
    }
}

const COUNTER_COUNT: usize = Counter::ALL.len();
const SPAN_COUNT: usize = Span::ALL.len();

/// What one run counts into: the arrays a [`Recorder`] snapshots.
struct Metrics {
    counters: [AtomicU64; COUNTER_COUNT],
    span_nanos: [AtomicU64; SPAN_COUNT],
    span_entries: [AtomicU64; SPAN_COUNT],
}

/// Sinks installed on some thread right now. Zero — the default — is the
/// whole cost of an un-recorded run: one relaxed load and a branch per
/// site. Relaxed is enough because the count publishes nothing: a thread
/// reads only its own slot, which it filled after its own increment.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The sink the calling thread's [`incr`] and [`span`] write to.
    static CURRENT: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// A shared handle on one run's metrics: what a thread hands the workers
/// it spawns so that their work counts into its own [`Recorder`].
#[derive(Clone)]
pub struct Sink(Arc<Metrics>);

impl Sink {
    /// The calling thread's sink — `None` unless it armed a [`Recorder`]
    /// or is inside [`Sink::enter`]. One relaxed load when nothing is armed.
    #[inline]
    pub fn current() -> Option<Sink> {
        if INSTALLED.load(Ordering::Relaxed) == 0 {
            return None;
        }
        CURRENT.with(|slot| slot.borrow().clone())
    }

    /// Runs `f` with this sink as the calling thread's, then puts back
    /// whatever the thread had before (also when `f` unwinds).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let _installed = Recorder::install(self.clone());
        f()
    }
}

/// Adds `n` to `counter` in the calling thread's sink. With no sink
/// anywhere: one relaxed load and a taken branch.
/// Hot loops should accumulate locally and call this once per batch.
#[inline]
pub fn incr(counter: Counter, n: u64) {
    if INSTALLED.load(Ordering::Relaxed) != 0 {
        CURRENT.with(|slot| {
            if let Some(sink) = slot.borrow().as_ref() {
                sink.0.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
            }
        });
    }
}

/// Starts timing `span`; the returned guard records the elapsed wall time
/// on drop, into the sink the calling thread has now. With no sink, no
/// clock is read at either end.
#[inline]
#[must_use = "the span is recorded when the guard drops"]
pub fn span(span: Span) -> SpanGuard {
    let start = Sink::current().map(|sink| (sink, Instant::now()));
    SpanGuard { span, start }
}

/// RAII span timer from [`span`]. Records on drop; never panics.
pub struct SpanGuard {
    span: Span,
    start: Option<(Sink, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, start)) = &self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            sink.0.span_nanos[self.span as usize].fetch_add(ns, Ordering::Relaxed);
            sink.0.span_entries[self.span as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts the calling thread's work for the lifetime of the handle.
///
/// `arm()` installs a fresh, all-zero [`Sink`] on the calling thread, so
/// a snapshot reflects exactly the work done by this thread — and by the
/// workers it handed the sink to — while the recorder was alive. It takes
/// no lock: any number of threads may each hold their own. A recorder
/// armed while another is alive on the same thread shadows it until
/// dropped; drop them in reverse order of arming.
pub struct Recorder {
    sink: Sink,
    previous: Option<Sink>,
    /// Not `Send`: drop must restore the slot of the thread that armed.
    _this_thread: PhantomData<*const ()>,
}

impl Recorder {
    /// Installs a fresh sink on the calling thread.
    pub fn arm() -> Recorder {
        fn zeroed<const N: usize>() -> [AtomicU64; N] {
            std::array::from_fn(|_| AtomicU64::new(0))
        }
        Recorder::install(Sink(Arc::new(Metrics {
            counters: zeroed(),
            span_nanos: zeroed(),
            span_entries: zeroed(),
        })))
    }

    /// Makes `sink` the calling thread's until the value drops — `arm`
    /// with a fresh sink, [`Sink::enter`] with a shared one.
    fn install(sink: Sink) -> Recorder {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
        Recorder {
            previous: CURRENT.with(|slot| slot.replace(Some(sink.clone()))),
            sink,
            _this_thread: PhantomData,
        }
    }

    /// An immutable copy of everything counted since `arm()`.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = &self.sink.0;
        Snapshot {
            counters: std::array::from_fn(|i| metrics.counters[i].load(Ordering::Relaxed)),
            spans: std::array::from_fn(|i| SpanStat {
                entries: metrics.span_entries[i].load(Ordering::Relaxed),
                total_ns: metrics.span_nanos[i].load(Ordering::Relaxed),
            }),
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // `try_with`: a drop during thread teardown must not panic.
        let _ = CURRENT.try_with(|slot| slot.replace(self.previous.take()));
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Accumulated wall time and entry count for one [`Span`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered (deterministic).
    pub entries: u64,
    /// Total nanoseconds across entries (a timing — never assert on it).
    pub total_ns: u64,
}

/// A point-in-time copy of one run's metrics, detached from the atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; COUNTER_COUNT],
    spans: [SpanStat; SPAN_COUNT],
}

impl Snapshot {
    /// The recorded value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The recorded stats of one span.
    pub fn span(&self, s: Span) -> SpanStat {
        self.spans[s as usize]
    }

    /// `(name, value)` for every counter, sorted by name.
    pub fn counters_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<_> = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter(c)))
            .collect();
        rows.sort_by_key(|&(name, _)| name);
        rows
    }

    /// `(name, stat)` for every span, sorted by name.
    pub fn spans_by_name(&self) -> Vec<(&'static str, SpanStat)> {
        let mut rows: Vec<_> = Span::ALL
            .iter()
            .map(|&s| (s.name(), self.span(s)))
            .collect();
        rows.sort_by_key(|&(name, _)| name);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_incr_is_a_no_op() {
        // No recorder armed: incr must not leak into the next snapshot.
        incr(Counter::KernelJoins, 7);
        let rec = Recorder::arm();
        assert_eq!(rec.snapshot().counter(Counter::KernelJoins), 0);
    }

    #[test]
    fn armed_counts_and_resets_on_rearm() {
        {
            let rec = Recorder::arm();
            incr(Counter::DpSubsetsExpanded, 3);
            incr(Counter::DpSubsetsExpanded, 2);
            assert_eq!(rec.snapshot().counter(Counter::DpSubsetsExpanded), 5);
        }
        let rec = Recorder::arm();
        assert_eq!(rec.snapshot().counter(Counter::DpSubsetsExpanded), 0);
    }

    #[test]
    fn spans_record_entries_and_time() {
        let rec = Recorder::arm();
        {
            let _g = span(Span::Optimize);
        }
        {
            let _g = span(Span::Optimize);
        }
        let stat = rec.snapshot().span(Span::Optimize);
        assert_eq!(stat.entries, 2);
    }

    #[test]
    fn disarmed_span_records_nothing() {
        {
            let _g = span(Span::Execute);
        }
        let rec = Recorder::arm();
        assert_eq!(rec.snapshot().span(Span::Execute).entries, 0);
    }

    #[test]
    fn counter_names_are_unique_and_sorted_rows_cover_all() {
        let rec = Recorder::arm();
        let rows = rec.snapshot().counters_by_name();
        assert_eq!(rows.len(), Counter::ALL.len());
        for pair in rows.windows(2) {
            assert!(pair[0].0 < pair[1].0, "duplicate or unsorted: {pair:?}");
        }
    }
}
