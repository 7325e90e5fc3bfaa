//! Deterministic observability for the mjoin stack.
//!
//! Three pieces, all dependency-free:
//!
//! * a process-global **metrics registry** — a fixed array of relaxed
//!   [`AtomicU64`] counters indexed by [`Counter`], plus monotonic span
//!   accumulators indexed by [`Span`]. Disarmed (the default), every
//!   instrumentation site is a single relaxed load of one `AtomicBool`
//!   and a branch — no clock reads, no contention, no allocation — so
//!   un-instrumented runs stay byte- and cost-identical;
//! * a [`Recorder`] RAII handle that arms the registry for the duration
//!   of one run and hands back an immutable [`Snapshot`] of everything
//!   counted. Arming takes a process-wide lock, so concurrent tests
//!   serialize instead of bleeding counts into each other;
//! * a [`RunReport`] that serializes a snapshot (plus
//!   caller-provided sections such as the degradation ladder's report or
//!   an adaptive execution trace) to a stable JSON schema, with a
//!   hand-rolled writer and a matching minimal parser in [`json`] so CI
//!   can round-trip-validate emitted files without external crates.
//!
//! ## Determinism contract
//!
//! Every **count** metric is deterministic: bit-identical across repeated
//! single-threaded runs, and the subset-materialization counter
//! ([`Counter::OracleSubsetsMaterialized`]) is invariant under the
//! worker-thread count because the exact oracle charges each distinct
//! subset exactly once under its shard's write lock. **Timings**
//! (spans, and span-derived fields in reports) are explicitly excluded
//! from the contract — tests must never assert on them.

pub mod json;
pub mod report;

pub use json::Json;
pub use report::{validate_schema, RunReport, SCHEMA_VERSION};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Every counter the stack maintains. The discriminant is the index into
/// the registry array; the dotted name (see [`Counter::name`]) is the key
/// in reports. Counters are *counts of work*, never timings, so each is
/// deterministic for a fixed input at a fixed thread count — and the ones
/// charged exactly once per distinct unit of work (`OracleSubsetsMaterialized`,
/// `AdaptiveReplans`) are invariant under the thread count too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// `ExactOracle` memo lookups that found a materialized subset
    /// (duplicate compute by racing workers makes this
    /// thread-count-*dependent*; never assert on it at `threads > 1`).
    OracleMemoHits,
    /// Distinct subsets the `ExactOracle` memoized — charged exactly once
    /// per subset under the shard write lock, hence thread-invariant.
    OracleSubsetsMaterialized,
    /// Materializations an `ExactOracle` worker completed only to find the
    /// shard already held the subset (first-writer-wins contention).
    OracleDuplicateMaterializations,
    /// Subset estimates served by a `NoisyOracle`.
    OracleNoisyEstimates,
    /// Join-kernel invocations (hash, sort-merge, nested-loop, partitioned).
    KernelJoins,
    /// Tuples on the probe/right side scanned by join kernels.
    KernelTuplesProbed,
    /// Tuples emitted by join kernels (before canonical dedup).
    KernelTuplesEmitted,
    /// Memo-table entries the DPs expanded (one per distinct subset
    /// solved). On an `n`-chain with no Cartesian products this equals the
    /// connected-subgraph count `n(n+1)/2`.
    DpSubsetsExpanded,
    /// Candidate splits the DPs scanned.
    DpCandidatesScanned,
    /// csg–cmp pairs the streaming DPccp enumerator emitted — the
    /// output-sensitive size of the product-free split space. On an
    /// `n`-chain this is `n(n−1)(n+1)/6` and equals the DPccp
    /// `dp.candidates_scanned` (each pair is scanned exactly once).
    DpCcpPairsEmitted,
    /// Candidate splits discarded (disconnected, overlapping, or costed
    /// worse than the incumbent).
    DpCandidatesPruned,
    /// Complete strategies enumerated by the exhaustive search.
    ExhaustiveStrategies,
    /// Cardinality-oracle calls issued by the greedy optimizers.
    GreedyOracleCalls,
    /// Merge steps the greedy optimizers committed.
    GreedyMerges,
    /// Linear orderings scored by IK/KBZ.
    IkkbzOrderings,
    /// Precedence-graph linearizations the linearized DP interval-solved.
    IkkbzLinearizations,
    /// Connected order-intervals the linearized DP solved.
    LindpIntervalsSolved,
    /// Blocks the partitioned DPccp cut the join graph into (charged only
    /// when the query actually partitions, i.e. `n > k`).
    PartdpPartitions,
    /// Rungs the degradation ladder attempted.
    LadderRungsAttempted,
    /// Pipeline stages the adaptive executor ran to completion.
    AdaptiveStagesExecuted,
    /// Mid-query re-optimizations the adaptive executor triggered.
    AdaptiveReplans,
    /// Requests the serve daemon received (any op, including malformed).
    ServeRequests,
    /// Requests the serve daemon shed (admission queue full or draining).
    ServeShed,
    /// Serve-daemon plan-cache hits.
    ServeCacheHits,
    /// Serve-daemon plan-cache entries evicted to stay under the cap.
    ServeCacheEvictions,
    /// Upward brownout transitions (controller entered a degraded level).
    ServeBrownoutEntered,
    /// Requests shed against a per-client quota (sub-queue cap or token
    /// bucket), as opposed to the shared admission queue being full.
    ServeQuotaShed,
    /// Complete deficit-round-robin rounds the fair queue drained (one
    /// increment each time the scan wraps past every active client).
    ServeDrrRounds,
    /// Brownout-degraded answers served from the DP rung.
    ServeBrownoutDpAnswers,
    /// Brownout-degraded answers served from the greedy/fallback rungs.
    ServeBrownoutGreedyAnswers,
    /// Persistent-store fingerprint lookups that found an entry.
    StoreHits,
    /// Persistent stores opened and validated successfully.
    StoreLoads,
    /// Bytes mapped by successful zero-copy store loads (0 when the
    /// buffered fallback path served the load).
    StoreBytesMapped,
    /// DSL queries parsed successfully by the query front end.
    QueryParsed,
    /// Join-edge predicates resolved during query lowering.
    QueryJoinEdges,
    /// Filter predicates pushed below the joins during query lowering.
    QueryFiltersPushed,
}

/// All counters, in registry order. `Counter::ALL.len()` sizes the array.
impl Counter {
    pub const ALL: [Counter; 36] = [
        Counter::OracleMemoHits,
        Counter::OracleSubsetsMaterialized,
        Counter::OracleDuplicateMaterializations,
        Counter::OracleNoisyEstimates,
        Counter::KernelJoins,
        Counter::KernelTuplesProbed,
        Counter::KernelTuplesEmitted,
        Counter::DpSubsetsExpanded,
        Counter::DpCandidatesScanned,
        Counter::DpCcpPairsEmitted,
        Counter::DpCandidatesPruned,
        Counter::ExhaustiveStrategies,
        Counter::GreedyOracleCalls,
        Counter::GreedyMerges,
        Counter::IkkbzOrderings,
        Counter::IkkbzLinearizations,
        Counter::LindpIntervalsSolved,
        Counter::PartdpPartitions,
        Counter::LadderRungsAttempted,
        Counter::AdaptiveStagesExecuted,
        Counter::AdaptiveReplans,
        Counter::ServeRequests,
        Counter::ServeShed,
        Counter::ServeCacheHits,
        Counter::ServeCacheEvictions,
        Counter::ServeBrownoutEntered,
        Counter::ServeQuotaShed,
        Counter::ServeDrrRounds,
        Counter::ServeBrownoutDpAnswers,
        Counter::ServeBrownoutGreedyAnswers,
        Counter::StoreHits,
        Counter::StoreLoads,
        Counter::StoreBytesMapped,
        Counter::QueryParsed,
        Counter::QueryJoinEdges,
        Counter::QueryFiltersPushed,
    ];

    /// Stable dotted name used as the JSON key and table row label.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OracleMemoHits => "oracle.memo_hits",
            Counter::OracleSubsetsMaterialized => "oracle.subsets_materialized",
            Counter::OracleDuplicateMaterializations => "oracle.duplicate_materializations",
            Counter::OracleNoisyEstimates => "oracle.noisy_estimates",
            Counter::KernelJoins => "kernel.joins",
            Counter::KernelTuplesProbed => "kernel.tuples_probed",
            Counter::KernelTuplesEmitted => "kernel.tuples_emitted",
            Counter::DpSubsetsExpanded => "dp.subsets_expanded",
            Counter::DpCandidatesScanned => "dp.candidates_scanned",
            Counter::DpCcpPairsEmitted => "dp.ccp_pairs_emitted",
            Counter::DpCandidatesPruned => "dp.candidates_pruned",
            Counter::ExhaustiveStrategies => "exhaustive.strategies_enumerated",
            Counter::GreedyOracleCalls => "greedy.oracle_calls",
            Counter::GreedyMerges => "greedy.merges",
            Counter::IkkbzOrderings => "ikkbz.orderings_scored",
            Counter::IkkbzLinearizations => "ikkbz.linearizations",
            Counter::LindpIntervalsSolved => "lindp.intervals_solved",
            Counter::PartdpPartitions => "partdp.partitions",
            Counter::LadderRungsAttempted => "ladder.rungs_attempted",
            Counter::AdaptiveStagesExecuted => "adaptive.stages_executed",
            Counter::AdaptiveReplans => "adaptive.replans",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeShed => "serve.shed",
            Counter::ServeCacheHits => "serve.cache_hits",
            Counter::ServeCacheEvictions => "serve.cache_evictions",
            Counter::ServeBrownoutEntered => "serve.brownout_entered",
            Counter::ServeQuotaShed => "serve.quota_shed",
            Counter::ServeDrrRounds => "serve.drr_rounds",
            Counter::ServeBrownoutDpAnswers => "serve.brownout_dp_answers",
            Counter::ServeBrownoutGreedyAnswers => "serve.brownout_greedy_answers",
            Counter::StoreHits => "store.hits",
            Counter::StoreLoads => "store.loads",
            Counter::StoreBytesMapped => "store.bytes_mapped",
            Counter::QueryParsed => "query.parsed",
            Counter::QueryJoinEdges => "query.join_edges",
            Counter::QueryFiltersPushed => "query.filters_pushed",
        }
    }
}

/// Monotonic span accumulators: wall-clock total + entry count per site.
/// Span *totals* are timings and carry no determinism guarantee; span
/// *counts* mirror an existing counter and are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Span {
    /// One full optimization call (any entry point).
    Optimize,
    /// One full plan execution (static or adaptive).
    Execute,
    /// One rung attempt inside the degradation ladder.
    LadderRung,
    /// One adaptive pipeline stage.
    AdaptiveStage,
    /// One mid-query re-optimization.
    AdaptiveReplan,
    /// One serve-daemon request, decode through response write.
    ServeRequest,
}

impl Span {
    pub const ALL: [Span; 6] = [
        Span::Optimize,
        Span::Execute,
        Span::LadderRung,
        Span::AdaptiveStage,
        Span::AdaptiveReplan,
        Span::ServeRequest,
    ];

    /// Stable dotted name used as the JSON key and table row label.
    pub fn name(self) -> &'static str {
        match self {
            Span::Optimize => "optimize",
            Span::Execute => "execute",
            Span::LadderRung => "ladder.rung",
            Span::AdaptiveStage => "adaptive.stage",
            Span::AdaptiveReplan => "adaptive.replan",
            Span::ServeRequest => "serve.request",
        }
    }
}

const COUNTER_COUNT: usize = Counter::ALL.len();
const SPAN_COUNT: usize = Span::ALL.len();

// `AtomicU64::new` is not const-callable through array repeat of a non-Copy
// type, but a `const` item is re-evaluated per element.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// One relaxed load when disarmed — the whole cost of an un-recorded run.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; COUNTER_COUNT] = [ZERO; COUNTER_COUNT];
static SPAN_NANOS: [AtomicU64; SPAN_COUNT] = [ZERO; SPAN_COUNT];
static SPAN_ENTRIES: [AtomicU64; SPAN_COUNT] = [ZERO; SPAN_COUNT];

/// Serializes recorders: two concurrently-armed recorders would read each
/// other's counts, so arming blocks until the previous recorder drops.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Whether a [`Recorder`] is currently armed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to `counter`. Disarmed: one relaxed load and a taken branch.
/// Hot loops should accumulate locally and call this once per batch.
#[inline]
pub fn incr(counter: Counter, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Starts timing `span`; the returned guard records the elapsed wall time
/// on drop. Disarmed, no clock is read at either end.
#[inline]
#[must_use = "the span is recorded when the guard drops"]
pub fn span(span: Span) -> SpanGuard {
    let start = if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    };
    SpanGuard { span, start }
}

/// RAII span timer from [`span`]. Records on drop; never panics.
pub struct SpanGuard {
    span: Span,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            SPAN_NANOS[self.span as usize].fetch_add(ns, Ordering::Relaxed);
            SPAN_ENTRIES[self.span as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Arms the global registry for the lifetime of the handle.
///
/// `arm()` zeroes every counter and span, so a snapshot reflects exactly
/// the work done while this recorder was alive. Only one recorder exists
/// at a time; a second `arm()` blocks until the first drops.
pub struct Recorder {
    _lock: MutexGuard<'static, ()>,
}

impl Recorder {
    /// Locks the registry, zeroes it, and arms collection.
    pub fn arm() -> Recorder {
        let lock = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for c in &COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
        for s in &SPAN_NANOS {
            s.store(0, Ordering::Relaxed);
        }
        for s in &SPAN_ENTRIES {
            s.store(0, Ordering::Relaxed);
        }
        ENABLED.store(true, Ordering::Relaxed);
        Recorder { _lock: lock }
    }

    /// An immutable copy of everything counted since `arm()`.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = [0u64; COUNTER_COUNT];
        for (slot, atomic) in counters.iter_mut().zip(&COUNTERS) {
            *slot = atomic.load(Ordering::Relaxed);
        }
        let mut spans = [SpanStat::default(); SPAN_COUNT];
        for (i, slot) in spans.iter_mut().enumerate() {
            *slot = SpanStat {
                entries: SPAN_ENTRIES[i].load(Ordering::Relaxed),
                total_ns: SPAN_NANOS[i].load(Ordering::Relaxed),
            };
        }
        Snapshot { counters, spans }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
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

/// A point-in-time copy of the registry, detached from the atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; COUNTER_COUNT],
    spans: [SpanStat; SPAN_COUNT],
}

impl Snapshot {
    /// An all-zero snapshot, for reports built without a recorder.
    pub fn empty() -> Snapshot {
        Snapshot {
            counters: [0; COUNTER_COUNT],
            spans: [SpanStat::default(); SPAN_COUNT],
        }
    }

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
        let mut rows: Vec<_> =
            Span::ALL.iter().map(|&s| (s.name(), self.span(s))).collect();
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
