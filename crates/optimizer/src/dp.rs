//! Dynamic programs over scheme subsets.
//!
//! The paper's cost measure decomposes over subtrees — `τ(S)` is the sum of
//! `τ(R_{D′})` over the internal nodes, and `R_{D′}` depends only on the
//! subset `D′` — so Bellman's principle applies directly: the cheapest
//! strategy for `D` is `τ(R_D)` plus the cheapest pair of sub-strategies
//! over some partition `D = D₁ ⊎ D₂`. Each search space below is one DP.
//!
//! Every DP exists in two surfaces: a guarded `try_*` entry point that
//! threads a [`Guard`] through its hot loops (checkpointing each recursion,
//! charging every memo insert, and propagating oracle budget errors), and
//! the legacy infallible wrapper running under [`Guard::unlimited`].

use std::collections::hash_map::Entry;
use std::time::{Duration, Instant};

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{failpoints, Guard, MjoinError, Scope};
use mjoin_hypergraph::{DbScheme, FastMap, RelSet, SchemeIndex};
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// DP memo entry: best cost plus the winning split (None for leaves).
/// Keys are single-word bitsets, so the memo hashes with the splitmix64
/// fast path rather than SipHash.
pub(crate) type SplitMemo = FastMap<RelSet, (u64, Option<(RelSet, RelSet)>)>;

/// A flat candidate-scan result: the winning `(csg_rank, cmp_rank)` split
/// with its children's summed cost, `None` when the target subset has no
/// valid split.
type FlatBestSplit = Result<Option<((u32, u32), u64)>, MjoinError>;

/// The flat rank-indexed DPccp table, split into parallel arrays so the
/// candidate scan touches only a bare `Vec<u64>` of costs (half the bytes
/// of an interleaved `(cost, split)` layout — the scan is memory-bound).
///
/// `costs[r] = u64::MAX` marks an unsolved slot. A *solved* subset whose
/// cost legitimately saturated to `u64::MAX` is disambiguated by `splits`:
/// every solved non-singleton records its winning split there (singletons
/// are solved at cost 0).
struct FlatTable {
    costs: Vec<u64>,
    /// Winning `(csg_rank, cmp_rank)` per solved non-singleton.
    splits: Vec<Option<(u32, u32)>>,
}

impl FlatTable {
    fn unsolved(len: usize) -> FlatTable {
        FlatTable {
            costs: vec![u64::MAX; len],
            splits: vec![None; len],
        }
    }

    /// Whether `rank` was solved: a finite cost, or a recorded split, or a
    /// singleton's zero — only the saturated-cost corner needs the split
    /// probe.
    fn solved(&self, rank: u32) -> bool {
        self.costs[rank as usize] != u64::MAX || self.splits[rank as usize].is_some()
    }
}

/// The sequential DPccp's working memo: the priced subsets, and per
/// target not yet priced the running `(children cost, split)` minimum over
/// the csg–cmp pairs seen so far. Both grow with the subsets the DP has
/// reached, never ahead of them, so a run that a deadline cuts short has
/// allocated only for the work it did. The partitioned DPccp reuses one
/// across its blocks: clearing keeps the tables' capacity, so block `i + 1`
/// fills block `i`'s allocations instead of the allocator's.
pub(crate) struct DpScratch {
    priced: SplitMemo,
    pending: FastMap<RelSet, (u64, (RelSet, RelSet))>,
}

impl DpScratch {
    pub(crate) fn new() -> DpScratch {
        DpScratch {
            priced: SplitMemo::default(),
            pending: FastMap::default(),
        }
    }
}

/// The "no split seen yet" sentinel of [`ccp_scan_flat`]. Ranks are dense
/// and below `u32::MAX`, so any real candidate compares lower in the
/// `(cost, csg_rank)` order — even one whose cost saturated to `u64::MAX`.
const NO_SPLIT: (u32, u32) = (u32::MAX, u32::MAX);

/// Cheapest strategy over the full space (bushy, products allowed).
pub fn best_bushy<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Plan {
    try_best_bushy(oracle, subset, &Guard::unlimited()).expect("unlimited-guard DP cannot fail")
}

/// [`best_bushy`] under a budget: `O(3ⁿ)` recursion with a checkpoint per
/// subproblem and every memo entry charged to `guard`.
pub fn try_best_bushy<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    let mut memo = SplitMemo::default();
    let mut scanned = 0u64;
    let cost = bushy_rec(oracle, subset, &mut memo, guard, &mut scanned)?;
    // Counters are published once per search, not once per subproblem —
    // the totals are identical, and the hot recursion stays free of
    // atomics (the recorder-armed overhead budget is 2%).
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpSubsetsExpanded, memo.len() as u64);
    Ok(Plan {
        strategy: try_rebuild(subset, &memo)?,
        cost,
    })
}

fn bushy_rec<O: CardinalityOracle>(
    oracle: &O,
    s: RelSet,
    memo: &mut SplitMemo,
    guard: &Guard,
    total_scanned: &mut u64,
) -> Result<u64, MjoinError> {
    if s.is_singleton() {
        return Ok(0);
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return Ok(c);
    }
    // No entry checkpoint: `charge_memo` below polls cancellation and the
    // deadline once per expanded subproblem, which is the same granularity
    // with half the atomic traffic.
    let own = oracle.try_tau(s)?;
    let mut best = u64::MAX;
    let mut best_split = None;
    let mut scanned = 0u64;
    for (s1, s2) in s.proper_splits() {
        scanned += 1;
        // Once the memo is warm, long runs of this scan do no oracle work
        // at all — and on a large subset the scan is `2^{n−1}` iterations,
        // far past any deadline. Poll the guard on a stride so a budgeted
        // rung trips within its slice instead of overshooting it (the
        // stride keeps the hot path's atomic traffic negligible).
        if scanned & 0xFF == 0 {
            guard.checkpoint()?;
        }
        let c = bushy_rec(oracle, s1, memo, guard, total_scanned)?.saturating_add(bushy_rec(
            oracle,
            s2,
            memo,
            guard,
            total_scanned,
        )?);
        if c < best {
            best = c;
            best_split = Some((s1, s2));
        }
    }
    *total_scanned += scanned;
    let total = own.saturating_add(best);
    guard.charge_memo(1)?;
    memo.insert(s, (total, best_split));
    Ok(total)
}

/// Cheapest *linear* strategy; with `no_cartesian`, every step must join
/// linked subsets (callers guarantee `subset` is connected in that case).
pub fn best_linear<O: CardinalityOracle>(oracle: &O, subset: RelSet, no_cartesian: bool) -> Plan {
    try_best_linear(oracle, subset, no_cartesian, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_linear`] under a budget (prefix-set DP, `O(2ⁿ·n)`).
pub fn try_best_linear<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    no_cartesian: bool,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    // memo: prefix set → (cost, last relation added), cost = u64::MAX if
    // the prefix is unreachable under the no-product constraint.
    let mut memo: FastMap<RelSet, (u64, Option<usize>)> = FastMap::default();
    let cost = linear_rec(oracle, subset, no_cartesian, &mut memo, guard)?;
    if cost == u64::MAX {
        return Err(MjoinError::Internal(
            "a connected subset always admits a product-free linear order".into(),
        ));
    }
    // Reconstruct the order back-to-front.
    let mut order = Vec::with_capacity(subset.len());
    let mut s = subset;
    while !s.is_singleton() {
        let Some(&(_, last)) = memo.get(&s) else {
            return Err(MjoinError::Internal(format!(
                "linear DP memo lost prefix {s:?} during rebuild"
            )));
        };
        let Some(last) = last else {
            return Err(MjoinError::Internal(
                "non-singleton prefixes must record their last step".into(),
            ));
        };
        order.push(last);
        s.remove(last);
    }
    let Some(first) = s.first() else {
        return Err(MjoinError::Internal("empty prefix during rebuild".into()));
    };
    order.push(first);
    order.reverse();
    Ok(Plan {
        strategy: Strategy::left_deep(&order),
        cost,
    })
}

fn linear_rec<O: CardinalityOracle>(
    oracle: &O,
    s: RelSet,
    no_cartesian: bool,
    memo: &mut FastMap<RelSet, (u64, Option<usize>)>,
    guard: &Guard,
) -> Result<u64, MjoinError> {
    if s.is_singleton() {
        return Ok(0);
    }
    if let Some(&(c, _)) = memo.get(&s) {
        return Ok(c);
    }
    guard.checkpoint()?;
    let mut best = u64::MAX;
    let mut best_last = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for last in s.iter() {
        scanned += 1;
        let rest = s.difference(RelSet::singleton(last));
        // Product-free linear strategies have *connected* prefixes (each
        // step joins linked sets, and unions of linked connected sets are
        // connected), so prune disconnected prefixes — this turns chain
        // queries from exponential into O(n²) subproblems.
        if no_cartesian
            && (!oracle
                .scheme()
                .linked_disjoint(rest, RelSet::singleton(last))
                || !oracle.scheme().connected(rest))
        {
            pruned += 1;
            continue;
        }
        let c = linear_rec(oracle, rest, no_cartesian, memo, guard)?;
        if c < best {
            best = c;
            best_last = Some(last);
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    // τ(s) is computed *lazily*: only prefixes with a surviving
    // product-free candidate pay for materialization. Unreachable
    // prefixes (every candidate pruned — e.g. any prefix of an
    // unconnected subset) memoize `u64::MAX` without ever touching the
    // oracle, where the eager form materialized an intermediate it then
    // threw away.
    let total = if best == u64::MAX {
        u64::MAX
    } else {
        oracle.try_tau(s)?.saturating_add(best)
    };
    guard.charge_memo(1)?;
    incr(Counter::DpSubsetsExpanded, 1);
    memo.insert(s, (total, best_last));
    Ok(total)
}

/// Cheapest product-free strategy by the streaming csg–cmp DP (`DPccp`,
/// after Moerkotte & Neumann: for each connected subset only its linked
/// connected complements are enumerated, so work tracks the number of
/// valid joins); `None` iff `subset` is unconnected.
pub fn best_no_cartesian<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Option<Plan> {
    try_best_no_cartesian(oracle, subset, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_no_cartesian`] under a budget.
pub fn try_best_no_cartesian<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    nocp_dpccp_with_scratch(oracle, subset, guard, &mut DpScratch::new())
}

/// Every csg–cmp pair as dense `(target_rank, csg_rank, cmp_rank)`
/// triples, grouped by the *size* of the target (`csg ∪ cmp`): when level
/// `k` is reached, every pair in level `k` has both children solved.
type LevelPairs = Vec<Vec<(u32, u32, u32)>>;

/// Builds what the level-parallel DPccp is solved over: the rank index of
/// `within`'s connected subsets and its [`LevelPairs`]. The guard is
/// checkpointed per subset and per pair, so a deadline can cancel on
/// hostile (clique-dense) schemes.
fn index_and_level_pairs(
    scheme: &DbScheme,
    within: RelSet,
    guard: &Guard,
) -> Result<(SchemeIndex, LevelPairs), MjoinError> {
    let index = SchemeIndex::try_new_checked(scheme, within, &mut |_| guard.checkpoint())?;
    let mut by_level: LevelPairs = vec![Vec::new(); index.max_size() + 1];
    let mut emitted = 0u64;
    scheme.try_for_each_ccp(within, &mut |csg, cmp| {
        guard.checkpoint()?;
        let union = csg.union(cmp);
        let (Some(t), Some(r1), Some(r2)) = (index.rank(union), index.rank(csg), index.rank(cmp))
        else {
            return Err(MjoinError::Internal(
                "csg–cmp enumeration emitted a subset missing from the rank index".into(),
            ));
        };
        emitted += 1;
        by_level[union.len()].push((t, r1, r2));
        Ok(())
    })?;
    incr(Counter::DpCcpPairsEmitted, emitted);
    Ok((index, by_level))
}

/// The per-target CSR view of the [`LevelPairs`], for the parallel DP,
/// whose unit of scheduling is one target subset. The rescan DPccp
/// (`mjoin-reference`) visits each target's splits in ascending csg bit
/// pattern and keeps the first minimum; the flat scan recovers exactly
/// that winner
/// order-independently, by minimizing `(cost, csg_rank)` — so the chosen
/// plans stay bit-identical without sorting any bucket.
struct CcpCandidates {
    /// `offsets[t]..offsets[t + 1]` delimits target rank `t`'s pairs.
    offsets: Vec<usize>,
    /// `(csg_rank, cmp_rank)` per pair, in enumeration order within each
    /// target bucket (the scan's tie-break does not depend on it).
    pairs: Vec<(u32, u32)>,
}

/// Buckets the emitted pairs by target rank with a counting-sort scatter —
/// no comparison sort anywhere, no second graph enumeration.
fn build_ccp_candidates(by_level: &LevelPairs, len: usize) -> CcpCandidates {
    let mut offsets = vec![0usize; len + 1];
    for level in by_level {
        for &(t, _, _) in level {
            offsets[t as usize + 1] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut pairs = vec![(0u32, 0u32); offsets[len]];
    for level in by_level {
        for &(t, r1, r2) in level {
            let slot = &mut cursor[t as usize];
            pairs[*slot] = (r1, r2);
            *slot += 1;
        }
    }
    CcpCandidates { offsets, pairs }
}

/// The flat-table DPccp candidate scan for one target rank: walk the
/// precomputed csg–cmp pairs, two `Vec` probes per pair. The winner is the
/// `(cost, csg_rank)`-lexicographic minimum — the same split the rescan
/// DPccp's ascending-csg first-minimum rule chooses, but independent of
/// bucket order, and the rule the sequential DP's fold applies (ranks
/// follow bit order), which is what makes the two bit-identical at any
/// thread count.
/// Reads only strictly smaller subsets from `costs`, so a whole size level
/// can run this concurrently against a frozen table. A candidate whose
/// cost saturated still wins over none: every connected subset has a
/// split, and a saturated one must record it like any other.
fn ccp_scan_flat(
    cands: &CcpCandidates,
    target: u32,
    costs: &[u64],
    guard: &Guard,
) -> FlatBestSplit {
    let (mut best, mut best_split) = (u64::MAX, NO_SPLIT);
    let bucket = &cands.pairs[cands.offsets[target as usize]..cands.offsets[target as usize + 1]];
    for &(r1, r2) in bucket {
        guard.checkpoint()?;
        let cost = costs[r1 as usize].saturating_add(costs[r2 as usize]);
        if (cost, r1) < (best, best_split.0) {
            best = cost;
            best_split = (r1, r2);
        }
    }
    incr(Counter::DpCandidatesScanned, bucket.len() as u64);
    Ok((best_split != NO_SPLIT).then_some((best_split, best)))
}

/// Rebuilds a strategy from the flat rank-indexed table (the `Vec` twin of
/// [`try_rebuild`]).
fn try_rebuild_flat(
    rank: u32,
    index: &SchemeIndex,
    table: &FlatTable,
) -> Result<Strategy, MjoinError> {
    let s = index.subset(rank);
    if s.is_singleton() {
        let Some(i) = s.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Strategy::leaf(i));
    }
    let Some((r1, r2)) = table.splits[rank as usize] else {
        return Err(MjoinError::Internal(format!(
            "DP table records no split for solved subset {s:?}"
        )));
    };
    Strategy::join(
        try_rebuild_flat(r1, index, table)?,
        try_rebuild_flat(r2, index, table)?,
    )
    .map_err(|e| MjoinError::Internal(format!("memoized splits must be disjoint: {e}")))
}

/// The plan a solved flat table records for `subset`; `None` when the DP
/// left it unsolved.
fn root_plan(
    subset: RelSet,
    index: &SchemeIndex,
    table: &FlatTable,
) -> Result<Option<Plan>, MjoinError> {
    let Some(root) = index.rank(subset).filter(|&r| table.solved(r)) else {
        return Ok(None);
    };
    Ok(Some(Plan {
        strategy: try_rebuild_flat(root, index, table)?,
        cost: table.costs[root as usize],
    }))
}

/// [`try_best_no_cartesian`] with a caller-owned [`DpScratch`]: the same
/// plans (same memo, same tie-breaks); the only difference is where the
/// memo lives. The partitioned planner threads one through every block.
pub(crate) fn nocp_dpccp_with_scratch<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
    scratch: &mut DpScratch,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    let cost = nocp_dpccp_core(oracle, subset, guard, scratch)?;
    Ok(Some(Plan {
        strategy: try_rebuild(subset, &scratch.priced)?,
        cost,
    }))
}

/// The DPccp body over a connected `subset`: one pass over the csg–cmp
/// pairs, folding each into its target's running `(cost, csg)` minimum —
/// the rule [`ccp_scan_flat`] applies (ranks follow bit order), so the
/// plans equal the level-parallel DP's. Returns the root's cost and leaves
/// every priced subset with its winning split in `scratch.priced`.
///
/// The pairs arrive in an order valid for dynamic programming (Moerkotte &
/// Neumann's enumeration): every pair forming a subset precedes the first
/// pair that uses it as a half. So a subset is priced — `τ` plus its best
/// pair's children — at its first use, and no pair is stored. A pair that
/// arrived for an already priced subset would break that order; it would
/// be left pending and is reported as an internal error rather than
/// silently dropped.
///
/// Under a deadline the run also projects its finish: it counts the
/// connected subsets it must price (a walk that allocates nothing), and
/// every [`PROJECT_STRIDE`] priced subsets it extrapolates the pricing rate
/// measured so far over the rest. As soon as that overruns the deadline it
/// trips, so a search that cannot finish stops having built little, not
/// after filling memory until the deadline.
fn nocp_dpccp_core<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
    scratch: &mut DpScratch,
) -> Result<u64, MjoinError> {
    scratch.priced.clear();
    scratch.pending.clear();
    let scheme = oracle.scheme();
    let mut total = None;
    if guard.remaining().is_some() {
        let mut n = 0usize;
        scheme.try_for_each_connected_subset(subset, &mut |_| {
            n += 1;
            guard.checkpoint()
        })?;
        total = Some(n);
    }
    let mut run = CcpRun {
        oracle,
        guard,
        scratch,
        total,
        started: Instant::now(),
    };
    let mut emitted = 0u64;
    scheme.try_for_each_ccp(subset, &mut |csg, cmp| {
        guard.checkpoint()?;
        emitted += 1;
        run.fold(csg, cmp)
    })?;
    incr(Counter::DpCcpPairsEmitted, emitted);
    incr(Counter::DpCandidatesScanned, emitted);
    let cost = run.price(subset)?;
    if let Some(late) = run.scratch.pending.keys().next() {
        return Err(MjoinError::Internal(format!(
            "csg–cmp pair for {late:?} arrived after the subset was priced"
        )));
    }
    Ok(cost)
}

/// How many subsets the sequential DPccp prices between projections of
/// its finish: enough for a stable rate, few enough that a hopeless run
/// stops early.
const PROJECT_STRIDE: usize = 256;

/// One sequential DPccp run: the oracle and guard it prices under, its
/// memo, and — under a deadline — what it needs to project its finish.
struct CcpRun<'a, O> {
    oracle: &'a O,
    guard: &'a Guard,
    scratch: &'a mut DpScratch,
    /// The connected subsets to price in all; `None` without a deadline.
    total: Option<usize>,
    started: Instant,
}

impl<O: CardinalityOracle> CcpRun<'_, O> {
    /// Folds one csg–cmp pair into its target's running minimum. The first
    /// candidate wins even at a saturated cost: every connected subset has
    /// a split, and must record it.
    fn fold(&mut self, csg: RelSet, cmp: RelSet) -> Result<(), MjoinError> {
        let cost = self.price(csg)?.saturating_add(self.price(cmp)?);
        match self.scratch.pending.entry(csg.union(cmp)) {
            Entry::Vacant(slot) => {
                slot.insert((cost, (csg, cmp)));
            }
            Entry::Occupied(mut slot) => {
                let (best, (best_csg, _)) = *slot.get();
                if (cost, csg) < (best, best_csg) {
                    slot.insert((cost, (csg, cmp)));
                }
            }
        }
        Ok(())
    }

    /// The solved cost of `s`, pricing it first if this is its first use.
    /// Every pair with target `s` has been folded by then (see
    /// [`nocp_dpccp_core`]); a non-singleton with none is a broken
    /// enumeration order.
    fn price(&mut self, s: RelSet) -> Result<u64, MjoinError> {
        if let Some(&(cost, _)) = self.scratch.priced.get(&s) {
            return Ok(cost);
        }
        let (cost, split) = if s.is_singleton() {
            (0, None)
        } else {
            let Some((children, split)) = self.scratch.pending.remove(&s) else {
                return Err(MjoinError::Internal(format!(
                    "connected subset {s:?} used before any of its csg–cmp pairs"
                )));
            };
            (
                self.oracle.try_tau(s)?.saturating_add(children),
                Some(split),
            )
        };
        self.guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        self.scratch.priced.insert(s, (cost, split));
        let priced = self.scratch.priced.len();
        if let Some(total) = self.total.filter(|_| priced.is_multiple_of(PROJECT_STRIDE)) {
            let per_subset = self.started.elapsed().as_secs_f64() / priced as f64;
            let rest = Duration::try_from_secs_f64(per_subset * (total - priced) as f64)
                .unwrap_or(Duration::MAX);
            self.guard.check_deadline_after(rest)?;
        }
        Ok(cost)
    }
}

/// Cheapest strategy *avoiding* Cartesian products: each component solved
/// product-free, then the components multiplied in the cheapest order.
/// `None` iff some component admits no product-free strategy (cannot
/// happen — components are connected — but kept as a safe signature).
pub fn best_avoid_cartesian<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Option<Plan> {
    try_best_avoid_cartesian(oracle, subset, &Guard::unlimited())
        .expect("unlimited-guard DP cannot fail")
}

/// [`best_avoid_cartesian`] under a budget.
pub fn try_best_avoid_cartesian<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    let comps = oracle.scheme().components(subset);
    if comps.len() == 1 {
        return try_best_no_cartesian(oracle, subset, guard);
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(comps.len());
    for &c in &comps {
        match try_best_no_cartesian(oracle, c, guard)? {
            Some(p) => plans.push(p),
            None => return Ok(None),
        }
    }
    let mut sizes: Vec<u64> = Vec::with_capacity(comps.len());
    for &c in &comps {
        sizes.push(oracle.try_tau(c)?);
    }
    combine_component_plans(plans, sizes, guard).map(Some)
}

/// DP over subsets of components; a step multiplying component-set C
/// produces Π sizes (the components share no attributes). Shared by the
/// sequential and parallel avoid-Cartesian entry points.
fn combine_component_plans(
    plans: Vec<Plan>,
    sizes: Vec<u64>,
    guard: &Guard,
) -> Result<Plan, MjoinError> {
    fn combo(
        cs: RelSet,
        sizes: &[u64],
        base: &[u64],
        memo: &mut SplitMemo,
        guard: &Guard,
    ) -> Result<u64, MjoinError> {
        if cs.is_singleton() {
            let Some(i) = cs.first() else {
                return Err(MjoinError::Internal("singleton with no member".into()));
            };
            return Ok(base[i]);
        }
        if let Some(&(c, _)) = memo.get(&cs) {
            return Ok(c);
        }
        guard.checkpoint()?;
        let own: u64 = cs.iter().fold(1u64, |acc, i| acc.saturating_mul(sizes[i]));
        let mut best = u64::MAX;
        let mut best_split = None;
        for (a, b) in cs.proper_splits() {
            let c = combo(a, sizes, base, memo, guard)?
                .saturating_add(combo(b, sizes, base, memo, guard)?);
            if c < best {
                best = c;
                best_split = Some((a, b));
            }
        }
        let total = own.saturating_add(best);
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        memo.insert(cs, (total, best_split));
        Ok(total)
    }

    // Assemble the relation-level strategy from the component-level tree.
    fn assemble(cs: RelSet, plans: &[Plan], memo: &SplitMemo) -> Result<Strategy, MjoinError> {
        if cs.is_singleton() {
            let Some(i) = cs.first() else {
                return Err(MjoinError::Internal("singleton with no member".into()));
            };
            return Ok(plans[i].strategy.clone());
        }
        let Some(&(_, split)) = memo.get(&cs) else {
            return Err(MjoinError::Internal(format!(
                "component DP memo lost subset {cs:?} during assembly"
            )));
        };
        let Some((a, b)) = split else {
            return Err(MjoinError::Internal(
                "non-singleton component entries must record splits".into(),
            ));
        };
        Strategy::join(assemble(a, plans, memo)?, assemble(b, plans, memo)?)
            .map_err(|e| MjoinError::Internal(format!("components must be disjoint: {e}")))
    }

    let k = plans.len();
    let mut memo = SplitMemo::default();
    let base: Vec<u64> = plans.iter().map(|p| p.cost).collect();
    let full = RelSet::full(k);
    let cost = combo(full, &sizes, &base, &mut memo, guard)?;
    Ok(Plan {
        strategy: assemble(full, &plans, &memo)?,
        cost,
    })
}

/// Rebuilds a strategy from a split table. Memo corruption (a solved
/// subset with no recorded split, or overlapping splits) surfaces as
/// [`MjoinError::Internal`] rather than a panic.
pub(crate) fn try_rebuild(s: RelSet, memo: &SplitMemo) -> Result<Strategy, MjoinError> {
    if s.is_singleton() {
        let Some(i) = s.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Strategy::leaf(i));
    }
    let Some(&(_, split)) = memo.get(&s) else {
        return Err(MjoinError::Internal(format!(
            "DP memo has no entry for solved subset {s:?}"
        )));
    };
    let Some((s1, s2)) = split else {
        return Err(MjoinError::Internal(
            "solved non-singletons must record their split".into(),
        ));
    };
    Strategy::join(try_rebuild(s1, memo)?, try_rebuild(s2, memo)?)
        .map_err(|e| MjoinError::Internal(format!("memoized splits must be disjoint: {e}")))
}

/// Runs `work` over every item of one DP level, splitting the level into
/// contiguous chunks across `threads` scoped workers. Results come back in
/// item order, errors in chunk order — combined with the fact that `work`
/// reads only *previous* levels, this makes the parallel DP's merge
/// deterministic: the table after each level is independent of the thread
/// count, so plans and costs are bit-identical to the 1-thread run.
fn run_level<I, T, F>(items: &[I], threads: usize, work: F) -> Result<Vec<T>, MjoinError>
where
    I: Copy + Sync,
    T: Send,
    F: Fn(I) -> Result<T, MjoinError> + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(|&s| work(s)).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers);
    let run = Scope::capture();
    let results: Vec<Result<Vec<T>, MjoinError>> = std::thread::scope(|scope| {
        let (work, run) = (&work, &run);
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    run.enter(|| {
                        c.iter()
                            .map(|&s| work(s))
                            .collect::<Result<Vec<T>, MjoinError>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("DP worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Multi-core [`try_best_no_cartesian`]: DPccp with each subset-size level
/// run across `threads` scoped workers against a frozen table of the
/// smaller levels, then merged in rank order. Plans and costs are
/// bit-identical to the sequential DPccp at any thread count — same
/// candidates, same tie-break; only the unit of scheduling differs (one
/// target subset, so the pairs are stored, by level, and scattered into a
/// per-target CSR view).
pub fn try_best_no_cartesian_parallel<O: CardinalityOracle + Sync>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
    threads: usize,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::dp")?;
    let scheme = oracle.scheme();
    if !scheme.connected(subset) {
        return Ok(None);
    }
    let (index, by_level) = index_and_level_pairs(scheme, subset, guard)?;
    let cands = build_ccp_candidates(&by_level, index.len());
    drop(by_level);
    let mut table = FlatTable::unsolved(index.len());
    for &r in index.level(1) {
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        table.costs[r as usize] = 0;
    }
    for size in 2..=index.max_size() {
        let level = index.level(size);
        if level.is_empty() {
            continue;
        }
        let results = run_level(level, threads, |r: u32| {
            guard.checkpoint()?;
            match ccp_scan_flat(&cands, r, &table.costs, guard)? {
                None => Ok(None),
                Some((split, children)) => {
                    let total = oracle.try_tau(index.subset(r))?.saturating_add(children);
                    Ok(Some((total, split)))
                }
            }
        })?;
        for (i, r) in results.into_iter().enumerate() {
            if let Some((total, split)) = r {
                guard.charge_memo(1)?;
                incr(Counter::DpSubsetsExpanded, 1);
                table.costs[level[i] as usize] = total;
                table.splits[level[i] as usize] = Some(split);
            }
        }
    }
    root_plan(subset, &index, &table)
}

/// Multi-core [`try_best_avoid_cartesian`]: each connected component is
/// solved with [`try_best_no_cartesian_parallel`], then the components are
/// combined by the same (cheap, sequential) component-ordering DP.
pub fn try_best_avoid_cartesian_parallel<O: CardinalityOracle + Sync>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
    threads: usize,
) -> Result<Option<Plan>, MjoinError> {
    let comps = oracle.scheme().components(subset);
    if comps.len() == 1 {
        return try_best_no_cartesian_parallel(oracle, subset, guard, threads);
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(comps.len());
    for &c in &comps {
        match try_best_no_cartesian_parallel(oracle, c, guard, threads)? {
            Some(p) => plans.push(p),
            None => return Ok(None),
        }
    }
    let mut sizes: Vec<u64> = Vec::with_capacity(comps.len());
    for &c in &comps {
        sizes.push(oracle.try_tau(c)?);
    }
    combine_component_plans(plans, sizes, guard).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_guard::Budget;

    fn chain4() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DE", vec![vec![0, 7], vec![1, 8], vec![2, 9]]),
        ])
        .unwrap()
    }

    #[test]
    fn no_cartesian_matches_filtered_enumeration() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let dp = best_no_cartesian(&o, full).unwrap().cost;
        let brute = mjoin_strategy::enumerate_no_cartesian(db.scheme(), full)
            .into_iter()
            .map(|s| s.cost(&o))
            .min()
            .unwrap();
        assert_eq!(dp, brute);
    }

    #[test]
    fn linear_no_cartesian_matches_filtered_enumeration() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let dp = best_linear(&o, full, true).cost;
        let brute = mjoin_strategy::enumerate_linear(full)
            .into_iter()
            .filter(|s| !s.uses_cartesian(db.scheme()))
            .map(|s| s.cost(&o))
            .min()
            .unwrap();
        assert_eq!(dp, brute);
        let free = best_linear(&o, full, false).cost;
        assert!(free <= dp);
    }

    #[test]
    fn avoid_cartesian_on_components() {
        // Two components: {AB, BC} and {XY}.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6], vec![30, 7]]),
            ("XY", vec![vec![0, 0], vec![1, 1]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = best_avoid_cartesian(&o, full).unwrap();
        assert!(plan.strategy.avoids_cartesian(db.scheme()));
        let brute = mjoin_strategy::enumerate_avoiding_cartesian(db.scheme(), full)
            .into_iter()
            .map(|s| s.cost(&o))
            .min()
            .unwrap();
        assert_eq!(plan.cost, brute);
    }

    #[test]
    fn avoid_cartesian_three_components_ordering_matters() {
        // Components of very different sizes: the DP should multiply the
        // small ones first.
        let rows = |n: i64, base: i64| -> Vec<Vec<i64>> {
            (0..n).map(|i| vec![base + i, base + i]).collect()
        };
        let db = Database::from_specs(&[
            ("AB", rows(2, 0)),
            ("CD", rows(3, 100)),
            ("EF", rows(50, 200)),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let plan = best_avoid_cartesian(&o, db.scheme().full_set()).unwrap();
        // (AB × CD) first: 6, then × EF: 300 ⇒ 306. Any order touching EF
        // early costs ≥ 100 + 300.
        assert_eq!(plan.cost, 306);
    }

    #[test]
    fn bushy_beats_or_ties_linear_always() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        assert!(best_bushy(&o, full).cost <= best_linear(&o, full, false).cost);
    }

    #[test]
    fn memo_cap_trips_the_bushy_dp() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let guard = Guard::new(Budget::unlimited().with_max_memo_entries(2));
        let err = try_best_bushy(&o, full, &guard).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
        // The same DP under no budget still succeeds.
        let o2 = ExactOracle::new(&db);
        assert!(try_best_bushy(&o2, full, &Guard::unlimited()).is_ok());
    }

    #[test]
    fn guarded_and_unguarded_dps_agree() {
        let db = chain4();
        let full = db.scheme().full_set();
        let o1 = ExactOracle::new(&db);
        let o2 = ExactOracle::new(&db);
        let legacy = best_bushy(&o1, full);
        let guarded = try_best_bushy(&o2, full, &Guard::new(Budget::unlimited())).unwrap();
        assert_eq!(legacy.cost, guarded.cost);
        assert_eq!(legacy.strategy, guarded.strategy);
    }

    /// Wraps an oracle and counts `tau`/`try_tau` calls, for asserting on
    /// *when* the DP pays for materialization.
    struct CountingOracle<'a, O> {
        inner: &'a O,
        tau_calls: std::cell::Cell<u64>,
    }

    impl<O: CardinalityOracle> CardinalityOracle for CountingOracle<'_, O> {
        fn scheme(&self) -> &DbScheme {
            self.inner.scheme()
        }
        fn tau(&self, subset: RelSet) -> u64 {
            self.tau_calls.set(self.tau_calls.get() + 1);
            self.inner.tau(subset)
        }
        fn try_tau(&self, subset: RelSet) -> Result<u64, MjoinError> {
            self.tau_calls.set(self.tau_calls.get() + 1);
            self.inner.try_tau(subset)
        }
    }

    #[test]
    fn linear_dp_computes_tau_lazily_on_unreachable_prefixes() {
        // Two components: every prefix of the full set is unreachable
        // under no_cartesian, so the DP must fail *without a single τ
        // call* — the eager form materialized the full Cartesian product
        // first and then threw it away.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("XY", vec![vec![0, 0], vec![1, 1]]),
        ])
        .unwrap();
        let inner = ExactOracle::new(&db);
        let o = CountingOracle {
            inner: &inner,
            tau_calls: Default::default(),
        };
        let full = db.scheme().full_set();
        let err = try_best_linear(&o, full, true, &Guard::unlimited()).unwrap_err();
        assert!(matches!(err, MjoinError::Internal(_)), "{err}");
        assert_eq!(
            o.tau_calls.get(),
            0,
            "unreachable prefixes must not touch the oracle"
        );

        // On a connected input the lazy form still materializes exactly
        // one τ per expanded prefix, and the plan is unchanged.
        let db = chain4();
        let inner = ExactOracle::new(&db);
        let o = CountingOracle {
            inner: &inner,
            tau_calls: Default::default(),
        };
        let full = db.scheme().full_set();
        let plan = try_best_linear(&o, full, true, &Guard::unlimited()).unwrap();
        // 4-chain: connected prefixes of size ≥ 2 are the 3 + 2 + 1
        // contiguous runs = 6 expanded non-singleton prefixes.
        assert_eq!(o.tau_calls.get(), 6);
        let o2 = ExactOracle::new(&db);
        assert_eq!(plan.cost, best_linear(&o2, full, true).cost);
    }

    #[test]
    fn a_search_that_cannot_finish_by_its_deadline_stops_early() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::time::Duration;
        // A 20-star has 2¹⁹ + 19 connected subsets, far more than 200 ms
        // can price. The run projects its finish from the first subsets it
        // prices and trips having priced a few hundred, not the thousands
        // the deadline alone would let it build up.
        let (cat, scheme) = schemes::star(20);
        let db = data::uniform(
            cat,
            scheme,
            &DataConfig::default(),
            &mut StdRng::seed_from_u64(3),
        );
        let o = ExactOracle::new(&db);
        let guard = Guard::new(Budget::unlimited().with_deadline(Duration::from_millis(200)));
        let err = try_best_no_cartesian(&o, db.scheme().full_set(), &guard).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
        assert!(
            guard.memo_used() < 2_000,
            "priced {} subsets",
            guard.memo_used()
        );
    }

    #[test]
    fn dp_failpoint_propagates_typed_error() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let _fp = mjoin_guard::failpoints::ScopedFailpoint::arm("optimizer::dp");
        let err = try_best_bushy(&o, full, &Guard::unlimited()).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }
}
