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
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::{FastMap, RelSet};
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// DP memo entry: best cost plus the winning split (None for leaves).
/// Keys are single-word bitsets, so the memo hashes with the splitmix64
/// fast path rather than SipHash.
pub(crate) type SplitMemo = FastMap<RelSet, (u64, Option<(RelSet, RelSet)>)>;

/// The DPccp's working memo: the priced subsets, and per
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
/// the split the rescan DPccp in `mjoin-reference` keeps (the first
/// minimum in ascending csg order), so the two choose the same plans
/// whatever order the pairs arrive in. Returns the root's cost and leaves
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

/// How many subsets the DPccp prices between projections of
/// its finish: enough for a stable rate, few enough that a hopeless run
/// stops early.
const PROJECT_STRIDE: usize = 256;

/// One DPccp run: the oracle and guard it prices under, its
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
/// produces Π sizes (the components share no attributes).
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
#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_guard::Budget;
    use mjoin_hypergraph::DbScheme;

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
