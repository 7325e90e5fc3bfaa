//! Partitioned DPccp: exact-within-blocks planning for very large queries.
//!
//! Even the streaming DPccp enumerator is output-sensitive in the number
//! of csg–cmp pairs, which explodes on dense 50–100-relation graphs. This
//! rung bounds the exact work instead of the query: it cuts the join graph
//! into connected blocks of at most `k` relations (default
//! [`DEFAULT_BLOCK_MAX`]), solves each block *exactly* with DPccp, and
//! stitches the block plans back together greedily across the cut edges,
//! always merging the linked pair whose combined τ is cheapest. The
//! stitched plan is then floored against both greedy baselines (best
//! effort under the budget) — a block boundary in the wrong place can
//! cost more than planning greedily with no boundaries at all, and the
//! rung must never be worse than the greedy rung it outranks in the
//! degradation ladder.
//!
//! Three properties the tests pin:
//!
//! * **Degeneration to DPccp.** When `n ≤ k` the rung *is*
//!   `try_best_no_cartesian(…, DpCcp, …)` — same call, bit-identical plan.
//! * **Determinism.** Block accretion seeds at the lowest unassigned
//!   index, grows by max-edges-into-block (ties to the lowest index), and
//!   recombination breaks cost ties toward the earliest pair — no map
//!   iteration order anywhere, so plans are thread- and run-invariant.
//! * **Product-freedom.** Blocks are connected by construction and only
//!   linked block pairs merge, so the stitched plan never multiplies
//!   unlinked subsets while the residual graph has a linked pair (which,
//!   on a connected query, it always does).

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::dp;
use crate::greedy::{try_greedy_bushy, try_greedy_linear};
use crate::plan::Plan;

/// Default block-size cap: DPccp on 14 relations is comfortably inside a
/// serve-mode deadline even on a clique block, while keeping 100-relation
/// queries down to ~8 exactly-planned blocks.
pub const DEFAULT_BLOCK_MAX: usize = 14;

/// [`try_partitioned_dp`] with an unlimited budget, panicking on internal
/// errors — the ergonomic surface for tests and examples.
pub fn partitioned_dp<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Option<Plan> {
    try_partitioned_dp(oracle, subset, &Guard::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// Partitioned DPccp over `subset` with the default block cap.
pub fn try_partitioned_dp<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    try_partitioned_dp_with(oracle, subset, DEFAULT_BLOCK_MAX, guard)
}

/// Partitioned DPccp with an explicit block cap `block_max` (≥ 1).
///
/// Returns `Ok(None)` when the join graph of `subset` is unconnected,
/// like the exact DPs this rung stands in for. With `block_max ≥ |subset|`
/// this is exactly one DPccp call on the whole subset.
pub fn try_partitioned_dp_with<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    block_max: usize,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::partdp")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot plan the empty database".into(),
        ));
    }
    let block_max = block_max.max(1);
    if subset.is_singleton() {
        let Some(first) = subset.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Some(Plan {
            strategy: Strategy::leaf(first),
            cost: 0,
        }));
    }
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    if subset.len() <= block_max {
        // Degenerate case: the whole query is one block, and the answer is
        // DPccp's, bit for bit.
        return dp::try_best_no_cartesian(oracle, subset, guard);
    }

    let blocks = partition(oracle.scheme(), subset, block_max, guard)?;
    incr(Counter::PartdpPartitions, blocks.len() as u64);

    // Exact DPccp inside every block, every block sharing one memo pool:
    // block `i + 1` fills block `i`'s tables instead of fresh allocations.
    let mut scratch = dp::DpScratch::new();
    let mut units: Vec<Plan> = Vec::with_capacity(blocks.len());
    for &block in &blocks {
        let plan =
            dp::nocp_dpccp_with_scratch(oracle, block, guard, &mut scratch)?.ok_or_else(|| {
                MjoinError::Internal("accreted block must be connected and plannable".into())
            })?;
        units.push(plan);
    }

    // Greedy cost-ordered recombination across cut edges: repeatedly join
    // the linked pair with the cheapest combined τ, earliest pair on ties.
    while units.len() > 1 {
        guard.checkpoint()?;
        let mut best: Option<(u64, usize, usize)> = None;
        for i in 0..units.len() {
            for j in (i + 1)..units.len() {
                let (si, sj) = (units[i].strategy.set(), units[j].strategy.set());
                if !oracle.scheme().linked(si, sj) {
                    continue;
                }
                let joined = oracle.try_tau_join(si, sj)?;
                let c = units[i]
                    .cost
                    .saturating_add(units[j].cost)
                    .saturating_add(joined);
                if best.is_none_or(|(bc, _, _)| c < bc) {
                    best = Some((c, i, j));
                }
            }
        }
        let Some((cost, i, j)) = best else {
            // Unreachable on a connected subset: its block graph is
            // connected, so a linked pair always remains.
            return Err(MjoinError::Internal(
                "connected query left no linked block pair to recombine".into(),
            ));
        };
        let right = units.remove(j);
        let left = std::mem::replace(
            &mut units[i],
            Plan {
                strategy: Strategy::leaf(0),
                cost: 0,
            },
        );
        let strategy = Strategy::join(left.strategy, right.strategy)
            .map_err(|e| MjoinError::Internal(format!("block recombination: {e}")))?;
        units[i] = Plan { strategy, cost };
    }
    let Some(mut best) = units.pop() else {
        return Err(MjoinError::Internal("recombination left no plan".into()));
    };

    // Never worse than either greedy baseline: exact-within-blocks is only
    // as good as its partition, and a cut in the wrong place can lose to a
    // cut-free heuristic. Ties keep the stitched plan, and a greedy plan
    // that resorted to a cartesian product is ineligible — this rung,
    // like the exact DPs it stands in for, stays product-free. Both
    // floors are best-effort under the budget: a baseline that trips the
    // guard forfeits only the comparison, never the stitched plan already
    // in hand — under an unlimited guard (the differential suite's
    // setting) the floors always run, which is the dominance that suite
    // pins.
    type FloorFn<O> = fn(&O, RelSet, &Guard) -> Result<Plan, MjoinError>;
    let floors: [FloorFn<O>; 2] = [try_greedy_linear, try_greedy_bushy];
    for floor in floors {
        match floor(oracle, subset, guard) {
            Ok(greedy) => {
                if greedy.cost < best.cost && !greedy.strategy.uses_cartesian(oracle.scheme()) {
                    best = greedy;
                }
            }
            Err(MjoinError::BudgetExceeded { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(best))
}

/// Greedy accretion partition of `subset` into connected blocks of at most
/// `block_max` relations: seed at the lowest unassigned index, repeatedly
/// add the unassigned neighbor with the most edges into the block (ties to
/// the lowest index), close the block when full or out of neighbors.
fn partition(
    scheme: &DbScheme,
    subset: RelSet,
    block_max: usize,
    guard: &Guard,
) -> Result<Vec<RelSet>, MjoinError> {
    let mut unassigned = subset;
    let mut blocks = Vec::new();
    while let Some(seed) = unassigned.first() {
        guard.checkpoint()?;
        let mut block = RelSet::singleton(seed);
        unassigned.remove(seed);
        while block.len() < block_max {
            let mut best: Option<(usize, usize)> = None; // (edges, rel)
                                                         // Ascending scan, strict `>`: ties settle on the lowest index.
            for r in unassigned.iter() {
                let e = edges_into(scheme, r, block);
                if e > 0 && best.is_none_or(|(be, _)| e > be) {
                    best = Some((e, r));
                }
            }
            let Some((_, r)) = best else { break };
            block.insert(r);
            unassigned.remove(r);
        }
        blocks.push(block);
    }
    Ok(blocks)
}

/// Number of join-graph edges between relation `r` and the members of
/// `block`, counted by word-level bitset iteration (the inner loop of the
/// accretion scan — no `RelSet` iterator allocation, two `u64` walks).
fn edges_into(scheme: &DbScheme, r: usize, block: RelSet) -> usize {
    let rs = RelSet::singleton(r);
    let [mut lo, mut hi] = block.words();
    let mut count = 0;
    while lo != 0 {
        let b = lo.trailing_zeros() as usize;
        lo &= lo - 1;
        if scheme.linked(rs, RelSet::singleton(b)) {
            count += 1;
        }
    }
    while hi != 0 {
        let b = hi.trailing_zeros() as usize + 64;
        hi &= hi - 1;
        if scheme.linked(rs, RelSet::singleton(b)) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::SyntheticOracle;
    use mjoin_gen::schemes;

    #[test]
    fn whole_query_in_one_block_is_dpccp_bit_for_bit() {
        for n in 2..=10usize {
            let (_, scheme) = schemes::chain(n);
            let bases: Vec<u64> = (0..n).map(|i| 10 + 31 * i as u64).collect();
            let oracle = SyntheticOracle::new(scheme.clone(), bases.clone(), 20);
            let full = scheme.full_set();
            let part = try_partitioned_dp_with(&oracle, full, n, &Guard::unlimited())
                .unwrap()
                .expect("connected");
            let oracle2 = SyntheticOracle::new(scheme.clone(), bases, 20);
            let exact = dp::try_best_no_cartesian(&oracle2, full, &Guard::unlimited())
                .unwrap()
                .expect("connected");
            assert_eq!(part.cost, exact.cost, "n={n}");
            assert_eq!(part.strategy, exact.strategy, "n={n}");
        }
    }

    #[test]
    fn partitioned_chains_are_product_free_and_cover_every_relation() {
        let n = 40;
        let (_, scheme) = schemes::chain(n);
        let bases: Vec<u64> = (0..n).map(|i| 100 + (i as u64 * 57) % 1500).collect();
        let oracle = SyntheticOracle::new(scheme.clone(), bases, 30);
        let full = scheme.full_set();
        let plan = partitioned_dp(&oracle, full).expect("connected");
        assert_eq!(plan.strategy.set(), full);
        assert!(!plan.strategy.uses_cartesian(&scheme));
        assert_eq!(plan.cost, plan.strategy.cost(&oracle));
    }

    #[test]
    fn blocks_respect_the_cap_and_stay_connected() {
        let n = 33;
        let (_, scheme) = schemes::chain(n);
        let blocks = partition(&scheme, scheme.full_set(), 7, &Guard::unlimited()).unwrap();
        let mut seen = RelSet::empty();
        for &b in &blocks {
            assert!(b.len() <= 7);
            assert!(scheme.connected(b));
            assert!(seen.is_disjoint(b));
            seen = seen.union(b);
        }
        assert_eq!(seen, scheme.full_set());
    }

    #[test]
    fn partdp_rejects_unconnected_subsets() {
        let mut cat = mjoin_relation::Catalog::new();
        let scheme = mjoin_hypergraph::DbScheme::parse(&mut cat, &["AB", "CD"]).unwrap();
        let oracle = SyntheticOracle::new(scheme.clone(), vec![10, 10], 5);
        assert!(partitioned_dp(&oracle, scheme.full_set()).is_none());
    }
}
