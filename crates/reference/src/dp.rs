//! The two product-free DPs the streaming DPccp is checked against.

use std::collections::HashMap;
use std::hash::BuildHasher;

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, FastMap, RelSet};
use mjoin_obs::{incr, Counter};
use mjoin_optimizer::Plan;
use mjoin_strategy::Strategy;

/// A split table: per solved subset, its cost and winning split (`None`
/// for leaves).
type SplitTable<H> = HashMap<RelSet, (u64, Option<(RelSet, RelSet)>), H>;

/// A candidate-scan result: the winning split with its children's summed
/// cost, `None` when the target subset has no valid split.
type BestSplit = Result<Option<((RelSet, RelSet), u64)>, MjoinError>;

/// Cheapest product-free strategy by `DPsize`: the connected subsets of
/// `subset` bottom-up by size, each priced from every split into two
/// connected, linked halves of smaller size. Scans all pairs of connected
/// subsets — quadratic in their count — so it is slow but shares no
/// enumeration code with the shipped DPccp. `None` iff `subset` is
/// unconnected. Publishes the same `dp.*` counters as the shipped DPs
/// (`dp.subsets_expanded` counts each connected subset once).
pub fn try_best_no_cartesian_dpsize<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    // Group the connected subsets of `subset` by size.
    let connected = oracle.scheme().connected_subsets(subset);
    let n = subset.len();
    let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
    for s in connected {
        by_size[s.len()].push(s);
    }
    let mut table = FastMap::default();
    for &s in &by_size[1] {
        guard.charge_memo(1)?;
        incr(Counter::DpSubsetsExpanded, 1);
        table.insert(s, (0, None));
    }
    for size in 2..=n {
        for i in 0..by_size[size].len() {
            let u = by_size[size][i];
            let found = dpsize_best_split(oracle.scheme(), u, &by_size, &table, guard)?;
            if let Some((split, children)) = found {
                let total = oracle.try_tau(u)?.saturating_add(children);
                guard.charge_memo(1)?;
                incr(Counter::DpSubsetsExpanded, 1);
                table.insert(u, (total, Some(split)));
            }
        }
    }
    root_plan(subset, &table)
}

/// The `DPsize` candidate scan for one target subset `u`: every split of
/// `u` into connected halves `(s1, s2)` with `|s1| ≤ |s2|`, ordered by
/// `|s1|` then by `s1`'s position in its size bucket. Reads only strictly
/// smaller subsets of `table`.
///
/// The first candidate wins even at a saturated `u64::MAX` cost — every
/// reachable subset must record some split or plan reconstruction has
/// nothing to follow.
fn dpsize_best_split<H: BuildHasher>(
    scheme: &DbScheme,
    u: RelSet,
    by_size: &[Vec<RelSet>],
    table: &SplitTable<H>,
    guard: &Guard,
) -> BestSplit {
    let size = u.len();
    let mut best: Option<(u64, (RelSet, RelSet))> = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for (a, bucket) in by_size.iter().enumerate().take(size / 2 + 1).skip(1) {
        let b = size - a;
        for &s1 in bucket {
            guard.checkpoint()?;
            scanned += 1;
            if !s1.is_subset_of(u) {
                pruned += 1;
                continue;
            }
            let s2 = u.difference(s1);
            if a == b && s2.0 <= s1.0 {
                pruned += 1;
                continue; // each unordered pair once
            }
            if !scheme.linked_disjoint(s1, s2) {
                pruned += 1;
                continue;
            }
            // `s2` may fail to be connected or reachable; either way it has
            // no table entry and the pair is skipped.
            let (Some(&(c1, _)), Some(&(c2, _))) = (table.get(&s1), table.get(&s2)) else {
                pruned += 1;
                continue;
            };
            let cost = c1.saturating_add(c2);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, (s1, s2)));
            }
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    Ok(best.map(|(cost, split)| (split, cost)))
}

/// The DPccp as it was before the streaming csg–cmp enumerator: the
/// connected subsets by increasing size, each re-enumerating
/// `connected_subsets` of itself for candidate halves and re-deriving
/// connectivity and linkage per candidate, under a std `HashMap` memo with
/// the default SipHash hasher. The `dp_enumeration` bench times it against
/// the shipped DPccp — scan strategy *and* memo representation — and its
/// plans and costs are bit-identical to the shipped DPccp's. `None` iff
/// `subset` is unconnected.
pub fn try_best_no_cartesian_ccp_rescan<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    if !oracle.scheme().connected(subset) {
        return Ok(None);
    }
    // Connected subsets in ascending bit-pattern order; processing by
    // increasing size guarantees sub-plans exist before they're combined.
    let mut connected = oracle.scheme().connected_subsets(subset);
    connected.sort_by_key(|s| s.len());
    let mut table = HashMap::new();
    for &s in &connected {
        guard.checkpoint()?;
        if s.is_singleton() {
            guard.charge_memo(1)?;
            incr(Counter::DpSubsetsExpanded, 1);
            table.insert(s, (0, None));
            continue;
        }
        let found = ccp_best_split_rescan(oracle.scheme(), s, &table, guard)?;
        if let Some((split, children)) = found {
            let total = oracle.try_tau(s)?.saturating_add(children);
            guard.charge_memo(1)?;
            incr(Counter::DpSubsetsExpanded, 1);
            table.insert(s, (total, Some(split)));
        }
    }
    root_plan(subset, &table)
}

/// The rescan DPccp's candidate scan for one target `s`: every connected
/// subset of `s` holding its lowest relation whose complement in `s` is
/// connected and linked to it. The first minimum in ascending bit order
/// wins — the tie-break the shipped DPccp reproduces.
fn ccp_best_split_rescan<H: BuildHasher>(
    scheme: &DbScheme,
    s: RelSet,
    table: &SplitTable<H>,
    guard: &Guard,
) -> BestSplit {
    let Some(first) = s.first() else {
        return Err(MjoinError::Internal("connected subset is empty".into()));
    };
    let lowest = RelSet::singleton(first);
    let mut best = u64::MAX;
    let mut best_split = None;
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for s1 in scheme.connected_subsets(s) {
        guard.checkpoint()?;
        scanned += 1;
        if s1 == s || !lowest.is_subset_of(s1) {
            pruned += 1;
            continue;
        }
        let s2 = s.difference(s1);
        if !scheme.connected(s2) || !scheme.linked(s1, s2) {
            pruned += 1;
            continue;
        }
        let (Some(&(c1, _)), Some(&(c2, _))) = (table.get(&s1), table.get(&s2)) else {
            pruned += 1;
            continue;
        };
        // The first candidate wins even at a saturated cost.
        let cost = c1.saturating_add(c2);
        if best_split.is_none() || cost < best {
            best = cost;
            best_split = Some((s1, s2));
        }
    }
    incr(Counter::DpCandidatesScanned, scanned);
    incr(Counter::DpCandidatesPruned, pruned);
    Ok(best_split.map(|split| (split, best)))
}

/// The plan a solved split table records for `subset`; `None` when the DP
/// left it unsolved.
fn root_plan<H: BuildHasher>(
    subset: RelSet,
    table: &SplitTable<H>,
) -> Result<Option<Plan>, MjoinError> {
    let Some(&(cost, _)) = table.get(&subset) else {
        return Ok(None);
    };
    Ok(Some(Plan {
        strategy: rebuild(subset, table)?,
        cost,
    }))
}

/// Rebuilds a strategy from a split table; a solved subset with no
/// recorded split, or overlapping splits, is an internal error.
fn rebuild<H: BuildHasher>(s: RelSet, table: &SplitTable<H>) -> Result<Strategy, MjoinError> {
    if s.is_singleton() {
        let Some(i) = s.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Strategy::leaf(i));
    }
    let Some(&(_, Some((s1, s2)))) = table.get(&s) else {
        return Err(MjoinError::Internal(format!(
            "DP table records no split for solved subset {s:?}"
        )));
    };
    Strategy::join(rebuild(s1, table)?, rebuild(s2, table)?)
        .map_err(|e| MjoinError::Internal(format!("table splits must be disjoint: {e}")))
}

/// The shipped DPccp against these DPs: DPsize for cost, the rescan
/// DPccp for plan identity.
#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{Database, ExactOracle};
    use mjoin_optimizer::best_no_cartesian;

    fn chain4() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 0], vec![6, 1]]),
            ("DE", vec![vec![0, 7], vec![1, 8], vec![2, 9]]),
        ])
        .unwrap()
    }

    fn dpsize(o: &ExactOracle, db: &Database) -> Option<Plan> {
        try_best_no_cartesian_dpsize(o, db.scheme().full_set(), &Guard::unlimited())
            .expect("unlimited-guard DP cannot fail")
    }

    #[test]
    fn dp_variants_agree() {
        let db = chain4();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let b = dpsize(&o, &db).unwrap();
        let c = best_no_cartesian(&o, full).unwrap();
        assert_eq!(b.cost, c.cost);
        assert_eq!(b.cost, b.strategy.cost(&o));
        assert_eq!(c.cost, c.strategy.cost(&o));
        assert!(!c.strategy.uses_cartesian(db.scheme()));
    }

    #[test]
    fn dp_variants_agree_on_random_schemes() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for n in 2..=6 {
            let (cat, scheme) = schemes::random_connected(n, 1, &mut rng);
            let cfg = DataConfig {
                tuples_per_relation: 3,
                domain: 4,
                ensure_nonempty: true,
            };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let o = ExactOracle::new(&db);
            let full = db.scheme().full_set();
            let costs = [
                dpsize(&o, &db).map(|p| p.cost),
                best_no_cartesian(&o, full).map(|p| p.cost),
            ];
            assert_eq!(costs[0], costs[1], "n={n}");
        }
    }

    #[test]
    fn streaming_dpccp_matches_the_rescan_baseline() {
        use mjoin_gen::{data, data::DataConfig, schemes};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        for n in 2..=7 {
            let (cat, scheme) = schemes::random_connected(n, 2, &mut rng);
            let cfg = DataConfig {
                tuples_per_relation: 3,
                domain: 4,
                ensure_nonempty: true,
            };
            let db = data::uniform(cat, scheme, &cfg, &mut rng);
            let full = db.scheme().full_set();
            let o1 = ExactOracle::new(&db);
            let new = best_no_cartesian(&o1, full).unwrap();
            let o2 = ExactOracle::new(&db);
            let old = try_best_no_cartesian_ccp_rescan(&o2, full, &Guard::unlimited())
                .unwrap()
                .unwrap();
            assert_eq!(new.cost, old.cost, "n={n}");
            assert_eq!(new.strategy, old.strategy, "n={n}");
        }
    }
}
