//! Glue between the optimizer stack and the persistent store.
//!
//! `mjoin-store` deliberately knows nothing above `mjoin-guard`/`mjoin-obs`
//! — its entries are flat integers and text. This module is where those
//! flats meet the typed world: canonical optimize fingerprints (shared by
//! the CLI warm-start and the serve plan cache, so a store written by one
//! warms the other), `Strategy` ⇄ step-triple conversion, and
//! `DpMemoExport` ⇄ entry-section conversion.

use std::fmt::Write as _;
use std::path::Path;

use mjoin_cost::Database;
use mjoin_guard::MjoinError;
use mjoin_hypergraph::{RelSet, MAX_RELATIONS};
use mjoin_optimizer::DpMemoExport;
use mjoin_store::{fingerprint128, EntryView, LoadedStore, StoreEntry};
use mjoin_strategy::Strategy;

/// The canonical fingerprint of one `optimize` request: the parsed schemes
/// and relation states (canonical row order), the search space *as
/// requested* (`None` = the default), and every budget knob — everything
/// that can change an `optimize` answer. This is the store key and the
/// serve plan-cache key; the two agreeing is what makes a store written by
/// a CLI cold run warm the daemon and vice versa.
pub fn optimize_fingerprint(
    db: &Database,
    space: Option<&str>,
    timeout_ms: Option<u64>,
    max_memo_entries: Option<u64>,
    max_tuples: Option<u64>,
    threads: usize,
) -> String {
    let mut canon = String::new();
    let _ = write!(
        canon,
        "v1|optimize|space={space:?}|t={timeout_ms:?}|m={max_memo_entries:?}|tu={max_tuples:?}|threads={threads}",
    );
    for i in 0..db.len() {
        let _ = write!(canon, "|rel {};", db.catalog().render(db.scheme().scheme(i)));
        canon.push_str(&db.state(i).to_text(db.catalog()));
    }
    fingerprint128(&canon)
}

/// A strategy as the store's flat `(set, left, right)` triples, pre-order.
/// The store's format is 64-bit, so a strategy touching relations ≥ 64
/// cannot be persisted — a typed error, never a silent truncation (schemes
/// that wide go through the polynomial planners and skip the store).
pub fn plan_steps(strategy: &Strategy) -> Result<Vec<(u64, u64, u64)>, MjoinError> {
    strategy
        .steps()
        .iter()
        .map(|s| {
            match (s.set.to_u64(), s.left.to_u64(), s.right.to_u64()) {
                (Some(set), Some(l), Some(r)) => Ok((set, l, r)),
                _ => Err(MjoinError::Internal(
                    "persisting a plan requires all relations below index 64".into(),
                )),
            }
        })
        .collect()
}

/// Rebuilds a strategy from stored step triples. The child order of every
/// join is preserved exactly, so the rebuilt strategy is `==` to (and
/// renders identically to) the one that was saved. Structurally
/// inconsistent steps (missing set, overlap, cycle) are typed errors.
pub fn strategy_from_steps(
    within: RelSet,
    steps: &[(u64, u64, u64)],
) -> Result<Strategy, MjoinError> {
    fn build(
        set: RelSet,
        steps: &[(u64, u64, u64)],
        depth: usize,
    ) -> Result<Strategy, MjoinError> {
        if depth > MAX_RELATIONS {
            return Err(MjoinError::Internal("stored plan steps are cyclic".into()));
        }
        if set.is_singleton() {
            return Ok(Strategy::leaf(set.first().expect("singleton is nonempty")));
        }
        let Some(&(_, l, r)) = steps
            .iter()
            .find(|&&(s, _, _)| set.to_u64() == Some(s))
        else {
            return Err(MjoinError::Internal(format!(
                "stored plan has no step for subset {set:?}"
            )));
        };
        let (l, r) = (RelSet(u128::from(l)), RelSet(u128::from(r)));
        if l.union(r) != set || l.is_empty() || r.is_empty() {
            return Err(MjoinError::Internal(format!(
                "stored plan step for {set:?} does not partition it"
            )));
        }
        Strategy::join(build(l, steps, depth + 1)?, build(r, steps, depth + 1)?)
        .map_err(|e| MjoinError::Internal(format!("stored plan children overlap: {e}")))
    }
    build(within, steps, 0)
}

/// Assembles a store entry from a finished optimize run. `taus` is the
/// `(subset bits, τ)` harvest from the oracle memo; subsets the DP touched
/// but the memo no longer holds are stored as `u64::MAX` ("not cached").
pub fn entry_from_optimize(
    fingerprint: String,
    within: RelSet,
    plan: Option<(&Strategy, u64)>,
    memo: Option<&DpMemoExport>,
    taus: &[(u64, u64)],
    response: &str,
) -> Result<StoreEntry, MjoinError> {
    let Some(within64) = within.to_u64() else {
        return Err(MjoinError::Internal(
            "persisting an optimize run requires all relations below index 64".into(),
        ));
    };
    let (steps, plan_cost) = match plan {
        Some((strategy, cost)) => (plan_steps(strategy)?, cost),
        None => (Vec::new(), u64::MAX),
    };
    let (subsets, costs, splits) = match memo {
        Some(m) => (
            m.subsets.clone(),
            m.costs.clone(),
            m.splits
                .iter()
                .map(|s| s.unwrap_or(mjoin_store::NO_SPLIT))
                .collect(),
        ),
        None => (Vec::new(), Vec::new(), Vec::new()),
    };
    let cards = if subsets.is_empty() || taus.is_empty() {
        Vec::new()
    } else {
        subsets
            .iter()
            .map(|s| {
                taus.binary_search_by_key(s, |&(bits, _)| bits)
                    .map(|i| taus[i].1)
                    .unwrap_or(u64::MAX)
            })
            .collect()
    };
    Ok(StoreEntry {
        fingerprint,
        within: within64,
        plan_cost,
        subsets,
        costs,
        splits,
        cards,
        steps,
        response: response.to_string(),
    })
}

/// The memo half of a loaded entry, back in the optimizer's export form —
/// ready for [`mjoin_optimizer::plan_from_memo`].
pub fn memo_from_entry(e: &EntryView<'_>) -> DpMemoExport {
    DpMemoExport {
        subsets: (0..e.n_subsets()).map(|r| e.subset(r)).collect(),
        costs: (0..e.n_subsets()).map(|r| e.cost(r)).collect(),
        splits: (0..e.n_subsets()).map(|r| e.split(r)).collect(),
    }
}

/// Inserts (or replaces, by fingerprint) one entry in the store at `path`
/// and writes it back. A missing file starts a fresh store; an existing
/// file that fails validation is a typed error, never silently clobbered.
pub fn save_optimize_entry(path: &Path, entry: StoreEntry) -> Result<u64, MjoinError> {
    let mut entries: Vec<StoreEntry> = if path.exists() {
        LoadedStore::open(path)?.entries().map(|e| e.to_entry()).collect()
    } else {
        Vec::new()
    };
    match entries.iter_mut().find(|e| e.fingerprint == entry.fingerprint) {
        Some(slot) => *slot = entry,
        None => entries.push(entry),
    }
    mjoin_store::save(path, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_cost::{CardinalityOracle, ExactOracle};
    use mjoin_guard::Guard;
    use mjoin_optimizer::{plan_from_memo, try_best_no_cartesian_ccp_with_memo};

    fn chain_db() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 7], vec![6, 8]]),
        ])
        .unwrap()
    }

    #[test]
    fn steps_round_trip_preserving_child_order() {
        let db = chain_db();
        let oracle = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let (plan, _) =
            try_best_no_cartesian_ccp_with_memo(&oracle, full, &Guard::unlimited())
                .unwrap()
                .unwrap();
        let steps = plan_steps(&plan.strategy).unwrap();
        let rebuilt = strategy_from_steps(full, &steps).unwrap();
        assert_eq!(rebuilt, plan.strategy);
        assert_eq!(
            rebuilt.render(db.catalog(), db.scheme()),
            plan.strategy.render(db.catalog(), db.scheme())
        );
    }

    #[test]
    fn memo_and_cards_survive_an_entry_round_trip() {
        let db = chain_db();
        let oracle = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let (plan, memo) =
            try_best_no_cartesian_ccp_with_memo(&oracle, full, &Guard::unlimited())
                .unwrap()
                .unwrap();
        let taus = oracle.memo_taus();
        let entry = entry_from_optimize(
            fingerprint128("test"),
            full,
            Some((&plan.strategy, plan.cost)),
            Some(&memo),
            &taus,
            "rendered\n",
        )
        .unwrap();
        let bytes = mjoin_store::serialize(std::slice::from_ref(&entry)).unwrap();
        let store = LoadedStore::from_bytes(bytes).unwrap();
        let view = store.entry_at(0);
        assert_eq!(view.to_entry(), entry);
        let back = memo_from_entry(&view);
        assert_eq!(back, memo);
        // The memo alone rebuilds the winning plan at the winning cost.
        let warm = plan_from_memo(&back, full).unwrap().unwrap();
        assert_eq!(warm.cost, plan.cost);
        assert_eq!(warm.strategy, plan.strategy);
        // Every memoized subset's τ was found in the harvest.
        for r in 0..view.n_subsets() {
            let tau = view.card(r).unwrap();
            if tau != u64::MAX {
                assert_eq!(tau, oracle.try_tau(RelSet(u128::from(view.subset(r)))).unwrap());
            }
        }
    }

    #[test]
    fn fingerprints_separate_every_knob() {
        let db = chain_db();
        let base = optimize_fingerprint(&db, None, None, None, None, 1);
        assert_ne!(base, optimize_fingerprint(&db, Some("nocp"), None, None, None, 1));
        assert_ne!(base, optimize_fingerprint(&db, None, Some(5), None, None, 1));
        assert_ne!(base, optimize_fingerprint(&db, None, None, None, None, 2));
        assert_eq!(base, optimize_fingerprint(&db, None, None, None, None, 1));
    }

    #[test]
    fn save_merges_by_fingerprint() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mjoin-storeio-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = StoreEntry::response_only(fingerprint128("a"), 1, "one\n".into());
        let b = StoreEntry::response_only(fingerprint128("b"), 2, "two\n".into());
        save_optimize_entry(&path, a.clone()).unwrap();
        save_optimize_entry(&path, b.clone()).unwrap();
        let a2 = StoreEntry::response_only(fingerprint128("a"), 3, "one v2\n".into());
        save_optimize_entry(&path, a2.clone()).unwrap();
        let store = LoadedStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.entry(&a.fingerprint).unwrap().to_entry(), a2);
        assert_eq!(store.entry(&b.fingerprint).unwrap().to_entry(), b);
        let _ = std::fs::remove_file(&path);
    }
}
