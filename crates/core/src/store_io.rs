//! Glue between the optimizer stack and the persistent store.
//!
//! `mjoin-store` deliberately knows nothing above `mjoin-guard`/`mjoin-obs`
//! — its entries are flat integers and text. This module supplies the
//! canonical optimize fingerprint (shared by the CLI warm start and the
//! serve plan cache, so a store written by one warms the other) and the
//! merge-by-fingerprint save. Both writers save response-only entries:
//! the response text is all a warm run replays.

use std::fmt::Write as _;
use std::path::Path;

use mjoin_cost::Database;
use mjoin_guard::MjoinError;
use mjoin_store::{Fingerprint128, LoadedStore, StoreEntry};

/// The canonical fingerprint of one `optimize` request: the parsed schemes
/// and relation states (canonical row order), the search space *as
/// requested* (`None` = the default), and every budget knob — everything
/// that can change an `optimize` answer. This is the store key and the
/// serve plan-cache key; the two agreeing is what makes a store written by
/// a CLI cold run warm the daemon and vice versa.
///
/// The key is the [`fingerprint128`](mjoin_store::fingerprint128) of the
/// canonical text: `v1|optimize|space=…|threads=N`, then `|rel {scheme};`
/// and [`Relation::to_text`](mjoin_relation::Relation::to_text) for each
/// relation. That text is streamed into the hasher and never built.
pub fn optimize_fingerprint(
    db: &Database,
    space: Option<&str>,
    timeout_ms: Option<u64>,
    max_memo_entries: Option<u64>,
    max_tuples: Option<u64>,
    threads: usize,
) -> String {
    // Hashing never fails, so neither do these writes.
    let mut key = Fingerprint128::new();
    let _ = write!(
        key,
        "v1|optimize|space={space:?}|t={timeout_ms:?}|m={max_memo_entries:?}|tu={max_tuples:?}|threads={threads}",
    );
    for i in 0..db.len() {
        let _ = write!(key, "|rel {};", db.catalog().render(db.scheme().scheme(i)));
        let _ = db.state(i).write_text(db.catalog(), &mut key);
    }
    key.finish()
}

/// Inserts (or replaces, by fingerprint) one entry in the store at `path`
/// and writes it back. A missing file starts a fresh store; an existing
/// file that fails validation is a typed error, never silently clobbered.
pub fn save_optimize_entry(path: &Path, entry: StoreEntry) -> Result<u64, MjoinError> {
    let mut entries: Vec<StoreEntry> = if path.exists() {
        LoadedStore::open(path)?
            .entries()
            .map(|e| e.to_entry())
            .collect()
    } else {
        Vec::new()
    };
    match entries
        .iter_mut()
        .find(|e| e.fingerprint == entry.fingerprint)
    {
        Some(slot) => *slot = entry,
        None => entries.push(entry),
    }
    mjoin_store::save(path, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_store::fingerprint128;

    fn chain_db() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 6]]),
            ("CD", vec![vec![5, 7], vec![6, 8]]),
        ])
        .unwrap()
    }

    #[test]
    fn fingerprints_separate_every_knob() {
        let db = chain_db();
        let base = optimize_fingerprint(&db, None, None, None, None, 1);
        assert_ne!(
            base,
            optimize_fingerprint(&db, Some("nocp"), None, None, None, 1)
        );
        assert_ne!(
            base,
            optimize_fingerprint(&db, None, Some(5), None, None, 1)
        );
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
