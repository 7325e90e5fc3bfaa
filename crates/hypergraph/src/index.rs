//! A precomputed index over the connected subsets of a scheme.
//!
//! The bottom-up DPs spend their lives asking three questions about one
//! fixed `(scheme, within)` pair: *which subsets are connected*, *in what
//! order should they be solved*, and *where does this subset's memo entry
//! live*. [`SchemeIndex`] answers all three once, up front:
//!
//! * the connected subsets of `within`, enumerated output-sensitively and
//!   held in ascending bit-pattern order;
//! * a **rank** per connected subset — a dense index into flat `Vec` memo
//!   tables, replacing per-probe hashing on the DP hot path;
//! * the subsets grouped by size (**levels**), each level holding ranks in
//!   ascending bit-pattern order — exactly the deterministic processing
//!   order the sequential DP uses and the parallel DP freezes per level.
//!
//! The index owns its data (no borrow of the scheme), so a sequential DP
//! can build it from `oracle.scheme()` and then use the oracle mutably.

use mjoin_guard::MjoinError;

use crate::hash::FastMap;
use crate::relset::RelSet;
use crate::scheme::DbScheme;

/// When `within` is a low-contiguous mask of at most this many relations,
/// the rank lookup uses a direct-indexed table (`2^n` entries of `u32`, so
/// 4 MiB at the cap) instead of a hash map. The csg–cmp enumeration does
/// three rank probes per emitted pair, so this is the difference between
/// three array loads and three hash probes on the DP's hottest path.
const DENSE_MAX_RELS: usize = 20;

/// Dense ranks and size levels over the connected subsets of `within`.
pub struct SchemeIndex {
    within: RelSet,
    /// Connected subsets in ascending bit-pattern order; position = rank.
    subsets: Vec<RelSet>,
    /// Hash fallback for `rank`, only built when `dense` is not.
    ranks: FastMap<RelSet, u32>,
    /// Direct-indexed ranks (`dense[s.bits] = rank + 1`, `0` = not a
    /// connected subset) when `within = {0, …, n−1}` with
    /// `n ≤ DENSE_MAX_RELS` — the common whole-query case.
    dense: Option<Vec<u32>>,
    /// `by_size[k]` = ranks of the size-`k` connected subsets, ascending
    /// by bit pattern (ranks are bit-ordered, so pushes in rank order keep
    /// each level sorted).
    by_size: Vec<Vec<u32>>,
}

impl SchemeIndex {
    /// Builds the index for the connected subsets of `within`.
    ///
    /// # Panics
    /// Panics when the connected-subset count exceeds the u32 rank space;
    /// long-running services should prefer [`SchemeIndex::try_new`], which
    /// reports that case as a typed error instead of burning the calling
    /// worker through `catch_unwind`.
    pub fn new(scheme: &DbScheme, within: RelSet) -> SchemeIndex {
        Self::try_new(scheme, within).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SchemeIndex::new`], with rank-space overflow reported as
    /// [`MjoinError::InvalidScheme`] rather than a panic.
    pub fn try_new(scheme: &DbScheme, within: RelSet) -> Result<SchemeIndex, MjoinError> {
        Self::try_new_checked(scheme, within, &mut |_| Ok(()))
    }

    /// [`SchemeIndex::try_new`] with a fallible per-subset check run during
    /// the connected-subset enumeration. On a dense scheme that enumeration
    /// is exponential, so deadline-bounded callers (the degradation
    /// ladder's DP rungs) thread their guard checkpoint through here — a
    /// hostile 60-clique then trips its budget instead of hanging the
    /// worker in index construction.
    pub fn try_new_checked(
        scheme: &DbScheme,
        within: RelSet,
        check: &mut impl FnMut(RelSet) -> Result<(), MjoinError>,
    ) -> Result<SchemeIndex, MjoinError> {
        let subsets = scheme.try_connected_subsets(within, check)?;
        Self::ensure_rank_space(subsets.len())?;
        let n = within.len();
        let use_dense = n > 0 && n <= DENSE_MAX_RELS && within == RelSet::full(n);
        // Pre-size both lookup structures from one counting pass so
        // construction allocates each table exactly once — above n = 20 the
        // sparse map would otherwise rehash repeatedly as it grows through
        // tens of thousands of connected subsets.
        let mut level_counts = vec![0usize; n + 1];
        for s in &subsets {
            level_counts[s.len()] += 1;
        }
        let mut ranks = if use_dense {
            FastMap::default()
        } else {
            FastMap::with_capacity_and_hasher(subsets.len(), Default::default())
        };
        let mut dense = use_dense.then(|| vec![0u32; 1usize << n]);
        let mut by_size: Vec<Vec<u32>> = level_counts
            .iter()
            .map(|&c| Vec::with_capacity(c))
            .collect();
        for (rank, &s) in subsets.iter().enumerate() {
            match &mut dense {
                Some(table) => {
                    let slot = usize::try_from(s.0).expect("dense subsets fit 20 bits");
                    table[slot] = rank as u32 + 1;
                }
                None => {
                    ranks.insert(s, rank as u32);
                }
            }
            by_size[s.len()].push(rank as u32);
        }
        Ok(SchemeIndex {
            within,
            subsets,
            ranks,
            dense,
            by_size,
        })
    }

    /// The rank-space bound [`try_new`](Self::try_new) enforces, split out
    /// so the overflow arm is unit-testable (no real scheme can produce
    /// 2³² connected subsets in test time).
    fn ensure_rank_space(count: usize) -> Result<(), MjoinError> {
        if u32::try_from(count).is_err() {
            return Err(MjoinError::InvalidScheme(format!(
                "connected-subset count {count} exceeds the u32 rank space"
            )));
        }
        Ok(())
    }

    /// The subset this index covers.
    #[inline]
    pub fn within(&self) -> RelSet {
        self.within
    }

    /// Number of connected subsets (= size of a flat memo table).
    #[inline]
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// Is the index empty (only for `within = φ`)?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// The connected subsets in rank (ascending bit-pattern) order.
    #[inline]
    pub fn subsets(&self) -> &[RelSet] {
        &self.subsets
    }

    /// The dense rank of `subset`, `None` if it is not a connected subset
    /// of `within`.
    #[inline]
    pub fn rank(&self, subset: RelSet) -> Option<u32> {
        if let Some(table) = &self.dense {
            // Bits outside `within` index past the table and fall off the
            // `get`, which is the correct `None`; bits past the usize range
            // (members ≥ 64) must take the same path, never a truncating
            // `as` cast that could alias onto a valid slot.
            return match usize::try_from(subset.0).ok().and_then(|i| table.get(i)) {
                Some(&r) if r != 0 => Some(r - 1),
                _ => None,
            };
        }
        self.ranks.get(&subset).copied()
    }

    /// The subset at `rank` (inverse of [`rank`](Self::rank)).
    #[inline]
    pub fn subset(&self, rank: u32) -> RelSet {
        self.subsets[rank as usize]
    }

    /// Largest subset size (`|within|`).
    #[inline]
    pub fn max_size(&self) -> usize {
        self.within.len()
    }

    /// Ranks of the size-`size` connected subsets, ascending by bit
    /// pattern — one DP level.
    #[inline]
    pub fn level(&self, size: usize) -> &[u32] {
        self.by_size.get(size).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    fn scheme(specs: &[&str]) -> DbScheme {
        let mut cat = Catalog::new();
        DbScheme::parse(&mut cat, specs).unwrap()
    }

    #[test]
    fn ranks_are_dense_bit_ordered_and_invertible() {
        let d = scheme(&["AB", "BC", "CD", "DE"]);
        let idx = SchemeIndex::new(&d, d.full_set());
        // 4-chain: 4·5/2 = 10 connected subsets.
        assert_eq!(idx.len(), 10);
        for (rank, &s) in idx.subsets().iter().enumerate() {
            assert_eq!(idx.rank(s), Some(rank as u32));
            assert_eq!(idx.subset(rank as u32), s);
        }
        // Ascending bit order.
        for pair in idx.subsets().windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // Disconnected subsets have no rank.
        assert_eq!(idx.rank(RelSet::from_indices([0, 2])), None);
    }

    #[test]
    fn levels_partition_the_ranks_by_size() {
        let d = scheme(&["ABC", "AX", "BY", "CZ"]);
        let idx = SchemeIndex::new(&d, d.full_set());
        assert_eq!(idx.max_size(), 4);
        let mut total = 0;
        for size in 1..=idx.max_size() {
            for &r in idx.level(size) {
                assert_eq!(idx.subset(r).len(), size);
                total += 1;
            }
            // Levels are ascending by bit pattern.
            for pair in idx.level(size).windows(2) {
                assert!(idx.subset(pair[0]) < idx.subset(pair[1]));
            }
        }
        assert_eq!(total, idx.len());
        assert_eq!(idx.level(0), &[] as &[u32]);
        assert_eq!(idx.level(99), &[] as &[u32]);
    }

    #[test]
    fn dense_and_hash_rank_paths_agree() {
        let d = scheme(&["AB", "BC", "CD"]);
        // full_set is a low-contiguous mask → direct-indexed ranks;
        // {1, 2} is not → hash fallback. Both must answer identically.
        for within in [d.full_set(), RelSet::from_indices([1, 2])] {
            let idx = SchemeIndex::new(&d, within);
            for (rank, &s) in idx.subsets().iter().enumerate() {
                assert_eq!(idx.rank(s), Some(rank as u32));
            }
            assert_eq!(idx.rank(RelSet::from_indices([0, 2])), None);
            // Out-of-range bits must not index past the dense table —
            // including bits ≥ 64, where a truncating cast would alias
            // back onto valid slots.
            assert_eq!(idx.rank(RelSet::singleton(63)), None);
            assert_eq!(idx.rank(RelSet::singleton(64)), None);
            assert_eq!(idx.rank(RelSet::singleton(127)), None);
            assert_eq!(idx.rank(RelSet::from_indices([0, 64])), None);
        }
    }

    #[test]
    fn try_new_succeeds_where_new_does_and_overflow_is_typed() {
        let d = scheme(&["AB", "BC", "CD"]);
        let idx = SchemeIndex::try_new(&d, d.full_set()).unwrap();
        assert_eq!(idx.len(), SchemeIndex::new(&d, d.full_set()).len());
        // The overflow arm itself: no constructible scheme reaches 2³²
        // connected subsets, so the extracted bound is tested directly.
        assert!(SchemeIndex::ensure_rank_space(u32::MAX as usize).is_ok());
        let err = SchemeIndex::ensure_rank_space(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, MjoinError::InvalidScheme(_)), "{err}");
        assert!(err.to_string().contains("rank space"), "{err}");
    }

    #[test]
    fn restricted_index_only_sees_members_of_within() {
        let d = scheme(&["AB", "BC", "CD"]);
        let within = RelSet::from_indices([0, 1]);
        let idx = SchemeIndex::new(&d, within);
        assert_eq!(idx.within(), within);
        assert_eq!(idx.len(), 3); // {0}, {1}, {0,1}
        assert_eq!(idx.rank(RelSet::singleton(2)), None);
    }
}
