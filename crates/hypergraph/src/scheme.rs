//! Database schemes and the paper's connectivity predicates.

use mjoin_relation::{AttrSet, Catalog, RelationError};

use crate::relset::{RelSet, MAX_RELATIONS};

/// A database scheme **D**: an indexed family of relation schemes.
///
/// The paper treats **D** as a set; we fix an (arbitrary) index order so
/// that subsets become [`RelSet`] bitsets. Two relation schemes may be equal
/// (the paper's Section 5 even uses a *multiset* of identical schemes for
/// unions), so this is genuinely a family, not a set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DbScheme {
    schemes: Vec<AttrSet>,
    /// `adjacency[i]` = set of `j ≠ i` with `schemes[i] ∩ schemes[j] ≠ ∅`.
    adjacency: Vec<RelSet>,
}

impl DbScheme {
    /// Builds a database scheme from relation schemes.
    ///
    /// # Errors
    /// [`RelationError::EmptyScheme`] if the family is empty or any member
    /// is the empty attribute set (the paper requires nonempty relation
    /// schemes); [`RelationError::TooManyRelations`] past [`MAX_RELATIONS`]
    /// members. The size check is a hard error (not a `debug_assert`)
    /// because it is the single boundary keeping every downstream
    /// [`RelSet`] shift in range — release builds must reject oversized
    /// inputs here rather than silently wrap bitset arithmetic.
    pub fn new(schemes: Vec<AttrSet>) -> Result<Self, RelationError> {
        if schemes.is_empty() || schemes.iter().any(|s| s.is_empty()) {
            return Err(RelationError::EmptyScheme);
        }
        if schemes.len() > MAX_RELATIONS {
            return Err(RelationError::TooManyRelations {
                max: MAX_RELATIONS,
                got: schemes.len(),
            });
        }
        let adjacency = (0..schemes.len())
            .map(|i| {
                RelSet::from_indices(
                    (0..schemes.len()).filter(|&j| j != i && schemes[i].intersects(schemes[j])),
                )
            })
            .collect();
        Ok(DbScheme { schemes, adjacency })
    }

    /// Parses scheme specifications (see [`Catalog::scheme`]) into a
    /// database scheme, e.g. `DbScheme::parse(&mut cat, &["ABC", "BE", "DF"])`.
    pub fn parse(catalog: &mut Catalog, specs: &[&str]) -> Result<Self, RelationError> {
        let schemes = specs
            .iter()
            .map(|s| catalog.scheme(s))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(schemes)
    }

    /// Number of relation schemes, `|D|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Is the family empty? (Never true for a constructed scheme.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// The `i`-th relation scheme.
    #[inline]
    pub fn scheme(&self, i: usize) -> AttrSet {
        self.schemes[i]
    }

    /// All relation schemes, in index order.
    #[inline]
    pub fn schemes(&self) -> &[AttrSet] {
        &self.schemes
    }

    /// The subset containing every relation scheme.
    #[inline]
    pub fn full_set(&self) -> RelSet {
        RelSet::full(self.len())
    }

    /// The sub-scheme of `subset`'s members, re-indexed by rank: the `k`-th
    /// lowest member of `subset` is relation `k` of the result. Built from
    /// the cached adjacency in `O(|subset| + edges inside it)` word
    /// operations — no pairwise scheme intersections.
    ///
    /// # Panics
    /// Panics if `subset` is empty (a database scheme has ≥ 1 member).
    pub fn restrict(&self, subset: RelSet) -> DbScheme {
        assert!(!subset.is_empty(), "a sub-scheme needs at least one member");
        let rank = |j: usize| (subset.0 & ((1u128 << j) - 1)).count_ones() as usize;
        let (schemes, adjacency) = subset
            .iter()
            .map(|i| {
                let local = self.adjacency[i].intersect(subset).iter().map(rank);
                (self.schemes[i], RelSet::from_indices(local))
            })
            .unzip();
        DbScheme { schemes, adjacency }
    }

    /// `⋃D′`: the union of the attribute sets of the members of `subset`.
    pub fn attrs_of(&self, subset: RelSet) -> AttrSet {
        subset
            .iter()
            .fold(AttrSet::empty(), |acc, i| acc.union(self.schemes[i]))
    }

    /// The paper's *linked* predicate: `D₁` is linked to `D₂` iff
    /// `(⋃D₁) ∩ (⋃D₂) ≠ φ`.
    ///
    /// Note the paper applies this to arbitrary (possibly overlapping)
    /// subsets; no disjointness is assumed here.
    pub fn linked(&self, d1: RelSet, d2: RelSet) -> bool {
        self.attrs_of(d1).intersects(self.attrs_of(d2))
    }

    /// The neighbors of relation `i`: every `j ≠ i` whose scheme shares an
    /// attribute with scheme `i`.
    #[inline]
    pub fn adjacent_to(&self, i: usize) -> RelSet {
        self.adjacency[i]
    }

    /// `𝒩(D′)`: the members *outside* `subset` adjacent to some member of
    /// it — the hypergraph neighborhood driving both the connected-subset
    /// and the csg–cmp enumerations. `O(|D′|)` word operations.
    #[inline]
    pub fn neighborhood(&self, subset: RelSet) -> RelSet {
        let mut n = RelSet::empty();
        for i in subset.iter() {
            n = n.union(self.adjacency[i]);
        }
        n.difference(subset)
    }

    /// [`linked`](Self::linked) specialized to *disjoint* subsets, as word
    /// operations on the precomputed adjacency instead of two attribute
    /// folds.
    ///
    /// Correct because for disjoint `D₁`, `D₂` an attribute
    /// `a ∈ (⋃D₁) ∩ (⋃D₂)` lies in some `schemes[i]`, `i ∈ D₁`, and some
    /// `schemes[j]`, `j ∈ D₂`; disjointness gives `i ≠ j`, so `(i, j)` is an
    /// adjacency edge — and conversely every adjacency edge witnesses a
    /// shared attribute. Cost is `O(min(|D₁|, |D₂|))` word ops; the DP hot
    /// loops call this millions of times where the attribute folds used to
    /// dominate.
    #[inline]
    pub fn linked_disjoint(&self, d1: RelSet, d2: RelSet) -> bool {
        debug_assert!(d1.is_disjoint(d2));
        let (walk, probe) = if d1.len() <= d2.len() {
            (d1, d2)
        } else {
            (d2, d1)
        };
        for i in walk.iter() {
            if !self.adjacency[i].intersect(probe).is_empty() {
                return true;
            }
        }
        false
    }

    /// Is `subset` connected (not the union of two non-linked nonempty
    /// parts)? The empty subset and singletons are connected.
    pub fn connected(&self, subset: RelSet) -> bool {
        match subset.first() {
            None => true,
            Some(start) => self.reachable_from(start, subset) == subset,
        }
    }

    /// The members of `subset` reachable from `start` through pairwise
    /// scheme intersections staying inside `subset`.
    fn reachable_from(&self, start: usize, subset: RelSet) -> RelSet {
        debug_assert!(subset.contains(start));
        let mut visited = RelSet::singleton(start);
        let mut frontier = RelSet::singleton(start);
        while !frontier.is_empty() {
            let mut next = RelSet::empty();
            for i in frontier.iter() {
                next = next.union(self.adjacency[i].intersect(subset));
            }
            frontier = next.difference(visited);
            visited = visited.union(frontier);
        }
        visited
    }

    /// The components of `subset`: maximal connected subsets not linked to
    /// the rest. Returned in ascending order of their lowest member.
    ///
    /// Note that components are defined through *pairwise scheme
    /// intersections inside the subset*, exactly as the paper's example
    /// shows: `{ABC, BE, DF, CG, GH}` is unconnected even though its parts
    /// `{ABC, BE, DF}` and `{CG, GH}` are linked — because linkage of the
    /// union flows through shared attributes of individual schemes.
    pub fn components(&self, subset: RelSet) -> Vec<RelSet> {
        let mut remaining = subset;
        let mut out = Vec::new();
        while let Some(start) = remaining.first() {
            let comp = self.reachable_from(start, remaining);
            out.push(comp);
            remaining = remaining.difference(comp);
        }
        out
    }

    /// `comp(D′)`: the number of components of `subset`.
    pub fn comp(&self, subset: RelSet) -> usize {
        self.components(subset).len()
    }

    /// All nonempty connected subsets of `within`, sorted by bit pattern.
    ///
    /// Enumeration is *output-sensitive* (the `EnumerateCsg` expansion of
    /// Moerkotte & Neumann): each connected subset is produced exactly
    /// once by growing from its lowest member through scheme adjacency, so
    /// sparse topologies stay cheap — a 40-relation chain has 820
    /// connected subsets, not 2⁴⁰ candidates.
    pub fn connected_subsets(&self, within: RelSet) -> Vec<RelSet> {
        let mut out = Vec::new();
        let walk: Result<(), std::convert::Infallible> =
            self.try_for_each_connected_subset(within, &mut |s| {
                out.push(s);
                Ok(())
            });
        if let Err(e) = walk {
            match e {}
        }
        out.sort_unstable();
        out
    }

    /// Calls `visit` once per nonempty connected subset of `within`, in
    /// enumeration order; its first error aborts the walk. Allocates
    /// nothing per subset, so it also counts them cheaply.
    pub fn try_for_each_connected_subset<E>(
        &self,
        within: RelSet,
        visit: &mut impl FnMut(RelSet) -> Result<(), E>,
    ) -> Result<(), E> {
        let members: Vec<usize> = within.iter().collect();
        for &start in members.iter().rev() {
            // Forbid all members lower than `start`: subsets rooted at
            // their own minimum are enumerated exactly once.
            let forbidden = RelSet::from_indices(members.iter().copied().filter(|&j| j < start));
            let seed = RelSet::singleton(start);
            visit(seed)?;
            self.enumerate_csg_rec(seed, forbidden.union(seed), within, visit)?;
        }
        Ok(())
    }

    fn enumerate_csg_rec<E>(
        &self,
        subset: RelSet,
        excluded: RelSet,
        within: RelSet,
        visit: &mut impl FnMut(RelSet) -> Result<(), E>,
    ) -> Result<(), E> {
        // Neighborhood of `subset` inside `within`, minus exclusions.
        let neighborhood = self
            .neighborhood(subset)
            .intersect(within)
            .difference(excluded);
        if neighborhood.is_empty() {
            return Ok(());
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            visit(subset.union(ext))?;
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            self.enumerate_csg_rec(
                subset.union(ext),
                excluded.union(neighborhood),
                within,
                visit,
            )?;
        }
        Ok(())
    }

    /// Streams every **csg–cmp pair** of the query graph restricted to
    /// `within`: each unordered pair `(D₁, D₂)` of disjoint, individually
    /// connected, mutually linked subsets is passed to `f` exactly once,
    /// oriented so `min(D₁) < min(D₂)` (hence `D₁` contains the lowest
    /// member of `D₁ ∪ D₂`).
    ///
    /// This is the `EnumerateCsg`/`EnumerateCmp` scheme of Moerkotte &
    /// Neumann's `DPccp`: csgs grow from their lowest member through the
    /// adjacency bitsets; for each csg, complements grow from each
    /// neighborhood seed with lower seeds forbidden. Work is proportional
    /// to the number of *valid joins*, so sparse topologies never touch the
    /// full subset lattice — an n-chain has exactly `n(n−1)(n+1)/6` pairs.
    ///
    /// Pairs come in an order valid for dynamic programming: every pair
    /// whose union is `S` precedes every pair that has `S` as a half. A
    /// DP can therefore solve each subset at its first use as a half,
    /// without storing the pairs.
    ///
    /// The callback is fallible so a budget guard can cancel enumeration
    /// mid-stream; errors propagate immediately.
    pub fn try_for_each_ccp<E, F>(&self, within: RelSet, f: &mut F) -> Result<(), E>
    where
        F: FnMut(RelSet, RelSet) -> Result<(), E>,
    {
        let members: Vec<usize> = within.iter().collect();
        for (k, &start) in members.iter().enumerate().rev() {
            // As in `connected_subsets`, forbid all members lower than
            // `start`: every csg is rooted at its own minimum.
            let below = RelSet::from_indices(members[..k].iter().copied());
            let seed = RelSet::singleton(start);
            let adj = self.adjacency[start];
            self.ccp_emit_cmps(seed, adj, below, within, f)?;
            self.ccp_csg_rec(seed, adj, below.union(seed), below, within, f)?;
        }
        Ok(())
    }

    /// `⋃_{i ∈ subset} adjacency[i]` — the raw adjacency union the
    /// recursive enumerators maintain *incrementally*: extending a subset
    /// by `ext` only folds `ext`'s adjacency rows in, instead of
    /// recomputing the whole union per recursion step.
    #[inline]
    fn adj_union(&self, subset: RelSet) -> RelSet {
        let mut n = RelSet::empty();
        for i in subset.iter() {
            n = n.union(self.adjacency[i]);
        }
        n
    }

    /// `EnumerateCsgRec` specialized for pair emission: grows `subset`
    /// (whose minimum is fixed by `below`) through its neighborhood and
    /// enumerates the complements of every csg produced. `adj` is
    /// `adj_union(subset)`, carried incrementally.
    fn ccp_csg_rec<E, F>(
        &self,
        subset: RelSet,
        adj: RelSet,
        excluded: RelSet,
        below: RelSet,
        within: RelSet,
        f: &mut F,
    ) -> Result<(), E>
    where
        F: FnMut(RelSet, RelSet) -> Result<(), E>,
    {
        // `excluded ⊇ subset`, so subtracting it also strips the subset's
        // own members from the raw adjacency union.
        let neighborhood = adj.intersect(within).difference(excluded);
        if neighborhood.is_empty() {
            return Ok(());
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            self.ccp_emit_cmps(
                subset.union(ext),
                adj.union(self.adj_union(ext)),
                below,
                within,
                f,
            )?;
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            self.ccp_csg_rec(
                subset.union(ext),
                adj.union(self.adj_union(ext)),
                excluded.union(neighborhood),
                below,
                within,
                f,
            )?;
        }
        Ok(())
    }

    /// `EmitCsg` + `EnumerateCmpRec`: all connected complements of csg
    /// `s1`, each grown from one neighborhood seed (descending, with lower
    /// seeds forbidden so each complement is enumerated exactly once) and
    /// with everything at or below `min(s1)` excluded. `adj1` is
    /// `adj_union(s1)`, carried incrementally by the csg recursion.
    fn ccp_emit_cmps<E, F>(
        &self,
        s1: RelSet,
        adj1: RelSet,
        below: RelSet,
        within: RelSet,
        f: &mut F,
    ) -> Result<(), E>
    where
        F: FnMut(RelSet, RelSet) -> Result<(), E>,
    {
        let excluded = below.union(s1);
        let frontier = adj1.intersect(within).difference(excluded);
        let seeds: Vec<usize> = frontier.iter().collect();
        for (k, &v) in seeds.iter().enumerate().rev() {
            let seed = RelSet::singleton(v);
            f(s1, seed)?;
            let lower = RelSet::from_indices(seeds[..k].iter().copied());
            self.ccp_cmp_rec(
                s1,
                seed,
                self.adjacency[v],
                excluded.union(lower).union(seed),
                within,
                f,
            )?;
        }
        Ok(())
    }

    /// `adj2` is `adj_union(s2)`, carried incrementally.
    fn ccp_cmp_rec<E, F>(
        &self,
        s1: RelSet,
        s2: RelSet,
        adj2: RelSet,
        excluded: RelSet,
        within: RelSet,
        f: &mut F,
    ) -> Result<(), E>
    where
        F: FnMut(RelSet, RelSet) -> Result<(), E>,
    {
        // `excluded ⊇ s2`, so subtracting it also strips `s2`'s own
        // members from the raw adjacency union.
        let neighborhood = adj2.intersect(within).difference(excluded);
        if neighborhood.is_empty() {
            return Ok(());
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            f(s1, s2.union(ext))?;
        }
        for ext in neighborhood.subsets() {
            if ext.is_empty() {
                continue;
            }
            self.ccp_cmp_rec(
                s1,
                s2.union(ext),
                adj2.union(self.adj_union(ext)),
                excluded.union(neighborhood),
                within,
                f,
            )?;
        }
        Ok(())
    }

    /// All csg–cmp pairs of `within` as a vector (see
    /// [`try_for_each_ccp`](Self::try_for_each_ccp)); the streaming form is
    /// what the DP uses, this is for tests and small-scale callers.
    pub fn ccp_pairs(&self, within: RelSet) -> Vec<(RelSet, RelSet)> {
        let mut out = Vec::new();
        self.try_for_each_ccp::<std::convert::Infallible, _>(within, &mut |a, b| {
            out.push((a, b));
            Ok(())
        })
        .unwrap();
        out
    }

    /// Renders `subset` as `{ABC, BE}` using the catalog's names.
    pub fn render(&self, catalog: &Catalog, subset: RelSet) -> String {
        let parts: Vec<String> = subset
            .iter()
            .map(|i| catalog.render(self.schemes[i]))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(specs: &[&str]) -> (Catalog, DbScheme) {
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, specs).unwrap();
        (cat, d)
    }

    #[test]
    fn restrict_equals_the_sub_scheme_built_from_scratch() {
        let (_, d) = parse(&["ABC", "BE", "DF", "CG", "GH", "AB"]);
        for subset in d.full_set().subsets().filter(|s| !s.is_empty()) {
            let schemes: Vec<AttrSet> = subset.iter().map(|i| d.scheme(i)).collect();
            assert_eq!(
                d.restrict(subset),
                DbScheme::new(schemes).unwrap(),
                "{subset:?}"
            );
        }
    }

    #[test]
    fn construction_checks() {
        assert!(DbScheme::new(vec![]).is_err());
        assert!(DbScheme::new(vec![AttrSet::empty()]).is_err());
    }

    #[test]
    fn paper_linked_examples() {
        // {ABC, BE, DF} is linked to {CG, GH} but {AB, BE, DF} is not.
        let (mut cat, _) = parse(&["ABC"]);
        let d = DbScheme::parse(&mut cat, &["ABC", "BE", "DF", "CG", "GH", "AB"]).unwrap();
        let left = RelSet::from_indices([0, 1, 2]); // {ABC, BE, DF}
        let right = RelSet::from_indices([3, 4]); // {CG, GH}
        assert!(d.linked(left, right));
        let left2 = RelSet::from_indices([5, 1, 2]); // {AB, BE, DF}
        assert!(!d.linked(left2, right));
    }

    #[test]
    fn paper_connected_examples() {
        // {ABC, BE, DF} is unconnected; {ABC, BE, AF, DF} is connected.
        let (_, d1) = parse(&["ABC", "BE", "DF"]);
        assert!(!d1.connected(d1.full_set()));
        let (_, d2) = parse(&["ABC", "BE", "AF", "DF"]);
        assert!(d2.connected(d2.full_set()));
    }

    #[test]
    fn paper_components_example() {
        // Components of {ABC, BE, DF} are {ABC, BE} and {DF}.
        let (_, d) = parse(&["ABC", "BE", "DF"]);
        let comps = d.components(d.full_set());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], RelSet::from_indices([0, 1]));
        assert_eq!(comps[1], RelSet::singleton(2));
        assert_eq!(d.comp(d.full_set()), 2);
    }

    #[test]
    fn paper_union_remains_unconnected() {
        // {ABC, BE, DF} ∪ {CG, GH} is unconnected although the two families
        // are linked: DF is isolated.
        let (_, d) = parse(&["ABC", "BE", "DF", "CG", "GH"]);
        assert!(!d.connected(d.full_set()));
        let comps = d.components(d.full_set());
        assert_eq!(comps.len(), 2);
        // {ABC, BE, CG, GH} forms one component via C.
        assert_eq!(comps[0], RelSet::from_indices([0, 1, 3, 4]));
        assert_eq!(comps[1], RelSet::singleton(2));
    }

    #[test]
    fn empty_and_singletons_connected() {
        let (_, d) = parse(&["AB", "CD"]);
        assert!(d.connected(RelSet::empty()));
        assert!(d.connected(RelSet::singleton(0)));
        assert!(d.connected(RelSet::singleton(1)));
        assert!(!d.connected(d.full_set()));
    }

    #[test]
    fn duplicate_schemes_are_linked() {
        let (_, d) = parse(&["AB", "AB"]);
        assert!(d.connected(d.full_set()));
        assert!(d.linked(RelSet::singleton(0), RelSet::singleton(1)));
    }

    #[test]
    fn attrs_of_union() {
        let (mut cat, _) = parse(&["AB"]);
        let d = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let all = d.attrs_of(d.full_set());
        assert_eq!(all.len(), 3);
        assert_eq!(d.attrs_of(RelSet::empty()), AttrSet::empty());
    }

    #[test]
    fn connected_subsets_of_chain() {
        // Chain A-B-C-D: connected subsets of {AB, BC, CD} are all
        // contiguous index ranges: {0},{1},{2},{01},{12},{012} = 6.
        let (_, d) = parse(&["AB", "BC", "CD"]);
        let subs = d.connected_subsets(d.full_set());
        assert_eq!(subs.len(), 6);
        assert!(!subs.contains(&RelSet::from_indices([0, 2])));
    }

    #[test]
    fn connected_subsets_of_star() {
        // Star: center ABC touches AX, BY, CZ. Connected subsets: any
        // subset containing the center (8) plus the 3 leaf singletons = 11.
        let (_, d) = parse(&["ABC", "AX", "BY", "CZ"]);
        let subs = d.connected_subsets(d.full_set());
        assert_eq!(subs.len(), 11);
    }

    #[test]
    fn connected_subsets_matches_brute_force() {
        // Output-sensitive enumeration agrees with the 2ⁿ filter on a mix
        // of topologies and restricted sub-families.
        for specs in [
            vec!["AB", "BC", "CD", "DE"],
            vec!["AB", "BC", "CA", "CD"],
            vec!["AB", "CD", "EF"],
            vec!["ABC", "AX", "BY", "CZ", "XY"],
            vec!["AB", "AB", "BC"],
        ] {
            let (_, d) = parse(&specs);
            for within in [d.full_set(), RelSet::from_indices([0, 2, 3])] {
                let within = within.intersect(d.full_set());
                let mut fast = d.connected_subsets(within);
                let mut brute: Vec<RelSet> = within
                    .subsets()
                    .filter(|s| !s.is_empty() && d.connected(*s))
                    .collect();
                fast.sort_unstable();
                brute.sort_unstable();
                assert_eq!(fast, brute, "{specs:?} within {within:?}");
            }
        }
    }

    #[test]
    fn connected_subsets_enumeration_has_no_duplicates() {
        let (_, d) = parse(&["ABC", "AX", "BY", "CZ", "XY"]);
        let subs = d.connected_subsets(d.full_set());
        let mut dedup = subs.clone();
        dedup.dedup();
        assert_eq!(subs.len(), dedup.len());
    }

    #[test]
    fn connected_subsets_chain_is_quadratic() {
        // A 40-relation chain has exactly 40·41/2 = 820 connected subsets;
        // the enumeration must produce them without touching 2⁴⁰ masks.
        let specs: Vec<String> = (0..40).map(|i| format!("x{i},x{}", i + 1)).collect();
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        let mut cat = Catalog::new();
        let d = DbScheme::parse(&mut cat, &refs).unwrap();
        assert_eq!(d.connected_subsets(d.full_set()).len(), 820);
    }

    #[test]
    fn ccp_pairs_come_in_dynamic_programming_order() {
        for specs in [
            vec!["AB", "BC", "CD", "DE", "EF"],
            vec!["AB", "BC", "CD", "DA", "AE"],
            vec!["XA", "XB", "XC", "XD", "XE"],
            vec!["ABC", "AX", "BY", "CZ", "XY"],
            vec!["AB", "AC", "AD", "BC", "BD", "CD"],
        ] {
            let (_, d) = parse(&specs);
            let pairs = d.ccp_pairs(d.full_set());
            // The position of the last pair forming each subset.
            let mut formed = std::collections::HashMap::new();
            for (i, &(a, b)) in pairs.iter().enumerate() {
                formed.insert(a.union(b), i);
            }
            for (i, &(a, b)) in pairs.iter().enumerate() {
                for half in [a, b] {
                    if let Some(&last) = formed.get(&half) {
                        assert!(last < i, "{specs:?}: {half:?} formed after its use");
                    }
                }
            }
        }
    }

    #[test]
    fn render() {
        let (cat, d) = parse(&["ABC", "BE"]);
        assert_eq!(d.render(&cat, d.full_set()), "{ABC, BE}");
        assert_eq!(d.render(&cat, RelSet::singleton(1)), "{BE}");
    }
}
