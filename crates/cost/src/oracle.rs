//! Cardinality oracles: the map `D′ ↦ τ(R_{D′})`.

use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::{DbScheme, FastMap, JoinTree, RelSet, SplitMix64Hasher};
use mjoin_obs as obs;
use mjoin_relation::{Relation, Value, MAX_ATTRS};

use crate::database::Database;

/// Reports `τ(R_{D′})` for subsets `D′` of a fixed database scheme.
///
/// Every result in the paper is a statement about this map; strategies,
/// condition checkers and optimizers all consume it rather than raw
/// relations, so exact evaluation and synthetic models are interchangeable.
///
/// Every method takes `&self`: a search holds a `&O`, and threads that
/// share one bound `O: CardinalityOracle + Sync`. Implementations must be
/// deterministic — the same subset must always report the same count, or
/// two searches of one query could pick different plans.
pub trait CardinalityOracle {
    /// The database scheme the oracle speaks about.
    fn scheme(&self) -> &DbScheme;

    /// `τ(R_{D′})` for a nonempty subset `D′`.
    fn tau(&self, subset: RelSet) -> u64;

    /// `τ` of the join of two disjoint subsets, `τ(R_{D₁} ⋈ R_{D₂})`.
    ///
    /// Default: delegates to `tau(D₁ ∪ D₂)` (the join of the joins is the
    /// join of the union — associativity/commutativity of ⋈).
    fn tau_join(&self, d1: RelSet, d2: RelSet) -> u64 {
        debug_assert!(d1.is_disjoint(d2));
        self.tau(d1.union(d2))
    }

    /// Is the full join empty (`R_D = φ`)? The theorems all assume it is
    /// not (an empty intermediate lets evaluation abort early).
    fn result_is_empty(&self) -> bool {
        self.tau(self.scheme().full_set()) == 0
    }

    /// Budget-aware [`tau`](Self::tau): oracles backed by real work (the
    /// exact oracle's materialization) report budget exhaustion here
    /// instead of panicking. Closed-form oracles use the default.
    fn try_tau(&self, subset: RelSet) -> Result<u64, MjoinError> {
        Ok(self.tau(subset))
    }

    /// Budget-aware [`tau_join`](Self::tau_join).
    fn try_tau_join(&self, d1: RelSet, d2: RelSet) -> Result<u64, MjoinError> {
        debug_assert!(d1.is_disjoint(d2));
        self.try_tau(d1.union(d2))
    }
}

/// The member to peel off when materializing `subset` bottom-up: the
/// lowest member whose removal leaves the rest *connected* (one always
/// exists when `subset` is connected — a spanning tree has a leaf), else
/// the lowest member outright (the subset's join is then a cross product
/// no matter the order). Peeling a cut vertex would force the rest to be
/// materialized as a Cartesian product — on a star subset `{hub} ∪ spokes`
/// that is `Π|spokeᵢ|` tuples built only to be thrown away — so the peel
/// choice is the difference between polynomial and exponential
/// materialization on hub-shaped schemes.
fn peel_member(scheme: &DbScheme, subset: RelSet) -> Option<usize> {
    let mut lowest = None;
    for x in subset.iter() {
        if lowest.is_none() {
            lowest = Some(x);
        }
        if scheme.connected(subset.difference(RelSet::singleton(x))) {
            return Some(x);
        }
    }
    lowest
}

/// Number of independent shards per memo. Spreading keys over shards keeps
/// write-lock contention off the hot read path; 16 is plenty for the few
/// threads that ever share one oracle.
const SHARD_COUNT: usize = 16;

/// Rows a counting loop handles between two guard polls.
const POLL_ROWS: usize = 64;

/// A map split over [`SHARD_COUNT`] independently locked shards. Keys
/// compare by value; the hash only picks the shard and the bucket.
struct Sharded<K, V>([RwLock<FastMap<K, V>>; SHARD_COUNT]);

impl<K: Hash + Eq, V: Clone> Sharded<K, V> {
    fn new() -> Self {
        Sharded(std::array::from_fn(|_| RwLock::default()))
    }

    fn shard(&self, key: &K) -> &RwLock<FastMap<K, V>> {
        let hash = BuildHasherDefault::<SplitMix64Hasher>::default().hash_one(key);
        &self.0[(hash % SHARD_COUNT as u64) as usize]
    }

    /// A poisoned shard only means another worker panicked *between* map
    /// operations; entries are only ever inserted whole, so the map is
    /// intact.
    fn read(shard: &RwLock<FastMap<K, V>>) -> RwLockReadGuard<'_, FastMap<K, V>> {
        shard.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self, key: &K) -> RwLockWriteGuard<'_, FastMap<K, V>> {
        self.shard(key).write().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, key: &K) -> Option<V> {
        Self::read(self.shard(key)).get(key).cloned()
    }

    /// Stores `value` unless another worker got there first; returns what
    /// the map holds either way.
    fn insert_first(&self, key: K, value: V) -> V {
        self.write(&key).entry(key).or_insert(value).clone()
    }

    /// Applies `f` to every entry, shard by shard (in hash order).
    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.0 {
            Self::read(shard).iter().for_each(|(k, v)| f(k, v));
        }
    }
}

/// What the τ memo knows about one subset.
#[derive(Clone)]
enum Entry {
    /// `τ` alone, counted over join trees — no tuple was built.
    Counted(u64),
    /// The materialized relation; `τ` is its length.
    Built(Arc<Relation>),
}

impl Entry {
    fn tau(&self) -> u64 {
        match self {
            Entry::Counted(tau) => *tau,
            Entry::Built(rel) => rel.tau(),
        }
    }
}

/// A join tree of one connected, α-acyclic subset, rooted at its lowest
/// member (where [`JoinTree::build`] starts growing it). Built on the
/// subset's own sub-scheme: α-acyclicity is not hereditary, so a subset of
/// an acyclic scheme may still be cyclic.
struct Rooted {
    /// Node `k` is relation `members[k]`.
    members: Vec<usize>,
    /// Each node's children.
    children: Vec<Vec<usize>>,
    /// The relations in each node's subtree, the node included.
    below: Vec<RelSet>,
}

impl Rooted {
    fn new(scheme: &DbScheme, subset: RelSet) -> Option<Rooted> {
        let tree = JoinTree::build(&scheme.restrict(subset))?;
        let members: Vec<usize> = subset.iter().collect();
        let mut children = vec![Vec::new(); members.len()];
        let mut below: Vec<RelSet> = members.iter().map(|&m| RelSet::singleton(m)).collect();
        for &(child, parent) in tree.edges() {
            children[parent].push(child);
        }
        // Edges come in growth order (every parent before its children),
        // so the reverse order folds each subtree before its parent.
        for &(child, parent) in tree.edges().iter().rev() {
            below[parent] = below[parent].union(below[child]);
        }
        Some(Rooted {
            members,
            children,
            below,
        })
    }
}

/// Fills `key` with `row`'s values at `columns`.
fn project<'t>(key: &mut Vec<&'t Value>, row: &'t [Value], columns: &[usize]) {
    key.clear();
    key.extend(columns.iter().map(|&c| &row[c]));
}

/// Exact oracle: `τ(D′) = |⋈ D′|`, memoized per subset.
///
/// **Counted, not built, wherever a join tree exists.** When every
/// component of `D′` has a join tree of its own sub-scheme, `τ` is a
/// bottom-up weight pass over those trees — the counting half of
/// Yannakakis' algorithm. A row's weight is the product, over its tree
/// children, of the summed weights of the child rows that agree with it on
/// the attributes the two relations share; a component's `τ` is its
/// root's weight sum, and a disconnected subset's `τ` is the product of
/// its components'. No intermediate tuple is built: the work is linear in
/// the input, independent of the output, and saturates at `u64::MAX`.
/// Only the cyclic residue (some component without a join tree) is built:
/// it peels one member — the lowest whose removal keeps the rest
/// connected — and joins it to the rest's materialized relation.
///
/// **Reuse across subsets.** What a subtree `C` contributes to a parent
/// relation `p` is a *weight column* over `p`'s rows: for each row, the
/// number of tuples of `⋈C` agreeing with it on `attrs(C) ∩ p`. That is a
/// pure function of `(p, C)`, whichever tree asked, so columns are
/// memoized beside `τ`. Trees are rooted at their lowest member, which
/// keeps consecutive subsets' columns aligned: on a chain, interval
/// `[i..j]` adds only the column `(i, [i+1..j])`, built in one pass from
/// `(i+1, [i+2..j])`, which counting `[i+1..j]` left behind.
///
/// **Memo.** Each subset's entry is a count or, once someone asked for its
/// tuples ([`try_relation`](Self::try_relation), or the residue peeling
/// onto it), the relation — upgraded in place. A request for tuples
/// prices the subset first, so a subset with a join tree always enters
/// the memo counted, and a cyclic one built, whoever asks first. A miss
/// first secures the entries of the subset's peel chain (`D′` minus its
/// peel member, and so on down), so the memo holds exactly the subsets a
/// pure materializer would: `guard.charge_memo(1)` lands once per distinct
/// subset and `--max-memo-entries` trips at the same request.
///
/// **Outside the memo and tuple budgets.** The weight-column memo is not
/// charged to `--max-memo-entries` (it holds at most one column per tree
/// edge of each counted subset, each as long as a base relation), and a
/// counting pass charges no tuples to `--max-tuples`. Counting is stopped
/// only by the guard's deadline or cancellation.
///
/// Concurrency model: both memos are sharded behind `RwLock`s, so every
/// method takes `&self` and the oracle is `Sync`; one thread or a worker
/// pool drive the same memos and charge the same [`Guard`] (whose counters
/// are atomic). A miss may be computed by more than one worker at a time;
/// whoever wins the shard's write lock stores its result, the loser's
/// identical one is dropped. `τ` is a pure function of the database, so
/// the duplicate compute wastes a little work but never diverges, and
/// memo-entry budgets trip identically at any thread count.
pub struct ExactOracle<'a> {
    db: &'a Database,
    memo: Sharded<RelSet, Entry>,
    /// `(p, C)` ↦ the weight column of subtree `C` over relation `p`'s rows.
    columns: Sharded<(usize, RelSet), Arc<[u64]>>,
    guard: Guard,
    join_threads: usize,
    /// First budget/cancel/fault error observed; once set, fallible paths
    /// keep returning it and infallible paths saturate (`τ = u64::MAX`)
    /// instead of panicking. The guard's own sticky flag covers budget
    /// trips only — an injected fault never reaches it.
    tripped: OnceLock<MjoinError>,
}

impl<'a> ExactOracle<'a> {
    /// A memoizing exact oracle over `db`.
    pub fn new(db: &'a Database) -> Self {
        ExactOracle::with_guard(db, Guard::unlimited())
    }

    /// A memoizing exact oracle whose work (counting passes, joins and
    /// memo growth) is charged to `guard`.
    pub fn with_guard(db: &'a Database, guard: Guard) -> Self {
        ExactOracle {
            db,
            memo: Sharded::new(),
            columns: Sharded::new(),
            guard,
            join_threads: 1,
            tripped: OnceLock::new(),
        }
    }

    /// Use a partitioned parallel hash join with `n` threads wherever a
    /// relation is built (default 1 — the sequential kernel).
    pub fn with_join_threads(mut self, n: usize) -> Self {
        self.join_threads = n.max(1);
        self
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The guard charged by this oracle.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// The first budget/cancel/fault error the oracle hit, if any. While
    /// set, [`tau`](CardinalityOracle::tau) saturates to `u64::MAX`.
    pub fn tripped(&self) -> Option<&MjoinError> {
        self.tripped.get()
    }

    /// Swaps in a fresh guard and clears the trip state, keeping the memo.
    /// Degradation ladders use this to give each fallback stage its own
    /// slice of the budget without recomputing what earlier stages
    /// already paid for.
    pub fn rearm(&mut self, guard: Guard) {
        self.guard = guard;
        self.tripped = OnceLock::new();
    }

    /// The materialized relation `R_{D′}` (memoized), with all join output
    /// and memo growth charged to the oracle's guard. A counted entry is
    /// upgraded to its relation in place.
    ///
    /// Returns a shared handle to the memo entry — a memo hit clones the
    /// `Arc`, never the tuples.
    pub fn try_relation(&self, subset: RelSet) -> Result<Arc<Relation>, MjoinError> {
        self.sticky(|| self.relation(subset))
    }

    /// Runs one fallible request. Caller errors don't poison the oracle;
    /// resource/fault errors do (the same limit would trip again on the
    /// next call).
    fn sticky<T>(&self, run: impl FnOnce() -> Result<T, MjoinError>) -> Result<T, MjoinError> {
        if let Some(e) = self.tripped.get() {
            return Err(e.clone());
        }
        run().map_err(|e| {
            if !matches!(e, MjoinError::InvalidScheme(_)) {
                let _ = self.tripped.set(e.clone());
            }
            e
        })
    }

    /// The entry point of every τ and relation request: rejects the empty
    /// subset, fires the `cost::materialize` failpoint, and returns the
    /// lowest member.
    fn enter(&self, subset: RelSet) -> Result<usize, MjoinError> {
        let Some(lowest) = subset.first() else {
            return Err(MjoinError::InvalidScheme(
                "τ is defined for nonempty subsets".into(),
            ));
        };
        failpoints::hit("cost::materialize")?;
        Ok(lowest)
    }

    /// `(D′ − x, x)` for the peel member `x` of a subset of ≥ 2 members.
    fn peel(&self, subset: RelSet) -> Result<(RelSet, usize), MjoinError> {
        let peel = peel_member(self.db.scheme(), subset)
            .ok_or_else(|| MjoinError::Internal("nonempty subset with no member".into()))?;
        Ok((subset.difference(RelSet::singleton(peel)), peel))
    }

    /// The memo entry of `subset`: counted when every component has a join
    /// tree, built otherwise. Which kind a subset gets depends on the subset
    /// alone, never on who asked first.
    fn entry(&self, subset: RelSet) -> Result<Entry, MjoinError> {
        let lowest = self.enter(subset)?;
        if let Some(entry) = self.memo.get(&subset) {
            obs::incr(obs::Counter::OracleMemoHits, 1);
            return Ok(entry);
        }
        // No lock is held across the recursion, the count or the join.
        let entry = if subset.is_singleton() {
            Entry::Counted(self.db.state(lowest).tau())
        } else {
            let (rest, peel) = self.peel(subset)?;
            match self.forest(subset) {
                Some(forest) => {
                    self.entry(rest)?;
                    Entry::Counted(self.count(&forest)?)
                }
                None => Entry::Built(Arc::new(self.join(&*self.relation(rest)?, peel)?)),
            }
        };
        self.memoize(subset, entry)
    }

    /// Prices `subset` first, so an acyclic subset enters the memo counted
    /// even when its first request asks for tuples; a counted entry is then
    /// built and upgraded in place.
    fn relation(&self, subset: RelSet) -> Result<Arc<Relation>, MjoinError> {
        if let Entry::Built(rel) = self.entry(subset)? {
            return Ok(rel);
        }
        let rel = match subset.first() {
            Some(only) if subset.is_singleton() => self.db.state(only).clone(),
            _ => {
                let (rest, peel) = self.peel(subset)?;
                self.join(&*self.relation(rest)?, peel)?
            }
        };
        self.upgrade(subset, Arc::new(rel))
    }

    fn join(&self, rest: &Relation, peel: usize) -> Result<Relation, MjoinError> {
        let other = self.db.state(peel);
        rest.natural_join_partitioned(other, self.join_threads, &self.guard)
    }

    /// One rooted join tree per component of `subset`, or `None` if some
    /// component is cyclic.
    fn forest(&self, subset: RelSet) -> Option<Vec<Rooted>> {
        let scheme = self.db.scheme();
        scheme
            .components(subset)
            .into_iter()
            .map(|component| Rooted::new(scheme, component))
            .collect()
    }

    /// `τ` from the components' join trees: each root's weight sum,
    /// multiplied across components.
    fn count(&self, forest: &[Rooted]) -> Result<u64, MjoinError> {
        let mut tau = 1u64;
        for tree in forest {
            let component = match self.weights(tree, 0)? {
                Some(weights) => weights.iter().fold(0u64, |sum, &w| sum.saturating_add(w)),
                None => self.db.state(tree.members[0]).tau(),
            };
            tau = tau.saturating_mul(component);
        }
        Ok(tau)
    }

    /// The weight of each row of `node`'s relation — how many tuples of
    /// `⋈ below(node)` extend it: the product of its children's columns.
    /// `None` for a leaf, whose rows all weigh 1.
    fn weights(&self, tree: &Rooted, node: usize) -> Result<Option<Vec<u64>>, MjoinError> {
        let mut weights: Option<Vec<u64>> = None;
        for &child in &tree.children[node] {
            let column = self.column(tree, node, child)?;
            self.guard.checkpoint()?;
            match weights.as_mut() {
                None => weights = Some(column.to_vec()),
                Some(w) => {
                    for (w, &c) in w.iter_mut().zip(column.iter()) {
                        *w = w.saturating_mul(c);
                    }
                }
            }
        }
        Ok(weights)
    }

    /// The weight column of `child`'s subtree `C` over `parent`'s rows
    /// (memoized by `(parent relation, C)`): the child's row weights summed
    /// per value of the attributes the two relations share — by the join
    /// tree's coherence, exactly `attrs(C) ∩ parent` — then looked up for
    /// each parent row.
    fn column(&self, tree: &Rooted, parent: usize, child: usize) -> Result<Arc<[u64]>, MjoinError> {
        let key = (tree.members[parent], tree.below[child]);
        if let Some(column) = self.columns.get(&key) {
            return Ok(column);
        }
        let weights = self.weights(tree, child)?;
        let (up, down) = (self.db.state(key.0), self.db.state(tree.members[child]));
        let shared = up.scheme().intersect(down.scheme());
        let columns_of =
            |r: &Relation| -> Vec<usize> { shared.iter().filter_map(|a| r.column_of(a)).collect() };
        let (up_cols, down_cols) = (columns_of(up), columns_of(down));
        let mut probe: Vec<&Value> = Vec::with_capacity(shared.len());
        let mut sums: FastMap<Vec<&Value>, u64> = FastMap::default();
        for (row, tuple) in down.rows().enumerate() {
            self.poll(row)?;
            let w = weights.as_ref().map_or(1, |w| w[row]);
            if w == 0 {
                continue;
            }
            project(&mut probe, tuple, &down_cols);
            match sums.get_mut(&probe) {
                Some(sum) => *sum = sum.saturating_add(w),
                None => {
                    sums.insert(probe.clone(), w);
                }
            }
        }
        let mut column = Vec::with_capacity(up.rows().len());
        for (row, tuple) in up.rows().enumerate() {
            self.poll(row)?;
            project(&mut probe, tuple, &up_cols);
            column.push(sums.get(&probe).copied().unwrap_or(0));
        }
        Ok(self.columns.insert_first(key, column.into()))
    }

    /// Polls the guard every [`POLL_ROWS`] rows of a counting loop, so
    /// deadlines and cancellation stop it.
    fn poll(&self, row: usize) -> Result<(), MjoinError> {
        if row.is_multiple_of(POLL_ROWS) {
            self.guard.checkpoint()?;
        }
        Ok(())
    }

    /// First writer wins: if another worker memoized `subset` while we were
    /// computing it, our copy is dropped and theirs returned. The memo
    /// charge and the subset counter land exactly once per distinct subset,
    /// so `oracle.subsets_counted + oracle.subsets_materialized` is the
    /// memo's length.
    fn memoize(&self, subset: RelSet, entry: Entry) -> Result<Entry, MjoinError> {
        let mut map = self.memo.write(&subset);
        if let Some(existing) = map.get(&subset) {
            obs::incr(obs::Counter::OracleDuplicateMaterializations, 1);
            return Ok(existing.clone());
        }
        let counter = match entry {
            Entry::Counted(_) => obs::Counter::OracleSubsetsCounted,
            Entry::Built(_) => obs::Counter::OracleSubsetsMaterialized,
        };
        obs::incr(counter, 1);
        self.guard.charge_memo(1)?;
        map.insert(subset, entry.clone());
        Ok(entry)
    }

    /// Replaces `subset`'s counted entry with its relation. The subset was
    /// charged and counted when it was first memoized, so an upgrade
    /// charges and counts nothing; a worker that finds the entry already
    /// upgraded drops its copy.
    fn upgrade(&self, subset: RelSet, rel: Arc<Relation>) -> Result<Arc<Relation>, MjoinError> {
        let mut map = self.memo.write(&subset);
        match map.get_mut(&subset) {
            Some(Entry::Built(existing)) => {
                obs::incr(obs::Counter::OracleDuplicateMaterializations, 1);
                Ok(existing.clone())
            }
            Some(slot) => {
                *slot = Entry::Built(rel.clone());
                Ok(rel)
            }
            None => Err(MjoinError::Internal(
                "a subset was built before it was priced".into(),
            )),
        }
    }

    /// Number of memoized subsets, counted or built.
    pub fn memo_len(&self) -> usize {
        let mut len = 0;
        self.memo.for_each(|_, _| len += 1);
        len
    }

    /// The cached cardinalities: `(subset bits, τ)` for every memoized
    /// subset, counted or built, in ascending subset order (the memo
    /// iterates in hash order, so this sorts for determinism). The cost
    /// property tests compare two oracles' memos through it. Subsets with
    /// members ≥ 64 do not fit the `u64` bits and are skipped.
    pub fn memo_taus(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        self.memo.for_each(|subset, entry| {
            if let Some(bits) = subset.to_u64() {
                out.push((bits, entry.tau()));
            }
        });
        out.sort_unstable();
        out
    }
}

impl CardinalityOracle for ExactOracle<'_> {
    fn scheme(&self) -> &DbScheme {
        self.db.scheme()
    }

    /// Exact `τ`. On a tripped (budget-exhausted) oracle this saturates to
    /// `u64::MAX` — "unaffordably large" — so legacy callers degrade
    /// instead of panicking; check [`tripped`](ExactOracle::tripped) or use
    /// [`try_tau`](CardinalityOracle::try_tau) to observe the error.
    fn tau(&self, subset: RelSet) -> u64 {
        match self.try_tau(subset) {
            Ok(tau) => tau,
            Err(MjoinError::InvalidScheme(msg)) => panic!("{msg}"),
            Err(_) => u64::MAX,
        }
    }

    fn try_tau(&self, subset: RelSet) -> Result<u64, MjoinError> {
        self.sticky(|| Ok(self.entry(subset)?.tau()))
    }
}

/// Closed-form cardinality model: uniformity + independence + containment.
///
/// Each attribute `A` has a domain size `d_A`; relation `i` has base
/// cardinality `nᵢ`. The estimated size of `⋈_{i ∈ S} Rᵢ` is the textbook
/// System-R formula
///
/// ```text
/// τ(S) = (Π_{i∈S} nᵢ) / (Π_{A} d_A^(c_A − 1))    where c_A = |{i ∈ S : A ∈ Rᵢ}|
/// ```
///
/// clamped to at least 1 (the theorems assume `R_D ≠ φ`). The model is used
/// **only** for large-scale sweeps where exact evaluation is impossible;
/// the paper itself criticizes these assumptions (Section 1), and our
/// experiments keep the theorem checking on the exact oracle.
#[derive(Clone, Debug)]
pub struct SyntheticOracle {
    scheme: DbScheme,
    /// `ln nᵢ` per relation. The model works entirely in log space, so
    /// only the logarithms are stored — precomputed, because the DP asks
    /// for τ once per connected subset (tens of thousands of calls per
    /// optimization on dense schemes) and the hot loop must be pure
    /// additions.
    ln_base: Vec<f64>,
    /// `ln d_A` per overridden attribute; attributes absent from the map
    /// get `ln_default_domain`.
    ln_domains: FastMap<usize, f64>,
    ln_default_domain: f64,
    /// `ln sel_i` per relation — the folded filter selectivity (≤ 0; 0
    /// means no filter). Entering every subset estimate as one precomputed
    /// addition keeps the hot loop pure additions, and because `estimate`
    /// multiplies base cardinalities before applying domain divisors, a
    /// folded selectivity scales every subset the relation takes part in —
    /// exactly the System-R "filtered cardinality" semantics.
    ln_selectivity: Vec<f64>,
    /// Relations whose *state* is genuinely empty. Any subset touching one
    /// joins to `φ`, so the estimate short-circuits to 0 there instead of
    /// reporting the model's ≥ 1 floor.
    empty: RelSet,
}

impl SyntheticOracle {
    /// Builds a model with per-relation base cardinalities and a default
    /// attribute domain size.
    ///
    /// # Panics
    /// Panics if `base.len() != scheme.len()`, any base cardinality is 0, or
    /// `default_domain == 0` — use [`try_new`](Self::try_new) to get a
    /// typed error instead.
    pub fn new(scheme: DbScheme, base: Vec<u64>, default_domain: u64) -> Self {
        Self::try_new(scheme, base, default_domain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) with typed validation errors instead of panics.
    pub fn try_new(
        scheme: DbScheme,
        base: Vec<u64>,
        default_domain: u64,
    ) -> Result<Self, MjoinError> {
        if scheme.len() != base.len() {
            return Err(MjoinError::InvalidScheme(format!(
                "one cardinality per relation: got {} for {} relations",
                base.len(),
                scheme.len()
            )));
        }
        if !base.iter().all(|&b| b > 0) {
            return Err(MjoinError::InvalidScheme(
                "base cardinalities must be ≥ 1".into(),
            ));
        }
        if default_domain == 0 {
            return Err(MjoinError::InvalidScheme("domains must be ≥ 1".into()));
        }
        let n = base.len();
        Ok(SyntheticOracle {
            scheme,
            ln_base: base.iter().map(|&b| (b as f64).ln()).collect(),
            ln_domains: FastMap::default(),
            ln_default_domain: (default_domain as f64).ln(),
            ln_selectivity: vec![0.0; n],
            empty: RelSet::empty(),
        })
    }

    /// Overrides the domain size of one attribute.
    ///
    /// # Panics
    /// Panics if `size == 0` — use [`try_set_domain`](Self::try_set_domain)
    /// to get a typed error instead.
    pub fn set_domain(&mut self, attr_index: usize, size: u64) {
        self.try_set_domain(attr_index, size)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`set_domain`](Self::set_domain) with a typed validation error
    /// instead of a panic, matching the rest of the builder API.
    pub fn try_set_domain(&mut self, attr_index: usize, size: u64) -> Result<(), MjoinError> {
        if size == 0 {
            return Err(MjoinError::InvalidScheme("domains must be ≥ 1".into()));
        }
        self.ln_domains.insert(attr_index, (size as f64).ln());
        Ok(())
    }

    /// Folds a filter selectivity into one relation's base cardinality:
    /// every subset containing the relation is estimated as if the
    /// relation held `nᵢ · selectivity` tuples. This is how the query
    /// front end makes pushed-down selections visible to a statistics-only
    /// model — DPccp, greedy and the robust ladder then cost *filtered*
    /// cardinalities instead of base ones.
    ///
    /// Folding is multiplicative: calling this twice for the same relation
    /// compounds the selectivities. A selectivity of exactly 0 records the
    /// relation as empty (any subset touching it estimates 0).
    pub fn try_set_selectivity(
        &mut self,
        relation: usize,
        selectivity: f64,
    ) -> Result<(), MjoinError> {
        if relation >= self.scheme.len() {
            return Err(MjoinError::InvalidScheme(format!(
                "selectivity for relation {relation} of {}",
                self.scheme.len()
            )));
        }
        if !selectivity.is_finite() || !(0.0..=1.0).contains(&selectivity) {
            return Err(MjoinError::InvalidScheme(format!(
                "filter selectivity must lie in [0, 1], got {selectivity}"
            )));
        }
        if selectivity == 0.0 {
            self.empty.insert(relation);
        } else {
            self.ln_selectivity[relation] += selectivity.ln();
        }
        Ok(())
    }

    /// The folded filter selectivity of one relation (1.0 when no filter
    /// has been folded).
    pub fn selectivity(&self, relation: usize) -> f64 {
        self.ln_selectivity
            .get(relation)
            .map_or(1.0, |&ln| ln.exp())
    }

    /// The relations recorded as genuinely empty (state `φ`); subsets
    /// touching any of them estimate to exactly 0.
    pub fn empty_relations(&self) -> RelSet {
        self.empty
    }

    /// Builds the model from **catalog statistics** of an actual database:
    /// base cardinalities are the true relation sizes, and each
    /// attribute's domain is its observed number of distinct values
    /// (across all relations containing it) — the estimator a System-R
    /// style optimizer would run from its statistics tables.
    ///
    /// Genuinely empty relations are recorded as such: any subset touching
    /// one estimates to exactly 0 (its true τ — `φ ⋈ R = φ`), while the
    /// model keeps base cardinality 1 internally so the closed form stays
    /// total for the remaining, nonempty subsets.
    pub fn from_database(db: &crate::database::Database) -> SyntheticOracle {
        let scheme = db.scheme().clone();
        let base: Vec<u64> = db.states().iter().map(|r| r.tau().max(1)).collect();
        let mut empty = RelSet::empty();
        for (i, r) in db.states().iter().enumerate() {
            if r.is_empty() {
                empty.insert(i);
            }
        }
        let mut oracle = SyntheticOracle::new(scheme.clone(), base, 1);
        oracle.empty = empty;
        // Distinct values per attribute, unioned across relations.
        let all_attrs = scheme.attrs_of(scheme.full_set());
        for a in all_attrs.iter() {
            let mut values: Vec<mjoin_relation::Value> = Vec::new();
            for (i, r) in db.states().iter().enumerate() {
                if scheme.scheme(i).contains(a) {
                    // A state whose columns disagree with the scheme is a
                    // caller bug; skip it rather than abort the estimator.
                    let Some(col) = r.column_of(a) else { continue };
                    values.extend(r.column_values(col));
                }
            }
            values.sort();
            values.dedup();
            oracle.set_domain(a.index(), (values.len() as u64).max(1));
        }
        oracle
    }

    fn ln_domain(&self, attr_index: usize) -> f64 {
        *self
            .ln_domains
            .get(&attr_index)
            .unwrap_or(&self.ln_default_domain)
    }

    /// The closed-form estimate. The model is pure, so several threads
    /// can consult one instance concurrently.
    pub fn estimate(&self, subset: RelSet) -> u64 {
        assert!(!subset.is_empty(), "τ is defined for nonempty subsets");
        // An empty member empties every join it takes part in; the true τ
        // is 0, so don't let the model's ≥ 1 floor overestimate it.
        if !subset.is_disjoint(self.empty) {
            return 0;
        }
        // Work in log space to avoid overflow, then clamp. Accumulation
        // order is fixed (ascending relation index, then ascending
        // attribute index) so estimates are bit-for-bit reproducible —
        // a HashMap iteration here once made τ differ by ±1 between calls
        // for the same subset. All logarithms are precomputed, and the
        // per-attribute occurrence counts live in a stack array indexed by
        // attribute (bounded by `MAX_ATTRS`) — this runs once per
        // connected subset of every DP, so no allocation is allowed here.
        let mut log_size = 0.0f64;
        for i in subset.iter() {
            log_size += self.ln_base[i] + self.ln_selectivity[i];
        }
        let mut counts = [0u16; MAX_ATTRS];
        for i in subset.iter() {
            for a in self.scheme.scheme(i).iter() {
                counts[a.index()] += 1;
            }
        }
        for a in self.scheme.attrs_of(subset).iter() {
            let c = counts[a.index()];
            if c > 1 {
                log_size -= (c - 1) as f64 * self.ln_domain(a.index());
            }
        }
        if log_size <= 0.0 {
            1
        } else if log_size >= (u64::MAX as f64).ln() {
            u64::MAX
        } else {
            (log_size.exp().round() as u64).max(1)
        }
    }
}

impl CardinalityOracle for SyntheticOracle {
    fn scheme(&self) -> &DbScheme {
        &self.scheme
    }

    fn tau(&self, subset: RelSet) -> u64 {
        self.estimate(subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_guard::Budget;
    use mjoin_relation::Catalog;

    fn star_db(n: i64) -> Database {
        let hub: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i, i]).collect();
        let spoke = |off: i64| (0..n).map(|i| vec![i, off + i]).collect::<Vec<_>>();
        Database::from_specs(&[
            ("ABC", hub),
            ("AX", spoke(100)),
            ("BY", spoke(200)),
            ("CZ", spoke(300)),
        ])
        .unwrap()
    }

    #[test]
    fn peel_member_keeps_the_rest_connected() {
        let db = star_db(4);
        let scheme = db.scheme();
        // Peeling the hub (relation 0) would disconnect the spokes; the
        // first safe peel is the lowest spoke.
        assert_eq!(peel_member(scheme, scheme.full_set()), Some(1));
        // A hub–spoke pair: removing the hub leaves a singleton, which is
        // connected, so the lowest member is still the peel.
        assert_eq!(peel_member(scheme, RelSet::from_indices([0, 1])), Some(0));
        // Spokes alone are pairwise unlinked — no peel keeps the rest
        // connected, so the rule falls back to the lowest member.
        assert_eq!(
            peel_member(scheme, RelSet::from_indices([1, 2, 3])),
            Some(1)
        );
    }

    #[test]
    fn star_materialization_stays_product_free() {
        // Regression: materialization used to peel the lowest member
        // unconditionally, so a star subset {hub} ∪ spokes materialized
        // the spokes' Cartesian product (Π|spokeᵢ| = n³ tuples here)
        // before the hub ever joined in. The connectivity-aware peel
        // builds ~3n join tuples instead — well under a budget the old
        // order blows through. (τ alone is counted without a tuple; asking
        // for the relation is what still peels.)
        let n = 20;
        let db = star_db(n);
        let full = db.scheme().full_set();
        let guard = Guard::new(Budget::unlimited().with_max_tuples(1000));
        let o = ExactOracle::with_guard(&db, guard.clone());
        assert_eq!(o.try_tau(full).unwrap(), n as u64);
        assert_eq!(guard.tuples_used(), 0);
        assert_eq!(o.try_relation(full).unwrap().tau(), n as u64);
        assert!(guard.tuples_used() > 0);
    }

    fn chain_db() -> Database {
        Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5]]),
            ("CD", vec![vec![5, 0], vec![5, 1]]),
        ])
        .unwrap()
    }

    #[test]
    fn exact_oracle_matches_direct_evaluation() {
        let db = chain_db();
        let o = ExactOracle::new(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            assert_eq!(
                o.tau(subset),
                db.evaluate_subset(subset).tau(),
                "{subset:?}"
            );
        }
    }

    #[test]
    fn acyclic_subsets_are_counted_and_only_the_cyclic_residue_is_built() {
        use mjoin_obs::{Counter, Recorder};
        // {AB, BC, CA, ABC} has a join tree (ABC covers the triangle); its
        // triangle {AB, BC, CA} has none — α-acyclicity is not hereditary.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 1], vec![1, 2], vec![2, 2]]),
            ("BC", vec![vec![1, 1], vec![2, 1], vec![2, 2]]),
            ("CA", vec![vec![1, 1], vec![2, 2], vec![1, 2]]),
            ("ABC", vec![vec![1, 1, 1], vec![1, 2, 1], vec![2, 2, 2]]),
        ])
        .unwrap();
        let (full, triangle) = (db.scheme().full_set(), RelSet::from_indices([0, 1, 2]));
        let truth = [
            db.evaluate_subset(full).tau(),
            db.evaluate_subset(triangle).tau(),
        ];
        let rec = Recorder::arm();
        let o = ExactOracle::new(&db);
        // The full set and its peel chain are counted: no kernel runs.
        assert_eq!(o.try_tau(full).unwrap(), truth[0]);
        o.try_tau(RelSet::from_indices([1, 2])).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::KernelJoins), 0);
        assert_eq!(snap.counter(Counter::OracleSubsetsMaterialized), 0);
        // The triangle is the residue: built on its counted peel rest,
        // which is upgraded in place (no new memo entry, no new count).
        let len = o.memo_len();
        assert_eq!(o.try_tau(triangle).unwrap(), truth[1]);
        assert_eq!(o.memo_len(), len + 1);
        let snap = rec.snapshot();
        assert!(snap.counter(Counter::KernelJoins) > 0);
        assert_eq!(snap.counter(Counter::OracleSubsetsMaterialized), 1);
        // Asking for the tuples of a fresh acyclic subset still counts it
        // first: its kind never depends on the kind of request.
        let pair = RelSet::from_indices([0, 3]);
        assert_eq!(
            o.try_relation(pair).unwrap().tau(),
            db.evaluate_subset(pair).tau()
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::OracleSubsetsMaterialized), 1);
        assert_eq!(
            snap.counter(Counter::OracleSubsetsCounted) + 1,
            o.memo_len() as u64,
            "each entry is counted once"
        );
        assert_eq!(
            o.memo_taus().len(),
            o.memo_len(),
            "memo_taus sees every entry"
        );
    }

    #[test]
    fn exact_oracle_memoizes() {
        let db = chain_db();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let t1 = o.tau(full);
        let before = o.memo_len();
        let t2 = o.tau(full);
        assert_eq!(t1, t2);
        assert_eq!(o.memo_len(), before);
        assert!(before >= 3);
        assert_eq!(t1, db.evaluate_subset(full).tau());
    }

    #[test]
    fn exact_and_noisy_oracles_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ExactOracle<'static>>();
        assert_sync::<crate::NoisyOracle<ExactOracle<'static>>>();
    }

    #[test]
    fn concurrent_taus_agree_and_charge_each_subset_once() {
        let db = chain_db();
        let full = db.scheme().full_set();
        let subsets: Vec<RelSet> = full.subsets().filter(|s| !s.is_empty()).collect();
        let expected: Vec<u64> = subsets
            .iter()
            .map(|&s| db.evaluate_subset(s).tau())
            .collect();
        // A memo cap of exactly one entry per subset: racing workers may
        // compute a subset twice, but a second charge would trip it.
        let guard = Guard::new(Budget::unlimited().with_max_memo_entries(subsets.len() as u64));
        let o = ExactOracle::with_guard(&db, guard.clone());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        subsets
                            .iter()
                            .map(|&s| o.try_tau(s).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
        assert_eq!(o.memo_len(), subsets.len());
        assert_eq!(guard.memo_used(), subsets.len() as u64);
    }

    #[test]
    fn memo_budget_trips_and_the_oracle_stays_tripped() {
        let db = chain_db();
        let guard = Guard::new(Budget::unlimited().with_max_memo_entries(2));
        let o = ExactOracle::with_guard(&db, guard);
        let full = db.scheme().full_set();
        let err = o.try_tau(full).unwrap_err();
        assert!(matches!(err, MjoinError::BudgetExceeded { .. }), "{err}");
        // Sticky: memo hits fail too, and the infallible surface saturates.
        assert_eq!(o.try_tau(RelSet::singleton(0)).unwrap_err(), err);
        assert_eq!(o.tau(full), u64::MAX);
        assert_eq!(o.tripped(), Some(&err));
    }

    #[test]
    fn memo_hits_share_one_materialization() {
        // Regression: memo hits used to clone the full `Relation` (O(|R|)
        // per τ lookup). They must now hand back the same `Arc` allocation.
        let db = chain_db();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let r1 = o.try_relation(full).unwrap();
        let len = o.memo_len();
        let r2 = o.try_relation(full).unwrap();
        assert!(
            Arc::ptr_eq(&r1, &r2),
            "memo hit must return the memoized allocation, not a tuple copy"
        );
        assert_eq!(o.memo_len(), len);
        // Repeated τ lookups touch neither the memo nor the tuples.
        for _ in 0..8 {
            o.tau(full);
        }
        assert_eq!(o.memo_len(), len);
        let r3 = o.try_relation(full).unwrap();
        assert!(Arc::ptr_eq(&r1, &r3));
    }

    #[test]
    fn tau_join_equals_tau_of_union() {
        let db = chain_db();
        let o = ExactOracle::new(&db);
        let d1 = RelSet::singleton(0);
        let d2 = RelSet::from_indices([1, 2]);
        assert_eq!(o.tau_join(d1, d2), o.tau(RelSet::full(3)));
    }

    #[test]
    fn result_is_empty_detection() {
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10]]),
            ("BC", vec![vec![99, 5]]), // B values don't match
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        assert!(o.result_is_empty());

        let db2 = chain_db();
        let o2 = ExactOracle::new(&db2);
        assert!(!o2.result_is_empty());
    }

    #[test]
    fn synthetic_oracle_base_cases() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "DE"]).unwrap();
        let o = SyntheticOracle::new(scheme, vec![100, 50, 10], 20);
        assert_eq!(o.tau(RelSet::singleton(0)), 100);
        // AB ⋈ BC share B (domain 20): 100·50/20 = 250.
        assert_eq!(o.tau(RelSet::from_indices([0, 1])), 250);
        // AB ⋈ DE disjoint: Cartesian 100·10 = 1000.
        assert_eq!(o.tau(RelSet::from_indices([0, 2])), 1000);
    }

    #[test]
    fn synthetic_oracle_domain_override() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let b_index = cat.lookup("B").unwrap().index();
        let mut o = SyntheticOracle::new(scheme, vec![100, 100], 10);
        assert_eq!(o.tau(RelSet::full(2)), 1000);
        o.set_domain(b_index, 100);
        assert_eq!(o.tau(RelSet::full(2)), 100);
    }

    #[test]
    fn synthetic_oracle_folds_filter_selectivities() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "DE"]).unwrap();
        let mut o = SyntheticOracle::new(scheme, vec![100, 50, 10], 20);
        o.try_set_selectivity(0, 0.1).unwrap();
        // AB is now effectively 10 tuples: singleton and join shrink alike.
        assert_eq!(o.tau(RelSet::singleton(0)), 10);
        assert_eq!(o.tau(RelSet::from_indices([0, 1])), 25);
        assert!((o.selectivity(0) - 0.1).abs() < 1e-12);
        assert!((o.selectivity(1) - 1.0).abs() < 1e-12);
        // Folding compounds multiplicatively.
        o.try_set_selectivity(0, 0.5).unwrap();
        assert_eq!(o.tau(RelSet::singleton(0)), 5);
        // Selectivity 0 marks the relation empty: touching subsets → 0.
        o.try_set_selectivity(1, 0.0).unwrap();
        assert_eq!(o.tau(RelSet::from_indices([0, 1])), 0);
        assert_eq!(o.tau(RelSet::singleton(2)), 10);
        // Out-of-range inputs are typed errors, never NaN poisoning.
        assert!(o.try_set_selectivity(9, 0.5).is_err());
        assert!(o.try_set_selectivity(2, -0.1).is_err());
        assert!(o.try_set_selectivity(2, 1.5).is_err());
        assert!(o.try_set_selectivity(2, f64::NAN).is_err());
    }

    #[test]
    fn synthetic_oracle_clamps_to_one() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "AB", "AB"]).unwrap();
        // Tiny relations over huge shared domains: estimate collapses to 1.
        let o = SyntheticOracle::new(scheme, vec![2, 2, 2], 1_000_000);
        assert_eq!(o.tau(RelSet::full(3)), 1);
    }

    #[test]
    fn from_database_reads_catalog_statistics() {
        let db = chain_db();
        let est = SyntheticOracle::from_database(&db);
        // Base cardinalities are exact.
        for i in 0..db.len() {
            assert_eq!(est.tau(RelSet::singleton(i)), db.state(i).tau());
        }
        // AB ⋈ BC: A has 3 distinct, B has 2 (10, 20), C has 1 (5):
        // estimate = 3·2/2 = 3; exact = 3 (each A row matches via B).
        let exact = ExactOracle::new(&db);
        let pair = RelSet::from_indices([0, 1]);
        assert_eq!(est.tau(pair), exact.tau(pair));
    }

    #[test]
    fn from_database_handles_empty_relations() {
        // Regression: the estimator used to floor empty relations at base
        // cardinality 1, so subsets containing a genuinely empty relation
        // were estimated ≥ 1 while their true τ is 0. Emptiness is now
        // recorded per relation and short-circuits the estimate.
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let states = vec![
            mjoin_relation::Relation::empty(scheme.scheme(0)),
            mjoin_relation::Relation::from_int_rows(scheme.scheme(1), vec![vec![1, 2]]).unwrap(),
        ];
        let db = Database::new(cat, scheme, states);
        let est = SyntheticOracle::from_database(&db);
        assert_eq!(est.empty_relations(), RelSet::singleton(0));
        assert_eq!(est.tau(RelSet::singleton(0)), 0, "empty state estimates 0");
        assert_eq!(est.tau(RelSet::full(2)), 0, "φ ⋈ R = φ");
        assert_eq!(
            est.tau(RelSet::singleton(1)),
            1,
            "nonempty keeps the ≥ 1 floor"
        );
        assert!(est.result_is_empty());
    }

    #[test]
    fn from_database_empty_estimates_match_the_exact_oracle() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        let states = vec![
            mjoin_relation::Relation::from_int_rows(scheme.scheme(0), vec![vec![1, 2]]).unwrap(),
            mjoin_relation::Relation::empty(scheme.scheme(1)),
            mjoin_relation::Relation::from_int_rows(scheme.scheme(2), vec![vec![3, 4]]).unwrap(),
        ];
        let db = Database::new(cat, scheme, states);
        let est = SyntheticOracle::from_database(&db);
        let exact = ExactOracle::new(&db);
        for subset in db.scheme().full_set().subsets() {
            if subset.is_empty() {
                continue;
            }
            let (e, x) = (est.tau(subset), exact.tau(subset));
            assert_eq!(
                e == 0,
                x == 0,
                "{subset:?}: emptiness must agree (est {e}, exact {x})"
            );
        }
    }

    #[test]
    fn try_set_domain_rejects_zero_with_a_typed_error() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let mut o = SyntheticOracle::new(scheme, vec![10, 10], 10);
        let b_index = cat.lookup("B").unwrap().index();
        let err = o.try_set_domain(b_index, 0).unwrap_err();
        assert!(matches!(err, MjoinError::InvalidScheme(_)), "{err:?}");
        o.try_set_domain(b_index, 5).unwrap();
        assert_eq!(o.tau(RelSet::full(2)), 10 * 10 / 5);
    }

    #[test]
    fn synthetic_oracle_saturates() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "CD", "EF", "GH"]).unwrap();
        let o = SyntheticOracle::new(scheme, vec![u64::MAX / 2; 4], 2);
        assert_eq!(o.tau(RelSet::full(4)), u64::MAX);
    }
}
