//! IKKBZ: polynomial-time optimal product-free linear ordering for tree
//! queries.
//!
//! The paper's reference \[11\] — Ibaraki & Kameda, *On the optimal nesting
//! order for computing N-relational joins* — began the line of work that
//! Krishnamurthy, Boral & Zaniolo turned into the `O(n²)` IKKBZ algorithm.
//! When the join graph is a tree and the cost function has the *adjacent
//! sequence interchange* (ASI) property — which the paper's τ has under
//! the multiplicative [`SyntheticOracle`](mjoin_cost::SyntheticOracle)
//! model — IKKBZ finds the τ-cheapest product-free linear strategy without
//! the `2ⁿ` prefix DP.
//!
//! Implementation: for every choice of first relation, build the
//! precedence tree, solve it bottom-up by *rank*
//! (`rank(s) = (T(s) − 1) / C(s)`) with chain normalization, and keep the
//! cheapest order. The returned plan is costed with the caller's oracle,
//! so on non-ASI oracles (e.g. exact materialization) IKKBZ degrades
//! gracefully into a principled heuristic — the tests pin exactness on the
//! synthetic model and bounded behaviour elsewhere.

use mjoin_cost::CardinalityOracle;
use mjoin_guard::{failpoints, Guard, MjoinError};
use mjoin_hypergraph::RelSet;
use mjoin_obs::{incr, Counter};
use mjoin_strategy::Strategy;

use crate::plan::Plan;

/// One merged "module" of the IKKBZ chain: a run of relations that must
/// stay contiguous, with aggregated `T` (cardinality multiplier) and `C`
/// (cost) values.
#[derive(Clone, Debug)]
struct Module {
    rels: Vec<usize>,
    t: f64,
    c: f64,
}

impl Module {
    fn rank(&self) -> f64 {
        if self.c <= 0.0 {
            f64::NEG_INFINITY
        } else {
            (self.t - 1.0) / self.c
        }
    }

    fn combine(self, other: Module) -> Module {
        let mut rels = self.rels;
        rels.extend(other.rels);
        Module {
            rels,
            t: self.t * other.t,
            c: self.c + self.t * other.c,
        }
    }
}

/// Merges two rank-sorted chains into one (stable by ascending rank).
fn merge_chains(a: Vec<Module>, b: Vec<Module>) -> Vec<Module> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if x.rank() <= y.rank() {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => return out,
        }
    }
}

/// Solve the precedence tree rooted at `node`: returns the rank-sorted
/// chain of modules below (not including) the root relation.
fn solve(
    node: usize,
    parent: Option<usize>,
    adjacency: &[Vec<usize>],
    card: &[f64],
    sel: &[Vec<f64>],
) -> Vec<Module> {
    let mut chain: Vec<Module> = Vec::new();
    for &child in &adjacency[node] {
        if Some(child) == parent {
            continue;
        }
        let sub = solve(child, Some(node), adjacency, card, sel);
        let t = sel[node][child] * card[child];
        let mut module = Module {
            rels: vec![child],
            t,
            c: t,
        };
        // Normalization: absorb chain heads that must precede their
        // (higher-ranked) parent module.
        let mut rest = sub.into_iter().peekable();
        while let Some(head) = rest.peek() {
            if module.rank() > head.rank() {
                module = module.combine(rest.next().expect("peeked"));
            } else {
                break;
            }
        }
        let mut child_chain = vec![module];
        child_chain.extend(rest);
        chain = merge_chains(chain, child_chain);
    }
    chain
}

/// The full IKKBZ linearization rooted at `root`, over a tree `adjacency`
/// (local indices): the root followed by the rank-normalized module chain,
/// flattened to one relation order. This is the precedence-graph engine
/// shared by [`try_ikkbz`] (which left-deep-costs the order directly) and
/// the linearized DP (`try_lindp`, which searches all bushy plans whose
/// subtrees are contiguous in this order).
pub(crate) fn linearize(
    root: usize,
    adjacency: &[Vec<usize>],
    card: &[f64],
    sel: &[Vec<f64>],
) -> Vec<usize> {
    let chain = solve(root, None, adjacency, card, sel);
    let mut order = vec![root];
    for m in &chain {
        order.extend(m.rels.iter().copied());
    }
    order
}

/// IKKBZ over a tree join graph. Returns `None` when the join graph of
/// `subset` is not a tree (cyclic or unconnected) — callers fall back to
/// the DP planners.
pub fn ikkbz<O: CardinalityOracle>(oracle: &O, subset: RelSet) -> Option<Plan> {
    assert!(!subset.is_empty(), "cannot plan the empty database");
    try_ikkbz(oracle, subset, &Guard::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// [`ikkbz`] under a budget: the per-root precedence-tree solves are
/// checkpointed and model parameters come from the fallible oracle surface.
pub fn try_ikkbz<O: CardinalityOracle>(
    oracle: &O,
    subset: RelSet,
    guard: &Guard,
) -> Result<Option<Plan>, MjoinError> {
    failpoints::hit("optimizer::ikkbz")?;
    if subset.is_empty() {
        return Err(MjoinError::InvalidScheme(
            "cannot plan the empty database".into(),
        ));
    }
    if subset.is_singleton() {
        let Some(first) = subset.first() else {
            return Err(MjoinError::Internal("singleton with no member".into()));
        };
        return Ok(Some(Plan {
            strategy: Strategy::leaf(first),
            cost: 0,
        }));
    }
    let members: Vec<usize> = subset.iter().collect();
    let n = members.len();
    // Join-graph edges: linked relation pairs.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edge_count = 0usize;
    for (ia, &a) in members.iter().enumerate() {
        for (ib, &b) in members.iter().enumerate().skip(ia + 1) {
            if oracle
                .scheme()
                .linked(RelSet::singleton(a), RelSet::singleton(b))
            {
                adjacency[ia].push(ib);
                adjacency[ib].push(ia);
                edge_count += 1;
            }
        }
    }
    // A tree query graph has exactly n − 1 edges and is connected.
    if edge_count != n - 1 || !oracle.scheme().connected(subset) {
        return Ok(None);
    }

    // Model parameters: n_i and per-edge selectivities, derived from the
    // oracle (exact on multiplicative models).
    let mut card: Vec<f64> = Vec::with_capacity(n);
    for &i in &members {
        card.push(oracle.try_tau(RelSet::singleton(i))? as f64);
    }
    let mut sel = vec![vec![1.0f64; n]; n];
    for ia in 0..n {
        for &ib in adjacency[ia].clone().iter() {
            if ib > ia {
                let pair = oracle.try_tau_join(
                    RelSet::singleton(members[ia]),
                    RelSet::singleton(members[ib]),
                )? as f64;
                let s = pair / (card[ia] * card[ib]).max(1.0);
                sel[ia][ib] = s;
                sel[ib][ia] = s;
            }
        }
    }

    let mut best: Option<Plan> = None;
    for root in 0..n {
        guard.checkpoint()?;
        let order: Vec<usize> = linearize(root, &adjacency, &card, &sel)
            .into_iter()
            .map(|local| members[local])
            .collect();
        let strategy = Strategy::left_deep(&order);
        incr(Counter::IkkbzOrderings, 1);
        let cost = strategy.try_cost(oracle)?;
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Plan { strategy, cost });
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use mjoin_cost::{Database, ExactOracle, SyntheticOracle};
    use mjoin_gen::schemes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ikkbz_matches_linear_dp_on_synthetic_trees() {
        // On tree queries under the multiplicative model, IKKBZ is exact:
        // it must tie the exponential prefix DP.
        let mut rng = StdRng::seed_from_u64(31);
        for n in 2..=10usize {
            for _ in 0..10 {
                let (cat, scheme) = schemes::random_tree(n, &mut rng);
                let bases: Vec<u64> = (0..n).map(|_| rng.gen_range(10..5000)).collect();
                let mut oracle = SyntheticOracle::new(scheme.clone(), bases, 1);
                // Random selectivities via per-attribute domains.
                for i in 0..cat.len() {
                    let a = mjoin_relation::Attribute::from_index(i);
                    if cat.name(a).is_some() {
                        oracle.set_domain(i, rng.gen_range(2..500));
                    }
                }
                let full = scheme.full_set();
                let fast = ikkbz(&oracle, full).expect("tree join graph");
                let exact = dp::best_linear(&oracle, full, true);
                // The synthetic oracle rounds each subset's estimate to an
                // integer, so τ is multiplicative only up to rounding; two
                // model-equivalent orders can differ by a few units after
                // rounding. Allow that, and nothing more.
                let (a, b) = (fast.cost as f64, exact.cost as f64);
                assert!(
                    a >= b && a - b <= 2.0 + b * 1e-9,
                    "n={n}: ikkbz {a} vs dp {b}"
                );
                assert!(fast.strategy.is_linear());
                assert!(!fast.strategy.uses_cartesian(&scheme));
            }
        }
    }

    #[test]
    fn ikkbz_rejects_cyclic_join_graphs() {
        let (_, scheme) = schemes::cycle(4);
        let oracle = SyntheticOracle::new(scheme.clone(), vec![100; 4], 10);
        assert!(ikkbz(&oracle, scheme.full_set()).is_none());
    }

    #[test]
    fn ikkbz_rejects_unconnected_subsets() {
        let mut cat = mjoin_relation::Catalog::new();
        let scheme = mjoin_hypergraph::DbScheme::parse(&mut cat, &["AB", "CD"]).unwrap();
        let oracle = SyntheticOracle::new(scheme.clone(), vec![10, 10], 5);
        assert!(ikkbz(&oracle, scheme.full_set()).is_none());
    }

    #[test]
    fn ikkbz_is_a_sound_heuristic_on_exact_oracles() {
        // Exact data need not satisfy ASI; IKKBZ must still produce a
        // valid product-free linear plan, bounded below by the DP optimum.
        let db = Database::from_specs(&[
            ("AB", vec![vec![1, 10], vec![2, 20], vec![3, 20]]),
            ("BC", vec![vec![10, 5], vec![20, 5]]),
            ("CD", vec![vec![5, 0], vec![5, 1], vec![5, 2]]),
        ])
        .unwrap();
        let o = ExactOracle::new(&db);
        let full = db.scheme().full_set();
        let plan = ikkbz(&o, full).expect("chain join graph");
        assert!(plan.strategy.is_linear());
        assert!(!plan.strategy.uses_cartesian(db.scheme()));
        let opt = dp::best_linear(&o, full, true).cost;
        assert!(plan.cost >= opt);
        assert_eq!(plan.cost, plan.strategy.cost(&o));
    }

    #[test]
    fn ikkbz_singleton() {
        let (_, scheme) = schemes::chain(1);
        let oracle = SyntheticOracle::new(scheme.clone(), vec![7], 3);
        let plan = ikkbz(&oracle, scheme.full_set()).unwrap();
        assert_eq!(plan.cost, 0);
    }
}
