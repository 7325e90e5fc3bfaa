//! Join-enumeration complexity — the measurement of the paper's
//! reference \[14\] (Ono & Lohman, VLDB 1990).
//!
//! How much work does each DP style perform on a given join graph? The
//! classic quantities:
//!
//! * `#csg` — connected subgraphs (the DP's table entries);
//! * `#ccp` — connected-subgraph/connected-complement pairs (the joins a
//!   *perfect* enumerator would consider; DPccp's work);
//! * DPsub work — `Σ_{csg S} 2^{|S|}` sub-mask probes;
//! * DPsize work — `Σ_k Σ_{a+b=k} #csg_a · #csg_b` pair probes.
//!
//! Ono & Lohman's closed forms for chains, stars and cliques are pinned by
//! the tests; the experiment table regenerates their comparison across
//! topologies.

use mjoin_hypergraph::{DbScheme, RelSet};

/// Work counters for the product-free join-ordering DPs on one join graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Connected subgraphs (nonempty connected subsets) — DP table size.
    pub csg: u64,
    /// Valid csg–cmp pairs, counted once per unordered pair — the
    /// inherent number of joins to consider.
    pub ccp: u64,
    /// Sub-mask probes a DPsub-style enumerator performs:
    /// `Σ_{connected S, |S|≥2} (2^{|S|} − 2)` (proper nonempty submasks;
    /// the canonical-side halving is a constant factor kept out, matching
    /// Ono & Lohman's counting).
    pub dpsub_probes: u64,
    /// Pair probes a DPsize-style enumerator performs:
    /// `Σ_{k} Σ_{a+b=k} #csg_a · #csg_b` over unordered size pairs.
    pub dpsize_probes: u64,
}

/// Computes the counters for `subset` of `scheme` by explicit enumeration.
pub fn enumeration_stats(scheme: &DbScheme, subset: RelSet) -> EnumerationStats {
    let connected = scheme.connected_subsets(subset);
    let csg = connected.len() as u64;

    // Group by size for the DPsize count.
    let n = subset.len();
    let mut by_size = vec![0u64; n + 1];
    for s in &connected {
        by_size[s.len()] += 1;
    }
    let mut dpsize_probes = 0u64;
    for k in 2..=n {
        for a in 1..=k / 2 {
            let b = k - a;
            dpsize_probes += if a == b {
                by_size[a] * (by_size[a] + 1) / 2
            } else {
                by_size[a] * by_size[b]
            };
        }
    }

    let mut dpsub_probes = 0u64;
    let mut ccp = 0u64;
    for &s in &connected {
        if s.len() < 2 {
            continue;
        }
        dpsub_probes += (1u64 << s.len()) - 2;
        // Count unordered partitions of s into two connected linked halves.
        for (s1, s2) in s.proper_splits() {
            if scheme.connected(s1) && scheme.connected(s2) && scheme.linked(s1, s2) {
                ccp += 1;
            }
        }
    }
    EnumerationStats {
        csg,
        ccp,
        dpsub_probes,
        dpsize_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_gen::schemes;

    fn stats_for(scheme: &DbScheme) -> EnumerationStats {
        enumeration_stats(scheme, scheme.full_set())
    }

    #[test]
    fn chain_closed_forms() {
        // Ono & Lohman: chains have #csg = n(n+1)/2 and
        // #ccp = (n³ − n)/6.
        for n in 2..=10usize {
            let (_, d) = schemes::chain(n);
            let s = stats_for(&d);
            assert_eq!(s.csg, (n * (n + 1) / 2) as u64, "csg n={n}");
            assert_eq!(s.ccp, ((n * n * n - n) / 6) as u64, "ccp n={n}");
        }
    }

    #[test]
    fn star_closed_forms() {
        // Stars (hub + n−1 spokes): #csg = 2^{n−1} + n − 1,
        // #ccp = (n − 1) · 2^{n−2}.
        for n in 2..=10usize {
            let (_, d) = schemes::star(n);
            let s = stats_for(&d);
            assert_eq!(s.csg, (1u64 << (n - 1)) + n as u64 - 1, "csg n={n}");
            assert_eq!(s.ccp, (n as u64 - 1) * (1u64 << (n - 2)), "ccp n={n}");
        }
    }

    #[test]
    fn clique_closed_forms() {
        // Cliques: every nonempty subset is connected: #csg = 2ⁿ − 1;
        // every partition is valid: #ccp = (3ⁿ − 2^{n+1} + 1)/2.
        for n in 2..=8usize {
            let (_, d) = schemes::clique(n);
            let s = stats_for(&d);
            assert_eq!(s.csg, (1u64 << n) - 1, "csg n={n}");
            let three_n = 3u64.pow(n as u32);
            assert_eq!(
                s.ccp,
                (three_n - (1u64 << (n + 1))).div_ceil(2),
                "ccp n={n}"
            );
        }
    }

    #[test]
    fn ccp_never_exceeds_dp_work() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        for n in 2..=8 {
            for (_, d) in [
                schemes::chain(n),
                schemes::star(n),
                schemes::random_tree(n, &mut rng),
                schemes::cycle(n.max(2)),
            ] {
                let s = stats_for(&d);
                assert!(s.ccp <= s.dpsub_probes, "{d:?}");
                assert!(s.ccp <= s.dpsize_probes * 2, "{d:?}");
                assert!(s.csg >= n as u64);
            }
        }
    }

    #[test]
    fn cycle_counts() {
        // Cycles: connected subsets are the full set plus all arcs:
        // #csg = n(n−1) + 1.
        for n in 3..=9usize {
            let (_, d) = schemes::cycle(n);
            let s = stats_for(&d);
            assert_eq!(s.csg, (n * (n - 1) + 1) as u64, "csg n={n}");
        }
    }
}
