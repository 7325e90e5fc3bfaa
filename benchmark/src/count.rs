//! A *counting* evaluator for natural joins: how many tuples a join has,
//! without materializing one of them and without any `mjoin*` code. It is
//! the benchmark's independent check on `execute` responses, and what the
//! generator uses to keep every intermediate of `exec_skew` bounded.
//!
//! Two join-graph shapes are supported, which is all the generators emit:
//! trees (chains, stars, sub-paths of a cycle), counted by a bottom-up
//! weight DP over the tree, and simple cycles of binary relations
//! (triangles, 4-cycles), counted by hash-matching the two half-paths.

use std::collections::HashMap;

use crate::db::{Db, Rel};

/// Packs up to two join-column values into one hash key.
fn key(row: &[u32], cols: &[usize]) -> u64 {
    match cols {
        [a] => u64::from(row[*a]),
        [a, b] => (u64::from(row[*a]) << 32) | u64::from(row[*b]),
        _ => panic!(
            "generators join on one or two attributes, got {}",
            cols.len()
        ),
    }
}

/// Columns of the attributes `a` and `b` share, in `a`'s and in `b`'s layout.
fn link(a: &Rel, b: &Rel) -> (Vec<usize>, Vec<usize>) {
    a.attrs
        .iter()
        .enumerate()
        .filter_map(|(ca, name)| b.column(name).map(|cb| (ca, cb)))
        .unzip()
}

/// `|⋈ subset|`: the number of tuples in the natural join of the relations
/// `subset` (indices into `db.rels`, which must induce a connected join
/// graph that is a tree or a simple cycle of binary relations).
///
/// Saturates at `u128::MAX` instead of overflowing.
pub fn count_join(db: &Db, subset: &[usize]) -> u128 {
    assert!(!subset.is_empty(), "a join needs at least one relation");
    let adjacent: Vec<Vec<usize>> = subset
        .iter()
        .map(|&i| {
            subset
                .iter()
                .copied()
                .filter(|&j| j != i && !db.shared(i, j).is_empty())
                .collect()
        })
        .collect();
    let edges = adjacent.iter().map(Vec::len).sum::<usize>() / 2;
    if edges + 1 == subset.len() {
        count_tree(db, subset, &adjacent)
    } else if edges == subset.len() && adjacent.iter().all(|a| a.len() == 2) {
        count_cycle(db, subset, &adjacent)
    } else {
        panic!("join graph of {subset:?} is neither a tree nor a simple cycle");
    }
}

/// Tree DP: a row's weight is the product, over the children of its
/// relation, of the summed weights of the child rows it joins with; the
/// join's size is the summed weight of the root's rows.
fn count_tree(db: &Db, subset: &[usize], adjacent: &[Vec<usize>]) -> u128 {
    let pos = |rel: usize| subset.iter().position(|&r| r == rel).expect("member");
    // Breadth-first order from the first member; a tree has one path to each.
    let mut order = vec![(subset[0], None)];
    let mut next = 0;
    while next < order.len() {
        let (node, parent) = order[next];
        next += 1;
        for &n in &adjacent[pos(node)] {
            if Some(n) != parent {
                order.push((n, Some(node)));
            }
        }
    }
    assert_eq!(
        order.len(),
        subset.len(),
        "join graph of {subset:?} is unconnected"
    );

    // For a finished non-root node: the summed row weights per join key
    // with its parent.
    let mut sums: HashMap<usize, HashMap<u64, u128>> = HashMap::new();
    let mut total = 0u128;
    for &(node, parent) in order.iter().rev() {
        let rel = &db.rels[node];
        let children: Vec<(Vec<usize>, HashMap<u64, u128>)> = adjacent[pos(node)]
            .iter()
            .filter(|&&c| Some(c) != parent)
            .map(|&c| {
                (
                    link(rel, &db.rels[c]).0,
                    sums.remove(&c).expect("child done"),
                )
            })
            .collect();
        // Keyed in the parent's attribute order, as the parent looks it up.
        let up_cols = parent.map(|p| link(&db.rels[p], rel).1);
        let mut up: HashMap<u64, u128> = HashMap::new();
        for row in &rel.rows {
            let mut weight = 1u128;
            for (cols, child) in &children {
                weight = weight.saturating_mul(child.get(&key(row, cols)).copied().unwrap_or(0));
                if weight == 0 {
                    break;
                }
            }
            if weight == 0 {
                continue;
            }
            match &up_cols {
                Some(cols) => {
                    let slot = up.entry(key(row, cols)).or_insert(0);
                    *slot = slot.saturating_add(weight);
                }
                None => total = total.saturating_add(weight),
            }
        }
        sums.insert(node, up);
    }
    total
}

/// Counts the paths through the binary relations `path` (consecutive ones
/// join on their one shared attribute), keyed by the value they start with
/// in `start_col` of the first relation and end with in `end_col` of the
/// last.
fn path_counts(
    db: &Db,
    path: &[usize],
    start_col: usize,
    end_col: usize,
) -> HashMap<(u32, u32), u128> {
    let first = &db.rels[path[0]];
    let other = |rel: &Rel, col: usize| {
        assert_eq!(rel.attrs.len(), 2, "cycle members must be binary relations");
        1 - col
    };
    // Column of path[i] that joins path[i + 1], and the reverse.
    let hops: Vec<(usize, usize)> = path
        .windows(2)
        .map(|w| {
            let (a, b) = link(&db.rels[w[0]], &db.rels[w[1]]);
            assert_eq!(a.len(), 1, "cycle members join on one attribute");
            (a[0], b[0])
        })
        .collect();
    let first_out = hops.first().map_or(end_col, |h| h.0);
    assert_eq!(other(first, first_out), start_col);
    let mut paths: HashMap<(u32, u32), u128> = HashMap::new();
    for row in &first.rows {
        *paths.entry((row[start_col], row[first_out])).or_insert(0) += 1;
    }
    for (i, &(_, into)) in hops.iter().enumerate() {
        let rel = &db.rels[path[i + 1]];
        let out = other(rel, into);
        let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in &rel.rows {
            index.entry(row[into]).or_default().push(row[out]);
        }
        let mut extended: HashMap<(u32, u32), u128> = HashMap::new();
        for ((start, end), n) in paths {
            for &v in index.get(&end).map_or(&[][..], Vec::as_slice) {
                let slot = extended.entry((start, v)).or_insert(0);
                *slot = slot.saturating_add(n);
            }
        }
        paths = extended;
    }
    paths
}

/// A simple cycle r₀ – r₁ – … – r₍ₖ₋₁₎ – r₀ of binary relations: count the
/// paths x₀ → x_h through the first half and x_h → x₀ through the second,
/// then match them up.
fn count_cycle(db: &Db, subset: &[usize], adjacent: &[Vec<usize>]) -> u128 {
    let pos = |rel: usize| subset.iter().position(|&r| r == rel).expect("member");
    let mut ring = vec![subset[0], adjacent[0][0]];
    while ring.len() < subset.len() {
        let (prev, cur) = (ring[ring.len() - 2], ring[ring.len() - 1]);
        let next = adjacent[pos(cur)].iter().copied().find(|&n| n != prev);
        ring.push(next.expect("every cycle member has two neighbours"));
    }
    let half = ring.len().div_ceil(2);
    let (left, right) = ring.split_at(half);
    // x₀ is what the first and last ring members share; x_h what the two
    // halves share.
    let (x0_first, x0_last) = link(&db.rels[ring[0]], &db.rels[ring[ring.len() - 1]]);
    let (xh_left, xh_right) = link(&db.rels[left[half - 1]], &db.rels[right[0]]);
    let forward = path_counts(db, left, x0_first[0], xh_left[0]);
    let back = path_counts(db, right, xh_right[0], x0_last[0]);
    forward.iter().fold(0u128, |acc, (&(x0, xh), &n)| {
        acc.saturating_add(n.saturating_mul(back.get(&(xh, x0)).copied().unwrap_or(0)))
    })
}

/// Every nonempty subset of `0..db.rels.len()` whose join graph is
/// connected — the intermediates a product-free plan can materialize.
/// Exponential; meant for the ≤ 8-relation `exec_skew` inputs.
pub fn connected_subsets(db: &Db) -> Vec<Vec<usize>> {
    let n = db.rels.len();
    assert!(n <= 16, "subset enumeration is for small queries");
    let neighbours: Vec<u32> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && !db.shared(i, j).is_empty())
                .fold(0u32, |m, j| m | (1 << j))
        })
        .collect();
    (1u32..(1 << n))
        .filter(|&mask| {
            let mut seen = 1u32 << mask.trailing_zeros();
            loop {
                let grown = (0..n)
                    .filter(|&i| seen & (1 << i) != 0)
                    .fold(seen, |s, i| s | (neighbours[i] & mask));
                if grown == seen {
                    break seen == mask;
                }
                seen = grown;
            }
        })
        .map(|mask| (0..n).filter(|&i| mask & (1 << i) != 0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::letters;

    /// Brute force: extend partial assignments relation by relation.
    fn brute(db: &Db, subset: &[usize]) -> u128 {
        let mut partial: Vec<HashMap<String, u32>> = vec![HashMap::new()];
        for &i in subset {
            let rel = &db.rels[i];
            let mut next = Vec::new();
            for p in &partial {
                for row in &rel.rows {
                    if rel
                        .attrs
                        .iter()
                        .zip(row)
                        .all(|(a, v)| p.get(a).is_none_or(|x| x == v))
                    {
                        let mut q = p.clone();
                        q.extend(rel.attrs.iter().cloned().zip(row.iter().copied()));
                        next.push(q);
                    }
                }
            }
            partial = next;
        }
        partial.len() as u128
    }

    /// The paper's Example 4: games–students, students–courses,
    /// courses–lecturers, with every name mapped to a small integer.
    fn example4() -> Db {
        // G: Hockey 0, Tennis 1. S: Mokhtar 0, Lin 1, Katina 2, Sundram 3.
        // C: Lang22 0, Lit104 1, Phy101 2, Hist103 3, Psch123 4.
        // L: Fermi 0, Chomsky 1.
        let gs = vec![vec![0, 0], vec![1, 0], vec![1, 1]];
        let sc = vec![
            vec![0, 0],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![1, 3],
            vec![1, 4],
            vec![2, 0],
            vec![2, 1],
            vec![2, 2],
            vec![3, 2],
            vec![3, 0],
            vec![3, 3],
        ];
        let cl = vec![vec![2, 0], vec![0, 1]];
        Db {
            rels: vec![
                Rel::new(letters("GS"), gs),
                Rel::new(letters("SC"), sc),
                Rel::new(letters("CL"), cl),
            ],
            domains: vec![],
        }
    }

    #[test]
    fn example4_of_the_paper_has_five_tuples() {
        let db = example4();
        assert_eq!(count_join(&db, &[0, 1, 2]), 5);
        // The intermediates the CLI reports for it (stage 1: {SC, CL} = 7).
        assert_eq!(count_join(&db, &[1, 2]), 7);
        assert_eq!(count_join(&db, &[0, 1]), 9);
        assert_eq!(count_join(&db, &[1]), 12);
    }

    fn random_rel(rng: &mut crate::rng::Rng, attrs: &str, rows: usize, domain: u64) -> Rel {
        let width = attrs.len();
        let rows = (0..rows)
            .map(|_| (0..width).map(|_| rng.below(domain) as u32).collect())
            .collect();
        Rel::new(letters(attrs), rows)
    }

    #[test]
    fn trees_and_cycles_agree_with_brute_force() {
        let mut rng = crate::rng::Rng::new(42);
        let shapes: [&[&str]; 6] = [
            &["AB", "BC", "CD", "DE"],       // chain
            &["ABC", "AX", "BY", "CZ"],      // star
            &["AB", "BC", "AC"],             // triangle
            &["AB", "BC", "CD", "AD"],       // 4-cycle
            &["AB", "BC", "CD", "DE", "AE"], // 5-cycle
            &["ABX", "AC", "BXD", "DE"],     // tree with a two-attribute link
        ];
        for shape in shapes {
            for _ in 0..5 {
                let db = Db {
                    rels: shape
                        .iter()
                        .map(|s| random_rel(&mut rng, s, 14, 4))
                        .collect(),
                    domains: vec![],
                };
                for subset in connected_subsets(&db) {
                    assert_eq!(
                        count_join(&db, &subset),
                        brute(&db, &subset),
                        "shape {shape:?} subset {subset:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn connected_subsets_of_a_chain_are_its_intervals() {
        let db = Db {
            rels: ["AB", "BC", "CD", "DE"]
                .iter()
                .map(|s| Rel::new(letters(s), vec![]))
                .collect(),
            domains: vec![],
        };
        assert_eq!(connected_subsets(&db).len(), 4 + 3 + 2 + 1);
    }
}
