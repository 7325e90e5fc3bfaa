//! Generator tests: the request lists are what every committed number
//! rests on, so their determinism and their bounds are pinned here.

use mjoin_benchmark::gen::{
    wide_stats_db, Generator, Request, Workload, DEFAULT_SEED, EXEC_JOIN_BOUND, EXEC_MAX_TUPLES,
    HOT_POOL, PASS_LEN, STATS_DOMAIN,
};

/// The daemon's default `--max-request-bytes`.
const REQUEST_CAP: usize = 1 << 20;

/// Warm-up plus first pass: the fixed list τ sums, counters and the layer
/// trace are taken over. (`hot_repeat`'s 2 000-draw pass is cut to its
/// first 200 to keep the test quick; they are draws from the same pool.)
fn fixed_list(workload: Workload, seed: u64) -> Vec<Request> {
    let generator = Generator::new(workload, seed);
    let len = workload.warmup() + workload.pass_len().min(200);
    (0..len as u64).map(|i| generator.request(i)).collect()
}

fn fnv1a(lines: &[Request]) -> u64 {
    lines
        .iter()
        .flat_map(|r| r.line.bytes().chain(std::iter::once(b'\n')))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn same_seed_same_bytes_and_the_default_lists_are_pinned() {
    // Changing a generator changes every number ever taken with it: if one
    // of these moves, re-bless the τ files and re-measure the baseline.
    let pinned = [
        ("star_exact", 11640268490264957263u64),
        ("wide_stats", 7955961296446326602),
        ("exec_skew", 11357811650035598857),
        ("ladder_deadline", 9304158017590121112),
        ("hot_repeat", 3754501041756840617),
    ];
    let measured: Vec<(&str, u64)> = Workload::ALL
        .into_iter()
        .map(|workload| {
            let (a, b) = (
                fixed_list(workload, DEFAULT_SEED),
                fixed_list(workload, DEFAULT_SEED),
            );
            assert_eq!(
                fnv1a(&a),
                fnv1a(&b),
                "{} is not deterministic",
                workload.name()
            );
            (workload.name(), fnv1a(&a))
        })
        .collect();
    assert_eq!(measured, pinned, "the default-seed request lists changed");
}

#[test]
fn another_seed_gives_other_data_in_the_same_shapes() {
    for workload in Workload::ALL {
        let (a, b) = (
            fixed_list(workload, DEFAULT_SEED),
            fixed_list(workload, 1993),
        );
        assert_ne!(fnv1a(&a), fnv1a(&b), "{}", workload.name());
        let shapes = |list: &[Request]| list.iter().map(|r| r.shape.clone()).collect::<Vec<_>>();
        assert_eq!(
            shapes(&a),
            shapes(&b),
            "{}: shapes must not depend on the seed",
            workload.name()
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.tables,
                y.tables,
                "{}: table names are part of the shape",
                workload.name()
            );
        }
    }
}

#[test]
fn every_request_is_well_formed_and_under_the_request_cap() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            for r in fixed_list(workload, seed) {
                assert!(
                    r.line.len() < REQUEST_CAP,
                    "{} #{}: {} bytes",
                    workload.name(),
                    r.index,
                    r.line.len()
                );
                assert!(!r.line.contains('\n'), "a request is one line");
                assert!(r.line.starts_with(&format!(
                    "{{\"id\":{},\"op\":\"{}\"",
                    r.index,
                    workload.op()
                )));
                let mut names = r.tables.clone();
                names.sort();
                names.dedup();
                assert_eq!(
                    names.len(),
                    r.tables.len(),
                    "{} #{}: ambiguous table name",
                    workload.name(),
                    r.index
                );
                for name in &r.tables {
                    let keyword = ["select", "from", "where", "and"]
                        .iter()
                        .any(|k| name.eq_ignore_ascii_case(k));
                    assert!(
                        !keyword,
                        "{} #{}: table {name:?} is a DSL keyword",
                        workload.name(),
                        r.index
                    );
                }
            }
        }
    }
}

#[test]
fn every_pass_visits_every_shape_once() {
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| *w != Workload::HotRepeat)
    {
        let generator = Generator::new(workload, DEFAULT_SEED);
        let pass = |p: u64| -> Vec<String> {
            let start = workload.warmup() as u64 + p * PASS_LEN as u64;
            let mut shapes: Vec<String> = (start..start + PASS_LEN as u64)
                .map(|i| generator.request(i).shape)
                .collect();
            shapes.sort();
            shapes
        };
        assert_eq!(pass(0), pass(1), "{}", workload.name());
    }
}

#[test]
fn hot_repeat_fills_the_cache_then_only_hits_it() {
    let generator = Generator::new(Workload::HotRepeat, DEFAULT_SEED);
    let mut drawn = [0u32; HOT_POOL];
    for i in 0..(HOT_POOL as u64 + 4000) {
        let r = generator.request(i);
        let slot = r
            .pool_slot
            .expect("every hot_repeat request repeats a pool entry");
        if (i as usize) < HOT_POOL {
            assert_eq!(slot, i as usize, "the cold pass walks the pool in order");
            assert!(!r.expect_cached);
        } else {
            assert!(r.expect_cached);
            drawn[slot] += 1;
            // Same bytes as the cold request, but for the id.
            let cold = generator.request(slot as u64);
            assert_eq!(
                r.line.split_once(',').map(|x| x.1),
                cold.line.split_once(',').map(|x| x.1)
            );
        }
    }
    assert!(
        drawn[0] > drawn[3] && drawn[3] > drawn[40],
        "draws are Zipf-skewed: {drawn:?}"
    );
}

/// The statistics-only model's estimate of a subset, in log space: Σ ln
/// card − Σ over attributes (occurrences − 1) · ln domain.
fn ln_estimate(db: &mjoin_benchmark::db::Db, subset: u32) -> f64 {
    let members = || (0..db.rels.len()).filter(move |i| subset & (1 << i) != 0);
    let mut ln = 0.0;
    let mut seen: Vec<(&str, u32)> = Vec::new();
    for i in members() {
        ln += (db.rels[i].card.expect("declared") as f64).ln();
        for a in &db.rels[i].attrs {
            match seen.iter_mut().find(|(n, _)| n == a) {
                Some((_, count)) => *count += 1,
                None => seen.push((a, 1)),
            }
        }
    }
    ln - seen.iter().map(|(_, c)| f64::from(c - 1)).sum::<f64>() * (STATS_DOMAIN as f64).ln()
}

#[test]
fn no_declared_statistic_saturates_an_estimate() {
    // A plan's cost sums fewer than 20 estimates; keep each below 2⁵⁸ and
    // the sum cannot reach u64::MAX either.
    let limit = 58.0 * std::f64::consts::LN_2;
    for seed in [DEFAULT_SEED, 1993] {
        for index in 0..(10 + PASS_LEN) as u64 {
            let (db, space) = wide_stats_db(seed, index);
            let n = db.rels.len();
            let adjacent: Vec<u32> = (0..n)
                .map(|i| {
                    (0..n)
                        .filter(|&j| j != i && !db.shared(i, j).is_empty())
                        .fold(0, |m, j| m | 1 << j)
                })
                .collect();
            let connected = |mask: u32| {
                let mut seen = 1u32 << mask.trailing_zeros();
                loop {
                    let grown = (0..n)
                        .filter(|i| seen & (1 << i) != 0)
                        .fold(seen, |s, i| s | (adjacent[i] & mask));
                    if grown == seen {
                        return seen == mask;
                    }
                    seen = grown;
                }
            };
            for mask in 1u32..(1 << n) {
                // `nocp` only ever estimates connected subsets.
                if space == "all" || connected(mask) {
                    let ln = ln_estimate(&db, mask);
                    assert!(
                        ln < limit,
                        "seed {seed} #{index} ({space}): subset {mask:#b} estimates e^{ln:.1}"
                    );
                }
            }
        }
    }
}

#[test]
fn exec_skew_stays_inside_its_bounds() {
    for seed in [DEFAULT_SEED, 1993] {
        for r in fixed_list(Workload::ExecSkew, seed) {
            let result = u128::from(
                r.expect_result_tuples
                    .expect("execute requests predict their result"),
            );
            assert!(result <= EXEC_JOIN_BOUND, "#{}: {result} tuples", r.index);
            // A plan over n relations materializes n − 1 intermediates,
            // each bounded like the result: nowhere near `max_tuples`.
            assert!(r.tables.len() as u128 * EXEC_JOIN_BOUND < u128::from(EXEC_MAX_TUPLES));
        }
    }
}
