//! Relation-state generators targeting the paper's hypotheses.

use mjoin_cost::Database;
use mjoin_fd::{Fd, FdSet};
use mjoin_hypergraph::DbScheme;
use mjoin_relation::{Catalog, Relation, Value};
use rand::seq::SliceRandom;
use rand::Rng;

/// Shared knobs for the random-state generators.
#[derive(Clone, Copy, Debug)]
pub struct DataConfig {
    /// Tuples drawn per relation (before deduplication).
    pub tuples_per_relation: usize,
    /// Attribute values are drawn from `0..domain`.
    pub domain: i64,
    /// Plant one universal witness tuple so `R_D ≠ φ` — the standing
    /// assumption of Theorems 1–3.
    pub ensure_nonempty: bool,
}

impl Default for DataConfig {
    fn default() -> Self {
        DataConfig {
            tuples_per_relation: 8,
            domain: 6,
            ensure_nonempty: true,
        }
    }
}

/// Uniform random states: every attribute value independent uniform on
/// `0..domain`.
pub fn uniform<R: Rng>(
    catalog: Catalog,
    scheme: DbScheme,
    config: &DataConfig,
    rng: &mut R,
) -> Database {
    random_database(catalog, scheme, config, rng, |rng, domain| {
        rng.gen_range(0..domain)
    })
}

/// Skewed random states: values follow a power-law-ish distribution
/// (low values much more frequent), breaking the uniformity assumption the
/// paper criticizes.
pub fn skewed<R: Rng>(
    catalog: Catalog,
    scheme: DbScheme,
    config: &DataConfig,
    rng: &mut R,
) -> Database {
    random_database(catalog, scheme, config, rng, |rng, domain| {
        // Square a uniform draw: mass concentrates near 0.
        let u: f64 = rng.gen::<f64>();
        ((u * u) * domain as f64) as i64
    })
}

fn random_database<R: Rng, F: Fn(&mut R, i64) -> i64>(
    catalog: Catalog,
    scheme: DbScheme,
    config: &DataConfig,
    rng: &mut R,
    draw: F,
) -> Database {
    // Optional universal witness: one value per attribute.
    let witness: Vec<i64> = (0..mjoin_relation::MAX_ATTRS)
        .map(|_| draw(rng, config.domain))
        .collect();
    let states = (0..scheme.len())
        .map(|i| {
            let attrs: Vec<_> = scheme.scheme(i).iter().collect();
            let mut rows: Vec<Vec<i64>> = (0..config.tuples_per_relation)
                .map(|_| attrs.iter().map(|_| draw(rng, config.domain)).collect())
                .collect();
            if config.ensure_nonempty {
                rows.push(attrs.iter().map(|a| witness[a.index()]).collect());
            }
            Relation::from_int_rows(scheme.scheme(i), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    Database::new(catalog, scheme, states)
}

/// States in which **every shared attribute is a key of every relation
/// containing it** — hence every pairwise join is on a superkey, the
/// paper's Section-4 hypothesis for `C3`.
///
/// Construction: for each relation, each *link attribute* (an attribute
/// shared with some other relation) takes *distinct* values across the
/// relation's tuples, sampled from `0..domain`; private attributes are
/// uniform. The returned [`FdSet`] contains, for every relation and every
/// link attribute, the dependency `attr → scheme`, witnessing the
/// superkey-join property.
///
/// Requires `tuples_per_relation ≤ domain` (distinctness needs room).
pub fn superkey<R: Rng>(
    catalog: Catalog,
    scheme: DbScheme,
    config: &DataConfig,
    rng: &mut R,
) -> (Database, FdSet) {
    assert!(
        config.tuples_per_relation as i64 <= config.domain,
        "superkey generator needs domain ≥ tuples_per_relation"
    );
    let n = scheme.len();
    // Link attributes: appear in ≥ 2 relation schemes.
    let all = scheme.attrs_of(scheme.full_set());
    let link_attrs: Vec<_> = all
        .iter()
        .filter(|&a| (0..n).filter(|&i| scheme.scheme(i).contains(a)).count() >= 2)
        .collect();

    let mut fds = FdSet::new();
    for i in 0..n {
        for &a in &link_attrs {
            if scheme.scheme(i).contains(a) {
                fds.push(Fd::new(
                    mjoin_relation::AttrSet::singleton(a),
                    scheme.scheme(i),
                ));
            }
        }
    }

    let k = config.tuples_per_relation.max(1);
    let states = (0..n)
        .map(|i| {
            let attrs: Vec<_> = scheme.scheme(i).iter().collect();
            // One distinct-value column per link attribute; note every
            // relation uses the *same* top-of-domain values 0..k for link
            // attributes so joins are nonempty — distinctness per column is
            // what makes them keys.
            let mut columns: Vec<Vec<i64>> = Vec::with_capacity(attrs.len());
            for &a in &attrs {
                if link_attrs.contains(&a) {
                    let mut vals: Vec<i64> = (0..config.domain).collect();
                    vals.shuffle(rng);
                    vals.truncate(k);
                    // Put the value 0 in row 0 of every link column: row 0
                    // then forms a universal witness, so R_D ≠ φ, and the
                    // column stays injective.
                    match vals.iter().position(|&v| v == 0) {
                        Some(p) => vals.swap(0, p),
                        None => vals[0] = 0,
                    }
                    columns.push(vals);
                } else {
                    columns.push((0..k).map(|_| rng.gen_range(0..config.domain)).collect());
                }
            }
            let rows: Vec<Vec<i64>> = (0..k)
                .map(|t| columns.iter().map(|c| c[t]).collect())
                .collect();
            Relation::from_int_rows(scheme.scheme(i), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    (Database::new(catalog, scheme, states), fds)
}

/// A **foreign-key chain**: relation `i` spans `(aᵢ, aᵢ₊₁)` and its state
/// is a *function* `aᵢ ↦ aᵢ₊₁` (every `aᵢ` value appears once), so the FD
/// `aᵢ → aᵢ₊₁` holds in the data. Returns the database with the FD set
/// `{aᵢ → aᵢ₊₁}`.
///
/// Under these embedded FDs the chain scheme has *no nontrivial lossy
/// joins* (every contiguous subset chases to a full row), which is the
/// paper's Section-4 hypothesis implying `C2` — but, unlike the superkey
/// generator, joins here are on a key of only *one* side, so `C3` can
/// fail.
///
/// # Panics
/// Panics unless the scheme came from [`schemes::chain`]-style construction
/// (relation `i` = `{aᵢ, aᵢ₊₁}` with ascending attribute indices) — the
/// functional orientation relies on it.
///
/// [`schemes::chain`]: crate::schemes::chain
pub fn fk_chain<R: Rng>(
    catalog: Catalog,
    scheme: DbScheme,
    config: &DataConfig,
    rng: &mut R,
) -> (Database, FdSet) {
    let n = scheme.len();
    let mut fds = FdSet::new();
    for i in 0..n {
        let attrs: Vec<_> = scheme.scheme(i).iter().collect();
        assert_eq!(attrs.len(), 2, "fk_chain expects binary chain relations");
        fds.push(Fd::new(
            mjoin_relation::AttrSet::singleton(attrs[0]),
            mjoin_relation::AttrSet::singleton(attrs[1]),
        ));
    }
    let k = (config.tuples_per_relation as i64)
        .min(config.domain)
        .max(1) as usize;
    let states = (0..n)
        .map(|i| {
            // Distinct source values (so the source is a key), arbitrary
            // targets; source value 0 maps to target 0 to guarantee a
            // universal witness row.
            let mut sources: Vec<i64> = (0..config.domain).collect();
            sources.shuffle(rng);
            sources.truncate(k);
            match sources.iter().position(|&v| v == 0) {
                Some(p) => sources.swap(0, p),
                None => sources[0] = 0,
            }
            let rows: Vec<Vec<i64>> = sources
                .iter()
                .enumerate()
                .map(|(t, &s)| {
                    let target = if t == 0 {
                        0
                    } else {
                        rng.gen_range(0..config.domain)
                    };
                    vec![s, target]
                })
                .collect();
            Relation::from_int_rows(scheme.scheme(i), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    (Database::new(catalog, scheme, states), fds)
}

/// Projections of one **universal relation**: draw `universal_rows` tuples
/// over `⋃D` and project each onto its relation scheme. The result is
/// pairwise consistent by construction (all states are projections of the
/// same instance) — the Section-5 hypothesis feeding `C4` on acyclic
/// schemes.
pub fn universal<R: Rng>(
    catalog: Catalog,
    scheme: DbScheme,
    universal_rows: usize,
    domain: i64,
    rng: &mut R,
) -> Database {
    let all: Vec<_> = scheme.attrs_of(scheme.full_set()).iter().collect();
    let universe: Vec<Vec<i64>> = (0..universal_rows.max(1))
        .map(|_| all.iter().map(|_| rng.gen_range(0..domain)).collect())
        .collect();
    let value_of = |row: &Vec<i64>, a: mjoin_relation::Attribute| {
        row[all.binary_search(&a).expect("attr in universe")]
    };
    let states = (0..scheme.len())
        .map(|i| {
            let attrs: Vec<_> = scheme.scheme(i).iter().collect();
            let rows: Vec<Vec<i64>> = universe
                .iter()
                .map(|u| attrs.iter().map(|&a| value_of(u, a)).collect())
                .collect();
            Relation::from_int_rows(scheme.scheme(i), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    Database::new(catalog, scheme, states)
}

/// Example-1-style adversarial states: every relation has `fanout + 1`
/// tuples, `fanout` of which share one "hot" value on every link
/// attribute — so linked joins multiply (`fanout²` matches) while the
/// schemes still satisfy `C1`-style monotonicity in the small. This is
/// the shape that makes product-avoiding optimizers miss the optimum.
pub fn fanout<R: Rng>(catalog: Catalog, scheme: DbScheme, fanout: usize, rng: &mut R) -> Database {
    let n = scheme.len();
    let all = scheme.attrs_of(scheme.full_set());
    let link_attrs: Vec<_> = all
        .iter()
        .filter(|&a| (0..n).filter(|&i| scheme.scheme(i).contains(a)).count() >= 2)
        .collect();
    let states = (0..n)
        .map(|i| {
            let attrs: Vec<_> = scheme.scheme(i).iter().collect();
            // The per-tuple tag goes on a private (non-link) attribute so
            // every link attribute carries the hot value 0; relations whose
            // attributes are all shared fall back to tagging the first.
            let tag_col = attrs
                .iter()
                .position(|a| !link_attrs.contains(a))
                .unwrap_or(0);
            let mut rows: Vec<Vec<i64>> = (0..fanout)
                .map(|t| {
                    attrs
                        .iter()
                        .enumerate()
                        .map(|(k, _)| if k == tag_col { t as i64 + 1 } else { 0 })
                        .collect()
                })
                .collect();
            // One stray tuple with random values.
            rows.push(attrs.iter().map(|_| rng.gen_range(1..10)).collect());
            Relation::from_int_rows(scheme.scheme(i), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    Database::new(catalog, scheme, states)
}

/// An **exact zig-zag chain**: on a [`schemes::chain`]`(2k)` scheme, odd
/// attributes are *selective pair keys* (the two relations of a pair share
/// exactly one value, so the pair join has 1 tuple) while even attributes
/// are *hot bridges* (constant 0, so crossing a bridge multiplies sizes).
///
/// This is the data-level counterpart of the G1 sweep's synthetic zig-zag
/// model: a bushy plan collapses every pair first and never holds more
/// than one tuple per pair-result, while every linear plan re-expands to
/// `m` tuples at each odd prefix — the paper's GAMMA-motivated
/// linear-vs-bushy gap, with exact cardinalities.
///
/// # Panics
/// Panics unless the scheme is a chain of even length built by
/// [`schemes::chain`] (relation `j` = `{aⱼ, aⱼ₊₁}`).
///
/// [`schemes::chain`]: crate::schemes::chain
pub fn zigzag(catalog: Catalog, scheme: DbScheme, m: usize) -> Database {
    let n = scheme.len();
    assert!(
        n.is_multiple_of(2) && n >= 2,
        "zigzag needs an even-length chain"
    );
    assert!(m >= 1);
    let states = (0..n)
        .map(|j| {
            let attrs: Vec<_> = scheme.scheme(j).iter().collect();
            assert_eq!(attrs.len(), 2, "zigzag expects binary chain relations");
            // Column 0 carries attribute a_j, column 1 carries a_{j+1}.
            // Even relation j: (bridge = 0, pair key ∈ {0, 1, …, m−1}).
            // Odd relation j: (pair key ∈ {0, m+1, …, 2m−1}, bridge = 0) —
            // the two pair-key ranges overlap exactly at 0.
            let rows: Vec<Vec<i64>> = (0..m as i64)
                .map(|t| {
                    if j % 2 == 0 {
                        vec![0, t]
                    } else {
                        let key = if t == 0 { 0 } else { m as i64 + t };
                        vec![key, 0]
                    }
                })
                .collect();
            Relation::from_int_rows(scheme.scheme(j), rows)
                .expect("generated rows match the scheme arity")
        })
        .collect();
    Database::new(catalog, scheme, states)
}

/// Transcribes the paper's Example 1 exactly: `R₁ = AB`, `R₂ = BC`,
/// `R₃ = DE`, `R₄ = FG` with `τ(R₁) = τ(R₂) = 4`, `τ(R₁ ⋈ R₂) = 10`,
/// `τ(R₃) = τ(R₄) = 7`. (The paper gives `R₃`/`R₄` only by size; they
/// participate only in Cartesian products, so any 7-tuple states work.)
pub fn paper_example1() -> Database {
    // p,q,r,s ↦ 100..103; w,x,y,z ↦ 200..203.
    let r1 = vec![vec![100, 0], vec![101, 0], vec![102, 0], vec![103, 1]];
    let r2 = vec![vec![0, 200], vec![0, 201], vec![0, 202], vec![1, 203]];
    let seven: Vec<Vec<i64>> = (0..7).map(|i| vec![i, i]).collect();
    Database::from_specs(&[("AB", r1), ("BC", r2), ("DE", seven.clone()), ("FG", seven)])
        .expect("example 1 is well-formed")
}

/// Transcribes Example 2's second database: `R₁' = AB` (8 tuples, key-like
/// A), `R₂' = BC` (3 tuples), `R₃' = DE` (2 tuples) — satisfies `C2` but
/// not `C1`.
pub fn paper_example2() -> Database {
    // (1,x),(2,y),…,(8,y): x ↦ 50, y ↦ 51; (y,0),(u,0),(v,0): u ↦ 52, v ↦ 53.
    let r1 = vec![
        vec![1, 50],
        vec![2, 51],
        vec![3, 51],
        vec![4, 51],
        vec![5, 51],
        vec![6, 51],
        vec![7, 51],
        vec![8, 51],
    ];
    let r2 = vec![vec![51, 0], vec![52, 0], vec![53, 0]];
    let r3 = vec![vec![0, 0], vec![1, 1]];
    Database::from_specs(&[("AB", r1), ("BC", r2), ("DE", r3)]).expect("example 2 is well-formed")
}

/// Transcribes Example 3 (games/students/courses/laboratories): every
/// strategy's intermediate step produces exactly 4 tuples, so all three
/// strategies are τ-optimum — including the linear `(GS ⋈ CL) ⋈ SC`,
/// which uses a Cartesian product; `C1` holds but `C1'` fails.
///
/// The available scan of the paper garbles this table (7 students against
/// 8 courses); the row `Lin–Phy101` is reconstructed so that the paper's
/// stated invariants hold exactly: `τ(GS ⋈ SC) = τ(SC ⋈ CL) =
/// τ(GS × CL) = 4`.
pub fn paper_example3() -> Database {
    let s = Value::str;
    let gs = vec![vec![s("Hockey"), s("Mokhtar")], vec![s("Tennis"), s("Lin")]];
    let sc = vec![
        vec![s("Mokhtar"), s("Phy101")],
        vec![s("Mokhtar"), s("Lang22")],
        vec![s("Lin"), s("Phy101")],
        vec![s("Lin"), s("Lit101")],
        vec![s("Katina"), s("Hist103")],
        vec![s("Katina"), s("Psch123")],
        vec![s("Sundram"), s("Phy101")],
        vec![s("Sundram"), s("Hist103")],
    ];
    let cl = vec![
        vec![s("Phy101"), s("Fermi")],
        vec![s("Lang22"), s("Chomsky")],
    ];
    // Schemes: GS = {G, S}, SC = {S, C}, CL = {C, L}. Attribute order
    // within a spec string fixes column order: G<S, S<C? Attribute indices
    // come from interning order below; rows are given in ascending
    // attribute order per relation, handled by from_value_specs as long as
    // we list values in the interned order. We intern G, S first, then C,
    // then L, so ascending order within GS is (G,S); within SC is (S,C);
    // within CL is (C,L) — matching the row layout above.
    Database::from_value_specs(&[("GS", gs), ("SC", sc), ("CL", cl)])
        .expect("example 3 is well-formed")
}

/// Transcribes Example 4 (same scheme as Example 3, different state):
/// `τ(S₁)=14`, `τ(S₂)=12`, `τ(S₃)=11`; the τ-optimum `S₃` uses a
/// Cartesian product; `C2` holds but `C1` fails.
pub fn paper_example4() -> Database {
    let s = Value::str;
    let gs = vec![
        vec![s("Hockey"), s("Mokhtar")],
        vec![s("Tennis"), s("Mokhtar")],
        vec![s("Tennis"), s("Lin")],
    ];
    let sc = vec![
        vec![s("Mokhtar"), s("Lang22")],
        vec![s("Mokhtar"), s("Lit104")],
        vec![s("Mokhtar"), s("Phy101")],
        vec![s("Lin"), s("Phy101")],
        vec![s("Lin"), s("Hist103")],
        vec![s("Lin"), s("Psch123")],
        vec![s("Katina"), s("Lang22")],
        vec![s("Katina"), s("Lit104")],
        vec![s("Katina"), s("Phy101")],
        vec![s("Sundram"), s("Phy101")],
        vec![s("Sundram"), s("Lang22")],
        vec![s("Sundram"), s("Hist103")],
    ];
    let cl = vec![
        vec![s("Phy101"), s("Fermi")],
        vec![s("Lang22"), s("Chomsky")],
    ];
    Database::from_value_specs(&[("GS", gs), ("SC", sc), ("CL", cl)])
        .expect("example 4 is well-formed")
}

/// Transcribes Example 5 (majors/students/courses/instructors/departments):
/// the unique τ-optimum `(MS ⋈ SC) ⋈ (CI ⋈ ID)` is bushy; `C1` and `C2`
/// hold, `C3` fails (`τ(CI ⋈ ID) = 4 > 3 = τ(ID)`).
///
/// The available scan garbles the Student–Course table (five students, six
/// courses, one orphaned `Math200`). The reconstruction below pairs the
/// five students with courses such that every property the paper states
/// holds: `C2` forces Math200 to appear once in SC (its three CI
/// instructors already triple it), and Sundram's second course must be
/// outside CI (reconstructed as `Lit104`), keeping `τ(SC ⋈ CI) = 6 =
/// τ(CI)`.
pub fn paper_example5() -> Database {
    let s = Value::str;
    let ms = vec![
        vec![s("Math"), s("Mokhtar")],
        vec![s("Phy"), s("Lin")],
        vec![s("Phy"), s("Katina")],
    ];
    let sc = vec![
        vec![s("Mokhtar"), s("Phy311")],
        vec![s("Mokhtar"), s("Math200")],
        vec![s("Lin"), s("Math5")],
        vec![s("Sundram"), s("Lit104")],
        vec![s("Sundram"), s("Phy411")],
    ];
    let ci = vec![
        vec![s("Phy311"), s("Newton")],
        vec![s("Math200"), s("Newton")],
        vec![s("Math5"), s("Lorentz")],
        vec![s("Math200"), s("Lorentz")],
        vec![s("Phy411"), s("Einstein")],
        vec![s("Math200"), s("Einstein")],
    ];
    let id = vec![
        vec![s("Newton"), s("Phy")],
        vec![s("Lorentz"), s("Math")],
        vec![s("Turing"), s("Math")],
    ];
    Database::from_value_specs(&[("MS", ms), ("SC", sc), ("CI", ci), ("ID", id)])
        .expect("example 5 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes;
    use mjoin_fd::all_joins_on_superkeys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let (cat, d) = schemes::chain(4);
        let cfg = DataConfig {
            tuples_per_relation: 10,
            domain: 5,
            ensure_nonempty: true,
        };
        let db = uniform(cat, d, &cfg, &mut rng);
        assert_eq!(db.len(), 4);
        for i in 0..4 {
            assert!(db.state(i).tau() <= 11);
            assert!(db.state(i).tau() >= 1);
        }
        assert!(
            !db.evaluate().is_empty(),
            "witness tuple keeps R_D nonempty"
        );
    }

    #[test]
    fn skewed_draws_within_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let (cat, d) = schemes::star(4);
        let cfg = DataConfig::default();
        let db = skewed(cat, d, &cfg, &mut rng);
        for st in db.states() {
            for t in st.rows() {
                for v in t {
                    let x = v.as_int().unwrap();
                    assert!((0..=cfg.domain).contains(&x));
                }
            }
        }
    }

    #[test]
    fn superkey_generator_satisfies_superkey_joins() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in 2..6 {
            let (cat, d) = schemes::chain(n);
            let cfg = DataConfig {
                tuples_per_relation: 5,
                domain: 8,
                ensure_nonempty: false,
            };
            let (db, fds) = superkey(cat, d, &cfg, &mut rng);
            assert!(all_joins_on_superkeys(db.scheme(), &fds), "n={n}");
            // The data actually respects the declared FDs: link columns are
            // injective, so joining on them cannot grow either side.
            for i in 0..db.len() - 1 {
                let j = db.state(i).natural_join(db.state(i + 1));
                assert!(j.tau() <= db.state(i).tau().max(db.state(i + 1).tau()));
            }
            assert!(!db.evaluate().is_empty(), "hot value 0 keeps joins alive");
        }
    }

    #[test]
    fn fk_chain_generator_properties() {
        use mjoin_fd::no_nontrivial_lossy_joins;
        let mut rng = StdRng::seed_from_u64(17);
        for n in 2..6 {
            let (cat, d) = schemes::chain(n);
            let cfg = DataConfig {
                tuples_per_relation: 5,
                domain: 7,
                ensure_nonempty: true,
            };
            let (db, fds) = fk_chain(cat, d, &cfg, &mut rng);
            // The declared FDs hold in the data: sources are keys.
            for i in 0..n {
                let st = db.state(i);
                let sources = st.column_values(0);
                assert_eq!(sources.len() as u64, st.tau(), "source column is a key");
            }
            assert!(no_nontrivial_lossy_joins(db.scheme(), &fds), "n={n}");
            assert!(!db.evaluate().is_empty(), "witness row survives the chain");
        }
    }

    #[test]
    fn universal_generator_is_pairwise_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let (cat, d) = schemes::chain(4);
        let db = universal(cat, d, 12, 4, &mut rng);
        assert!(mjoin_semijoin::is_pairwise_consistent(&db));
        assert!(!db.evaluate().is_empty());
    }

    #[test]
    fn fanout_generator_explodes_linked_joins() {
        let mut rng = StdRng::seed_from_u64(5);
        let (cat, d) = schemes::chain(2);
        let db = fanout(cat, d, 5, &mut rng);
        // 5 hot tuples on each side ⇒ the join has ≥ 25 tuples…
        let j = db.state(0).natural_join(db.state(1));
        assert!(j.tau() >= 25);
        // …which exceeds the Cartesian-product bound heuristics assume safe
        // relative to relation sizes (6 × 6 = 36 ≥ 25 always holds, but
        // 25 > 6 shows the join grew past both inputs).
        assert!(j.tau() > db.state(0).tau());
    }

    #[test]
    fn example_databases_have_paper_cardinalities() {
        let e1 = paper_example1();
        assert_eq!(e1.state(0).tau(), 4);
        assert_eq!(e1.state(1).tau(), 4);
        assert_eq!(e1.state(2).tau(), 7);
        assert_eq!(e1.state(3).tau(), 7);
        assert_eq!(
            e1.state(0).natural_join(e1.state(1)).tau(),
            10,
            "τ(R1 ⋈ R2) = 10"
        );

        let e2 = paper_example2();
        assert_eq!(e2.state(0).tau(), 8);
        assert_eq!(e2.state(1).tau(), 3);
        assert_eq!(e2.state(2).tau(), 2);
        assert_eq!(
            e2.state(0).natural_join(e2.state(1)).tau(),
            7,
            "τ(R1' ⋈ R2') = 7"
        );

        let e3 = paper_example3();
        assert_eq!(e3.state(0).tau(), 2);
        assert_eq!(e3.state(1).tau(), 8);
        assert_eq!(e3.state(2).tau(), 2);

        let e4 = paper_example4();
        assert_eq!(e4.state(0).tau(), 3);
        assert_eq!(e4.state(1).tau(), 12);
        assert_eq!(e4.state(2).tau(), 2);

        let e5 = paper_example5();
        assert_eq!(e5.state(0).tau(), 3);
        assert_eq!(e5.state(1).tau(), 5);
        assert_eq!(e5.state(2).tau(), 6);
        assert_eq!(e5.state(3).tau(), 3);
    }

    #[test]
    fn determinism() {
        let cfg = DataConfig::default();
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (cat, d) = schemes::chain(3);
            uniform(cat, d, &cfg, &mut rng)
        };
        let a = mk(9);
        let b = mk(9);
        for i in 0..3 {
            assert_eq!(a.state(i), b.state(i));
        }
    }
}
