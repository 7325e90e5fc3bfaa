//! The plan-cache and store key is a contract: `v1.store`, every warm
//! start and the CLI ≡ serve check go through its bytes. It is computed by
//! streaming the canonical text into the hasher. This suite keeps the
//! implementation that built the text first, `Relation::to_text` as a
//! `String` per cell and row, then hashed it in two byte-at-a-time FNV
//! passes, and holds the streamed key equal to it on seeded generated
//! databases and on every committed example and workload.

use std::fmt::Write as _;
use std::path::PathBuf;

use mjoin::{AttrSet, Attribute, Catalog, Database, DbScheme, Relation, Value};
use mjoin_cli::{parse_input, GuardOptions, Request};

/// `Relation::to_text` as it was before it streamed: one `String` per
/// cell, one `format!` per padded cell and a `trim_end` per row.
fn reference_to_text(rel: &Relation, catalog: &Catalog) -> String {
    let headers: Vec<String> = rel
        .attrs()
        .iter()
        .map(|&a| catalog.name(a).unwrap_or("?").to_string())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    let rendered: Vec<Vec<String>> = rel
        .rows()
        .map(|t| t.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect::<Vec<_>>()
            .join(" ")
            .trim_end()
            .to_string()
    };
    out.push_str(&fmt_row(&headers));
    for row in &rendered {
        out.push('\n');
        out.push_str(&fmt_row(row));
    }
    out
}

/// `fingerprint128` as it was: two FNV-1a passes over the built text.
fn reference_fingerprint128(s: &str) -> String {
    fn fnv64(s: &str, mut h: u64) -> u64 {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    format!(
        "{:016x}{:016x}",
        fnv64(s, 0xcbf2_9ce4_8422_2325),
        fnv64(s, 0x9e37_79b9_7f4a_7c15)
    )
}

/// `optimize_fingerprint` as it was: the whole canonical text, then hashed.
fn reference_key(db: &Database, space: Option<&str>, gopts: &GuardOptions) -> String {
    let (timeout_ms, max_memo_entries, max_tuples, threads) = (
        gopts.timeout_ms,
        gopts.max_memo_entries,
        gopts.max_tuples,
        gopts.threads(),
    );
    let mut canon = String::new();
    let _ = write!(
        canon,
        "v1|optimize|space={space:?}|t={timeout_ms:?}|m={max_memo_entries:?}|tu={max_tuples:?}|threads={threads}",
    );
    for i in 0..db.len() {
        let _ = write!(
            canon,
            "|rel {};",
            db.catalog().render(db.scheme().scheme(i))
        );
        canon.push_str(&reference_to_text(db.state(i), db.catalog()));
    }
    reference_fingerprint128(&canon)
}

fn key(db: &Database, space: Option<&str>, gopts: &GuardOptions) -> String {
    mjoin::optimize_fingerprint(
        db,
        space,
        gopts.timeout_ms,
        gopts.max_memo_entries,
        gopts.max_tuples,
        gopts.threads(),
    )
}

/// Every state renders and every key hashes as the references do.
fn assert_equivalent(what: &str, db: &Database, space: Option<&str>, gopts: &GuardOptions) {
    for (i, state) in db.states().iter().enumerate() {
        assert_eq!(
            state.to_text(db.catalog()),
            reference_to_text(state, db.catalog()),
            "{what}: relation {i} renders differently"
        );
    }
    assert_eq!(
        key(db, space, gopts),
        reference_key(db, space, gopts),
        "{what}: key differs"
    );
}

fn guard_options() -> [GuardOptions; 2] {
    [
        GuardOptions {
            threads: Some(1),
            ..GuardOptions::default()
        },
        GuardOptions {
            timeout_ms: Some(80),
            max_memo_entries: Some(1 << 20),
            max_tuples: Some(u64::MAX),
            threads: Some(2),
            ..GuardOptions::default()
        },
    ]
}

/// SplitMix64: a seeded stream, so a failure names the case that made it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Values that stress the renderer: signs and extreme integers, empty
/// strings, multi-byte text, and every kind of trailing whitespace.
fn value(rng: &mut Rng) -> Value {
    const INTS: [i64; 7] = [0, 7, -1, -40, 123_456, i64::MIN, i64::MAX];
    const STRS: [&str; 16] = [
        "",
        "x",
        "é",
        "日本語",
        "🦀",
        "a ",
        "b\t",
        "c\u{a0}",
        " ",
        "\t \u{a0}",
        " lead",
        "mid dle",
        "naïve café",
        "\u{3000}",
        "long-enough-to-widen-any-header",
        "ẞ🦀 ",
    ];
    match rng.below(4) {
        0 => Value::Int(rng.pick(&INTS)),
        1 => Value::Int(rng.next() as i64 >> rng.below(64)),
        _ => Value::str(rng.pick(&STRS)),
    }
}

/// A database of 1–4 relations over 1–4 columns each, 0–12 rows, with
/// header names wider and narrower than their cells, empty or ending in
/// a space, and some attributes the catalog does not name (`?`).
fn generated_database(rng: &mut Rng) -> Database {
    const NAMES: [&str; 8] = ["A", "id", "é", "wide_attribute_name", "日本", "B", "", "t "];
    let mut catalog = Catalog::new();
    for name in NAMES {
        catalog.intern(name).expect("distinct names");
    }
    let pool = NAMES.len() + 2;
    let n = 1 + rng.below(4);
    let mut schemes = Vec::new();
    let mut states = Vec::new();
    for _ in 0..n {
        let mut scheme = AttrSet::empty();
        for _ in 0..1 + rng.below(4) {
            scheme.insert(Attribute::from_index(rng.below(pool)));
        }
        let rows = (0..rng.below(13))
            .map(|_| (0..scheme.len()).map(|_| value(rng)).collect())
            .collect();
        schemes.push(scheme);
        states.push(Relation::from_rows(scheme, rows).expect("rows match the scheme"));
    }
    let scheme = DbScheme::new(schemes).expect("nonempty schemes");
    Database::new(catalog, scheme, states)
}

#[test]
fn streamed_key_equals_the_reference_on_generated_databases() {
    let mut rng = Rng(1990);
    for case in 0..400 {
        let db = generated_database(&mut rng);
        for gopts in &guard_options() {
            for space in [None, Some("nocp"), Some("query|nocp|SELECT * FROM \"é\"\t")] {
                assert_equivalent(&format!("case {case}"), &db, space, gopts);
            }
        }
    }
}

/// Empty strings in the first, middle and last column, and rows whose
/// only non-blank cell comes first.
#[test]
fn streamed_key_equals_the_reference_on_blank_cells() {
    let mut catalog = Catalog::new();
    let s = catalog.scheme("p,q,r").expect("scheme");
    let cells = ["", " ", "\u{a0}", "z", "日"];
    let mut rows = Vec::new();
    for a in cells {
        for b in cells {
            for c in cells {
                rows.push(vec![Value::str(a), Value::str(b), Value::str(c)]);
            }
        }
    }
    let state = Relation::from_rows(s, rows).expect("rows");
    let empty = Relation::empty(s);
    let scheme = DbScheme::new(vec![s, s]).expect("scheme");
    let db = Database::new(catalog, scheme, vec![state, empty]);
    for gopts in &guard_options() {
        assert_equivalent("blank cells", &db, None, gopts);
    }
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn files(dir: &str, ext: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_path(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    paths.sort();
    paths
}

/// Every committed database under `optimize`, and every workload query
/// over every database it lowers on, keyed through [`Request::key`] —
/// the `query|SPACE|{rendered}` namespace included.
#[test]
fn streamed_key_equals_the_reference_on_every_committed_database() {
    let dbs: Vec<PathBuf> = [files("examples", "mj"), files("tests/workloads", "mj")].concat();
    let queries = files("tests/workloads", "sql");
    assert!(dbs.len() >= 10 && queries.len() >= 7, "corpus went missing");
    let (mut optimized, mut queried) = (0, 0);
    for path in &dbs {
        let what = path.display().to_string();
        let text = std::fs::read_to_string(path).expect("database file");
        let input = parse_input(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        for gopts in &guard_options() {
            for space in [None, Some("nocp")] {
                assert_equivalent(&what, &input.database, space, gopts);
                let req = Request::new("optimize", input.clone(), None, space).expect("request");
                assert_eq!(
                    req.key(gopts),
                    Some(reference_key(&input.database, space, gopts)),
                    "{what}"
                );
                optimized += 1;
            }
        }
        for sql_path in &queries {
            let sql = std::fs::read_to_string(sql_path).expect("query file");
            let Ok(query) = mjoin::parse_query(&sql) else {
                continue;
            };
            let Ok(lowered) = mjoin::lower(&query, &input.database) else {
                continue;
            };
            let what = format!("{what} × {}", sql_path.display());
            for gopts in &guard_options() {
                for space in [None, Some("nocp")] {
                    let req =
                        Request::new("query", input.clone(), Some(&sql), space).expect("request");
                    let ns = format!("query|{}|{}", space.unwrap_or(""), query.render());
                    let expected = lowered
                        .has_rows()
                        .then(|| reference_key(&lowered.database, Some(&ns), gopts));
                    assert_eq!(req.key(gopts), expected, "{what}");
                    assert_equivalent(&what, &lowered.database, Some(&ns), gopts);
                    queried += 1;
                }
            }
        }
    }
    assert!(
        optimized >= 40 && queried >= 28,
        "{optimized} optimize, {queried} query keys"
    );
}
