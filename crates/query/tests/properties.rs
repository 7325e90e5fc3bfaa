//! Parser property and fuzz suite.
//!
//! Two contracts, pinned over thousands of seeded cases:
//!
//! 1. **Round trip** — for generated well-formed queries,
//!    `parse(render(parse(text))) == parse(text)`: the canonical rendering
//!    loses nothing, and rendering is a fixpoint.
//! 2. **Totality** — for arbitrary byte mutations of valid query text, the
//!    parser either accepts or returns [`MjoinError::InvalidQuery`]; it
//!    never panics and never yields any other error kind.
//!
//! Everything is seeded with a hand-rolled LCG so failures replay
//! deterministically from the printed seed.

use mjoin_guard::MjoinError;
use mjoin_query::{parse_query, CmpOp, ColRef, Operand, Predicate, Query, Scalar};

/// Deterministic LCG (Numerical Recipes constants) — no external deps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const TABLES: &[&str] = &["ABCF", "AU", "BV", "CW", "orders", "t1"];
const COLUMNS: &[&str] = &["A", "B", "C", "W", "price", "x9"];
const OPS: &[CmpOp] = &[
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn gen_operand(rng: &mut Lcg) -> Operand {
    match rng.below(4) {
        0 => Operand::Lit(Scalar::Int(rng.next() as i64 % 1000 - 500)),
        1 => Operand::Lit(Scalar::Str(format!("s{}", rng.below(50)))),
        _ => Operand::Col(ColRef {
            table: rng.pick(TABLES).to_string(),
            column: rng.pick(COLUMNS).to_string(),
        }),
    }
}

/// A structurally valid query: 1–5 tables, 0–6 predicates. (Validity here
/// is *syntactic* — lowering against a database may still reject it,
/// which is exactly the split the parser/lowering layering promises.)
fn gen_query(rng: &mut Lcg) -> Query {
    let tables: Vec<String> = (0..1 + rng.below(5))
        .map(|_| rng.pick(TABLES).to_string())
        .collect();
    let predicates: Vec<Predicate> = (0..rng.below(7))
        .map(|_| Predicate {
            left: gen_operand(rng),
            op: *rng.pick(OPS),
            right: gen_operand(rng),
        })
        .collect();
    Query { tables, predicates }
}

/// Re-renders a query with randomized cosmetics the parser must erase:
/// case-shuffled keywords, extra whitespace/newlines, comments, `<>` for
/// `!=`, and an optional trailing semicolon.
fn messy_render(q: &Query, rng: &mut Lcg) -> String {
    let ws = |rng: &mut Lcg| match rng.below(4) {
        0 => " ".to_string(),
        1 => "  ".to_string(),
        2 => "\n".to_string(),
        _ => " -- noise\n".to_string(),
    };
    let kw = |rng: &mut Lcg, w: &str| -> String {
        w.chars()
            .map(|c| {
                if rng.below(2) == 0 {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect()
    };
    let mut out = String::new();
    out.push_str(&kw(rng, "SELECT"));
    out.push_str(&ws(rng));
    out.push('*');
    out.push_str(&ws(rng));
    out.push_str(&kw(rng, "FROM"));
    out.push_str(&ws(rng));
    for (i, t) in q.tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
            out.push_str(&ws(rng));
        }
        out.push_str(t);
    }
    for (i, p) in q.predicates.iter().enumerate() {
        out.push_str(&ws(rng));
        out.push_str(&kw(rng, if i == 0 { "WHERE" } else { "AND" }));
        out.push_str(&ws(rng));
        out.push_str(&p.left.to_string());
        out.push_str(&ws(rng));
        if p.op == CmpOp::Ne && rng.below(2) == 0 {
            out.push_str("<>");
        } else {
            out.push_str(&p.op.to_string());
        }
        out.push_str(&ws(rng));
        out.push_str(&p.right.to_string());
    }
    if rng.below(2) == 0 {
        out.push(';');
    }
    out
}

#[test]
fn parse_render_parse_round_trips() {
    let mut rng = Lcg(0xC0FFEE);
    for case in 0..2000 {
        let q = gen_query(&mut rng);
        let rendered = q.render();
        let reparsed = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: render not parseable: {e}\n{rendered}"));
        assert_eq!(reparsed, q, "case {case}: round trip drifted\n{rendered}");
        // Rendering is a fixpoint: canonical text renders to itself.
        assert_eq!(reparsed.render(), rendered, "case {case}");
    }
}

#[test]
fn cosmetic_variation_parses_to_the_same_query() {
    let mut rng = Lcg(0xBADF00D);
    for case in 0..1000 {
        let q = gen_query(&mut rng);
        let messy = messy_render(&q, &mut rng);
        let parsed = parse_query(&messy)
            .unwrap_or_else(|e| panic!("case {case}: messy form rejected: {e}\n{messy}"));
        assert_eq!(parsed, q, "case {case}: cosmetics changed meaning\n{messy}");
    }
}

/// Byte-mutation fuzz: flip/insert/delete bytes in valid query text and
/// feed the result to the parser. Any outcome is fine **except** a panic
/// or a non-`InvalidQuery` error. Mutations that break UTF-8 are skipped
/// (the API takes `&str`; the lexer never byte-indexes).
#[test]
fn mutated_input_never_panics_and_errors_are_typed() {
    let mut rng = Lcg(0x5EED);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for case in 0..4000 {
        let mut bytes = gen_query(&mut rng).render().into_bytes();
        for _ in 0..1 + rng.below(4) {
            match rng.below(3) {
                0 if !bytes.is_empty() => {
                    let i = rng.below(bytes.len());
                    bytes[i] = (rng.next() % 256) as u8;
                }
                1 => {
                    let i = rng.below(bytes.len() + 1);
                    bytes.insert(i, (rng.next() % 256) as u8);
                }
                _ if !bytes.is_empty() => {
                    let i = rng.below(bytes.len());
                    bytes.remove(i);
                }
                _ => {}
            }
        }
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        match parse_query(&text) {
            Ok(_) => accepted += 1,
            Err(MjoinError::InvalidQuery(msg)) => {
                rejected += 1;
                assert!(
                    msg.contains("line") && msg.contains("column"),
                    "case {case}: diagnostics must carry a position: {msg}"
                );
            }
            Err(other) => panic!("case {case}: non-InvalidQuery error {other:?}\n{text:?}"),
        }
    }
    // The fuzzer must actually exercise both outcomes to mean anything.
    assert!(accepted > 50, "only {accepted} mutated inputs still parsed");
    assert!(
        rejected > 500,
        "only {rejected} mutated inputs were rejected"
    );
}

/// Deeply adversarial inputs: long garbage, deep nesting-free repetition,
/// pathological token boundaries — all must stay typed errors.
#[test]
fn pathological_inputs_are_rejected_not_panicked() {
    let cases = [
        String::new(),
        "'".repeat(10_000),
        "SELECT * FROM ".to_string() + &"a,".repeat(5_000),
        "SELECT * FROM t WHERE ".to_string() + &"t.a = 1 AND ".repeat(5_000),
        "\u{FEFF}SELECT * FROM t".to_string(),
        "SELECT * FROM t WHERE t.a = 99999999999999999999999999".to_string(),
        "SELECT * FROM t WHERE t.a = 'unterminated".to_string(),
        "-- only a comment\n".to_string(),
    ];
    for text in &cases {
        match parse_query(text) {
            Ok(_) | Err(MjoinError::InvalidQuery(_)) => {}
            Err(other) => panic!(
                "non-InvalidQuery error {other:?} for {:?}…",
                &text[..text.len().min(40)]
            ),
        }
    }
}
