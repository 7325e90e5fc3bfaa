//! A minimal JSON value, writer, and parser — no external crates.
//!
//! The writer is *stable*: objects serialize their members in insertion
//! order (builders insert in a fixed schema order, and counter maps are
//! pre-sorted by key), numbers are emitted with Rust's shortest-roundtrip
//! formatting, and no whitespace decisions depend on the data. Two
//! structurally equal values always render to the same bytes.
//!
//! The parser exists so CI and tests can round-trip-validate emitted
//! report files without pulling in serde. It accepts the full JSON
//! grammar this writer can produce (and standard whitespace), which is
//! all the validation a self-emitted file needs.

use std::fmt;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All counters and sizes are unsigned; timings are nanoseconds.
    U64(u64),
    /// Ratios such as q-errors.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation — the on-disk format.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }
}

fn write_value(out: &mut String, value: &Json, indent: Option<usize>, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => {
            use fmt::Write;
            let _ = write!(out, "{n}");
        }
        Json::F64(x) => write_f64(out, *x),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(out, items.iter(), indent, depth, '[', ']', |o, v, d| {
            write_value(o, v, indent, d)
        }),
        Json::Obj(members) => write_seq(
            out,
            members.iter(),
            indent,
            depth,
            '{',
            '}',
            |o, (k, v), d| {
                write_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, v, indent, d);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }
    out.push(close);
}

/// JSON has no infinities; clamp the q-error sentinel `∞` to `null`-free
/// stable text by emitting a large literal the parser round-trips.
fn write_f64(out: &mut String, x: f64) {
    use fmt::Write;
    if x.is_nan() {
        out.push_str("null");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "1e308" } else { "-1e308" });
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep integral floats visibly floats so the schema is stable.
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte in one go. All are ASCII, so the run ends on a char
            // boundary. JSON allows no raw control character in a string.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    // Long strings (a request's `db` text) outlive the
                    // parse; they keep none of the slack they grew with.
                    out.shrink_to_fit();
                    return Ok(out);
                }
                b'\\' => self.pos += 1,
                _ => return Err(self.err("control character in string")),
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    // Exactly four hex digits: `from_str_radix` alone would
                    // also take a sign.
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    // Surrogate pairs never appear in our output; map
                    // unpaired surrogates to U+FFFD.
                    out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::Str("q\"uo\\te\n".into())),
            ("count", Json::U64(42)),
            ("ratio", Json::F64(1.5)),
            ("whole", Json::F64(2.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(parse(&v.to_compact_string()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty_string()).unwrap(), v);
    }

    #[test]
    fn rendering_is_stable() {
        let v = sample();
        assert_eq!(v.to_pretty_string(), v.to_pretty_string());
        assert_eq!(
            v.to_compact_string(),
            "{\"name\":\"q\\\"uo\\\\te\\n\",\"count\":42,\"ratio\":1.5,\
             \"whole\":2.0,\"flag\":true,\"none\":null,\"items\":[1,2],\
             \"empty_arr\":[],\"empty_obj\":{}}"
        );
    }

    #[test]
    fn infinity_and_nan_render_parseably() {
        let v = Json::Arr(vec![
            Json::F64(f64::INFINITY),
            Json::F64(f64::NEG_INFINITY),
            Json::F64(f64::NAN),
        ]);
        let parsed = parse(&v.to_compact_string()).unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items[0], Json::F64(1e308));
        assert_eq!(items[1], Json::F64(-1e308));
        assert_eq!(items[2], Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// Deterministic splitmix64 stream for the seeded properties below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() % items.len() as u64) as usize]
        }
    }

    /// The string decoder as it was before runs were copied in bulk: one
    /// `char` at a time. Returns the decoded text or the error, and where
    /// the parser stopped.
    fn reference_string(text: &str) -> (Result<String, ParseError>, usize) {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let result = (|| {
            p.expect(b'"')?;
            let mut out = String::new();
            loop {
                match p.peek() {
                    None => return Err(p.err("unterminated string")),
                    Some(b'"') => {
                        p.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        p.pos += 1;
                        match p.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = p
                                    .bytes
                                    .get(p.pos + 1..p.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| p.err("bad \\u escape"))?;
                                out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                                p.pos += 4;
                            }
                            _ => return Err(p.err("bad escape")),
                        }
                        p.pos += 1;
                    }
                    Some(_) => {
                        let c = p.text[p.pos..].chars().next().unwrap();
                        out.push(c);
                        p.pos += c.len_utf8();
                    }
                }
            }
        })();
        (result, p.pos)
    }

    fn decode_string(text: &str) -> (Result<String, ParseError>, usize) {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let result = p.string();
        (result, p.pos)
    }

    #[test]
    fn escapes_around_long_plain_runs() {
        let long = "a".repeat(5000);
        let cases = [
            format!(r#""\n{long}""#),
            format!(r#""{long}\t""#),
            format!(r#""\"\\\/\b\f\n\r\t{long}\n\n{long}\\\"""#),
            format!(r#""{long}Aé{long}""#),
        ];
        for case in &cases {
            let (got, end) = decode_string(case);
            assert_eq!((got.clone(), end), reference_string(case));
            assert_eq!(end, case.len());
            assert!(got.unwrap().contains(&long));
        }
        let (got, _) = decode_string(&cases[2]);
        assert!(got.unwrap().starts_with("\"\\/\u{8}\u{c}\n\r\taaa"));
    }

    #[test]
    fn multibyte_text_next_to_escapes_decodes_exactly() {
        let text = r#""é\nж\"🎉\\中é😀\t""#;
        assert_eq!(decode_string(text).0.unwrap(), "é\nж\"🎉\\中é😀\t");
    }

    #[test]
    fn unicode_escapes_decode_and_reject_like_before() {
        assert_eq!(parse(r#""Aé€""#).unwrap(), Json::Str("Aé€".into()));
        // Unpaired surrogates become U+FFFD.
        assert_eq!(
            parse(r#""\ud83d!""#).unwrap(),
            Json::Str("\u{FFFD}!".into())
        );
        for bad in [r#""\u12g4""#, r#""\u12""#, r#""\x""#, r#""abc\"#] {
            let (got, end) = decode_string(bad);
            assert!(got.is_err(), "{bad}");
            assert_eq!((got, end), reference_string(bad), "{bad}");
        }
    }

    #[test]
    fn rejects_raw_control_characters_and_signed_escapes() {
        let long = "a".repeat(5000);
        for (text, offset, message) in [
            ("\"\\u+041\"".to_string(), 2, "bad \\u escape"),
            ("\"\\u+7FF\"".to_string(), 2, "bad \\u escape"),
            ("\"\\u 041\"".to_string(), 2, "bad \\u escape"),
            ("\"a\u{1}b\"".to_string(), 2, "control character in string"),
            ("\"\t\"".to_string(), 1, "control character in string"),
            ("\"é\n\"".to_string(), 3, "control character in string"),
            (
                format!("\"{long}\u{1f}\""),
                5001,
                "control character in string",
            ),
            ("\"\\n\u{0}\"".to_string(), 3, "control character in string"),
        ] {
            let err = parse(&text).unwrap_err();
            assert_eq!(
                err,
                ParseError {
                    offset,
                    message: message.into()
                },
                "{text:?}"
            );
        }
        // The same text properly escaped, and DEL (not a control character
        // to JSON), still parse.
        assert_eq!(
            parse(r#""\u0041\u001f""#).unwrap(),
            Json::Str("A\u{1f}".into())
        );
        assert_eq!(parse("\"a\u{7f}b\"").unwrap(), Json::Str("a\u{7f}b".into()));
    }

    #[test]
    fn an_unterminated_string_after_a_long_run_reports_the_end() {
        let text = format!("\"{}", "x".repeat(100_000));
        let err = parse(&text).unwrap_err();
        assert_eq!(
            err,
            ParseError {
                offset: 100_001,
                message: "unterminated string".into()
            }
        );
        assert_eq!(decode_string(&text), reference_string(&text));
    }

    #[test]
    fn bulk_decoding_matches_the_char_at_a_time_reference() {
        // Valid and invalid literals alike: same text or same error, and
        // the parser stops at the same byte. No raw control characters and
        // no signed `\u` digits: the reference still accepts both, which
        // JSON does not (see `rejects_raw_control_characters_and_signed_escapes`).
        let pieces = [
            "a", "bc", " ", "é", "中", "🎉", "\"", "\\", "\\n", "\\u", "00", "e9", "d8", "3d", "g",
            "\\\"", "\\\\", "\u{7f}",
        ];
        let mut rng = Rng(1990);
        for _ in 0..4000 {
            let mut text = String::from("\"");
            for _ in 0..rng.next() % 24 {
                text.push_str(rng.pick(&pieces));
            }
            assert_eq!(decode_string(&text), reference_string(&text), "{text:?}");
        }
    }

    #[test]
    fn random_strings_round_trip_through_the_writer() {
        let mut rng = Rng(7);
        for _ in 0..500 {
            let len = rng.next() % 64;
            let s: String = (0..len)
                .map(|_| match rng.next() % 4 {
                    0 => char::from(b' ' + (rng.next() % 95) as u8),
                    1 => char::from((rng.next() % 0x20) as u8),
                    2 => rng.pick(&['"', '\\', '/', '\u{7f}', 'é', '中']),
                    _ => char::from_u32(0x1_0000 + (rng.next() % 0xF_0000) as u32).unwrap(),
                })
                .collect();
            let value = Json::Str(s.clone());
            assert_eq!(parse(&value.to_compact_string()).unwrap(), value, "{s:?}");
            let keyed = Json::Obj(vec![(s.clone(), Json::Null)]);
            assert_eq!(parse(&keyed.to_compact_string()).unwrap(), keyed, "{s:?}");
        }
    }

    #[test]
    fn get_and_accessors() {
        let v = sample();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("q\"uo\\te\n"));
        assert_eq!(
            v.get("items").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }
}
