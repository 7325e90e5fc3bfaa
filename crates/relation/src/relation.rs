//! Relation states: canonical sets of tuples over a scheme.

use std::fmt;

use crate::attr::{AttrSet, Attribute, Catalog};
use crate::error::RelationError;
use crate::value::Value;

/// A tuple over a relation scheme.
///
/// Values are stored in *canonical order*: ascending order of the attribute
/// indices of the owning relation's scheme. A tuple is meaningless without
/// its scheme; [`Relation`] keeps the two together.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from values already in canonical order.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into_boxed_slice())
    }

    /// The values, in canonical (ascending-attribute) order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.0.len()
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// A relation state: a finite set of tuples over a scheme.
///
/// Invariants (enforced by every constructor):
/// * every tuple has arity `scheme.len()`, values in canonical order;
/// * tuples are sorted and deduplicated, so `==`, hashing and iteration are
///   deterministic.
///
/// The paper's cost measure is `τ(R)` — the number of tuples — exposed as
/// [`Relation::tau`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    scheme: AttrSet,
    /// Ascending attribute list; `attrs[k]` is the attribute of column `k`.
    attrs: Box<[Attribute]>,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// The empty relation over `scheme`.
    pub fn empty(scheme: AttrSet) -> Self {
        Relation {
            scheme,
            attrs: scheme.iter().collect(),
            tuples: Vec::new(),
        }
    }

    /// Builds a relation from rows whose values are in canonical
    /// (ascending-attribute) order. Rows are sorted and deduplicated.
    ///
    /// # Errors
    /// [`RelationError::ArityMismatch`] if any row's width differs from the
    /// scheme's arity.
    pub fn from_rows(
        scheme: AttrSet,
        rows: Vec<Vec<Value>>,
    ) -> Result<Self, RelationError> {
        let arity = scheme.len();
        let mut tuples = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != arity {
                return Err(RelationError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            tuples.push(Tuple::new(row));
        }
        Ok(Self::from_tuples_unchecked(scheme, tuples))
    }

    /// Builds a relation from integer rows — the common case in generators
    /// and tests.
    pub fn from_int_rows(
        scheme: AttrSet,
        rows: Vec<Vec<i64>>,
    ) -> Result<Self, RelationError> {
        Self::from_rows(
            scheme,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
        )
    }

    /// Internal constructor: tuples must already have the right arity.
    pub(crate) fn from_tuples_unchecked(scheme: AttrSet, mut tuples: Vec<Tuple>) -> Self {
        tuples.sort_unstable();
        tuples.dedup();
        Relation {
            scheme,
            attrs: scheme.iter().collect(),
            tuples,
        }
    }

    /// The relation's scheme.
    #[inline]
    pub fn scheme(&self) -> AttrSet {
        self.scheme
    }

    /// The scheme as an ascending attribute slice (`attrs[k]` is column `k`).
    #[inline]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// τ(R): the number of tuples. This is the paper's cost measure.
    #[inline]
    pub fn tau(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// Is the relation state empty (`R = φ`)?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, sorted canonically.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Column index of `attr` within this relation, if present.
    #[inline]
    pub fn column_of(&self, attr: Attribute) -> Option<usize> {
        // attrs is ascending, so binary search is exact.
        self.attrs.binary_search(&attr).ok()
    }

    /// Does the relation contain `tuple`?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.binary_search(tuple).is_ok()
    }

    /// Natural join with the default algorithm (hash join).
    ///
    /// When the schemes are disjoint this degenerates to the Cartesian
    /// product, exactly as in the paper's definition.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        crate::join::join(self, other, crate::join::JoinAlgorithm::Hash)
    }

    /// Natural join with an explicit algorithm.
    pub fn natural_join_with(
        &self,
        other: &Relation,
        algorithm: crate::join::JoinAlgorithm,
    ) -> Relation {
        crate::join::join(self, other, algorithm)
    }

    /// Natural join charging every emitted tuple to `guard`: the join
    /// stops with [`mjoin_guard::MjoinError::BudgetExceeded`] as soon as
    /// the output would pass the budget's tuple cap, instead of
    /// materializing an intermediate the budget forbids.
    pub fn natural_join_guarded(
        &self,
        other: &Relation,
        algorithm: crate::join::JoinAlgorithm,
        guard: &mjoin_guard::Guard,
    ) -> Result<Relation, mjoin_guard::MjoinError> {
        crate::join::join_guarded(self, other, algorithm, guard)
    }

    /// Partitioned parallel hash join across `threads` scoped workers, all
    /// charging `guard`. Bit-identical to the sequential hash join at any
    /// thread count (the output relation is canonical); `threads <= 1`
    /// runs the sequential kernel directly.
    pub fn natural_join_partitioned(
        &self,
        other: &Relation,
        threads: usize,
        guard: &mjoin_guard::Guard,
    ) -> Result<Relation, mjoin_guard::MjoinError> {
        crate::join::join_partitioned(self, other, threads, guard)
    }
}

impl Relation {
    /// Renders the relation as an aligned text table using the catalog's
    /// attribute names — the way the paper prints its example states.
    ///
    /// ```
    /// use mjoin_relation::{Catalog, Relation};
    /// let mut cat = Catalog::new();
    /// let ab = cat.scheme("AB").unwrap();
    /// let r = Relation::from_int_rows(ab, vec![vec![1, 10], vec![2, 20]]).unwrap();
    /// let text = r.to_text(&cat);
    /// assert!(text.starts_with("A B"));
    /// ```
    pub fn to_text(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.write_text(catalog, &mut out)
            .expect("writing to a String never fails");
        out
    }

    /// Writes [`Relation::to_text`]'s table to `out` without building it.
    ///
    /// The first pass takes each column's width from the values: a char
    /// count for strings, and for integers the wider of the column's
    /// smallest and largest. The second writes cells and padding through a
    /// stack buffer to `out`, with no `String` per cell, row or relation.
    /// Every row ends at its last non-whitespace character: trailing
    /// padding, empty last cells and whitespace a string value ends in are
    /// dropped. The plan-cache key hashes this text, so its bytes are a
    /// contract.
    pub fn write_text(&self, catalog: &Catalog, out: &mut impl fmt::Write) -> fmt::Result {
        let header = |k: usize| Cell::Str(catalog.name(self.attrs[k]).unwrap_or("?"));
        let mut widths: Vec<usize> = (0..self.attrs.len()).map(|k| header(k).width()).collect();
        let mut ints = vec![(i64::MAX, i64::MIN); widths.len()];
        for t in &self.tuples {
            for ((w, (lo, hi)), v) in widths.iter_mut().zip(&mut ints).zip(t.values()) {
                match v {
                    Value::Int(i) => (*lo, *hi) = ((*lo).min(*i), (*hi).max(*i)),
                    Value::Str(s) => *w = (*w).max(s.chars().count()),
                }
            }
        }
        for (w, &(lo, hi)) in widths.iter_mut().zip(&ints) {
            if lo <= hi {
                *w = (*w).max(int_width(lo)).max(int_width(hi));
            }
        }
        let mut out = Chunked::new(out);
        write_row(&mut out, &widths, header)?;
        for t in &self.tuples {
            out.str("\n")?;
            write_row(&mut out, &widths, |k| Cell::of(&t.values()[k]))?;
        }
        out.flush()
    }
}

/// Chars in `i`'s decimal text, sign included.
#[inline]
fn int_width(i: i64) -> usize {
    let digits = i
        .unsigned_abs()
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1);
    digits + usize::from(i < 0)
}

/// One cell of the text table: the text [`Value`]'s `Display` prints.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Int(i64),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    #[inline]
    fn of(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// Width in chars, as `{:<w$}` counts it.
    #[inline]
    fn width(self) -> usize {
        match self {
            Cell::Int(i) => int_width(i),
            Cell::Str(s) => s.chars().count(),
        }
    }
}

/// Writes one row: cells padded to `widths` and joined by single spaces,
/// ending at the row's last non-whitespace character. A run of whitespace
/// is held back as where it starts — cell `from`, the whitespace `tail`
/// its text ends in and the `pad` spaces after it — and written only once
/// non-whitespace text follows.
fn write_row<'a, W: fmt::Write>(
    out: &mut Chunked<'_, W>,
    widths: &[usize],
    cell: impl Fn(usize) -> Cell<'a>,
) -> fmt::Result {
    let mut held: Option<(usize, &'a str, usize)> = None;
    for (k, &width) in widths.iter().enumerate() {
        let c = cell(k);
        let (kept, tail) = match c {
            Cell::Int(_) => (c, ""),
            Cell::Str(s) => {
                let kept = s.trim_end();
                if kept.is_empty() {
                    held.get_or_insert((k, s, width - c.width() + 1));
                    continue;
                }
                (Cell::Str(kept), &s[kept.len()..])
            }
        };
        if let Some((from, from_tail, pad)) = held {
            if !from_tail.is_empty() {
                out.str(from_tail)?;
            }
            out.spaces(pad)?;
            for (m, &blank_width) in widths.iter().enumerate().take(k).skip(from + 1) {
                let blank = cell(m);
                out.cell(blank)?;
                out.spaces(blank_width - blank.width() + 1)?;
            }
        }
        let kept_width = out.cell(kept)?;
        let tail_width = tail.chars().count();
        held = Some((k, tail, width - kept_width - tail_width + 1));
    }
    Ok(())
}

/// `00`, `01`, …, `99`: integers are written two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849\
5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Bytes the renderer collects before handing them to its writer.
const CHUNK: usize = 512;

/// A stack buffer between the renderer and its writer. Cells, padding and
/// digits are copied in and handed on a chunk at a time, so the writer
/// sees one call, and the UTF-8 check runs once, per [`CHUNK`] bytes
/// rather than per cell. Only whole strings and ASCII go in, so every
/// chunk is valid UTF-8.
struct Chunked<'w, W: fmt::Write> {
    out: &'w mut W,
    buf: [u8; CHUNK],
    len: usize,
}

impl<'w, W: fmt::Write> Chunked<'w, W> {
    fn new(out: &'w mut W) -> Self {
        Chunked {
            out,
            buf: [0; CHUNK],
            len: 0,
        }
    }

    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len])
            .expect("the buffer holds only whole strings and ASCII");
        self.len = 0;
        self.out.write_str(text)
    }

    /// Makes room for `n` more bytes, `n <= CHUNK`.
    #[inline]
    fn reserve(&mut self, n: usize) -> fmt::Result {
        if CHUNK - self.len < n {
            self.flush()?;
        }
        Ok(())
    }

    #[inline]
    fn str(&mut self, s: &str) -> fmt::Result {
        if s.len() > CHUNK {
            self.flush()?;
            return self.out.write_str(s);
        }
        self.reserve(s.len())?;
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }

    #[inline]
    fn spaces(&mut self, mut n: usize) -> fmt::Result {
        const SPACES: [u8; 32] = [b' '; 32];
        if n <= SPACES.len() && CHUNK - self.len >= SPACES.len() {
            // A fixed-size copy; bytes past `len` are overwritten later.
            self.buf[self.len..self.len + SPACES.len()].copy_from_slice(&SPACES);
            self.len += n;
            return Ok(());
        }
        while n > 0 {
            if self.len == CHUNK {
                self.flush()?;
            }
            let k = n.min(CHUNK - self.len);
            self.buf[self.len..self.len + k].fill(b' ');
            self.len += k;
            n -= k;
        }
        Ok(())
    }

    /// Writes `c`'s text and returns its width in chars.
    #[inline]
    fn cell(&mut self, c: Cell<'_>) -> Result<usize, fmt::Error> {
        match c {
            Cell::Int(i) => self.int(i),
            Cell::Str(s) => {
                self.str(s)?;
                Ok(s.chars().count())
            }
        }
    }

    /// Writes `i` in decimal and returns its width in chars.
    #[inline]
    fn int(&mut self, i: i64) -> Result<usize, fmt::Error> {
        let width = int_width(i);
        self.reserve(width)?;
        let text = &mut self.buf[self.len..self.len + width];
        let mut end = width;
        // Divide in 64 bits only while the value needs them, then two
        // digits at a time in 32.
        let mut n = i.unsigned_abs();
        while n > u64::from(u32::MAX) {
            end -= 1;
            text[end] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        let mut n = n as u32;
        while n >= 100 {
            let pair = 2 * (n % 100) as usize;
            n /= 100;
            end -= 2;
            text[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = 2 * n as usize;
            text[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            text[end - 1] = b'0' + n as u8;
        }
        if i < 0 {
            text[0] = b'-';
        }
        self.len += width;
        Ok(width)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({:?}, {} tuples)", self.scheme, self.tuples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;

    fn scheme(spec: &str) -> AttrSet {
        Catalog::with_letters().scheme(spec).unwrap()
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(scheme("AB"));
        assert_eq!(r.tau(), 0);
        assert!(r.is_empty());
        assert_eq!(r.attrs().len(), 2);
    }

    #[test]
    fn from_rows_dedups_and_sorts() {
        let r = Relation::from_int_rows(
            scheme("AB"),
            vec![vec![2, 20], vec![1, 10], vec![2, 20]],
        )
        .unwrap();
        assert_eq!(r.tau(), 2);
        assert_eq!(r.tuples()[0].values()[0], Value::Int(1));
        assert_eq!(r.tuples()[1].values()[0], Value::Int(2));
    }

    #[test]
    fn from_rows_checks_arity() {
        let err = Relation::from_int_rows(scheme("AB"), vec![vec![1]]).unwrap_err();
        assert_eq!(err, RelationError::ArityMismatch { expected: 2, got: 1 });
    }

    #[test]
    fn equality_is_set_equality() {
        let r1 = Relation::from_int_rows(scheme("A"), vec![vec![1], vec![2]]).unwrap();
        let r2 = Relation::from_int_rows(scheme("A"), vec![vec![2], vec![1]]).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn column_lookup() {
        let mut cat = Catalog::with_letters();
        let s = cat.scheme("ACE").unwrap();
        let r = Relation::empty(s);
        let a = cat.lookup("A").unwrap();
        let c = cat.lookup("C").unwrap();
        let e = cat.lookup("E").unwrap();
        let b = cat.lookup("B").unwrap();
        assert_eq!(r.column_of(a), Some(0));
        assert_eq!(r.column_of(c), Some(1));
        assert_eq!(r.column_of(e), Some(2));
        assert_eq!(r.column_of(b), None);
    }

    #[test]
    fn text_pads_columns_and_trims_every_row() {
        let mut cat = Catalog::new();
        let s = cat.scheme("id,name,note").unwrap();
        let row = |id: i64, name: &str, note: &str| vec![id.into(), name.into(), note.into()];
        let r = Relation::from_rows(
            s,
            vec![
                row(i64::MIN, "é", ""),
                row(0, "", "a\u{a0}"),
                row(7, "日本 ", " \t"),
                row(-12, "x", "b c"),
            ],
        )
        .unwrap();
        let expected = [
            "id                   name note",
            "-9223372036854775808 é",
            "-12                  x    b c",
            "0                         a",
            "7                    日本",
        ];
        assert_eq!(r.to_text(&cat), expected.join("\n"));
        let empty = Relation::empty(cat.scheme("id,name").unwrap());
        assert_eq!(empty.to_text(&cat), "id name");
    }

    #[test]
    fn text_names_unknown_attributes_with_a_question_mark() {
        let cat = Catalog::new();
        let s = AttrSet::from_iter([Attribute::from_index(3)]);
        let r = Relation::from_int_rows(s, vec![vec![123]]).unwrap();
        assert_eq!(r.to_text(&cat), "?\n123");
    }

    #[test]
    fn contains_checks_membership() {
        let r = Relation::from_int_rows(scheme("AB"), vec![vec![1, 2], vec![3, 4]]).unwrap();
        assert!(r.contains(&Tuple::new(vec![Value::Int(1), Value::Int(2)])));
        assert!(!r.contains(&Tuple::new(vec![Value::Int(1), Value::Int(5)])));
    }

    #[test]
    fn tuple_api() {
        let t = Tuple::from(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.values()[1], Value::str("x"));
    }
}
