//! Relation states: sets of tuples over a scheme, stored row-major.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::attr::{AttrSet, Attribute, Catalog};
use crate::error::RelationError;
use crate::value::Value;

/// A row's join key — its values in the columns `cols` — borrowed from the
/// row, never copied out. Two keys are equal when their values are,
/// column by column, whichever relations the rows come from.
#[derive(Clone, Copy)]
pub(crate) struct Key<'a> {
    row: &'a [Value],
    cols: &'a [usize],
}

impl<'a> Key<'a> {
    pub(crate) fn of(row: &'a [Value], cols: &'a [usize]) -> Self {
        Key { row, cols }
    }

    fn values(self) -> impl Iterator<Item = &'a Value> {
        self.cols.iter().map(move |&c| &self.row[c])
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().for_each(|v| v.hash(state));
    }
}

/// A relation state: a finite set of tuples over a scheme.
///
/// The tuples are stored row-major in one buffer of values: row `i` is
/// the slice `[i · arity, (i + 1) · arity)`, its values in *canonical
/// order* — ascending order of the scheme's attribute indices. The row
/// count is kept apart from the buffer, since a relation over the empty
/// scheme (a projection onto no attributes) holds its one tuple, or none,
/// in no values at all. Rows are read as slices through
/// [`Relation::rows`] and [`Relation::row`].
///
/// Invariants (enforced by every constructor):
/// * the buffer holds `τ · arity` values;
/// * no row appears twice.
///
/// A relation built from rows ([`Relation::from_rows`] and the other
/// constructors, [`Relation::project`], [`Relation::union`]) keeps its
/// rows sorted: it is *canonical*. A join's output keeps the order the
/// join emitted it in, which is deterministic for given inputs and thread
/// count; [`Relation::select`] and the set operations built on it keep
/// their input's order. `==` is set equality, the hash agrees with it, and
/// [`Relation::to_text`] writes rows sorted, whatever the order held.
///
/// The paper's cost measure is `τ(R)` — the number of tuples — exposed as
/// [`Relation::tau`].
#[derive(Clone)]
pub struct Relation {
    scheme: AttrSet,
    /// Ascending attribute list; `attrs[k]` is the attribute of column `k`.
    attrs: Box<[Attribute]>,
    /// The rows' values, row-major.
    values: Vec<Value>,
    /// The number of rows.
    len: usize,
    /// Are the rows sorted?
    canonical: bool,
}

impl Relation {
    /// The empty relation over `scheme`.
    pub fn empty(scheme: AttrSet) -> Self {
        Self::new(scheme, Vec::new(), 0, true)
    }

    fn new(scheme: AttrSet, values: Vec<Value>, len: usize, canonical: bool) -> Self {
        debug_assert_eq!(values.len(), len * scheme.len());
        Relation {
            scheme,
            attrs: scheme.iter().collect(),
            values,
            len,
            canonical,
        }
    }

    /// Builds a relation from rows whose values are in canonical
    /// (ascending-attribute) order. Rows are sorted and deduplicated.
    ///
    /// # Errors
    /// [`RelationError::ArityMismatch`] for the first row whose width
    /// differs from the scheme's arity.
    pub fn from_rows(scheme: AttrSet, rows: Vec<Vec<Value>>) -> Result<Self, RelationError> {
        let arity = scheme.len();
        check_widths(arity, rows.iter().map(Vec::len))?;
        let len = rows.len();
        let values = rows.into_iter().flatten().collect();
        Ok(Self::from_row_major(scheme, len, values))
    }

    /// Builds a relation from integer rows — the common case in generators
    /// and tests.
    ///
    /// # Errors
    /// As [`Relation::from_rows`].
    pub fn from_int_rows(scheme: AttrSet, rows: Vec<Vec<i64>>) -> Result<Self, RelationError> {
        let arity = scheme.len();
        check_widths(arity, rows.iter().map(Vec::len))?;
        let len = rows.len();
        let values = rows.into_iter().flatten().map(Value::Int).collect();
        Ok(Self::from_row_major(scheme, len, values))
    }

    /// Builds a relation from `len` rows laid end to end in `values`, each
    /// in canonical order. Rows are sorted and deduplicated: a permutation
    /// of row indices is sorted and the rows gathered in its order, unless
    /// they already are in order, when the buffer is kept as it is.
    ///
    /// # Panics
    /// If `values` does not hold `len · arity` values.
    pub fn from_row_major(scheme: AttrSet, len: usize, mut values: Vec<Value>) -> Self {
        let arity = scheme.len();
        assert!(
            len.checked_mul(arity) == Some(values.len()),
            "{len} rows of arity {arity} need {len} · {arity} values, not {}",
            values.len()
        );
        let row = |i: usize| &values[i * arity..(i + 1) * arity];
        let (mut sorted, mut distinct) = (true, true);
        for i in 1..len {
            match row(i - 1).cmp(row(i)) {
                Ordering::Less => {}
                Ordering::Equal => distinct = false,
                Ordering::Greater => {
                    sorted = false;
                    break;
                }
            }
        }
        if sorted && distinct {
            // Relations outlive their parse (a queued request holds them),
            // so they keep none of the slack the buffer grew with.
            values.shrink_to_fit();
            return Self::new(scheme, values, len, true);
        }
        let mut order: Vec<usize> = (0..len).collect();
        if !sorted {
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        }
        order.dedup_by(|a, b| row(*a) == row(*b));
        let mut kept = Vec::with_capacity(order.len() * arity);
        for &i in &order {
            kept.extend(
                values[i * arity..(i + 1) * arity]
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Int(0))),
            );
        }
        Self::new(scheme, kept, order.len(), true)
    }

    /// A join's output: `len` duplicate-free rows in `values`, kept in the
    /// order the join emitted them.
    pub(crate) fn from_join(scheme: AttrSet, values: Vec<Value>, len: usize) -> Self {
        Self::new(scheme, values, len, false)
    }

    /// A relation over this one's scheme holding `len` rows in `values`,
    /// which are some of this relation's in its order — so canonical if
    /// this one is.
    pub(crate) fn subset(&self, mut values: Vec<Value>, len: usize) -> Self {
        values.shrink_to_fit();
        Relation {
            scheme: self.scheme,
            attrs: self.attrs.clone(),
            values,
            len,
            canonical: self.canonical,
        }
    }

    /// The rows in canonical order, sorted here unless the relation is
    /// canonical.
    pub(crate) fn sorted_rows(&self) -> Vec<&[Value]> {
        let mut rows: Vec<&[Value]> = self.rows().collect();
        if !self.canonical {
            rows.sort_unstable();
        }
        rows
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

    /// Number of values in a row: the scheme's size.
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// τ(R): the number of tuples. This is the paper's cost measure.
    #[inline]
    pub fn tau(&self) -> u64 {
        self.len as u64
    }

    /// Is the relation state empty (`R = φ`)?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s values, in canonical (ascending-attribute) order.
    ///
    /// # Panics
    /// If `i ≥ τ`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of a relation of {} rows", self.len);
        let arity = self.arity();
        &self.values[i * arity..(i + 1) * arity]
    }

    /// The rows: sorted for a relation built from rows, in emission order
    /// for a join's output (see [`Relation`]). Either order is
    /// deterministic for given inputs and thread count.
    #[inline]
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + DoubleEndedIterator + Clone {
        let arity = self.arity();
        (0..self.len).map(move |i| &self.values[i * arity..(i + 1) * arity])
    }

    /// Column index of `attr` within this relation, if present.
    #[inline]
    pub fn column_of(&self, attr: Attribute) -> Option<usize> {
        // attrs is ascending, so binary search is exact.
        self.attrs.binary_search(&attr).ok()
    }

    /// Column indices of `attrs`, ascending by attribute.
    ///
    /// # Panics
    /// If an attribute of `attrs` is not in the scheme.
    pub(crate) fn columns(&self, attrs: AttrSet) -> Vec<usize> {
        attrs
            .iter()
            .map(|a| self.column_of(a).expect("attribute in the scheme"))
            .collect()
    }

    /// Does the relation contain the row `row` (values in canonical
    /// order)? A binary search when the relation is canonical, a scan
    /// otherwise.
    pub fn contains(&self, row: &[Value]) -> bool {
        if !self.canonical {
            return self.rows().any(|r| r == row);
        }
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return true,
                Ordering::Greater => hi = mid,
            }
        }
        false
    }

    /// Natural join (a hash join).
    ///
    /// When the schemes are disjoint this degenerates to the Cartesian
    /// product, exactly as in the paper's definition.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        crate::join::join(self, other)
    }

    /// Natural join charging every emitted tuple to `guard`: the join
    /// stops with [`mjoin_guard::MjoinError::BudgetExceeded`] as soon as
    /// the output would pass the budget's tuple cap, instead of
    /// materializing an intermediate the budget forbids.
    pub fn natural_join_guarded(
        &self,
        other: &Relation,
        guard: &mjoin_guard::Guard,
    ) -> Result<Relation, mjoin_guard::MjoinError> {
        crate::join::join_guarded(self, other, guard)
    }

    /// Partitioned parallel hash join across `threads` scoped workers,
    /// clamped to the host's cores, all charging `guard`. Equal as a set
    /// to the sequential hash join at any thread count, with the same
    /// text; only the emission order of [`Relation::rows`] depends on the
    /// worker count. One worker runs the sequential kernel directly.
    pub fn natural_join_partitioned(
        &self,
        other: &Relation,
        threads: usize,
        guard: &mjoin_guard::Guard,
    ) -> Result<Relation, mjoin_guard::MjoinError> {
        crate::join::join_partitioned(self, other, threads, guard)
    }
}

/// The first width in `widths` other than `arity`, as an error.
fn check_widths(
    arity: usize,
    mut widths: impl Iterator<Item = usize>,
) -> Result<(), RelationError> {
    match widths.find(|&w| w != arity) {
        Some(got) => Err(RelationError::ArityMismatch {
            expected: arity,
            got,
        }),
        None => Ok(()),
    }
}

/// Set equality: both sides are read in canonical order.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.scheme != other.scheme || self.len != other.len {
            return false;
        }
        if self.canonical && other.canonical {
            self.values == other.values
        } else {
            self.sorted_rows() == other.sorted_rows()
        }
    }
}

impl Eq for Relation {}

/// Hashes the scheme, the row count and the rows in canonical order, so
/// equal relations hash equal whatever order they hold.
impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.scheme.hash(state);
        self.attrs.hash(state);
        self.len.hash(state);
        if self.canonical {
            self.rows().for_each(|row| row.hash(state));
        } else {
            self.sorted_rows().iter().for_each(|row| row.hash(state));
        }
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
    /// dropped. Rows are written in canonical order, whatever order the
    /// relation holds. The plan-cache key hashes this text, so its bytes are
    /// a contract.
    pub fn write_text(&self, catalog: &Catalog, out: &mut impl fmt::Write) -> fmt::Result {
        if self.canonical {
            self.write_rows(catalog, self.rows(), out)
        } else {
            self.write_rows(catalog, self.sorted_rows().iter().copied(), out)
        }
    }

    /// [`Relation::write_text`] over `rows`, this relation's rows in
    /// canonical order.
    fn write_rows<'r>(
        &self,
        catalog: &Catalog,
        rows: impl Iterator<Item = &'r [Value]> + Clone,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        let header = |k: usize| Cell::Str(catalog.name(self.attrs[k]).unwrap_or("?"));
        let mut widths: Vec<usize> = (0..self.attrs.len()).map(|k| header(k).width()).collect();
        let mut ints = vec![(i64::MAX, i64::MIN); widths.len()];
        for row in rows.clone() {
            for ((w, (lo, hi)), v) in widths.iter_mut().zip(&mut ints).zip(row) {
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
        for row in rows {
            out.str("\n")?;
            write_row(&mut out, &widths, |k| Cell::of(&row[k]))?;
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
        write!(f, "Relation({:?}, {} tuples)", self.scheme, self.len)
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
        let r = Relation::from_int_rows(scheme("AB"), vec![vec![2, 20], vec![1, 10], vec![2, 20]])
            .unwrap();
        assert_eq!(r.tau(), 2);
        assert_eq!(r.row(0)[0], Value::Int(1));
        assert_eq!(r.row(1)[0], Value::Int(2));
    }

    #[test]
    fn from_rows_checks_arity() {
        let err = Relation::from_int_rows(scheme("AB"), vec![vec![1]]).unwrap_err();
        assert_eq!(
            err,
            RelationError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
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
        assert!(r.contains(&[Value::Int(1), Value::Int(2)]));
        assert!(r.contains(&[Value::Int(3), Value::Int(4)]));
        assert!(!r.contains(&[Value::Int(1), Value::Int(5)]));
        assert!(!r.contains(&[Value::Int(1)]));
    }

    #[test]
    fn row_api() {
        let r = Relation::from_row_major(
            scheme("AB"),
            3,
            vec![
                2.into(),
                "x".into(),
                1.into(),
                "y".into(),
                2.into(),
                "x".into(),
            ],
        );
        assert_eq!((r.arity(), r.tau()), (2, 2));
        assert_eq!(r.row(0), &[Value::Int(1), Value::str("y")]);
        assert_eq!(r.row(1), &[Value::Int(2), Value::str("x")]);
        let rows: Vec<&[Value]> = r.rows().collect();
        assert_eq!(rows, [r.row(0), r.row(1)]);
        assert_eq!(r.rows().next_back(), Some(r.row(1)));
    }

    #[test]
    fn zero_arity_relations_count_their_rows() {
        let none = AttrSet::empty();
        let one = Relation::from_row_major(none, 3, Vec::new());
        assert_eq!((one.arity(), one.tau()), (0, 1));
        assert_eq!(one.rows().collect::<Vec<_>>(), [&[] as &[Value]]);
        assert!(one.contains(&[]));
        assert!(!Relation::empty(none).contains(&[]));
        assert_ne!(one, Relation::empty(none));
    }

    #[test]
    #[should_panic(expected = "need 2 · 2 values, not 1")]
    fn row_major_checks_the_buffer_length() {
        let _ = Relation::from_row_major(scheme("AB"), 2, vec![1.into()]);
    }
}
