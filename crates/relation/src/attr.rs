//! Attributes, attribute sets (relation schemes) and the attribute catalog.

use std::fmt;

use crate::error::RelationError;

/// Maximum number of distinct attributes a [`Catalog`] can intern.
///
/// An [`AttrSet`] is a fixed-width bitset of `MAX_ATTRS` bits (four 64-bit
/// words), which keeps scheme operations branch-free and allocation-free.
/// 256 attributes is far beyond any workload in the paper or its
/// experiments; widening the constant (and `WORDS`) is the only change
/// required to lift the limit.
pub const MAX_ATTRS: usize = 256;

const WORDS: usize = MAX_ATTRS / 64;

/// An interned attribute: an index into a [`Catalog`].
///
/// The paper's attributes are symbols such as `A`, `B`, `C`; interning them
/// lets every scheme operation work on bitsets. Two attributes from
/// *different* catalogs must not be mixed — the types don't prevent it, but
/// every constructor in this workspace threads a single catalog per
/// database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Attribute(pub(crate) u16);

impl Attribute {
    /// The catalog index of this attribute.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an attribute from a raw catalog index.
    ///
    /// Callers are responsible for the index being valid in the catalog they
    /// pair it with; [`Catalog::name`] will return `None` for stray indices.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index < MAX_ATTRS);
        Attribute(index as u16)
    }
}

/// A set of attributes — a relation scheme **R** in the paper's notation.
///
/// Implemented as a 256-bit bitset. All the scheme-level predicates of the
/// paper's Section 2 (`linked`, `disjoint`, …) reduce to a handful of word
/// operations on this type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttrSet {
    words: [u64; WORDS],
}

impl AttrSet {
    /// The empty attribute set.
    #[inline]
    pub const fn empty() -> Self {
        AttrSet { words: [0; WORDS] }
    }

    /// A singleton set containing just `attr`.
    #[inline]
    pub fn singleton(attr: Attribute) -> Self {
        let mut s = Self::empty();
        s.insert(attr);
        s
    }

    /// Builds a set from an iterator of attributes.
    ///
    /// Also available through the `FromIterator` impl; the inherent method
    /// keeps call sites free of `use std::iter::FromIterator` turbofish.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Attribute>>(iter: I) -> Self {
        let mut s = Self::empty();
        for a in iter {
            s.insert(a);
        }
        s
    }

    /// Inserts an attribute.
    #[inline]
    pub fn insert(&mut self, attr: Attribute) {
        let i = attr.index();
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes an attribute.
    #[inline]
    pub fn remove(&mut self, attr: Attribute) {
        let i = attr.index();
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Does the set contain `attr`?
    #[inline]
    pub fn contains(self, attr: Attribute) -> bool {
        let i = attr.index();
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of attributes in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set union `self ∪ other`.
    #[inline]
    pub fn union(self, other: Self) -> Self {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words) {
            *w |= o;
        }
        AttrSet { words }
    }

    /// Set intersection `self ∩ other`.
    #[inline]
    pub fn intersect(self, other: Self) -> Self {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words) {
            *w &= o;
        }
        AttrSet { words }
    }

    /// Set difference `self − other`.
    #[inline]
    pub fn difference(self, other: Self) -> Self {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words) {
            *w &= !o;
        }
        AttrSet { words }
    }

    /// Do the two sets share at least one attribute?
    ///
    /// This is the paper's *linked* predicate specialized to two schemes:
    /// `R` is linked to `R'` iff `R ∩ R' ≠ ∅`.
    #[inline]
    pub fn intersects(self, other: Self) -> bool {
        self.words.iter().zip(other.words).any(|(&w, o)| w & o != 0)
    }

    /// Is `self` a subset of `other`?
    #[inline]
    pub fn is_subset_of(self, other: Self) -> bool {
        self.words
            .iter()
            .zip(other.words)
            .all(|(&w, o)| w & !o == 0)
    }

    /// Are the two sets disjoint?
    #[inline]
    pub fn is_disjoint(self, other: Self) -> bool {
        !self.intersects(other)
    }

    /// Iterates over the attributes in ascending index order.
    #[inline]
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter { set: self, word: 0 }
    }

    /// The smallest attribute in the set, if any.
    pub fn first(self) -> Option<Attribute> {
        self.iter().next()
    }
}

impl IntoIterator for AttrSet {
    type Item = Attribute;
    type IntoIter = AttrSetIter;
    fn into_iter(self) -> AttrSetIter {
        self.iter()
    }
}

impl std::iter::FromIterator<Attribute> for AttrSet {
    fn from_iter<I: IntoIterator<Item = Attribute>>(iter: I) -> Self {
        AttrSet::from_iter(iter)
    }
}

impl std::ops::BitOr for AttrSet {
    type Output = AttrSet;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for AttrSet {
    type Output = AttrSet;
    fn bitand(self, rhs: Self) -> Self {
        self.intersect(rhs)
    }
}

impl std::ops::Sub for AttrSet {
    type Output = AttrSet;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttrSet{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.index())?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the attributes of an [`AttrSet`] in ascending order.
pub struct AttrSetIter {
    set: AttrSet,
    word: usize,
}

impl Iterator for AttrSetIter {
    type Item = Attribute;

    fn next(&mut self) -> Option<Attribute> {
        while self.word < WORDS {
            let w = self.set.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.set.words[self.word] &= w - 1; // clear lowest set bit
                return Some(Attribute::from_index(self.word * 64 + bit));
            }
            self.word += 1;
        }
        None
    }
}

/// Interning table mapping attribute names to [`Attribute`] indices.
///
/// The paper writes schemes as strings of single-letter attributes (`ABC`
/// for `{A, B, C}`); [`Catalog::scheme`] accepts exactly that notation when
/// every name is one character, and a comma-separated list (`"student,
/// course"`) otherwise.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    names: Vec<String>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// A catalog pre-populated with the 26 single-letter attributes
    /// `A`–`Z`, in order, so that `Attribute::from_index(0)` is `A`.
    ///
    /// Convenient for transcribing the paper's examples.
    pub fn with_letters() -> Self {
        let mut c = Catalog::new();
        for ch in 'A'..='Z' {
            c.intern(&ch.to_string())
                .expect("26 letters fit in any catalog");
        }
        c
    }

    /// Interns `name`, returning its attribute (existing or fresh).
    ///
    /// # Errors
    /// Returns [`RelationError::CatalogFull`] once [`MAX_ATTRS`] distinct
    /// names have been interned.
    pub fn intern(&mut self, name: &str) -> Result<Attribute, RelationError> {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Ok(Attribute::from_index(i));
        }
        if self.names.len() >= MAX_ATTRS {
            return Err(RelationError::CatalogFull);
        }
        self.names.push(name.to_owned());
        Ok(Attribute::from_index(self.names.len() - 1))
    }

    /// Looks up an already-interned attribute by name.
    pub fn lookup(&self, name: &str) -> Option<Attribute> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(Attribute::from_index)
    }

    /// The name of `attr`, if it belongs to this catalog.
    pub fn name(&self, attr: Attribute) -> Option<&str> {
        self.names.get(attr.index()).map(String::as_str)
    }

    /// Number of interned attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Parses a scheme description, interning attributes as needed.
    ///
    /// * `"ABC"` (no commas, no spaces) → the attributes `A`, `B`, `C`;
    /// * `"student,course"` → the attributes `student` and `course`.
    pub fn scheme(&mut self, spec: &str) -> Result<AttrSet, RelationError> {
        let mut set = AttrSet::empty();
        if spec.contains(',') {
            for part in spec.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    return Err(RelationError::EmptyAttributeName);
                }
                set.insert(self.intern(part)?);
            }
        } else {
            for ch in spec.chars() {
                if ch.is_whitespace() {
                    continue;
                }
                set.insert(self.intern(&ch.to_string())?);
            }
        }
        if set.is_empty() {
            return Err(RelationError::EmptyScheme);
        }
        Ok(set)
    }

    /// Renders an attribute set using this catalog's names.
    ///
    /// Single-character names are concatenated (`ABC`); longer names are
    /// joined with commas.
    pub fn render(&self, set: AttrSet) -> String {
        let names: Vec<&str> = set.iter().map(|a| self.name(a).unwrap_or("?")).collect();
        if names.iter().all(|n| n.chars().count() == 1) {
            names.concat()
        } else {
            names.join(",")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(indices: &[usize]) -> AttrSet {
        AttrSet::from_iter(indices.iter().map(|&i| Attribute::from_index(i)))
    }

    #[test]
    fn empty_set_is_empty() {
        assert!(AttrSet::empty().is_empty());
        assert_eq!(AttrSet::empty().len(), 0);
        assert_eq!(AttrSet::empty().iter().count(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let a = Attribute::from_index(3);
        let b = Attribute::from_index(130); // exercise a high word
        let mut s = AttrSet::empty();
        s.insert(a);
        s.insert(b);
        assert!(s.contains(a));
        assert!(s.contains(b));
        assert_eq!(s.len(), 2);
        s.remove(a);
        assert!(!s.contains(a));
        assert!(s.contains(b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let s = attrs(&[0, 1, 2]);
        let t = attrs(&[2, 3]);
        assert_eq!(s.union(t), attrs(&[0, 1, 2, 3]));
        assert_eq!(s.intersect(t), attrs(&[2]));
        assert_eq!(s.difference(t), attrs(&[0, 1]));
        assert!(s.intersects(t));
        assert!(!s.is_disjoint(t));
        assert!(attrs(&[0, 1]).is_disjoint(attrs(&[2, 3])));
        assert!(attrs(&[1]).is_subset_of(s));
        assert!(!s.is_subset_of(t));
        assert!(AttrSet::empty().is_subset_of(t));
    }

    #[test]
    fn iteration_is_ascending() {
        let s = attrs(&[200, 5, 64, 63]);
        let got: Vec<usize> = s.iter().map(|a| a.index()).collect();
        assert_eq!(got, vec![5, 63, 64, 200]);
        assert_eq!(s.first(), Some(Attribute::from_index(5)));
    }

    #[test]
    fn operators_match_methods() {
        let s = attrs(&[0, 1]);
        let t = attrs(&[1, 2]);
        assert_eq!(s | t, s.union(t));
        assert_eq!(s & t, s.intersect(t));
        assert_eq!(s - t, s.difference(t));
    }

    #[test]
    fn catalog_interning_is_idempotent() {
        let mut c = Catalog::new();
        let a1 = c.intern("A").unwrap();
        let a2 = c.intern("A").unwrap();
        assert_eq!(a1, a2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.name(a1), Some("A"));
        assert_eq!(c.lookup("A"), Some(a1));
        assert_eq!(c.lookup("B"), None);
    }

    #[test]
    fn catalog_letters() {
        let c = Catalog::with_letters();
        assert_eq!(c.len(), 26);
        assert_eq!(c.name(Attribute::from_index(0)), Some("A"));
        assert_eq!(c.name(Attribute::from_index(25)), Some("Z"));
    }

    #[test]
    fn catalog_full() {
        let mut c = Catalog::new();
        for i in 0..MAX_ATTRS {
            c.intern(&format!("a{i}")).unwrap();
        }
        assert!(matches!(
            c.intern("overflow"),
            Err(RelationError::CatalogFull)
        ));
        // Existing names still resolve.
        assert!(c.intern("a0").is_ok());
    }

    #[test]
    fn scheme_parsing_letters_and_words() {
        let mut c = Catalog::new();
        let abc = c.scheme("ABC").unwrap();
        assert_eq!(abc.len(), 3);
        assert_eq!(c.render(abc), "ABC");

        let sc = c.scheme("student, course").unwrap();
        assert_eq!(sc.len(), 2);
        assert_eq!(c.render(sc), "student,course");

        assert!(matches!(c.scheme(""), Err(RelationError::EmptyScheme)));
        assert!(matches!(
            c.scheme("a,,b"),
            Err(RelationError::EmptyAttributeName)
        ));
    }

    #[test]
    fn scheme_parsing_is_set_like() {
        let mut c = Catalog::new();
        let s1 = c.scheme("AAB").unwrap();
        let s2 = c.scheme("AB").unwrap();
        assert_eq!(s1, s2);
    }
}
