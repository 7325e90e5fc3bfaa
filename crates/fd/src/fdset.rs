//! Functional dependencies and closures.

use mjoin_relation::{AttrSet, Catalog};

/// A functional dependency `X → Y`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fd {
    /// The determinant `X`.
    pub lhs: AttrSet,
    /// The dependent `Y`.
    pub rhs: AttrSet,
}

impl Fd {
    /// Builds `lhs → rhs`.
    pub fn new(lhs: AttrSet, rhs: AttrSet) -> Self {
        Fd { lhs, rhs }
    }

    /// Parses `"AB -> C"` using a catalog (interning as needed).
    pub fn parse(catalog: &mut Catalog, spec: &str) -> Option<Fd> {
        let (l, r) = spec.split_once("->")?;
        let lhs = catalog.scheme(l.trim()).ok()?;
        let rhs = catalog.scheme(r.trim()).ok()?;
        Some(Fd { lhs, rhs })
    }

    /// Is the dependency trivial (`Y ⊆ X`)?
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset_of(self.lhs)
    }
}

/// A set of functional dependencies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// The empty FD set.
    pub fn new() -> Self {
        FdSet::default()
    }

    /// Builds from a list of dependencies.
    pub fn from_fds(fds: Vec<Fd>) -> Self {
        FdSet { fds }
    }

    /// Parses a list of `"X -> Y"` specs.
    ///
    /// # Panics
    /// Panics on a malformed spec — FD lists are authored by the test or
    /// experiment writer, so failures are programming errors.
    pub fn parse(catalog: &mut Catalog, specs: &[&str]) -> FdSet {
        FdSet {
            fds: specs
                .iter()
                .map(|s| Fd::parse(catalog, s).unwrap_or_else(|| panic!("bad FD spec: {s}")))
                .collect(),
        }
    }

    /// Adds a dependency.
    pub fn push(&mut self, fd: Fd) {
        self.fds.push(fd);
    }

    /// The dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// The closure `X⁺` of `attrs` under this FD set.
    pub fn closure(&self, attrs: AttrSet) -> AttrSet {
        let mut closed = attrs;
        loop {
            let mut grew = false;
            for fd in &self.fds {
                if fd.lhs.is_subset_of(closed) && !fd.rhs.is_subset_of(closed) {
                    closed = closed.union(fd.rhs);
                    grew = true;
                }
            }
            if !grew {
                return closed;
            }
        }
    }

    /// Does this FD set imply `fd` (`fd.rhs ⊆ fd.lhs⁺`)?
    pub fn implies(&self, fd: Fd) -> bool {
        fd.rhs.is_subset_of(self.closure(fd.lhs))
    }

    /// Is `key` a superkey of `scheme` (`scheme ⊆ key⁺`)?
    pub fn is_superkey(&self, key: AttrSet, scheme: AttrSet) -> bool {
        scheme.is_subset_of(self.closure(key))
    }

    /// Projects the FD set onto `universe`: the dependencies over
    /// `universe` implied by this set, including those that flow through
    /// attributes *outside* it (e.g. `A → W, W → B` projects to `A → B`).
    ///
    /// Exponential in `|universe|` (the textbook algorithm); intended for
    /// the small universes of lossless-join tests. Only minimal left-hand
    /// sides are kept.
    pub fn project(&self, universe: AttrSet) -> FdSet {
        let attrs: Vec<_> = universe.iter().collect();
        let n = attrs.len();
        let mut out = FdSet::new();
        let mut masks: Vec<u64> = (1..(1u64 << n)).collect();
        masks.sort_by_key(|m| m.count_ones());
        let mut kept: Vec<(AttrSet, AttrSet)> = Vec::new();
        for m in masks {
            let lhs = AttrSet::from_iter((0..n).filter(|&i| m & (1 << i) != 0).map(|i| attrs[i]));
            let rhs = self.closure(lhs).intersect(universe).difference(lhs);
            if rhs.is_empty() {
                continue;
            }
            // Minimality: skip if a kept smaller determinant already
            // derives at least this much.
            if kept
                .iter()
                .any(|(l, r)| l.is_subset_of(lhs) && rhs.is_subset_of(r.union(*l)))
            {
                continue;
            }
            kept.push((lhs, rhs));
            out.push(Fd::new(lhs, rhs));
        }
        out
    }

    /// The candidate keys of `scheme`: the minimal subsets of `scheme`
    /// whose closure covers it. Exponential in `|scheme|`; intended for
    /// the small schemes of this workspace.
    pub fn candidate_keys(&self, scheme: AttrSet) -> Vec<AttrSet> {
        let attrs: Vec<_> = scheme.iter().collect();
        let n = attrs.len();
        let mut keys: Vec<AttrSet> = Vec::new();
        // Enumerate subsets in increasing popcount so minimality is a
        // simple superset check against already-found keys.
        let mut masks: Vec<u64> = (0..(1u64 << n)).collect();
        masks.sort_by_key(|m| m.count_ones());
        for m in masks {
            let cand = AttrSet::from_iter((0..n).filter(|&i| m & (1 << i) != 0).map(|i| attrs[i]));
            if keys.iter().any(|k| k.is_subset_of(cand)) {
                continue; // a subset is already a key
            }
            if self.is_superkey(cand, scheme) {
                keys.push(cand);
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, FdSet) {
        let mut cat = Catalog::with_letters();
        let fds = FdSet::parse(&mut cat, &["A -> B", "B -> C", "CD -> E"]);
        (cat, fds)
    }

    fn attrs(cat: &Catalog, s: &str) -> AttrSet {
        AttrSet::from_iter(s.chars().map(|c| cat.lookup(&c.to_string()).unwrap()))
    }

    #[test]
    fn closure_transitivity() {
        let (cat, fds) = setup();
        let a = attrs(&cat, "A");
        let closed = fds.closure(a);
        assert_eq!(closed, attrs(&cat, "ABC"));
        // AD closes over E too (via CD -> E).
        assert_eq!(fds.closure(attrs(&cat, "AD")), attrs(&cat, "ABCDE"));
    }

    #[test]
    fn empty_fd_set_closure_is_identity() {
        let cat = Catalog::with_letters();
        let fds = FdSet::new();
        assert!(fds.is_empty());
        let x = attrs(&cat, "ABC");
        assert_eq!(fds.closure(x), x);
    }

    #[test]
    fn implication() {
        let (cat, fds) = setup();
        assert!(fds.implies(Fd::new(attrs(&cat, "A"), attrs(&cat, "C"))));
        assert!(!fds.implies(Fd::new(attrs(&cat, "C"), attrs(&cat, "A"))));
        // Trivial FDs are always implied.
        assert!(fds.implies(Fd::new(attrs(&cat, "AB"), attrs(&cat, "A"))));
    }

    #[test]
    fn superkeys() {
        let (cat, fds) = setup();
        let scheme = attrs(&cat, "ABC");
        assert!(fds.is_superkey(attrs(&cat, "A"), scheme));
        assert!(!fds.is_superkey(attrs(&cat, "B"), scheme));
        assert!(fds.is_superkey(attrs(&cat, "AB"), scheme));
    }

    #[test]
    fn candidate_keys_simple() {
        let (cat, fds) = setup();
        let keys = fds.candidate_keys(attrs(&cat, "ABC"));
        assert_eq!(keys, vec![attrs(&cat, "A")]);
    }

    #[test]
    fn candidate_keys_multiple() {
        let mut cat = Catalog::with_letters();
        // A -> B, B -> A: both {A,C} and {B,C} are keys of ABC.
        let fds = FdSet::parse(&mut cat, &["A -> B", "B -> A"]);
        let mut keys = fds.candidate_keys(attrs(&cat, "ABC"));
        keys.sort();
        assert_eq!(keys, vec![attrs(&cat, "AC"), attrs(&cat, "BC")]);
    }

    #[test]
    fn candidate_keys_no_fds() {
        let cat = Catalog::with_letters();
        let fds = FdSet::new();
        let keys = fds.candidate_keys(attrs(&cat, "AB"));
        assert_eq!(keys, vec![attrs(&cat, "AB")]);
    }

    #[test]
    fn fd_parsing() {
        let mut cat = Catalog::with_letters();
        let fd = Fd::parse(&mut cat, "AB -> C").unwrap();
        assert_eq!(fd.lhs, attrs(&cat, "AB"));
        assert_eq!(fd.rhs, attrs(&cat, "C"));
        assert!(Fd::parse(&mut cat, "no arrow").is_none());
        assert!(!fd.is_trivial());
        assert!(Fd::new(attrs(&cat, "AB"), attrs(&cat, "B")).is_trivial());
    }
}
