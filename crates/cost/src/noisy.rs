//! Seeded, deterministic estimation error as an injectable fault class.
//!
//! Planners never see true cardinalities in production — they see a model.
//! [`NoisyOracle`] makes the gap between the two a *controlled input*: it
//! wraps any oracle and multiplies each reported τ by a per-subset factor
//! drawn deterministically from a configured q-error envelope, so a test
//! or bench can dial in "estimates wrong by up to 4×" the same way PR-1's
//! failpoints dial in "this join fails".
//!
//! Design constraints, in order:
//!
//! * **Determinism.** The factor for a subset is a pure function of
//!   `(seed, subset)` — a splitmix64 hash of the subset's bitmask, no RNG
//!   state. The same seed produces bit-identical estimates across calls,
//!   runs, and thread counts, which is what lets the whole adaptive
//!   pipeline promise reproducible traces.
//! * **Bounded error.** The factor lies in `[1/q, q]`, so the wrapper's
//!   q-error against its inner oracle never exceeds the envelope (±1 for
//!   integer rounding).
//! * **Structure preservation.** Zeros pass through (an estimator that
//!   knows a join is empty stays right about it), singletons are exact
//!   (base cardinalities come from the catalog, not from estimation), and
//!   `u64::MAX` saturation passes through (a tripped inner oracle stays
//!   visibly tripped).

use mjoin_guard::MjoinError;
use mjoin_hypergraph::{DbScheme, RelSet};

use crate::oracle::CardinalityOracle;

/// Multiplies an inner oracle's answers by seeded per-subset noise within
/// a q-error envelope. See the module docs for the guarantees.
#[derive(Clone, Debug)]
pub struct NoisyOracle<O> {
    inner: O,
    q: f64,
    seed: u64,
}

/// splitmix64 finalizer — a full-avalanche mix, so adjacent subset masks
/// get unrelated factors.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<O> NoisyOracle<O> {
    /// Wraps `inner` with noise from the q-error envelope `q` (≥ 1) keyed
    /// by `seed`. `q == 1` is the identity wrapper.
    ///
    /// # Panics
    /// Panics on an invalid envelope — use [`try_new`](Self::try_new) for
    /// a typed error.
    pub fn new(inner: O, q: f64, seed: u64) -> Self {
        Self::try_new(inner, q, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) with typed validation: the envelope must be a
    /// finite number ≥ 1.
    pub fn try_new(inner: O, q: f64, seed: u64) -> Result<Self, MjoinError> {
        if !q.is_finite() || q < 1.0 {
            return Err(MjoinError::InvalidScheme(format!(
                "q-error envelope must be a finite number ≥ 1, got {q}"
            )));
        }
        Ok(NoisyOracle { inner, q, seed })
    }

    /// The configured q-error envelope.
    pub fn envelope(&self) -> f64 {
        self.q
    }

    /// The noise seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps to the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The multiplicative factor applied to `subset` — `q^u` for a hashed
    /// `u ∈ [-1, 1]`, so it always lies within `[1/q, q]`.
    pub fn factor(&self, subset: RelSet) -> f64 {
        if self.q <= 1.0 {
            return 1.0;
        }
        // Fold the 128-bit subset into 64 bits word-wise; the high word is
        // zero for sets under 64 relations, so factors there are unchanged
        // from the 64-bit era (seeded noise stays reproducible).
        let [lo, hi] = subset.words();
        let folded = lo
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hi.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let h = splitmix64(self.seed ^ folded);
        // Top 53 bits → uniform in [0, 1), then stretched to [-1, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.q.powf(2.0 * unit - 1.0)
    }

    /// Applies the subset's noise factor to an inner answer, preserving
    /// 0 (known-empty), `u64::MAX` (saturated/tripped) and singleton
    /// exactness, and flooring perturbed nonzero answers at 1.
    fn perturb(&self, subset: RelSet, t: u64) -> u64 {
        mjoin_obs::incr(mjoin_obs::Counter::OracleNoisyEstimates, 1);
        if t == 0 || t == u64::MAX || subset.is_singleton() {
            return t;
        }
        let v = t as f64 * self.factor(subset);
        if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            (v.round() as u64).max(1)
        }
    }
}

impl<O: CardinalityOracle> CardinalityOracle for NoisyOracle<O> {
    fn scheme(&self) -> &DbScheme {
        self.inner.scheme()
    }

    fn tau(&self, subset: RelSet) -> u64 {
        let t = self.inner.tau(subset);
        self.perturb(subset, t)
    }

    fn try_tau(&self, subset: RelSet) -> Result<u64, MjoinError> {
        let t = self.inner.try_tau(subset)?;
        Ok(self.perturb(subset, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SyntheticOracle;
    use mjoin_relation::Catalog;

    fn model() -> SyntheticOracle {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC", "CD"]).unwrap();
        SyntheticOracle::new(scheme, vec![100, 80, 60], 10)
    }

    #[test]
    fn envelope_one_is_the_identity() {
        let clean = model();
        let noisy = NoisyOracle::new(model(), 1.0, 42);
        for subset in RelSet::full(3).subsets().filter(|s| !s.is_empty()) {
            assert_eq!(noisy.tau(subset), clean.tau(subset), "{subset:?}");
        }
    }

    #[test]
    fn noise_stays_within_the_envelope() {
        let q = 4.0;
        let clean = model();
        let noisy = NoisyOracle::new(model(), q, 7);
        for subset in RelSet::full(3).subsets().filter(|s| !s.is_empty()) {
            let t = clean.tau(subset) as f64;
            let n = noisy.tau(subset) as f64;
            assert!(n >= (t / q - 1.0).max(1.0), "{subset:?}: {n} vs {t}");
            assert!(n <= t * q + 1.0, "{subset:?}: {n} vs {t}");
        }
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let a = NoisyOracle::new(model(), 16.0, 9);
        let b = NoisyOracle::new(model(), 16.0, 9);
        let c = NoisyOracle::new(model(), 16.0, 10);
        let mut diverged = false;
        for subset in RelSet::full(3).subsets().filter(|s| !s.is_empty()) {
            assert_eq!(a.tau(subset), b.tau(subset), "{subset:?}");
            diverged |= a.tau(subset) != c.tau(subset);
        }
        assert!(
            diverged,
            "a different seed should move at least one estimate"
        );
    }

    #[test]
    fn singletons_and_zeros_are_exact() {
        let mut cat = Catalog::new();
        let scheme = DbScheme::parse(&mut cat, &["AB", "BC"]).unwrap();
        let states = vec![
            mjoin_relation::Relation::empty(scheme.scheme(0)),
            mjoin_relation::Relation::from_int_rows(scheme.scheme(1), vec![vec![1, 2]]).unwrap(),
        ];
        let db = crate::Database::new(cat, scheme, states);
        let noisy = NoisyOracle::new(SyntheticOracle::from_database(&db), 16.0, 3);
        assert_eq!(
            noisy.tau(RelSet::singleton(1)),
            1,
            "singletons are catalog-exact"
        );
        assert_eq!(noisy.tau(RelSet::full(2)), 0, "known-empty passes through");
    }

    #[test]
    fn invalid_envelopes_are_typed_errors() {
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = NoisyOracle::try_new(model(), bad, 0).unwrap_err();
            assert!(
                matches!(err, MjoinError::InvalidScheme(_)),
                "{bad}: {err:?}"
            );
        }
    }
}
