//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of `rand` it actually uses:
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], [`Rng::gen_range`],
//! [`Rng::gen`], [`Rng::gen_bool`] and [`seq::SliceRandom`]
//! (`shuffle`/`choose`). Everything is deterministic given a seed, which is
//! all the generators, property tests and benches require — statistical
//! quality beyond splitmix64/xoshiro is not needed here.
//!
//! The stream of values differs from upstream `rand`; tests in this
//! workspace assert properties of the *generated structures*, never exact
//! upstream sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`'s one used entry.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that a uniform range can be sampled from (`Rng::gen_range`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * unit_f64(rng.next_u64())
    }
}

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types drawable from the "standard" distribution (`Rng::gen`).
pub trait Standard: Sized {
    /// Draws one value.
    fn standard_from<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn standard_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn standard_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

impl Standard for bool {
    fn standard_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn standard_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Draw from the standard distribution (`[0,1)` for floats).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: `xoshiro256**` seeded via
    /// splitmix64 — deterministic, fast, and plenty for test-data synthesis.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                Self::splitmix(&mut st),
                Self::splitmix(&mut st),
                Self::splitmix(&mut st),
                Self::splitmix(&mut st),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::RngCore;

    /// Slice shuffling and choosing, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly chosen element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() % self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn determinism_and_stream_independence() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..32).map(|_| a.gen_range(0u64..1000)).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen_range(0u64..1000)).collect();
        assert_eq!(xs, ys);
        let mut c = StdRng::seed_from_u64(8);
        let zs: Vec<u64> = (0..32).map(|_| c.gen_range(0u64..1000)).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..7);
            assert!((-5..7).contains(&v));
            let u = rng.gen_range(3usize..=9);
            assert!((3..=9).contains(&u));
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
        let empty: [usize; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
