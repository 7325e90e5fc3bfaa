//! The benchmark's own PRNG. Deliberately not `compat/rand`: request lists
//! must never drift when the repo's shims change, so the generator owns
//! every bit of its randomness.

/// splitmix64 (Steele, Lea & Flood): one add and a three-step mix per draw.
#[derive(Clone, Debug)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for item `index` of stream `tag` under `seed`,
    /// so request *i* can be generated without generating requests `0..i`.
    pub fn stream(seed: u64, tag: u64, index: u64) -> Self {
        Rng(mix(mix(seed ^ GOLDEN).wrapping_add(tag)).wrapping_add(mix(index ^ !GOLDEN)))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n >= 1);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
/// Sampling is a binary search over the precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler (`n ≥ 1`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "a Zipf distribution needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Rng::new(7);
        for n in [1u64, 2, 3, 10, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..200 {
            let v = r.range(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let a = Rng::stream(1990, 1, 0).next_u64();
        assert_eq!(a, Rng::stream(1990, 1, 0).next_u64());
        assert_ne!(a, Rng::stream(1990, 1, 1).next_u64());
        assert_ne!(a, Rng::stream(1990, 2, 0).next_u64());
        assert_ne!(a, Rng::stream(1993, 1, 0).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_range() {
        let z = Zipf::new(64, 1.1);
        let mut r = Rng::new(3);
        let mut hist = [0u32; 64];
        for _ in 0..20_000 {
            hist[z.sample(&mut r)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[4] && hist[4] > hist[32]);
        assert!(hist.iter().all(|&h| h > 0));
    }
}
