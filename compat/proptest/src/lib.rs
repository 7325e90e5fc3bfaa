//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment cannot reach crates.io, so this crate vendors the
//! slice of proptest the workspace's property tests use: the [`proptest!`]
//! macro (with `#![proptest_config(...)]`, `name in strategy` and
//! `name: Type` bindings), [`strategy::Strategy`] with `prop_map`,
//! range/tuple/vec strategies, [`arbitrary::any`], and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its seed and case index; the
//!   deterministic per-test RNG means a failure replays exactly under
//!   `cargo test`.
//! * **Fixed seeding.** Each test's stream is derived from its name, so
//!   runs are reproducible without a persistence file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Value` — the upstream trait's
    /// generation half, without shrinking.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates with `self`, then runs a value-dependent strategy.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Filters generated values; draws again (up to a bound) when the
        /// predicate rejects.
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                reason,
                f,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone, Debug)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) reason: &'static str,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter rejected 1000 consecutive draws: {}",
                self.reason
            )
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }

    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Number-of-elements specification: a fixed count or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy yielding `Vec`s of `element`-generated values.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a size given as a count or range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` and the `Arbitrary` trait behind `name: Type` bindings.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the full domain.
        fn arbitrary_from(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_from(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_from(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical strategy for an [`Arbitrary`] type.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_from(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    /// Subset of upstream's `ProptestConfig`: just the case count.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic splitmix64 stream, seeded from the test name so every
    /// property has an independent, reproducible stream.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the named test (FNV-1a of the name seeds the stream).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// The glob import every property test starts with.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Upstream re-exports the crate root as `prop` inside the prelude.
    pub use crate as prop;
}

/// Declares property tests. Supports the workspace's usage:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u8..10, seed: u64) { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs [$cfg] $($rest)*);
    };
    (@funcs [$cfg:expr]) => {};
    (@funcs [$cfg:expr]
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                // A trailing comma is appended so every binding is
                // comma-terminated; an already-present one leaves a lone `,`
                // that the final muncher rule absorbs.
                let outcome = $crate::proptest!(@case rng, $body, [] $($params)* ,);
                if let ::core::result::Result::Err(msg) = outcome {
                    panic!(
                        "proptest case {}/{} of {} failed:\n{}",
                        case + 1, config.cases, stringify!($name), msg
                    );
                }
            }
        }
        $crate::proptest!(@funcs [$cfg] $($rest)*);
    };
    // Parameter munchers: fold each comma-terminated binding into
    // [(pattern, strategy)].
    (@case $rng:ident, $body:block, [$(($p:ident, $s:expr))*] $name:ident in $strat:expr, $($rest:tt)*) => {
        $crate::proptest!(@case $rng, $body, [$(($p, $s))* ($name, $strat)] $($rest)*)
    };
    (@case $rng:ident, $body:block, [$(($p:ident, $s:expr))*] $name:ident : $ty:ty, $($rest:tt)*) => {
        $crate::proptest!(@case $rng, $body, [$(($p, $s))* ($name, $crate::arbitrary::any::<$ty>())] $($rest)*)
    };
    // The doubled trailing comma left when the source already had one.
    (@case $rng:ident, $body:block, [$(($p:ident, $s:expr))*] ,) => {
        $crate::proptest!(@exec $rng, $body, [$(($p, $s))*])
    };
    (@case $rng:ident, $body:block, [$(($p:ident, $s:expr))*]) => {
        $crate::proptest!(@exec $rng, $body, [$(($p, $s))*])
    };
    (@exec $rng:ident, $body:block, [$(($p:ident, $s:expr))*]) => {{
        $(let $p = $crate::strategy::Strategy::generate(&$s, &mut $rng);)*
        #[allow(clippy::redundant_closure_call)]
        (|| -> ::core::result::Result<(), ::std::string::String> {
            $body
            ::core::result::Result::Ok(())
        })()
    }};
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Discards the current case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_maps(x in 0i64..10, y in arb_even(), mask: u64) {
            prop_assert!((0..10).contains(&x));
            prop_assert_eq!(y % 2, 0);
            let _ = mask; // any::<u64> draws the full domain
        }

        #[test]
        fn vec_and_tuple_strategies(v in prop::collection::vec((0i64..5, 0i64..5), 0..12), n in prop::collection::vec(1u64..9, 3)) {
            prop_assert!(v.len() < 12);
            prop_assert_eq!(n.len(), 3);
            for (a, b) in v {
                prop_assert!(a < 5 && b < 5);
            }
        }

        #[test]
        fn assume_discards(x in 0u64..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }
    }

    // No #[test] meta: the macro re-emits whatever attributes are written,
    // so this generates a plain fn we can call from a should_panic test.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        fn always_fails(x in 0u64..4) { prop_assert!(x > 100, "x was {}", x); }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_context() {
        always_fails();
    }
}
