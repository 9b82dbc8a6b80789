//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! range / tuple / `any` / `collection::vec` strategies,
//! [`ProptestConfig`](test_runner::ProptestConfig), the `proptest!`
//! macro, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest, by design:
//! - No shrinking. On failure the offending input is re-generated from its
//!   deterministic per-case seed and printed, which makes every failure
//!   reproducible without persistence files.
//! - Generation is driven by a fixed-seed SplitMix64 stream keyed on
//!   `(test name, case index)`, so runs are fully deterministic.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Runner configuration; only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to execute per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Matches real proptest's default case count.
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic generator stream (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Stream for one `(property, case)` pair. Keyed by FNV-1a of the
        /// test name mixed with the case index, so every property and every
        /// case draw from independent deterministic streams.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            };
            // Warm up so near-identical seeds decorrelate.
            rng.next_u64();
            rng
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        /// Uses Lemire's multiply-shift with rejection for exactness.
        pub fn next_below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "bound must be non-zero");
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let x = self.next_u64();
                let wide = (x as u128) * (bound as u128);
                if (wide as u64) >= threshold {
                    return (wide >> 64) as u64;
                }
            }
        }

        /// Uniform float in `[0, 1)` with 53 bits of precision.
        pub fn next_unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for producing random values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value: Debug;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Derives a second strategy from each generated value and draws
        /// from it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            let mid = self.inner.generate(rng);
            (self.f)(mid).generate(rng)
        }
    }

    /// Types that ranges and `any` know how to sample uniformly.
    pub trait SampleUniform: Sized + Debug + Copy + PartialOrd {
        /// Uniform draw from `[lo, hi)`.
        fn sample_range(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
        /// Uniform draw from `[lo, hi]`.
        fn sample_range_inclusive(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
        /// Uniform draw from the full domain.
        fn sample_any(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_sample_uniform_int {
        ($($ty:ty),*) => {$(
            impl SampleUniform for $ty {
                fn sample_range(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "empty range {lo}..{hi}");
                    let span = (hi as u64) - (lo as u64);
                    lo + rng.next_below(span) as $ty
                }

                fn sample_range_inclusive(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                    assert!(lo <= hi, "empty range {lo}..={hi}");
                    let span = (hi as u64) - (lo as u64);
                    match span.checked_add(1) {
                        Some(n) => lo + rng.next_below(n) as $ty,
                        // Full u64/usize domain.
                        None => rng.next_u64() as $ty,
                    }
                }

                fn sample_any(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    impl_sample_uniform_int!(u8, u16, u32, u64, usize);

    impl SampleUniform for f64 {
        fn sample_range(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
            assert!(lo < hi, "empty range {lo}..{hi}");
            let v = lo + rng.next_unit_f64() * (hi - lo);
            // Guard against rounding up to the exclusive bound.
            if v >= hi {
                lo
            } else {
                v
            }
        }

        fn sample_range_inclusive(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
            assert!(lo <= hi, "empty range {lo}..={hi}");
            lo + rng.next_unit_f64() * (hi - lo)
        }

        fn sample_any(rng: &mut TestRng) -> Self {
            f64::from_bits(rng.next_u64())
        }
    }

    impl SampleUniform for bool {
        fn sample_range(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
            assert!(!lo & hi, "empty range");
            rng.next_u64() & 1 == 1
        }

        fn sample_range_inclusive(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
            if lo == hi {
                lo
            } else {
                rng.next_u64() & 1 == 1
            }
        }

        fn sample_any(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_range(rng, self.start, self.end)
        }
    }

    impl<T: SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_range_inclusive(rng, *self.start(), *self.end())
        }
    }

    /// See [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: SampleUniform> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample_any(rng)
        }
    }

    /// Strategy drawing uniformly from `T`'s full domain.
    pub fn any<T: SampleUniform>() -> Any<T> {
        Any(PhantomData)
    }

    /// Constant strategy: always yields clones of `value`.
    pub struct Just<T>(pub T);

    impl<T: Debug + Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_strategy_for_tuple {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_strategy_for_tuple! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Accepted length specifications for [`vec()`]: an exact `usize`, a
    /// `Range<usize>`, or a `RangeInclusive<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing vectors whose elements come from `element` and
    /// whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Mirrors proptest's `prop` path prefix (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Asserts inequality inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` running `cases` deterministic random cases.
/// An optional leading `#![proptest_config(expr)]` sets the config.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Recursive item muncher backing [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let __strategy = ($($strat,)+);
            for __case in 0..__config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                let ($($pat,)+) =
                    $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let ::std::result::Result::Err(__panic) = __outcome {
                    // Inputs were moved into the case body; regenerate them
                    // from the same deterministic seed for the report.
                    let mut __rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                    let __inputs =
                        $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                    eprintln!(
                        "proptest: {} failed at case {}/{} with input {:?}",
                        stringify!($name),
                        __case,
                        __config.cases,
                        __inputs,
                    );
                    ::std::panic::resume_unwind(__panic);
                }
            }
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in 1usize..=4, z in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((-2.0..2.0).contains(&z));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(any::<u32>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn flat_map_threads_dependent_values(
            (n, xs) in (1usize..=6).prop_flat_map(|n| {
                (Just(n), collection::vec(0usize..n, n))
            }),
        ) {
            prop_assert_eq!(xs.len(), n);
            prop_assert!(xs.iter().all(|&x| x < n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_is_honored(_x in any::<u64>()) {
            // Body intentionally empty: the arm only checks the config
            // path compiles and runs.
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (0u64..1000, crate::collection::vec(0u32..7, 3..9));
        let a = strat.generate(&mut TestRng::for_case("det", 5));
        let b = strat.generate(&mut TestRng::for_case("det", 5));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("det", 6));
        assert_ne!(a, c, "different cases should draw different inputs");
    }
}
