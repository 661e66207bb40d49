//! Offline stand-in for `proptest`.
//!
//! Provides deterministic randomized property testing with the subset of
//! the proptest API this workspace uses: the [`proptest!`] macro (with an
//! optional `#![proptest_config(..)]` header), range strategies over
//! integers and floats, `collection::vec` / `collection::btree_set`,
//! `prop_map`, and the `prop_assert!` family. There is no shrinking: a
//! failing case panics immediately with the case number so it can be
//! reproduced (generation is seeded and deterministic).

#![deny(missing_docs)]

use rand::{Rng as _, RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// The random source handed to strategies. Deterministic per test case.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: rand::rngs::StdRng,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        Self {
            inner: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    /// 256 cases, or `PROPTEST_CASES` when set to a number — as in the real
    /// crate, the variable moves only properties that keep the default.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        Self { cases }
    }
}

/// A value generator. The stand-in for `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
float_range_strategies!(f32, f64);

/// Full-type-range strategy, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a default full-range generator.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite values spanning a wide magnitude range.
        let mag: f32 = rng.gen_range(-6.0f32..6.0);
        let sign = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
        sign * 10f32.powf(mag)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::*;

    /// Generates `Vec`s whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `BTreeSet`s with up to `size.end - 1` elements (duplicates
    /// drawn from `element` collapse, as in real proptest).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Executes a property's cases. Used by the [`proptest!`] expansion.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Creates a runner for `config`.
    pub fn new(config: ProptestConfig) -> Self {
        Self { config }
    }

    /// Runs `body` once per case with a per-case deterministic RNG.
    pub fn run(&mut self, mut body: impl FnMut(&mut TestRng, u32)) {
        for case in 0..self.config.cases {
            // Distinct, deterministic stream per case.
            let mut rng = TestRng::new(0xD07A_0000_0000_0000 ^ u64::from(case));
            body(&mut rng, case);
        }
    }
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::TestRunner::new($cfg);
            runner.run(|__proptest_rng, __proptest_case| {
                $(let $arg = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                let run = move || $body;
                run();
                let _ = __proptest_case;
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..500 {
            let x = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&x));
            let y = Strategy::generate(&(-2i32..=2), &mut rng);
            assert!((-2..=2).contains(&y));
            let f = Strategy::generate(&(-1.0f32..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn collections_sized_and_mapped() {
        let mut rng = crate::TestRng::new(2);
        let s = crate::collection::vec(0u32..10, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let sets = crate::collection::btree_set(0u32..4, 0..6)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
        for _ in 0..100 {
            let v = sets.generate(&mut rng);
            assert!(v.len() < 6);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = crate::collection::vec(0u32..1000, 1..20);
        let a: Vec<Vec<u32>> = {
            let mut rng = crate::TestRng::new(3);
            (0..10).map(|_| s.generate(&mut rng)).collect()
        };
        let b: Vec<Vec<u32>> = {
            let mut rng = crate::TestRng::new(3);
            (0..10).map(|_| s.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_generates_runnable_tests(x in 0usize..100, ys in crate::collection::vec(0i32..5, 0..4)) {
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), ys.len());
            prop_assert_ne!(x as i64, 100i64);
        }
    }

    proptest! {
        #[test]
        fn macro_without_config_header(v in any::<bool>()) {
            prop_assert!(usize::from(v) <= 1);
        }
    }
}
