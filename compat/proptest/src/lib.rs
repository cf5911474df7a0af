//! A self-contained mini property-testing harness exposing the subset of
//! the `proptest` API this workspace uses: the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map` / `prop_filter_map`, range and tuple
//! strategies, [`collection::vec`], [`Just`], [`any`], `prop_oneof!`, and
//! the `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_assume!`
//! macros.
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case reports its deterministic replay
//!   seed (test name + attempt index) instead of a minimized input.
//! * **Deterministic by default.** Case `i` of a test always sees the same
//!   input stream, so CI failures reproduce locally without a seed file.
//! * `PROPTEST_CASES` in the environment overrides every config's case
//!   count (useful for quick smoke runs and deep soak runs alike).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// The RNG driving strategy sampling.
pub type TestRng = StdRng;

/// How many input resamples a filtering strategy attempts before giving up.
const MAX_FILTER_RETRIES: u32 = 10_000;

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Maps generated values to a dependent strategy and samples from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values `f` maps to `Some`, resampling otherwise.
    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            f,
            whence,
        }
    }

    /// Keeps only values satisfying `f`, resampling otherwise.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..MAX_FILTER_RETRIES {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map exhausted {MAX_FILTER_RETRIES} retries: {}",
            self.whence
        );
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_FILTER_RETRIES {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter exhausted {MAX_FILTER_RETRIES} retries: {}",
            self.whence
        );
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: Box<dyn DynStrategy<T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.inner.sample_dyn(rng)
    }
}

/// Object-safe sampling, used by [`BoxedStrategy`] and [`Union`].
trait DynStrategy<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy for [`any`]: the full value domain of `T`.
pub struct Any<T> {
    _marker: PhantomData<T>,
}

/// Samples from the full domain of `T` (full-width integers, fair bools,
/// unit-interval floats).
#[must_use]
pub fn any<T: rand::Standard>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Weighted choice among type-erased strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn DynStrategy<T>>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Builds a union from weighted boxed strategies.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or every weight is zero.
    #[must_use]
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let arms: Vec<(u32, Box<dyn DynStrategy<T>>)> =
            arms.into_iter().map(|(w, s)| (w, s.inner)).collect();
        let total: u32 = arms.iter().map(|(w, _)| w).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample_dyn(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum to total");
    }
}

/// Collection strategies ([`collection::vec`]).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Accepted size specifications for [`vec`](fn@vec).
    #[derive(Debug, Clone)]
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
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for vectors of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assert!` failure: the property is violated.
    Fail(String),
    /// `prop_assume!` rejection: the input does not apply.
    Reject,
}

impl TestCaseError {
    /// Builds a failure from a formatted message.
    #[must_use]
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` successful cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` env override.
    #[must_use]
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic RNG for attempt `attempt` of the named test.
#[must_use]
pub fn test_rng(test_name: &str, attempt: u32) -> TestRng {
    // FNV-1a over the test name, mixed with the attempt index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h ^ (u64::from(attempt) << 32 | u64::from(attempt)))
}

/// Everything a proptest-based test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
///
/// Each test runs its configured number of cases with deterministically
/// seeded inputs; `prop_assert*` failures report the case and attempt
/// indices for replay. No shrinking is performed.
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    // Without one: default config.
    (
        $(#[$meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $(#[$meta])* fn $($rest)*);
    };
    // Munch one test fn at a time.
    (@munch ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = config.effective_cases();
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            let mut attempt: u32 = 0;
            while passed < cases {
                let mut proptest_rng =
                    $crate::test_rng(concat!(module_path!(), "::", stringify!($name)), attempt);
                let ($($pat,)+) = {
                    use $crate::Strategy as _;
                    ($($strat,)+).sample(&mut proptest_rng)
                };
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < 65_536,
                            "proptest: too many prop_assume rejections in {}",
                            stringify!($name),
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case failed: {}\n  test: {}\n  replay: attempt {} (case {})",
                            msg,
                            stringify!($name),
                            attempt,
                            passed,
                        );
                    }
                }
                attempt += 1;
            }
        }
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    (@munch ($config:expr)) => {};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", format!($($fmt)*), l, r);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// Skips the current case when its input does not apply.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Weighted (`w => strat`) or unweighted choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {{
        use $crate::Strategy as _;
        $crate::Union::new_weighted(vec![
            $(($weight, $strat.boxed())),+
        ])
    }};
    ($($strat:expr),+ $(,)?) => {{
        use $crate::Strategy as _;
        $crate::Union::new_weighted(vec![
            $((1u32, $strat.boxed())),+
        ])
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn ranges_and_tuples_sample_in_bounds() {
        let mut rng = crate::test_rng("self", 0);
        for _ in 0..500 {
            let (a, b, c) = (0usize..10, 1.0f64..2.0, 5u64..=6).sample(&mut rng);
            assert!(a < 10);
            assert!((1.0..2.0).contains(&b));
            assert!((5..=6).contains(&c));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::test_rng("self-vec", 0);
        for _ in 0..200 {
            let v = crate::collection::vec(0..100usize, 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            let exact = crate::collection::vec(0..100usize, 3).sample(&mut rng);
            assert_eq!(exact.len(), 3);
        }
    }

    #[test]
    fn union_draws_every_arm() {
        let mut rng = crate::test_rng("self-union", 0);
        let s = prop_oneof![
            3 => Just(1usize),
            1 => Just(2usize),
        ];
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[s.sample(&mut rng)] = true;
        }
        assert!(seen[1] && seen[2]);
    }

    #[test]
    fn filter_map_resamples() {
        let mut rng = crate::test_rng("self-filter", 0);
        let s = (0usize..100).prop_filter_map("even only", |x| (x % 2 == 0).then_some(x));
        for _ in 0..200 {
            assert_eq!(s.sample(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0usize..5, 0usize..5), c in any::<u64>()) {
            prop_assert!(a < 5 && b < 5);
            let _ = c;
        }

        #[test]
        fn assume_skips_without_failing(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}
