//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! Implements the subset this workspace uses: the [`Strategy`] trait with
//! `prop_map`, range strategies over the primitive numeric types,
//! [`collection::vec`], [`option::weighted`], [`prelude::ProptestConfig`],
//! and the [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports its seed/case number but is
//!   not minimized.
//! * **Fixed deterministic seeding** — each test function derives its RNG
//!   from a hash of the test name, so failures reproduce across runs.
//! * Only `Vec` collections and fixed sizes are supported.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG driving value generation.
pub type TestRng = SmallRng;

/// Re-export so generated code can name the rand traits.
pub use rand::Rng as __Rng;

/// A failed property; carries the assertion message.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Result type property bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Sizes accepted by [`vec()`]: a fixed length or a length range.
    pub trait SizeRange {
        /// Draw a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` of the given size.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// A vector whose elements are drawn from `element` and whose length
    /// is drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Some` with a fixed probability.
    pub struct Weighted<S> {
        probability: f64,
        inner: S,
    }

    /// `Some(value)` with probability `probability`, else `None`.
    pub fn weighted<S: Strategy>(probability: f64, inner: S) -> Weighted<S> {
        assert!(
            (0.0..=1.0).contains(&probability),
            "option::weighted probability out of range"
        );
        Weighted { probability, inner }
    }

    impl<S: Strategy> Strategy for Weighted<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            use rand::Rng;
            if rng.gen_bool(self.probability) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config with the given case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Stable per-test seed so failures reproduce run to run (FNV-1a).
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Derive the RNG for one case of one test.
pub fn rng_for(test_name: &str, case: u32) -> TestRng {
    TestRng::seed_from_u64(seed_for(test_name) ^ ((case as u64) << 32))
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
        TestCaseResult,
    };
}

/// Fallible assertion for property bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// Fallible equality assertion for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n at {}:{}",
                stringify!($left), stringify!($right), l, r, file!(), line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}\n at {}:{}",
                stringify!($left), stringify!($right), format!($($fmt)*), l, r, file!(), line!()
            )));
        }
    }};
}

/// The property-test macro. Each function body runs `config.cases` times
/// with fresh random inputs drawn from the argument strategies.
#[macro_export]
macro_rules! proptest {
    // With a leading #![proptest_config(...)] attribute.
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::__run_cases(stringify!($name), config, |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
    // Without a config attribute (default 256 cases).
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

/// Driver behind [`proptest!`]; not public API.
#[doc(hidden)]
pub fn __run_cases(
    name: &str,
    config: ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    for i in 0..config.cases {
        let mut rng = rng_for(name, i);
        if let Err(e) = case(&mut rng) {
            panic!(
                "proptest case {i}/{} for `{name}` failed: {e}",
                config.cases
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in -5i64..=5, y in 0usize..10) {
            prop_assert!((-5..=5).contains(&x));
            prop_assert!(y < 10);
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u32..100, 7usize)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn weighted_none_and_some(v in crate::collection::vec(crate::option::weighted(0.5, 0i64..10), 64usize)) {
            let some = v.iter().filter(|o| o.is_some()).count();
            // 64 draws at p=0.5: catastrophically skewed only if broken.
            prop_assert!(some > 10 && some < 54, "{} Some of 64", some);
        }

        #[test]
        fn prop_map_applies(n in (1usize..50).prop_map(|x| x * 2)) {
            prop_assert!(n % 2 == 0);
            prop_assert!((2..100).contains(&n));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let a: Vec<u64> = (0..5).map(|i| crate::rng_for("t", i).next_u64()).collect();
        let b: Vec<u64> = (0..5).map(|i| crate::rng_for("t", i).next_u64()).collect();
        assert_eq!(a, b);
        use rand::RngCore;
        let c = crate::rng_for("other", 0).next_u64();
        assert_ne!(a[0], c);
    }
}
