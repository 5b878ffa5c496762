//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate provides the
//! subset of proptest's API the workspace uses: the [`proptest!`] macro,
//! [`Strategy`](strategy::Strategy) with `prop_map`/`prop_flat_map`, numeric range strategies,
//! `collection::{vec, btree_set}`, `sample::select`, `prop_assert*` and
//! `prop_assume!`.
//!
//! Semantics differ from upstream in two deliberate ways:
//!
//! * **Deterministic cases.** Inputs are drawn from a splitmix64 stream
//!   seeded by the test's name, so every run explores the same cases —
//!   failures reproduce without a persistence file.
//! * **No shrinking.** A failing case panics with its inputs via the normal
//!   assertion message; there is no minimization pass.

pub mod test_runner {
    //! Deterministic case generation.

    /// Per-case random source (splitmix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator for one test case.
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample an empty range");
            self.next_u64() % bound
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Runner configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases generated per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 48 }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
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

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            let mid = self.inner.generate(rng);
            (self.f)(mid).generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u64 + 1;
                    (start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s with a target size drawn from `size`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `BTreeSet` of roughly `size` elements drawn from `element`.
    ///
    /// If the element domain is too small to reach the drawn size, the set
    /// is as large as a bounded number of draws allows (upstream proptest
    /// rejects such cases; this shim keeps them, which only makes tests
    /// cover *more* small sets).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let target = self.size.start + rng.below(span) as usize;
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < 16 * (target + 1) {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod sample {
    //! Sampling from explicit value lists.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy choosing uniformly among fixed values.
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Uniform choice among `options` (which must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a property (panics with the formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares deterministic property tests; see the crate docs for semantics.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                // FNV-1a over the test name: a stable per-test seed base.
                let mut __base = 0xcbf2_9ce4_8422_2325u64;
                for __b in stringify!($name).bytes() {
                    __base = (__base ^ __b as u64).wrapping_mul(0x1_0000_0001_b3);
                }
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::new(
                        __base ^ (__case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    $(
                        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    let mut __case_fn = || $body;
                    __case_fn();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..=3).prop_flat_map(|t| (10 * t..10 * t + 5).prop_map(move |n| (n, t)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -50i64..50, u in 3usize..9, f in -2.0f64..2.0) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((3..9).contains(&u));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn flat_map_dependencies_hold((n, t) in pair()) {
            prop_assert!(n >= 10 * t && n < 10 * t + 5);
        }

        #[test]
        fn collections_respect_size(v in crate::collection::vec(0i32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|x| (0..10).contains(x)));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn select_picks_from_options(c in crate::sample::select(vec!['a', 'b', 'c'])) {
            prop_assert!(['a', 'b', 'c'].contains(&c));
        }
    }

    #[test]
    fn btree_set_hits_target_sizes() {
        let strat = crate::collection::btree_set(1i64..100, 2..10);
        let mut rng = crate::test_runner::TestRng::new(5);
        for _ in 0..50 {
            let s = crate::strategy::Strategy::generate(&strat, &mut rng);
            assert!(s.len() >= 2 && s.len() < 10, "{}", s.len());
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let strat = crate::collection::vec(0i32..1000, 5..20);
        let a: Vec<_> = {
            let mut rng = crate::test_runner::TestRng::new(99);
            (0..10)
                .map(|_| crate::strategy::Strategy::generate(&strat, &mut rng))
                .collect()
        };
        let b: Vec<_> = {
            let mut rng = crate::test_runner::TestRng::new(99);
            (0..10)
                .map(|_| crate::strategy::Strategy::generate(&strat, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }
}
