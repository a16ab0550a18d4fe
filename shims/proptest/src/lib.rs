//! Minimal, offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! subset of the proptest API used by the workspace: the [`strategy::Strategy`] trait
//! with `prop_map` / `prop_recursive`, range and tuple strategies, `Just`,
//! `any`, `prop_oneof!`, `prop::collection::{vec, btree_set}`, and the
//! [`proptest!`](crate::proptest) test macro.
//!
//! Semantics differ from upstream in one important way: **there is no
//! shrinking**. A failing case panics with the values that produced it (via
//! the normal assert message), but no minimisation is attempted. Generation
//! is deterministic per test (seeded from the test's module path + name), so
//! failures reproduce across runs.

#![forbid(unsafe_code)]

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::rc::Rc;

    /// A generator of random values of type `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let this = self;
            BoxedStrategy(Rc::new(move |rng| this.generate(rng)))
        }

        /// Depth-bounded recursive strategy. `f` receives the strategy for
        /// the previous depth and returns the one-level-deeper strategy; the
        /// innermost level is `self`. Each level keeps a 1-in-4 chance of
        /// emitting the shallower alternative so generated sizes are mixed.
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let mut strat = self.boxed();
            for _ in 0..depth {
                let shallow = strat.clone();
                let deeper = f(strat).boxed();
                strat = BoxedStrategy(Rc::new(move |rng| {
                    if rng.gen_range(0u32..4) == 0 {
                        shallow.generate(rng)
                    } else {
                        deeper.generate(rng)
                    }
                }));
            }
            strat
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut StdRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives (built by `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Types with a canonical strategy, accessed through [`any`].
    pub trait Arbitrary {
        fn generate(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn generate(rng: &mut StdRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    impl Arbitrary for u8 {
        fn generate(rng: &mut StdRng) -> u8 {
            rng.gen_range(0u8..=u8::MAX)
        }
    }

    impl Arbitrary for u32 {
        fn generate(rng: &mut StdRng) -> u32 {
            rng.gen_range(0u32..=u32::MAX)
        }
    }

    impl Arbitrary for u64 {
        fn generate(rng: &mut StdRng) -> u64 {
            rng.gen_range(0u64..=u64::MAX)
        }
    }

    /// The canonical strategy for `T` (subset of `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(std::marker::PhantomData)
    }

    pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::generate(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Size specifications accepted by the collection strategies.
    pub trait SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            if self.is_empty() {
                self.start
            } else {
                rng.gen_range(self.clone())
            }
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` strategy with a target size drawn from `size`. If the
    /// element domain is too small to reach the target, the set is returned
    /// smaller after a bounded number of attempts (matching proptest's
    /// best-effort behaviour).
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 20 + 100 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration (subset of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        /// An explicit case count; like upstream, it wins over
        /// `PROPTEST_CASES`.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The case count of [`ProptestConfig::default`] when `PROPTEST_CASES`
    /// is unset.
    pub const DEFAULT_CASES: u32 = 64;

    /// Like upstream, the default configuration reads the case count from
    /// the `PROPTEST_CASES` environment variable, falling back to
    /// [`DEFAULT_CASES`] when it is unset or not a number.
    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: cases_from(std::env::var("PROPTEST_CASES").ok().as_deref()),
            }
        }
    }

    /// The case count a `PROPTEST_CASES` value asks for.
    pub fn cases_from(value: Option<&str>) -> u32 {
        value
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_CASES)
    }

    /// Deterministic RNG derived from the test's identifier (FNV-1a).
    pub fn rng_for(test_id: &str) -> StdRng {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in test_id.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(hash)
    }
}

/// Namespaced access in the style of `proptest::prop::...`.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let mut __rng = $crate::test_runner::rng_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__config.cases {
                    $(
                        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{cases_from, DEFAULT_CASES};

    #[test]
    fn proptest_cases_sets_the_default_case_count() {
        assert_eq!(cases_from(Some("512")), 512);
        assert_eq!(cases_from(Some(" 7 ")), 7);
        assert_eq!(cases_from(Some("many")), DEFAULT_CASES);
        assert_eq!(cases_from(None), DEFAULT_CASES);
        assert_eq!(ProptestConfig::with_cases(3).cases, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5u32..8)) {
            prop_assert!(a < 10);
            prop_assert!((5..8).contains(&b));
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0u32..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1usize), Just(2usize)].prop_map(|v| v * 10)) {
            prop_assert!(x == 10 || x == 20);
        }

        #[test]
        fn sets_respect_bounds(s in prop::collection::btree_set(0u32..50, 0..10)) {
            prop_assert!(s.len() < 10);
        }

        #[test]
        fn any_bool_takes_both_values(_x in any::<bool>()) {
            // generation itself is the test: both branches must be reachable
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Expr {
            Leaf(#[allow(dead_code)] usize),
            Pair(Box<Expr>, Box<Expr>),
        }
        fn depth(e: &Expr) -> usize {
            match e {
                Expr::Leaf(_) => 0,
                Expr::Pair(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0usize..5)
            .prop_map(Expr::Leaf)
            .prop_recursive(3, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Expr::Pair(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::test_runner::rng_for("recursive_strategies_terminate");
        for _ in 0..200 {
            let e = strat.generate(&mut rng);
            assert!(depth(&e) <= 3, "{e:?}");
        }
    }
}
