//! A minimal, dependency-free stand-in for the [proptest](https://docs.rs/proptest)
//! crate, covering exactly the surface the workspace's property suites use:
//! the [`Strategy`] trait with `prop_map`, integer-range / tuple / `Just` /
//! `any::<bool>()` strategies, `prop_oneof!`, `collection::vec`, and the
//! `proptest!` macro with `#![proptest_config(ProptestConfig::with_cases(n))]`.
//!
//! Why it exists: tier-1 (`cargo build --release && cargo test -q`) must run
//! with **no registry access**, so external dev-dependencies cannot be part
//! of the resolved workspace graph. Dependents rename this crate to
//! `proptest` (`proptest = { path = ..., package = "oll-proptest" }`), so the
//! test sources read exactly like ordinary proptest suites and can switch
//! back to the real crate by flipping one manifest line.
//!
//! Differences from real proptest, deliberately accepted:
//! * **No shrinking.** On failure the panic message names the case number;
//!   cases are derived deterministically from the test's module path, name,
//!   and case index, so every failure replays exactly.
//! * Only the strategy combinators listed above are provided.

#![warn(missing_docs)]

use core::marker::PhantomData;
use core::ops::Range;

/// The deterministic PRNG driving every generated value.
pub type TestRng = oll_util::XorShift64;

/// Run configuration for a [`proptest!`] block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Matches real proptest's default case count.
        Self { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike real proptest there is no value tree: a strategy is just a
/// deterministic function of the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = self.end.checked_sub(self.start).expect("empty range") as u64;
                assert!(span > 0, "empty range strategy");
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical "generate any value" strategy (see [`any`]).
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize);

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point: an arbitrary value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// A boxed generator arm for [`OneOf`].
pub type OneOfArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// Uniform choice between boxed alternative strategies (see [`prop_oneof!`]).
pub struct OneOf<V> {
    arms: Vec<OneOfArm<V>>,
}

impl<V> OneOf<V> {
    /// Builds a choice over `arms`. Panics if `arms` is empty.
    pub fn new(arms: Vec<OneOfArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.next_below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::Range;

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` of `elem`-generated values with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Derives the deterministic RNG for one test case. Public for the
/// [`proptest!`] macro expansion; not part of the user-facing API.
#[doc(hidden)]
pub fn test_rng(module: &str, test: &str, case: u32) -> TestRng {
    // FNV-1a over the test's identity, then SplitMix spreading per case.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in module.bytes().chain(test.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::for_thread(h, case as usize)
}

/// Prints the failing case number if the test body panics, so failures can
/// be replayed (generation is a pure function of test identity + case).
#[doc(hidden)]
pub struct CaseReporter {
    /// Test function name.
    pub test: &'static str,
    /// Zero-based case index.
    pub case: u32,
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest shim: `{}` failed at deterministic case {} (rerun reproduces it)",
                self.test, self.case
            );
        }
    }
}

/// Uniform choice among heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $({
                let __arm = $arm;
                Box::new(move |rng: &mut $crate::TestRng| {
                    $crate::Strategy::generate(&__arm, rng)
                }) as Box<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body for `config.cases` deterministic
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let __reporter = $crate::CaseReporter {
                    test: stringify!($name),
                    case: __case,
                };
                let mut __rng = $crate::test_rng(module_path!(), stringify!($name), __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
                drop(__reporter);
            }
        }
        $crate::__proptest_cases!(($cfg) $($rest)*);
    };
}

/// `use proptest::prelude::*;` — the imports the suites expect.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_rng("m", "t", 0);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..1000, any::<bool>());
        let mut a = crate::test_rng("m", "t", 7);
        let mut b = crate::test_rng("m", "t", 7);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![(0usize..4).prop_map(|v| v * 10), Just(99usize),];
        let mut rng = crate::test_rng("m", "o", 0);
        let mut saw_just = false;
        for _ in 0..200 {
            let v: usize = s.generate(&mut rng);
            assert!(v == 99 || [0, 10, 20, 30].contains(&v));
            saw_just |= v == 99;
        }
        assert!(saw_just);
    }

    #[test]
    fn vec_respects_length_range() {
        let s = collection::vec(0u8..5, 2..6);
        let mut rng = crate::test_rng("m", "v", 1);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_binds(
            x in 0usize..10,
            pair in (0u8..3, any::<bool>()),
        ) {
            assert!(x < 10);
            assert!(pair.0 < 3);
        }
    }
}
