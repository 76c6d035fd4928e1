//! Workspace-local mini property-testing harness with a `proptest`-shaped
//! API.
//!
//! The build environment is offline, so the workspace vendors the subset
//! of `proptest` its test suites use: the [`Strategy`] trait with
//! `prop_map`, range / tuple / regex-char-class / collection strategies,
//! [`any`], the [`proptest!`] macro and the `prop_assert*` macros.
//! Shrinkage is not implemented — failures report the generated inputs
//! via the panic message instead. Generation is deterministic per test
//! (seeded from the test name), so failures reproduce.

use rand::rngs::StdRng;
use rand::Rng;

pub mod collection;
pub mod prelude;

/// Runner configuration (`cases` is the only knob the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
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

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u32, u64, usize);

/// `&str` strategies interpret a small regex subset: a single character
/// class with a bounded repetition, e.g. `"[a-z]{1,8}"`. Anything richer
/// panics with a clear message — extend the shim if a test needs more.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        let (lo, hi, min, max) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!("proptest shim: unsupported string pattern {self:?} (expected \"[x-y]{{m,n}}\")")
        });
        let len = rng.gen_range(min..max + 1);
        (0..len)
            .map(|_| rng.gen_range(lo as u32..hi as u32 + 1))
            .map(|c| char::from_u32(c).unwrap())
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(char, char, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let mut chars = class.chars();
    let lo = chars.next()?;
    if chars.next()? != '-' {
        return None;
    }
    let hi = chars.next()?;
    if chars.next().is_some() {
        return None;
    }
    let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = counts.split_once(',')?;
    Some((lo, hi, min.parse().ok()?, max.parse().ok()?))
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0, B.1),
    (A.0, B.1, C.2),
}

/// Types with a default "arbitrary" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen_range(u8::MIN..u8::MAX)
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<u64>()
    }
}

/// Strategy of arbitrary values of `T` (the `any::<T>()` entry point).
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Deterministic per-test seed: FNV-1a of the test's identifying string.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Asserts a condition inside a property (panics on failure, like
/// `assert!` — the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Armed while a property body runs; if the body panics, the unwind
/// drops this guard and it prints the failing `(test, seed, case)`
/// triple. The rng stream is derived deterministically from the seed,
/// so the triple replays the failure exactly: rerun the named test and
/// the same case index regenerates the same inputs.
#[doc(hidden)]
pub struct FailureContext {
    /// Fully-qualified test name (also the seed derivation input).
    pub test: &'static str,
    /// The rng seed the whole run was derived from.
    pub seed: u64,
    /// Zero-based index of the failing case within the run.
    pub case: u32,
}

impl Drop for FailureContext {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest failure: test={} seed={:#x} case={} — \
                 inputs are regenerated deterministically from the seed, \
                 so rerunning this test reproduces the failure at the \
                 same case index",
                self.test, self.seed, self.case
            );
        }
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let test = concat!(module_path!(), "::", stringify!($name));
                let seed = $crate::seed_for(test);
                let mut rng = <$crate::prelude::StdRng as $crate::prelude::SeedableRng>::seed_from_u64(seed);
                for case in 0..config.cases {
                    let guard = $crate::FailureContext { test, seed, case };
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                    $body
                    ::core::mem::forget(guard);
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate as proptest;
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in 0usize..4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn string_pattern_shape(s in "[a-c]{2,5}") {
            prop_assert!(s.len() >= 2 && s.len() <= 5);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn tuples_and_maps(v in (1u32..5, 1u64..9).prop_map(|(a, b)| a as u64 + b)) {
            prop_assert!((2..13).contains(&v));
        }
    }

    proptest! {
        #[test]
        fn collections_respect_len(xs in proptest::collection::vec(any::<u8>(), 1..7)) {
            prop_assert!(!xs.is_empty() && xs.len() < 7);
        }
    }
}
