//! Offline shim for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! Supports the subset the workspace's property tests use: the `proptest!`
//! macro with `#![proptest_config(..)]`, `any::<T>()`, integer/float/char
//! range strategies, tuple strategies, `prop::collection::vec`,
//! `prop::char::range`, `prop_map`, `prop_oneof!`, and the `prop_assert*`
//! macros.
//!
//! Differences from the real crate, by design:
//! - Sampling is **deterministic**: the RNG is seeded from the test name, so
//!   a failure reproduces on every run without a persistence file.
//! - Shrinking is **halving-based and greedy** instead of proptest's value
//!   trees: on failure, each strategy proposes smaller candidates (range
//!   start, the midpoint of the remaining distance, one step down; halved
//!   collections, or one element dropped; component-wise tuple shrinks),
//!   the runner keeps any candidate that still fails, and repeats until no
//!   candidate fails or the shrink budget runs out. The panic message reports the minimized input.
//!   Strategies built with `prop_map` cannot shrink through the mapping (the
//!   function is not invertible), and `prop_oneof!` unions do not shrink
//!   (the producing branch is unknown); both report the value that was
//!   found.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG: SplitMix64 — tiny, seedable, good enough for test-case generation.
// ---------------------------------------------------------------------------

/// Deterministic test-case RNG (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a test name.
    pub fn deterministic(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Errors and config
// ---------------------------------------------------------------------------

/// A failed `prop_assert*` inside a proptest body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Result alias mirroring proptest's.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration. Only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of values. Unlike real proptest there is no value tree: a
/// strategy samples, and on failure proposes simpler candidates through
/// [`Strategy::shrink_candidates`].
pub trait Strategy {
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Propose "smaller" values to try when `value` made a test fail, most
    /// aggressive first (e.g. the range start, then the halfway point, then
    /// one step down). The default — no candidates — disables shrinking for
    /// the strategy; the runner then reports the original failing value.
    fn shrink_candidates(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }

    /// Type-erase the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }

    fn shrink_candidates(&self, value: &V) -> Vec<V> {
        (**self).shrink_candidates(value)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.sample(rng))
    }
}

/// A strategy that always yields clones of one value.
#[derive(Clone)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;

    fn sample(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Uniform choice between type-erased strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! requires at least one option"
        );
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].sample(rng)
    }

    fn shrink_candidates(&self, value: &V) -> Vec<V> {
        // The producing branch is unknown, and a different branch's
        // candidates (e.g. another range's start) may be values the union
        // can never generate — a misleading "minimized input" to re-seed a
        // regression test with. Better to not shrink than to shrink out of
        // the strategy's domain.
        let _ = value;
        Vec::new()
    }
}

/// Halving candidates for an ordered numeric value inside `[start, value)`:
/// the start itself, the midpoint of the remaining distance, one step down.
macro_rules! int_shrink_candidates {
    ($value:expr, $start:expr) => {{
        let (v, start) = ($value, $start);
        let mut out = Vec::new();
        if v > start {
            out.push(start);
            let mid = start + (v - start) / 2;
            if mid != start && mid != v {
                out.push(mid);
            }
            let down = v - 1;
            if down != start && Some(down) != out.get(1).copied() {
                out.push(down);
            }
        }
        out
    }};
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }

            fn shrink_candidates(&self, value: &$t) -> Vec<$t> {
                int_shrink_candidates!(*value, self.start)
            }
        })*
    };
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }

            fn shrink_candidates(&self, value: &$t) -> Vec<$t> {
                // Widen to i128 so the distance cannot overflow the type.
                int_shrink_candidates!(*value as i128, self.start as i128)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        })*
    };
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty float range strategy");
                // Casting unit_f64 to f32 can round up to exactly 1.0, which
                // would yield the exclusive upper bound; keep it below 1.
                let unit = (rng.unit_f64() as $t).min(1.0 - <$t>::EPSILON);
                self.start + (self.end - self.start) * unit
            }

            fn shrink_candidates(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2.0;
                    if mid > self.start && mid < *value {
                        out.push(mid);
                    }
                }
                out
            }
        })*
    };
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),*) => {
        $(impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }

            fn shrink_candidates(&self, value: &Self::Value) -> Vec<Self::Value> {
                // Shrink one component at a time, holding the others fixed.
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink_candidates(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        })*
    };
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

// ---------------------------------------------------------------------------
// any::<T>() / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;

    /// Halving candidates toward the type's simplest value (0 / false).
    fn shrink(value: &Self) -> Vec<Self>
    where
        Self: Sized,
    {
        let _ = value;
        Vec::new()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }

            fn shrink(value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    let mid = v / 2;
                    if mid != 0 && mid != v {
                        out.push(mid);
                    }
                }
                out
            }
        })*
    };
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn shrink(value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }

    fn shrink(value: &f64) -> Vec<f64> {
        if *value != 0.0 {
            vec![0.0, *value / 2.0]
        } else {
            Vec::new()
        }
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }

    fn shrink_candidates(&self, value: &T) -> Vec<T> {
        T::shrink(value)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Collection / char strategies (the `prop::` module tree)
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Positions a vector's per-element shrink passes (drop one, shrink
    /// one) try in one round.
    const ELEMENT_PASS: usize = 16;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }

        fn shrink_candidates(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let min_len = self.size.start;
            // Structural shrinks first: halve the length, drop the last
            // element, then drop each earlier one, so a failure whose cause
            // sits early sheds the elements around it too.
            if value.len() > min_len {
                let half = (value.len() / 2).max(min_len);
                if half < value.len() {
                    out.push(value[..half].to_vec());
                }
                if value.len() - 1 > half {
                    out.push(value[..value.len() - 1].to_vec());
                }
                for i in (0..value.len() - 1).take(ELEMENT_PASS) {
                    let mut next = value.clone();
                    next.remove(i);
                    out.push(next);
                }
            }
            // Then element-wise: each position's most aggressive candidate.
            for (i, element) in value.iter().enumerate().take(ELEMENT_PASS) {
                if let Some(candidate) = self.element.shrink_candidates(element).into_iter().next()
                {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

pub mod char {
    use super::{Strategy, TestRng};

    /// Inclusive character range strategy.
    pub struct CharRange {
        start: u32,
        end: u32,
    }

    /// `prop::char::range(start, end)` — inclusive on both ends, like the
    /// real crate.
    pub fn range(start: char, end: char) -> CharRange {
        assert!(start <= end, "empty char range strategy");
        CharRange {
            start: start as u32,
            end: end as u32,
        }
    }

    impl Strategy for CharRange {
        type Value = char;

        fn sample(&self, rng: &mut TestRng) -> char {
            // Resample on the surrogate gap; caller ranges here are ASCII.
            loop {
                let code = self.start + rng.below((self.end - self.start + 1) as u64) as u32;
                if let Some(c) = char::from_u32(code) {
                    return c;
                }
            }
        }

        fn shrink_candidates(&self, value: &char) -> Vec<char> {
            let v = *value as u32;
            let mut out = Vec::new();
            if v > self.start {
                out.extend(char::from_u32(self.start));
                let mid = self.start + (v - self.start) / 2;
                if mid != self.start && mid != v {
                    out.extend(char::from_u32(mid));
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Runner and shrinking
// ---------------------------------------------------------------------------

/// Cap on how many shrink attempts (candidate executions) one failure may
/// consume. Halving converges in O(log distance) accepted steps, so this is
/// generous; it exists to bound pathological strategies.
const SHRINK_BUDGET: usize = 512;

/// Greedily minimize a failing value: repeatedly try the strategy's shrink
/// candidates and keep the first one that still fails, until no candidate
/// fails or the budget is exhausted. Returns the minimized value, the error
/// it produced, and how many shrink steps were accepted.
pub fn shrink_failure<S, F>(
    strategy: &S,
    mut value: S::Value,
    mut err: TestCaseError,
    run: F,
) -> (S::Value, TestCaseError, usize)
where
    S: Strategy,
    F: Fn(&S::Value) -> TestCaseResult,
{
    let mut steps = 0usize;
    let mut budget = SHRINK_BUDGET;
    'search: while budget > 0 {
        for candidate in strategy.shrink_candidates(&value) {
            if budget == 0 {
                break 'search;
            }
            budget -= 1;
            if let Err(e) = run(&candidate) {
                value = candidate;
                err = e;
                steps += 1;
                continue 'search;
            }
        }
        // No candidate still fails: the value is (locally) minimal.
        break;
    }
    (value, err, steps)
}

/// Execute `config.cases` deterministic cases of a property, shrinking and
/// reporting the minimized input on failure. The `proptest!` macro expands
/// each test body into a call to this.
pub fn run_cases<S, F>(name: &str, config: ProptestConfig, strategy: S, run: F)
where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
    F: Fn(&S::Value) -> TestCaseResult,
{
    let mut rng = TestRng::deterministic(name);
    for case in 0..config.cases {
        let value = strategy.sample(&mut rng);
        if let Err(err) = run(&value) {
            let (minimized, min_err, steps) = shrink_failure(&strategy, value, err, &run);
            panic!(
                "proptest case {case}/{} failed: {min_err}\nminimized input (after {steps} shrink steps): {minimized:?}",
                config.cases
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// The proptest entry point: wraps `#[test]` functions whose arguments are
/// drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // All argument strategies combine into one tuple strategy, so
            // the runner can sample, re-run and shrink the arguments as a
            // unit. The sampling order (and hence the RNG stream) matches
            // the per-argument order exactly.
            let strategy = ($($strategy,)+);
            $crate::run_cases(
                concat!(module_path!(), "::", stringify!($name)),
                config,
                strategy,
                |__proptest_values| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(__proptest_values);
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
}

/// Choose uniformly between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Assert inside a proptest body; failure aborts the case, not the process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Inequality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Mirror of `proptest::prelude`, re-exporting everything tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };

    /// The `prop::` module tree (`prop::collection::vec`, `prop::char::range`).
    pub mod prop {
        pub use crate::char;
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_same_name_same_stream() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn integer_shrinking_converges_to_the_minimal_failure() {
        // Property "x < 10" over 0..1000: the minimal failing value is 10,
        // and halving must find it from anywhere in the range.
        let strategy = 0u64..1000;
        for start in [10u64, 11, 57, 400, 999] {
            let (minimized, _, _) =
                crate::shrink_failure(&strategy, start, TestCaseError::fail("seed"), |v: &u64| {
                    if *v < 10 {
                        Ok(())
                    } else {
                        Err(TestCaseError::fail(format!("{v} is too big")))
                    }
                });
            assert_eq!(minimized, 10, "failed to minimize from {start}");
        }
    }

    #[test]
    fn shrinking_respects_the_range_start() {
        // Property that always fails: the minimum must be the range start,
        // never below it.
        let strategy = 5u32..100;
        let (minimized, err, steps) =
            crate::shrink_failure(&strategy, 73, TestCaseError::fail("seed"), |_: &u32| {
                Err(TestCaseError::fail("always fails"))
            });
        assert_eq!(minimized, 5);
        assert!(steps >= 1);
        assert!(err.to_string().contains("always fails"));
    }

    #[test]
    fn vector_shrinking_halves_the_length() {
        // Property "len < 5" over vec lengths 0..64: minimal failure is a
        // 5-element vector (with elements shrunk toward 0).
        let strategy = prop::collection::vec(any::<u8>(), 0..64);
        let failing: Vec<u8> = (0..50u8).collect();
        let (minimized, _, _) = crate::shrink_failure(
            &strategy,
            failing,
            TestCaseError::fail("seed"),
            |v: &Vec<u8>| {
                if v.len() < 5 {
                    Ok(())
                } else {
                    Err(TestCaseError::fail("too long"))
                }
            },
        );
        assert_eq!(minimized.len(), 5);
    }

    #[test]
    fn vector_shrinking_drops_elements_anywhere() {
        // Fails iff a 7 comes before a 9; both sit behind and between
        // filler, so cutting the tail alone cannot reach the core.
        let strategy = prop::collection::vec(any::<u8>(), 0..64);
        let mut failing = vec![50u8; 30];
        failing.push(7);
        failing.extend([50u8; 5]);
        failing.push(9);
        failing.extend([50u8; 5]);
        assert_eq!(failing.len(), 42);
        let (minimized, _, _) = crate::shrink_failure(
            &strategy,
            failing,
            TestCaseError::fail("seed"),
            |v: &Vec<u8>| match v.iter().position(|&x| x == 7) {
                Some(i) if v[i..].contains(&9) => Err(TestCaseError::fail("7 then 9")),
                _ => Ok(()),
            },
        );
        assert_eq!(minimized, vec![7, 9]);
    }

    #[test]
    fn tuple_shrinking_minimizes_each_component() {
        let strategy = (0u64..100, 0u64..100);
        let (minimized, _, _) = crate::shrink_failure(
            &strategy,
            (90, 77),
            TestCaseError::fail("seed"),
            |(a, b): &(u64, u64)| {
                if a + b < 30 {
                    Ok(())
                } else {
                    Err(TestCaseError::fail("sum too big"))
                }
            },
        );
        assert_eq!(minimized.0 + minimized.1, 30, "minimal failing sum");
    }

    #[test]
    fn unshrinkable_strategies_report_the_original_value() {
        // prop_map cannot invert its function, so no candidates exist and
        // the original failing value survives untouched.
        let strategy = (1u32..50).prop_map(|n| n * 3);
        let (minimized, _, steps) =
            crate::shrink_failure(&strategy, 42, TestCaseError::fail("seed"), |_: &u32| {
                Err(TestCaseError::fail("always fails"))
            });
        assert_eq!(minimized, 42);
        assert_eq!(steps, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// End-to-end: a failing property panics with the minimized input in
        /// the message, not just a case number.
        #[test]
        #[should_panic(expected = "minimized input")]
        fn failing_property_reports_minimized_input(x in 0u64..1000) {
            prop_assert!(x < 10, "x = {x} crossed the threshold");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Sampled values respect their range bounds.
        #[test]
        fn ranges_stay_in_bounds(
            x in 3u64..10,
            f in 0.25f64..0.75,
            v in prop::collection::vec(any::<u8>(), 2..5),
            c in prop::char::range('a', 'f'),
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.25..0.75).contains(&f));
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(('a'..='f').contains(&c));
        }

        /// prop_oneof and prop_map compose.
        #[test]
        fn oneof_and_map_compose(
            v in prop_oneof![
                (1u32..5).prop_map(|n| n * 2),
                (10u32..20).prop_map(|n| n + 1),
            ],
        ) {
            prop_assert!((2..10).contains(&v) || (11..21).contains(&v));
        }
    }
}
