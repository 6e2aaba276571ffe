//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build container has no network access, so the real crates.io
//! `proptest` cannot be fetched. This shim implements the subset of its API
//! that the workspace's property tests use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `Just`, `any`, integer-range and tuple
//! strategies, and `collection::vec` — over a deterministic splitmix64
//! generator. Each test function runs a fixed number of cases (256, like
//! proptest's default) with a seed derived from the test name, so failures
//! are reproducible run-to-run and machine-to-machine.
//!
//! Shrinking is intentionally not implemented: on failure the offending
//! inputs are reported via the panic message of the failing assertion.

/// Deterministic pseudo-random generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded generator (splitmix64).
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Hash a test name into a stable seed (FNV-1a).
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Something that can produce values for a property test case.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// A strategy producing one fixed value, like proptest's `Just`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Uniform `f64` ranges, quantized to a 2³²-point grid — ample resolution
/// for property sampling, and the draw stays a single deterministic
/// `below` call so cases replay identically across platforms.
impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let t = rng.below(1 << 32) as f64 / (1u64 << 32) as f64;
        self.start + t * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Full-range strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}
impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        rng.next_u64() as u16
    }
}
impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}
impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}
impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`, like proptest's `any::<T>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice between boxed alternatives (backs `prop_oneof!`).
pub struct OneOf<T> {
    /// The alternatives to draw from.
    pub options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.options.is_empty(), "prop_oneof! needs at least one option");
        let ix = rng.below(self.options.len() as u64) as usize;
        self.options[ix].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Lengths accepted by [`vec()`]: a fixed `usize` or a `Range<usize>`.
    pub trait SizeRange {
        /// Draw a concrete length.
        fn sample(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy for vectors of `element` values with a length drawn from
    /// `size`.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }
}

/// Everything a property test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, Just, OneOf, Strategy, TestRng,
    };
}

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running 256 deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
                for case in 0..256u32 {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // Render the inputs up front: the body may consume them.
                    let mut inputs = String::new();
                    $(inputs.push_str(&format!("  {} = {:?}\n", stringify!($arg), $arg));)+
                    let run = || -> () { $body };
                    let guard = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                    if let Err(payload) = guard {
                        eprintln!(
                            "proptest case {case} of {} failed with inputs:\n{inputs}",
                            stringify!($name)
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// Assert within a property body; panics (no shrinking) with the location.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Inequality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Uniform choice among strategies. Unlike real proptest, all alternatives
/// must be the *same strategy type* (e.g. all `Just<T>`), which is what lets
/// integer literal defaulting unify across the arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($opt:expr),+ $(,)?) => {{
        let opts = vec![$($opt),+];
        $crate::OneOf {
            options: opts
                .into_iter()
                .map(|o| Box::new(o) as Box<dyn $crate::Strategy<Value = _>>)
                .collect(),
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in -50i64..50, y in 3usize..9, z in 0u8..=4) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((3..9).contains(&y));
            prop_assert!(z <= 4);
        }

        #[test]
        fn vec_and_oneof_compose(
            v in collection::vec((0u8..5, -7i64..7), 1..8),
            w in collection::vec(-9i64..9, 4),
            pick in prop_oneof![Just(32u32), Just(64), Just(128)],
            seed in any::<u64>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert_eq!(w.len(), 4);
            prop_assert!([32u32, 64, 128].contains(&pick));
            let _ = seed;
        }
    }
}
