//! The part of `proptest` this workspace's property tests use, on the
//! workspace's own ChaCha8: `proptest!` with `pattern in strategy`
//! arguments, integer and float ranges, tuples of up to six strategies,
//! `prop_map`, `bool::ANY`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_assume!`, `ProptestConfig::with_cases` and `TestCaseError`.
//! Cases are seeded, not shrunk: a property's seed is a hash of its name,
//! case `i` draws from `ChaCha8Rng::seed_from_u64(seed + i)`, and a failure
//! prints seed, case index and inputs, so the same case runs again anywhere.
//! Dependents import it as `proptest` (`package = "seeded-proptest"`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What `use proptest::prelude::*` brings into a test file.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy, TestCaseError};
}

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` was false: the inputs are discarded, not counted.
    Reject(String),
    /// An assertion failed.
    Fail(String),
}

/// How many passing cases a property needs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Cases that must pass (rejected cases do not count).
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration that runs `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A recipe for drawing one input from the case's generator.
pub trait Strategy: Sized {
    /// The type of the drawn input.
    type Value: Debug;
    /// Draw one value.
    fn generate(&self, rng: &mut ChaCha8Rng) -> Self::Value;
    /// A strategy that draws from `self` and applies `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map(self, f)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F>(S, F);

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut ChaCha8Rng) -> O {
        (self.1)(self.0.generate(rng))
    }
}

/// Boolean strategies.
pub mod bool {
    /// The type of [`ANY`].
    pub struct Any;
    /// Either boolean, evenly.
    pub const ANY: Any = Any;
}

impl Strategy for bool::Any {
    type Value = bool;
    fn generate(&self, rng: &mut ChaCha8Rng) -> bool {
        rng.gen::<u32>() & 1 == 1
    }
}

/// A uniform draw from `lo..=hi` (a span below 2⁶⁴), in `i128` to fit any integer type.
fn draw_int(rng: &mut ChaCha8Rng, lo: i128, hi: i128) -> i128 {
    assert!(lo <= hi, "empty range strategy");
    lo + i128::from(rng.gen_range(0..(hi - lo) as u64 + 1))
}

macro_rules! ranges {
    (int: $($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ChaCha8Rng) -> $t {
                draw_int(rng, self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ChaCha8Rng) -> $t {
                draw_int(rng, *self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
    (float: $($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ChaCha8Rng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}
ranges!(int: u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
ranges!(float: f32, f64);

macro_rules! tuples {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut ChaCha8Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuples! { (A 0) (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) }
tuples! { (A 0, B 1, C 2, D 3, E 4) (A 0, B 1, C 2, D 3, E 4, F 5) }

/// What [`proptest!`] expands to: run `property` on seeded draws until
/// `config.cases` pass (at most 1024 rejected). Panics on the first failing
/// case with its seed, index and inputs, regenerated from the same seed.
pub fn run<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    property: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    // FNV-1a of the name: the same seed on every machine.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let draw = |case| strategy.generate(&mut ChaCha8Rng::seed_from_u64(seed.wrapping_add(case)));
    let (mut passed, mut case) = (0, 0u64);
    while passed < config.cases {
        match property(draw(case)) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(why)) => assert!(
                case - u64::from(passed) < 1024,
                "property {name}: too many rejected cases (last: {why})"
            ),
            Err(TestCaseError::Fail(why)) => panic!(
                "property {name} failed at case {case} (seed {seed:#018x}, no shrinking): {why}\n\
                 inputs: {:?}",
                draw(case)
            ),
        }
        case += 1;
    }
}

/// `#[test]` functions whose arguments are drawn from strategies: `fn name(pattern in
/// strategy, …) { body }`, after an optional `#![proptest_config(expr)]` (else 256 cases).
/// The body may use `?` on `Result<_, TestCaseError>` and the `prop_*` macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    (@fns ($config:expr) $(
        $(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(stringify!($name), &$config, &($($strategy,)+), |($($arg,)+)| {
                $body
                Ok(())
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::with_cases(256)) $($rest)*);
    };
}

/// Fail the case unless the condition holds (optional format message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !$cond {
            let message = concat!("assertion failed: ", stringify!($cond)).to_string();
            return Err($crate::TestCaseError::Fail(message $(+ ": " + &format!($($fmt)+))?));
        }
    };
}

/// Fail the case unless both sides are equal (optional format message).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {
        let (left, right) = (&$left, &$right);
        let message = String::new() $(+ &format!($($fmt)+))?;
        $crate::prop_assert!(*left == *right, "{left:?} != {right:?} {message}");
    };
}

/// Discard the case (it does not count) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        /// Every range form stays inside its bounds; tuples destructure.
        #[test]
        fn draws_stay_in_range(
            a in 3usize..9, b in -3i32..=3, x in 0.25f64..0.5,
            (p, q) in (0u64..4, 1u32..=1), flip in crate::bool::ANY,
        ) {
            prop_assume!(a != 4);
            prop_assert!((3..9).contains(&a) && a != 4);
            prop_assert!((-3..=3).contains(&b), "b = {b}");
            prop_assert!((0.25..0.5).contains(&x) && p < 4);
            prop_assert_eq!((q, u8::from(flip) <= 1), (1, true), "flip {}", flip);
        }
    }

    #[test]
    #[should_panic(expected = "property demo failed at case 0 (seed 0xa5e41b674276d396, no sh")]
    fn a_failure_names_its_seed_and_case() {
        crate::run("demo", &ProptestConfig::with_cases(8), &(50u32..100), |v| {
            prop_assert!(v < 50);
            Ok(())
        });
    }
}
