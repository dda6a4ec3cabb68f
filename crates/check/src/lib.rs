//! # ema-check
//!
//! A small, fully in-house property-testing harness driven by the
//! workspace's seeded [`Rng64`]. It replaces `proptest` so the whole
//! workspace builds and tests with zero external dependencies.
//!
//! ## Writing a property test
//!
//! Generators are plain callables `Fn(&mut Rng64) -> T`; combinator
//! helpers live in [`gen`]. The [`prop_tests!`] macro turns each
//! `fn name(pattern in generator) { body }` item into a `#[test]` that
//! runs the body over many seeded cases:
//!
//! ```
//! use ema_check::{gen, prop_assert, prop_tests};
//!
//! fn small_vec(rng: &mut ema_tensor::Rng64) -> Vec<f64> {
//!     gen::vec_f64(rng, -10.0, 10.0, 1, 8)
//! }
//!
//! prop_tests! {
//!     fn reverse_twice_is_identity(v in small_vec) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert!(w == *v, "double reverse changed {v:?}");
//!     }
//! }
//! ```
//!
//! ## Determinism and replay
//!
//! Each test derives its base seed from its fully-qualified name, so
//! runs are deterministic across machines and test-ordering. On failure
//! the harness panics with the case index, the case seed and the
//! `Debug` rendering of the failing input. Environment knobs:
//!
//! - `EMA_CHECK_CASES=N` — cases per property (default 256, the same
//!   default `proptest` used).
//! - `EMA_CHECK_SEED=S` — XORed into every base seed to explore a
//!   different deterministic universe.
//! - `EMA_CHECK_REPLAY=S` — run only the single case with seed `S`
//!   (printed by a failure), for fast debugging.

#![warn(missing_docs)]

use ema_tensor::Rng64;
use std::fmt::Debug;

pub mod gen;

/// Why a property case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// The property was violated; the message explains how.
    Fail(String),
    /// The generated input did not meet a precondition
    /// ([`prop_assume!`]); the case is discarded, not failed.
    Discard,
}

/// Result of evaluating one property case.
pub type PropResult = Result<(), PropError>;

/// Default number of cases per property (matches proptest's default).
pub const DEFAULT_CASES: usize = 256;

/// Mixes a u64 (splitmix64 finalizer) to derive per-case seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a test name, the deterministic base seed.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// A configured property-test runner. Usually constructed through the
/// [`prop_tests!`] macro; build one directly for tests that need a
/// custom case count (e.g. expensive end-to-end properties).
#[derive(Debug, Clone)]
pub struct Check {
    name: String,
    cases: usize,
    seed: u64,
}

impl Check {
    /// Creates a runner for the named property, seeded from the name.
    #[must_use]
    pub fn named(name: &str) -> Self {
        let cases = env_u64("EMA_CHECK_CASES").map_or(DEFAULT_CASES, |n| n.max(1) as usize);
        let seed = fnv1a(name) ^ env_u64("EMA_CHECK_SEED").unwrap_or(0);
        Self {
            name: name.to_string(),
            cases,
            seed,
        }
    }

    /// Overrides the case count (expensive properties run fewer cases).
    /// `EMA_CHECK_CASES` still wins if set.
    #[must_use]
    pub fn cases(mut self, n: usize) -> Self {
        assert!(n > 0, "a property needs at least one case");
        if env_u64("EMA_CHECK_CASES").is_none() {
            self.cases = n;
        }
        self
    }

    /// Runs the property: generate a case, evaluate, repeat.
    ///
    /// Discarded cases ([`prop_assume!`]) do not count towards the case
    /// total; the discard budget is ten attempts per requested case.
    ///
    /// # Panics
    /// Panics with full reproduction info on the first failing case, or
    /// if the discard budget is exhausted.
    pub fn run<T, G, P>(&self, generate: G, property: P)
    where
        T: Debug,
        G: Fn(&mut Rng64) -> T,
        P: Fn(&T) -> PropResult,
    {
        if let Some(replay) = env_u64("EMA_CHECK_REPLAY") {
            self.run_case(replay, usize::MAX, &generate, &property);
            return;
        }
        let mut passed = 0usize;
        let mut attempts = 0usize;
        let budget = self.cases.saturating_mul(10);
        while passed < self.cases {
            assert!(
                attempts < budget,
                "property {:?}: discard budget exhausted ({} attempts for {} cases); \
                 loosen the generator or the prop_assume! preconditions",
                self.name,
                attempts,
                self.cases
            );
            let case_seed = mix(self.seed ^ (attempts as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            if self.run_case(case_seed, passed, &generate, &property) {
                passed += 1;
            }
            attempts += 1;
        }
    }

    /// Runs a single case; returns false when the case was discarded.
    fn run_case<T, G, P>(&self, case_seed: u64, index: usize, generate: &G, property: &P) -> bool
    where
        T: Debug,
        G: Fn(&mut Rng64) -> T,
        P: Fn(&T) -> PropResult,
    {
        let mut rng = Rng64::seed_from(case_seed);
        let input = generate(&mut rng);
        match property(&input) {
            Ok(()) => true,
            Err(PropError::Discard) => false,
            Err(PropError::Fail(msg)) => panic!(
                "property {:?} failed at case {} (seed {case_seed}):\n  input: {:?}\n  {}\n\
                 replay with EMA_CHECK_REPLAY={case_seed}",
                self.name, index, input, msg
            ),
        }
    }
}

/// Asserts a condition inside a property body, failing the case (not
/// the process) so the harness can report the generated input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // `if cond {} else { fail }` keeps negated float comparisons out
        // of the expansion (clippy::neg_cmp_op_on_partial_ord fires at
        // every call site otherwise).
        if $cond {
        } else {
            return Err($crate::PropError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return Err($crate::PropError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::PropError::Fail(format!(
                "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::PropError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Discards the current case when a generated input misses a
/// precondition. Discards don't count towards the case total.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if $cond {
        } else {
            return Err($crate::PropError::Discard);
        }
    };
}

/// Declares seeded property tests.
///
/// Each item `fn name(pat in generator, ...) { body }` becomes a
/// `#[test]`. A generator is any expression callable as
/// `Fn(&mut Rng64) -> T` — a fn item, a closure, or a call returning a
/// closure. An optional leading `@cases(N)` marker overrides the case
/// count for one test (useful for expensive properties).
#[macro_export]
macro_rules! prop_tests {
    ($(
        $(@cases($cases:expr))?
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $gen:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let check = $crate::Check::named(concat!(module_path!(), "::", stringify!($name)));
                $(let check = check.cases($cases);)?
                check.run(
                    |rng| ( $( ($gen)(rng), )+ ),
                    |case| {
                        let ( $( $pat, )+ ) = ::std::clone::Clone::clone(case);
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_f64(rng: &mut Rng64) -> f64 {
        rng.uniform()
    }

    #[test]
    fn same_name_same_cases() {
        // Two runs of the same property see identical inputs.
        let collect = || {
            let mut seen = Vec::new();
            let cell = std::cell::RefCell::new(&mut seen);
            Check::named("determinism-probe")
                .cases(32)
                .run(unit_f64, |x| {
                    cell.borrow_mut().push(*x);
                    Ok(())
                });
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn different_names_differ() {
        let collect = |name: &str| {
            let mut seen = Vec::new();
            let cell = std::cell::RefCell::new(&mut seen);
            Check::named(name).cases(8).run(unit_f64, |x| {
                cell.borrow_mut().push(*x);
                Ok(())
            });
            seen
        };
        assert_ne!(collect("alpha"), collect("beta"));
    }

    #[test]
    #[should_panic(expected = "replay with EMA_CHECK_REPLAY=")]
    fn failure_reports_replay_seed() {
        Check::named("always-fails")
            .cases(4)
            .run(unit_f64, |_| Err(PropError::Fail("nope".into())));
    }

    #[test]
    #[should_panic(expected = "discard budget exhausted")]
    fn discard_budget_is_enforced() {
        Check::named("always-discards")
            .cases(4)
            .run(unit_f64, |_| Err(PropError::Discard));
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let mut passed = 0usize;
        let cell = std::cell::RefCell::new(&mut passed);
        Check::named("half-discard").cases(50).run(unit_f64, |x| {
            if *x < 0.5 {
                return Err(PropError::Discard);
            }
            **cell.borrow_mut() += 1;
            Ok(())
        });
        assert_eq!(passed, 50);
    }

    prop_tests! {
        fn macro_declares_runnable_tests(x in unit_f64, y in unit_f64) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        @cases(16)
        fn macro_supports_case_override_and_tuples((a, b) in |rng: &mut Rng64| (rng.uniform(), rng.uniform())) {
            prop_assert!(a >= 0.0);
            prop_assert_eq!(b >= 0.0, true);
        }

        fn macro_supports_assume(x in unit_f64) {
            prop_assume!(x > 0.1);
            prop_assert!(x > 0.05);
        }
    }
}
