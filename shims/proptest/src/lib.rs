//! Offline shim for the `proptest` crate.
//!
//! The workspace builds without network access, so this crate provides the
//! subset of proptest's API that the test suites use: the [`proptest!`]
//! macro, `prop_assert*` macros, [`strategy::Strategy`] with `prop_map` /
//! `prop_flat_map`, integer/float range strategies, a regex-subset string
//! strategy, tuple strategies, `prop::collection::vec`, `prop::bool::weighted`
//! and `prop::sample::select`.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case reports its case number and seed, not
//!   a minimised input;
//! * **derived seeding** — each test's RNG is seeded from a stable hash of
//!   its module path and name (override with `PROPTEST_SEED=<u64>`), so runs
//!   are reproducible across processes and machines.
//!
//! `PROPTEST_CASES=<u32>` overrides every property's configured case count
//! — explicit `with_cases` included, unlike the real crate, so CI can scale
//! a whole suite (see
//! [`ProptestConfig::effective_cases`](test_runner::ProptestConfig::effective_cases));
//! a value that is not a `u32` panics, as a bad `PROPTEST_SEED` does.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    pub use crate::strategy::{vec, SizeRange, VecStrategy};
}

pub mod bool {
    pub use crate::strategy::{weighted, WeightedBool};
}

pub mod sample {
    pub use crate::strategy::{select, Select};
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The `prop::` namespace of the real crate's prelude.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Property test entry point. Mirrors proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..10, mut v in prop::collection::vec(0u32..5, 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __cases = __cfg.effective_cases();
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cases {
                // The closure is the `prop_assert!` return scope.
                #[allow(clippy::redundant_closure_call)]
                let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $crate::__proptest_bind!(__rng; $($params)*);
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __result {
                    ::core::panic!(
                        "property {} failed at case {}/{} (seed {}): {}",
                        stringify!($name),
                        __case + 1,
                        __cases,
                        __rng.seed(),
                        __e,
                    );
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; $(,)?) => {};
    ($rng:ident; mut $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let mut $name = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($($rest)*)?);
    };
    ($rng:ident; $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let $name = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($($rest)*)?);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "{}: `{:?}` != `{:?}`", ::std::format!($($fmt)+), __l, __r
        );
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: both sides are `{:?}`", __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "{}: both sides are `{:?}`", ::std::format!($($fmt)+), __l
        );
    }};
}
