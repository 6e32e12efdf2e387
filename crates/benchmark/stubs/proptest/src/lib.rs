//! Offline stand-in for `proptest` (see `../rand/src/lib.rs` for why).
//!
//! `proptest! { ... }` expands to nothing, so property tests are *skipped*,
//! not run, on this dependency set. The `Strategy` scaffolding exists only
//! so that strategy helpers written outside the macro still type-check.

/// Swallows the property tests it is given.
#[macro_export]
macro_rules! proptest {
    ($($tt:tt)*) => {};
}

/// Strategy scaffolding: types only, nothing is ever sampled.
pub mod strategy {
    /// Something values could be drawn from.
    pub trait Strategy: Sized {
        /// The type of value drawn.
        type Value;

        /// A strategy for the mapped values.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
            Map(self, f)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F>(pub S, pub F);

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
    }

    impl<T> Strategy for core::ops::Range<T> {
        type Value = T;
    }

    impl<T> Strategy for core::ops::RangeInclusive<T> {
        type Value = T;
    }

    macro_rules! tuples {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
            }
        )*};
    }
    tuples! { (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F) }
}

/// What `use proptest::prelude::*` brings in.
pub mod prelude {
    pub use crate::proptest;
    pub use crate::strategy::Strategy;
}
