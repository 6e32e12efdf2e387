//! Offline stand-in for `rand` 0.8.
//!
//! The benchmark has to build where no crate registry is reachable, so
//! `run.sh` patches the workspace's external crates with the packages in
//! this directory when (and only when) the real ones cannot be resolved.
//! This one is a *functional* PRNG: `StdRng` is splitmix64, which is
//! deterministic in its seed like the real `StdRng`, but draws a different
//! stream. Workloads generated on the stand-in therefore differ from those
//! on the published crate; results are comparable only within one
//! dependency set, which the benchmark's `host` block names.

use core::ops::{Range, RangeInclusive};

/// The raw 64-bit source every generator implements.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Generators constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// A uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * unit_f64(rng);
        // Rounding can land exactly on the excluded bound.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * unit_f64(rng)
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }
}
impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 standing in for the real ChaCha-based `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(u64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
