//! Geometry and time kernel for the space-booking LSN simulator.
//!
//! This crate provides the low-level math every other layer of the simulator
//! is built on:
//!
//! * [`Vec3`] — a minimal 3-vector with the handful of operations orbital
//!   mechanics needs (dot/cross/norm/rotations about principal axes);
//! * [`coords`] — conversions between geodetic coordinates (latitude,
//!   longitude, altitude), the Earth-Centered Earth-Fixed (ECEF) frame and
//!   the Earth-Centered Inertial (ECI) frame, linked through Greenwich Mean
//!   Sidereal Time;
//! * [`sun`] — a low-precision analytic solar ephemeris and a cylindrical
//!   Earth-shadow (umbra) test used by the satellite energy model;
//! * [`visibility`] — elevation-angle and line-of-sight tests used to decide
//!   when a user-satellite link (USL) exists.
//!
//! # Example
//!
//! ```
//! use sb_geo::{coords::Geodetic, sun, Epoch};
//!
//! // Where is a ground station in the inertial frame at t = 600 s?
//! let gs = Geodetic::new(35.78_f64.to_radians(), -78.64_f64.to_radians(), 0.0);
//! let epoch = Epoch::from_seconds(600.0);
//! let eci = gs.to_ecef().to_eci(epoch);
//!
//! // Is that point in sunlight?
//! let lit = !sun::in_umbra(eci, epoch);
//! # let _ = lit;
//! ```

#![warn(missing_docs)]
pub mod constants;
pub mod coords;
pub mod sun;
pub mod vec3;
pub mod visibility;

pub use constants::*;
pub use vec3::Vec3;

use serde::{Deserialize, Serialize};

/// A simulation epoch: seconds elapsed since the (arbitrary) simulation start.
///
/// The simulator does not need absolute calendar time; all orbital phases are
/// defined relative to the simulation start, which is taken to coincide with
/// a Greenwich sidereal angle of zero. `Epoch` is a newtype so that seconds
/// cannot be confused with time-slot indices.
///
/// # Example
///
/// ```
/// use sb_geo::Epoch;
/// let t = Epoch::from_seconds(120.0);
/// assert_eq!(t.as_seconds(), 120.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Epoch(f64);

impl Epoch {
    /// Creates an epoch from seconds since simulation start.
    pub fn from_seconds(secs: f64) -> Self {
        Epoch(secs)
    }

    /// Seconds since simulation start.
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// The Greenwich rotation angle (radians) accumulated since simulation
    /// start, using the sidereal rotation rate of the Earth.
    pub fn gmst(self) -> f64 {
        (self.0 * EARTH_ROTATION_RATE) % core::f64::consts::TAU
    }
}

impl core::fmt::Display for Epoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t+{:.1}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_roundtrip() {
        let e = Epoch::from_seconds(42.5);
        assert_eq!(e.as_seconds(), 42.5);
        assert_eq!(format!("{e}"), "t+42.5s");
    }

    #[test]
    fn gmst_wraps() {
        let day = core::f64::consts::TAU / EARTH_ROTATION_RATE;
        let e = Epoch::from_seconds(day * 1.5);
        assert!((e.gmst() - core::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn gmst_zero_at_start() {
        assert_eq!(Epoch::from_seconds(0.0).gmst(), 0.0);
    }
}
