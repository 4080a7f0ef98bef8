//! Simulation time.
//!
//! Time is measured in integer **microseconds** since the start of the
//! simulation. Integer time makes event ordering exact and runs
//! reproducible across platforms; microsecond resolution is fine enough
//! that rounding error is negligible against the second-scale dynamics of
//! the MOON paper (heartbeats are seconds, jobs are minutes).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative SimTime");
        SimTime((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration; useful as "never".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative SimDuration");
        debug_assert!(s.is_finite(), "non-finite SimDuration");
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite());
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimTime subtraction underflow");
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        debug_assert!(self.0 >= other.0, "SimDuration subtraction underflow");
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_seconds() {
        let t = SimTime::from_secs(409);
        assert_eq!(t.as_micros(), 409 * MICROS_PER_SEC);
        assert!((t.as_secs_f64() - 409.0).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_millis(500);
        assert_eq!((a + b).as_secs_f64(), 3.5);
        assert_eq!((a - b).as_secs_f64(), 2.5);
        assert_eq!((a * 2).as_secs_f64(), 6.0);
        assert_eq!((a / 2).as_secs_f64(), 1.5);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        let d = SimDuration::from_secs_f64(0.000_000_4);
        assert_eq!(d.as_micros(), 0);
        let d = SimDuration::from_secs_f64(0.000_000_6);
        assert_eq!(d.as_micros(), 1);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }
}
