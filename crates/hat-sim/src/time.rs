//! Logical simulation time.
//!
//! All simulation time is measured in integer microseconds from the start
//! of the run. Integer time keeps the event queue total order exact and the
//! simulation deterministic (no floating-point drift between platforms).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Instant;

/// An instant in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// This instant expressed in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Wall-clock time elapsed since `epoch`: the clock of an engine
    /// built by [`crate::Engine::wall`].
    pub fn elapsed(epoch: Instant) -> Self {
        SimTime(epoch.elapsed().as_micros() as u64)
    }

    /// Duration elapsed since `earlier`, saturating to zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional milliseconds, rounding to the
    /// nearest microsecond (and never below 1 µs for positive inputs, so a
    /// nonzero modelled latency cannot collapse to an instantaneous hop).
    pub fn from_millis_f64(ms: f64) -> Self {
        let us = (ms * 1_000.0).round();
        if us <= 0.0 {
            SimDuration(if ms > 0.0 { 1 } else { 0 })
        } else {
            SimDuration(us as u64)
        }
    }

    /// This duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating multiply by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        // subtraction saturates rather than panicking
        assert_eq!(SimTime::ZERO - SimTime::from_millis(1), SimDuration::ZERO);
    }

    #[test]
    fn fractional_millis_never_zero_for_positive() {
        assert_eq!(SimDuration::from_millis_f64(0.0001).as_micros(), 1);
        assert_eq!(SimDuration::from_millis_f64(0.0).as_micros(), 0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(b.since(a), SimDuration::from_millis(1));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimTime::from_millis(1).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
    }
}
