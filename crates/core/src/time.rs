//! Deterministic time and bandwidth quantities.
//!
//! All simulated time in `ovlsim` is an integer number of **picoseconds**
//! held in a [`Time`] value. Integer time makes every simulation bit-for-bit
//! reproducible across platforms; picosecond resolution means one instruction
//! at 1000 MIPS is exactly 1000 ps, and a `u64` still covers ~213 days of
//! simulated time, far beyond any experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::error::CoreError;

/// Picoseconds per second.
pub(crate) const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant or duration in simulated time, stored as integer picoseconds.
///
/// `Time` is used both for absolute instants (time since simulation start)
/// and for durations; the arithmetic provided (`+`, `-`, scaling) is the
/// same for both uses.
///
/// # Example
///
/// ```
/// use ovlsim_core::Time;
///
/// let t = Time::from_us(3) + Time::from_ns(500);
/// assert_eq!(t.as_ps(), 3_500_000);
/// assert!(t < Time::from_ms(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant / empty duration.
    pub const ZERO: Time = Time(0);

    /// The maximum representable time (~213 simulated days).
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * PS_PER_SEC)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTime`] if `secs` is negative, NaN,
    /// infinite, or too large to represent.
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, CoreError> {
        if !secs.is_finite() || secs < 0.0 {
            return Err(CoreError::InvalidTime(secs));
        }
        let ps = secs * PS_PER_SEC as f64;
        if ps > u64::MAX as f64 {
            return Err(CoreError::InvalidTime(secs));
        }
        Ok(Time(ps.round() as u64))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds (lossy above 2^53 ps).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// Saturating addition (clamps at [`Time::MAX`]).
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at [`Time::ZERO`]).
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Scales this time by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Time {
        Time(self.0.saturating_mul(factor))
    }

    /// Scales this time by a non-negative float factor, rounding to the
    /// nearest picosecond and saturating on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN (programming error at call
    /// sites, which all pass validated configuration values).
    pub fn scale_f64(self, factor: f64) -> Time {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "time scale factor must be finite and non-negative, got {factor}"
        );
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time(scaled.round() as u64)
        }
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;

    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("simulated time overflowed u64 picoseconds"),
        )
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;

    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("simulated time subtraction underflowed"),
        )
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;

    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(
            self.0
                .checked_mul(rhs)
                .expect("simulated time multiplication overflowed"),
        )
    }
}

impl Div<u64> for Time {
    type Output = Time;

    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::units::format_time(*self))
    }
}

/// Network bandwidth in bytes per second.
///
/// Stored as a validated positive finite `f64`; used only at configuration
/// boundaries. Transfer durations are produced as integer [`Time`], so the
/// simulation itself stays deterministic.
///
/// # Example
///
/// ```
/// use ovlsim_core::{Bandwidth, Time};
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let bw = Bandwidth::from_bytes_per_sec(1.0e9)?; // 1 GB/s
/// assert_eq!(bw.transfer_time(1_000_000), Time::from_us(1000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBandwidth`] unless `bps` is finite and
    /// strictly positive.
    pub fn from_bytes_per_sec(bps: f64) -> Result<Self, CoreError> {
        if !bps.is_finite() || bps <= 0.0 {
            return Err(CoreError::InvalidBandwidth(bps));
        }
        Ok(Bandwidth(bps))
    }

    /// Bandwidth in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to push `bytes` through this bandwidth (excludes latency),
    /// rounded to the nearest picosecond and saturating at [`Time::MAX`].
    pub fn transfer_time(self, bytes: u64) -> Time {
        let ps = bytes as f64 / self.0 * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time::from_ps(ps.round() as u64)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::units::format_bandwidth(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Time::from_secs(1).as_ps(), PS_PER_SEC);
    }

    #[test]
    fn from_secs_f64_rounds() {
        let t = Time::try_from_secs_f64(1.5e-12).unwrap();
        assert_eq!(t.as_ps(), 2); // banker-free round-half-up of 1.5
        assert_eq!(Time::try_from_secs_f64(0.0).unwrap(), Time::ZERO);
    }

    #[test]
    fn from_secs_f64_rejects_bad_input() {
        assert!(Time::try_from_secs_f64(-1.0).is_err());
        assert!(Time::try_from_secs_f64(f64::NAN).is_err());
        assert!(Time::try_from_secs_f64(f64::INFINITY).is_err());
        assert!(Time::try_from_secs_f64(1.0e20).is_err());
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Time::from_us(7);
        let b = Time::from_ns(13);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 3, Time::from_us(21));
        assert_eq!(Time::from_us(21) / 3, a);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_underflow_panics() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::MAX.saturating_add(Time::from_ns(1)), Time::MAX);
        assert_eq!(
            Time::from_ns(1).saturating_sub(Time::from_ns(2)),
            Time::ZERO
        );
        assert_eq!(Time::MAX.saturating_mul(2), Time::MAX);
    }

    #[test]
    fn scale_f64_rounds_and_saturates() {
        assert_eq!(Time::from_ns(10).scale_f64(1.5), Time::from_ps(15_000));
        assert_eq!(Time::MAX.scale_f64(2.0), Time::MAX);
        assert_eq!(Time::from_ns(10).scale_f64(0.0), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_f64_rejects_negative() {
        let _ = Time::from_ns(1).scale_f64(-0.5);
    }

    #[test]
    fn sum_and_minmax() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
        assert_eq!(Time::from_ns(1).max(Time::from_ns(2)), Time::from_ns(2));
        assert_eq!(Time::from_ns(1).min(Time::from_ns(2)), Time::from_ns(1));
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_bytes_per_sec(1.0e9).unwrap();
        // 1 MB at 1 GB/s = 1 ms.
        assert_eq!(bw.transfer_time(1_000_000), Time::from_ms(1));
        // 1 byte at 1 GB/s = 1 ns.
        assert_eq!(bw.transfer_time(1), Time::from_ns(1));
        // Zero bytes move instantly.
        assert_eq!(bw.transfer_time(0), Time::ZERO);
    }

    #[test]
    fn bandwidth_validation() {
        assert!(Bandwidth::from_bytes_per_sec(0.0).is_err());
        assert!(Bandwidth::from_bytes_per_sec(-5.0).is_err());
        assert!(Bandwidth::from_bytes_per_sec(f64::NAN).is_err());
        assert!(Bandwidth::from_bytes_per_sec(f64::INFINITY).is_err());
        assert!(Bandwidth::from_bytes_per_sec(250.0e6).is_ok());
    }

    #[test]
    fn tiny_bandwidth_saturates_not_panics() {
        let bw = Bandwidth::from_bytes_per_sec(1.0e-300).unwrap();
        assert_eq!(bw.transfer_time(u64::MAX), Time::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Time::ZERO).is_empty());
        assert!(!format!("{}", Bandwidth::from_bytes_per_sec(1.0e6).unwrap()).is_empty());
    }
}
