//! Simulation statistics: time-weighted utilization.

use ovlsim_core::Time;

/// Accumulates the time-weighted average of a piecewise-constant quantity
/// (e.g. number of busy links over time).
///
/// # Example
///
/// ```
/// use ovlsim_core::Time;
/// use ovlsim_engine::stats::TimeWeighted;
///
/// let mut u = TimeWeighted::new();
/// u.record(Time::ZERO, 0.0);
/// u.record(Time::from_ns(10), 1.0);   // value was 0 during [0,10)
/// u.record(Time::from_ns(30), 0.0);   // value was 1 during [10,30)
/// assert_eq!(u.mean(Time::from_ns(40)), 0.5); // 20 ns busy out of 40
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    last_time: Time,
    last_value: f64,
    weighted_sum: f64, // value × picoseconds
    peak: f64,
}

impl TimeWeighted {
    /// Creates an accumulator at time zero with value zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the quantity changed to `value` at time `at`.
    ///
    /// The peak statistic tracks *persisted* values only: a value that is
    /// overwritten within the same instant occupied zero width of the
    /// timeline and is invisible to both [`TimeWeighted::mean`] and
    /// [`TimeWeighted::peak`]. This makes both statistics independent of
    /// the order in which same-instant records arrive, which is what lets
    /// replay engines with different internal event orderings agree
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous record (time must be
    /// monotone).
    pub fn record(&mut self, at: Time, value: f64) {
        assert!(
            at >= self.last_time,
            "time-weighted samples must be monotone"
        );
        if at > self.last_time {
            let dt = (at - self.last_time).as_ps() as f64;
            self.weighted_sum += self.last_value * dt;
            self.peak = self.peak.max(self.last_value);
            self.last_time = at;
        }
        self.last_value = value;
    }

    /// Time-weighted mean over `[0, end]`.
    ///
    /// Returns 0 for an empty interval.
    pub fn mean(&self, end: Time) -> f64 {
        if end.is_zero() {
            return 0.0;
        }
        let mut sum = self.weighted_sum;
        if end > self.last_time {
            sum += self.last_value * (end - self.last_time).as_ps() as f64;
        }
        sum / end.as_ps() as f64
    }

    /// Highest value that persisted for any nonzero width of the
    /// timeline (the current value counts: it persists to the horizon).
    pub fn peak(&self) -> f64 {
        self.peak.max(self.last_value)
    }

    /// The current (most recently recorded) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean_simple() {
        let mut u = TimeWeighted::new();
        u.record(Time::from_ns(10), 2.0);
        u.record(Time::from_ns(20), 0.0);
        // [0,10): 0, [10,20): 2, [20,40): 0 => mean = 20/40 = 0.5
        assert_eq!(u.mean(Time::from_ns(40)), 0.5);
        assert_eq!(u.peak(), 2.0);
        assert_eq!(u.current(), 0.0);
    }

    #[test]
    fn time_weighted_extends_last_value() {
        let mut u = TimeWeighted::new();
        u.record(Time::ZERO, 1.0);
        // Constant 1 forever: mean is 1 at any horizon.
        assert_eq!(u.mean(Time::from_secs(1)), 1.0);
    }

    #[test]
    fn time_weighted_empty_interval() {
        let u = TimeWeighted::new();
        assert_eq!(u.mean(Time::ZERO), 0.0);
    }

    #[test]
    fn time_weighted_peak_ignores_zero_width_transients() {
        let mut u = TimeWeighted::new();
        u.record(Time::from_ns(10), 5.0);
        u.record(Time::from_ns(10), 2.0); // 5.0 never persisted
        u.record(Time::from_ns(30), 0.0);
        assert_eq!(u.peak(), 2.0);
        // [0,10): 0, [10,30): 2 => 40/40 = 1.0
        assert_eq!(u.mean(Time::from_ns(40)), 1.0);
    }

    #[test]
    fn time_weighted_peak_includes_current_value() {
        let mut u = TimeWeighted::new();
        u.record(Time::from_ns(10), 3.0);
        // 3.0 persists to any horizon even with no later record.
        assert_eq!(u.peak(), 3.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_backwards_time() {
        let mut u = TimeWeighted::new();
        u.record(Time::from_ns(10), 1.0);
        u.record(Time::from_ns(5), 2.0);
    }
}
