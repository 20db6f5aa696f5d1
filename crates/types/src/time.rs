//! Simulated time.
//!
//! SpotLake's collector samples the cloud every ten minutes ([`COLLECTION_TICK`],
//! matching the paper's collection interval). All simulation components share
//! a single monotonically increasing [`SimTime`] measured in seconds since
//! the simulation epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// Number of whole seconds in this duration.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Integer division of two durations (how many `rhs` fit in `self`).
    pub const fn div_duration(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.is_multiple_of(86_400) && s > 0 {
            write!(f, "{}d", s / 86_400)
        } else if s.is_multiple_of(3600) && s > 0 {
            write!(f, "{}h", s / 3600)
        } else if s.is_multiple_of(60) && s > 0 {
            write!(f, "{}m", s / 60)
        } else {
            write!(f, "{s}s")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

/// The collector's sampling period: ten minutes, as in the paper
/// ("The data were collected every 10 minutes", Section 5).
pub const COLLECTION_TICK: SimDuration = SimDuration::from_mins(10);

/// An instant in simulated time: seconds since the simulation epoch.
///
/// The simulation epoch corresponds to the paper's collection start date
/// (January 1, 2022); nothing in the code depends on the calendar, only on
/// elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Which whole day (0-based) since the epoch this instant falls on.
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Elapsed time since `earlier`, or `None` if `earlier` is later.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
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
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_ten_minutes() {
        assert_eq!(COLLECTION_TICK.as_secs(), 600);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(SimDuration::from_days(2).to_string(), "2d");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h");
        assert_eq!(SimDuration::from_mins(10).to_string(), "10m");
        assert_eq!(SimDuration::from_secs(61).to_string(), "61s");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::EPOCH + SimDuration::from_days(3);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t - SimTime::EPOCH, SimDuration::from_days(3));
        assert_eq!(t.checked_since(t + SimDuration::from_secs(1)), None);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let _ = SimTime::EPOCH.since(SimTime::from_secs(1));
    }

    #[test]
    fn div_duration_counts_ticks() {
        let day = SimDuration::from_days(1);
        assert_eq!(day.div_duration(COLLECTION_TICK), 144);
    }
}
