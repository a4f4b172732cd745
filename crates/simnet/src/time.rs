//! Virtual time for the discrete-event simulation.
//!
//! All Cloud4Home experiments run in *virtual* time: latencies, transfer
//! times, and service execution times advance a [`SimTime`] clock instead of
//! the wall clock, which makes every experiment deterministic under a fixed
//! RNG seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a thin newtype over `u64`; arithmetic with
/// [`std::time::Duration`] is supported directly.
///
/// # Examples
///
/// ```
/// use c4h_simnet::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(250);
/// assert_eq!(t.as_millis_f64(), 250.0);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The farthest representable instant; useful as a sentinel "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a `SimTime` from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a `SimTime` from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates a `SimTime` from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates a `SimTime` from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Virtual time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Virtual time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Elapsed duration since `earlier`, or `None` if `earlier` is later.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration::from_nanos)
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos() as u64))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.as_millis_f64();
        if ms >= 1000.0 {
            write!(f, "{:.3}s", ms / 1000.0)
        } else {
            write!(f, "{ms:.3}ms")
        }
    }
}

/// Converts fractional seconds into a [`Duration`], clamping negatives to zero.
///
/// This is the conversion used throughout the network model when rates
/// (bytes/second) are turned into completion times.
pub fn duration_from_secs_f64(secs: f64) -> Duration {
    if secs <= 0.0 || !secs.is_finite() {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn add_and_subtract() {
        let a = SimTime::from_millis(100);
        let b = a + Duration::from_millis(50);
        assert_eq!(b - a, Duration::from_millis(50));
        assert_eq!(b.duration_since(a), Duration::from_millis(50));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_when_reversed() {
        let a = SimTime::from_millis(1);
        let _ = SimTime::ZERO.duration_since(a);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
    }

    #[test]
    fn saturating_add_clamps() {
        let t = SimTime::MAX.saturating_add(Duration::from_secs(1));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_from_secs_handles_bad_input() {
        assert_eq!(duration_from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(duration_from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(duration_from_secs_f64(0.5), Duration::from_millis(500));
    }
}
