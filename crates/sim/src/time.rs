//! Simulation time with picosecond resolution.
//!
//! All OSMOSIS timing quantities (cell cycles of 51.2 ns, SOA guard times of
//! a few ns, fiber time-of-flight of 5 ns/m) are exact multiples of
//! picoseconds, so a `u64` picosecond counter gives exact arithmetic for
//! simulations spanning up to ~213 days of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as an "infinite" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since the epoch (fractional).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Elapsed span since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: Time) -> TimeDelta {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        TimeDelta(self.0 - earlier.0)
    }

    /// Saturating addition of a span.
    #[inline]
    pub fn saturating_add(self, d: TimeDelta) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl TimeDelta {
    /// Zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        TimeDelta(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        TimeDelta(ns * 1_000)
    }

    /// Construct from fractional nanoseconds, rounding to the nearest ps.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        TimeDelta((ns * 1e3).round() as u64)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        TimeDelta(us * 1_000_000)
    }

    /// Picoseconds in this span.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds in this span (fractional).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds in this span (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The time needed to serialize `bytes` at `gbps` gigabits per second,
    /// rounded up to the next picosecond.
    pub fn serialization(bytes: u64, gbps: f64) -> TimeDelta {
        debug_assert!(gbps > 0.0);
        // bits / (Gb/s) = ns; ×1000 → ps.
        let ps = (bytes as f64 * 8.0 * 1_000.0 / gbps).ceil();
        TimeDelta(ps as u64)
    }

    /// Fiber propagation delay for `meters` of standard single-mode fiber
    /// (group index ≈ 1.468 → very close to the 5 ns/m round-trip figure the
    /// paper uses per meter pair; we use 5 ns/m one-way per the paper's
    /// 250 ns for 50 m budget, i.e. 5 ns per meter of cable run).
    pub fn fiber_flight(meters: f64) -> TimeDelta {
        debug_assert!(meters >= 0.0);
        TimeDelta((meters * 5_000.0).round() as u64)
    }

    /// Integer number of whole `slot`s in this span, rounding up.
    /// Panics if `slot` is zero.
    pub fn div_ceil_slots(self, slot: TimeDelta) -> u64 {
        assert!(slot.0 > 0, "zero slot length");
        self.0.div_ceil(slot.0)
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Div<TimeDelta> for TimeDelta {
    type Output = u64;
    #[inline]
    fn div(self, rhs: TimeDelta) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn rem(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 % rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(Time::from_ns(51).as_ps(), 51_000);
        assert_eq!(Time::from_us(1).as_ps(), 1_000_000);
        assert_eq!(TimeDelta::from_ns(250).as_ns_f64(), 250.0);
        assert_eq!(TimeDelta::from_us(2).as_ps(), 2_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::from_ns(100) + TimeDelta::from_ns(28);
        assert_eq!(t, Time::from_ns(128));
        assert_eq!(t - Time::from_ns(100), TimeDelta::from_ns(28));
        assert_eq!(t - TimeDelta::from_ns(28), Time::from_ns(100));
    }

    #[test]
    fn since_measures_elapsed() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(35);
        assert_eq!(b.since(a), TimeDelta::from_ns(25));
    }

    #[test]
    fn serialization_time_matches_paper_example() {
        // Paper §IV: at 12 GByte/s (= 96 Gb/s) a 64-byte packet takes 5.33 ns.
        let d = TimeDelta::serialization(64, 96.0);
        let ns = d.as_ns_f64();
        assert!((ns - 5.33).abs() < 0.01, "got {ns}");
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 1000 Gb/s = 8 ps exactly; at 999 Gb/s slightly more.
        assert_eq!(TimeDelta::serialization(1, 1000.0), TimeDelta::from_ps(8));
        assert_eq!(TimeDelta::serialization(1, 999.0), TimeDelta::from_ps(9));
    }

    #[test]
    fn fiber_flight_matches_machine_room_budget() {
        // Paper §III: 250 ns time-of-flight for a 50-m machine-room diameter.
        assert_eq!(TimeDelta::fiber_flight(50.0), TimeDelta::from_ns(250));
    }

    #[test]
    fn osmosis_cell_cycle_is_51_2_ns() {
        // 256 bytes at 40 Gb/s = 51.2 ns: the demonstrator cell cycle.
        let d = TimeDelta::serialization(256, 40.0);
        assert_eq!(d, TimeDelta::from_ps(51_200));
    }

    #[test]
    fn div_ceil_slots() {
        let slot = TimeDelta::from_ns(50);
        assert_eq!(TimeDelta::from_ns(0).div_ceil_slots(slot), 0);
        assert_eq!(TimeDelta::from_ns(1).div_ceil_slots(slot), 1);
        assert_eq!(TimeDelta::from_ns(50).div_ceil_slots(slot), 1);
        assert_eq!(TimeDelta::from_ns(51).div_ceil_slots(slot), 2);
    }

    #[test]
    fn display_formats_in_ns() {
        assert_eq!(format!("{}", Time::from_ns(5)), "5.000 ns");
        assert_eq!(format!("{}", TimeDelta::from_ps(500)), "0.500 ns");
    }
}
