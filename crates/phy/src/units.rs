//! Optical power and ratio units.
//!
//! Link budgets are computed in decibels; absolute powers in dBm. These
//! newtypes keep gains (dB) and absolute powers (dBm) from being mixed up:
//! adding a gain to a power yields a power, adding two gains yields a gain,
//! and adding two absolute powers is only possible through the explicit
//! (linear-domain) [`PowerDbm::combine`].

use core::fmt;
use core::ops::{Add, AddAssign, Neg, Sub};

/// A power ratio in decibels (gain when positive, loss when negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

/// An absolute optical power in dBm (decibels relative to 1 mW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PowerDbm(pub f64);

impl Db {
    /// A lossless/unity ratio.
    pub const ZERO: Db = Db(0.0);

    /// Convert a linear power ratio to dB. Panics on non-positive ratios.
    pub fn from_linear(ratio: f64) -> Db {
        assert!(ratio > 0.0, "dB of non-positive ratio");
        Db(10.0 * ratio.log10())
    }

    /// The linear power ratio.
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// The loss of an ideal 1:N power split.
    pub fn split_loss(n: u32) -> Db {
        assert!(n > 0, "split into zero ways");
        Db(-10.0 * (n as f64).log10())
    }
}

impl PowerDbm {
    /// Convert milliwatts to dBm. Panics on non-positive power.
    pub fn from_mw(mw: f64) -> PowerDbm {
        assert!(mw > 0.0, "dBm of non-positive power");
        PowerDbm(10.0 * mw.log10())
    }

    /// Power in milliwatts.
    pub fn mw(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Sum of two absolute powers (linear-domain addition) — e.g. combining
    /// WDM channels onto one fiber.
    pub fn combine(self, other: PowerDbm) -> PowerDbm {
        PowerDbm::from_mw(self.mw() + other.mw())
    }

    /// Combine `n` equal channels.
    pub fn combine_n(self, n: u32) -> PowerDbm {
        assert!(n > 0);
        PowerDbm(self.0 + 10.0 * (n as f64).log10())
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Add<Db> for PowerDbm {
    type Output = PowerDbm;
    fn add(self, rhs: Db) -> PowerDbm {
        PowerDbm(self.0 + rhs.0)
    }
}

impl AddAssign<Db> for PowerDbm {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub<Db> for PowerDbm {
    type Output = PowerDbm;
    fn sub(self, rhs: Db) -> PowerDbm {
        PowerDbm(self.0 - rhs.0)
    }
}

impl Sub<PowerDbm> for PowerDbm {
    type Output = Db;
    fn sub(self, rhs: PowerDbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl fmt::Display for PowerDbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for v in [-30.0, -3.0, 0.0, 3.0, 10.0, 21.07] {
            let db = Db(v);
            assert!((Db::from_linear(db.linear()).0 - v).abs() < 1e-9);
        }
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!((Db(3.0103).linear() - 2.0).abs() < 1e-3);
        assert!((Db::from_linear(0.5).0 + 3.0103).abs() < 1e-3);
    }

    #[test]
    fn split_loss_values() {
        // 1:8 split ≈ -9.03 dB, 1:128 split ≈ -21.07 dB (the OSMOSIS star
        // coupler).
        assert!((Db::split_loss(8).0 + 9.0309).abs() < 1e-3);
        assert!((Db::split_loss(128).0 + 21.072).abs() < 1e-3);
        assert_eq!(Db::split_loss(1).0, 0.0);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        assert!((PowerDbm(0.0).mw() - 1.0).abs() < 1e-12);
        assert!((PowerDbm::from_mw(2.0).0 - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn power_plus_gain() {
        let p = PowerDbm(0.0) + Db(-21.07);
        assert!((p.0 + 21.07).abs() < 1e-12);
    }

    #[test]
    fn combining_equal_channels() {
        let one = PowerDbm(0.0);
        let eight = one.combine_n(8);
        assert!((eight.0 - 9.0309).abs() < 1e-3);
        let two = one.combine(one);
        assert!((two.0 - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn power_difference_is_a_ratio() {
        let margin = PowerDbm(-5.0) - PowerDbm(-20.0);
        assert!((margin.0 - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn from_linear_rejects_zero() {
        Db::from_linear(0.0);
    }
}
