//! Copper vs. fiber cable models (§I).
//!
//! The paper's opening argument: at 10 Gb/s per wire, copper hits the skin
//! effect — either the conductor diameter grows until the cable bundle is
//! "unmanageably thick", or per-lane equalization burns too much power and
//! chip area. Optical fiber removes the reach/diameter coupling at the
//! cost of EO/OE conversions.
//!
//! The copper model is a first-order skin-effect law: attenuation scales
//! with √f·L/d. The constant is calibrated to a representative 100 Ω
//! twinax: ≈ 20 dB at 5 GHz over 10 m with a 1 mm conductor.

use osmosis_sim::TimeDelta;

/// Skin-effect attenuation constant: dB · mm / (m · √GHz).
pub const COPPER_K: f64 = 2.0;

/// Unequalized receiver budget: how much channel loss a plain CML
/// transceiver tolerates (dB).
pub const UNEQUALIZED_BUDGET_DB: f64 = 15.0;

/// Budget with heavy DFE/FFE equalization (dB).
pub const EQUALIZED_BUDGET_DB: f64 = 35.0;

/// Copper attenuation for a lane at `gbps` (Nyquist = rate/2), length in
/// meters, conductor diameter in millimeters.
pub fn copper_attenuation_db(gbps: f64, length_m: f64, diameter_mm: f64) -> f64 {
    assert!(gbps > 0.0 && length_m >= 0.0 && diameter_mm > 0.0);
    let f_ghz = gbps / 2.0;
    COPPER_K * f_ghz.sqrt() * length_m / diameter_mm
}

/// Maximum copper reach for a given rate, diameter and loss budget.
pub fn copper_max_reach_m(gbps: f64, diameter_mm: f64, budget_db: f64) -> f64 {
    budget_db * diameter_mm / (COPPER_K * (gbps / 2.0).sqrt())
}

/// Conductor diameter needed to cover `length_m` at `gbps` within
/// `budget_db`.
pub fn copper_required_diameter_mm(gbps: f64, length_m: f64, budget_db: f64) -> f64 {
    COPPER_K * (gbps / 2.0).sqrt() * length_m / budget_db
}

/// Fiber attenuation: 0.35 dB/km, rate-independent — the skin effect does
/// not exist in glass.
pub fn fiber_attenuation_db(length_m: f64) -> f64 {
    0.35e-3 * length_m
}

/// Equalizer power for one lane, in watts: empirically ≈ 1 mW per dB of
/// compensated loss per Gb/s of lane rate, normalized to 10 Gb/s
/// (DSP complexity grows with both loss and rate).
pub fn equalizer_power_w(gbps: f64, compensated_db: f64) -> f64 {
    1e-3 * compensated_db.max(0.0) * (gbps / 10.0)
}

/// Propagation delay in copper (≈ 4.3 ns/m, foamed dielectric).
pub fn copper_flight(length_m: f64) -> TimeDelta {
    TimeDelta::from_ns_f64(4.3 * length_m)
}

/// Propagation delay in fiber (5 ns/m, matching the paper's 250 ns per
/// 50 m budget).
pub fn fiber_flight(length_m: f64) -> TimeDelta {
    TimeDelta::fiber_flight(length_m)
}

/// A port's cable plant: how many lanes at what rate, over what distance.
#[derive(Debug, Clone, Copy)]
pub struct PortCabling {
    /// Port bandwidth in GByte/s per direction (12 for IB 12x QDR).
    pub port_gbyte_s: f64,
    /// Per-lane signalling rate in Gb/s.
    pub lane_gbps: f64,
    /// Cable run length in meters.
    pub length_m: f64,
}

impl PortCabling {
    /// The paper's reference port: 12 GByte/s over a 50 m machine room.
    pub fn osmosis_reference() -> Self {
        PortCabling {
            port_gbyte_s: 12.0,
            lane_gbps: 10.0,
            length_m: 50.0,
        }
    }

    /// Number of lanes per direction.
    pub fn lanes(&self) -> u32 {
        (self.port_gbyte_s * 8.0 / self.lane_gbps).ceil() as u32
    }

    /// Copper bundle cross-section (mm²) using the diameter each lane
    /// needs at the unequalized budget, two conductors per differential
    /// lane, both directions.
    pub fn copper_bundle_mm2(&self) -> f64 {
        let d = copper_required_diameter_mm(self.lane_gbps, self.length_m, UNEQUALIZED_BUDGET_DB);
        let per_conductor = std::f64::consts::PI * (d / 2.0) * (d / 2.0);
        per_conductor * 2.0 * 2.0 * self.lanes() as f64
    }

    /// Fiber bundle cross-section (mm²): 250 µm coated fiber per lane per
    /// direction.
    pub fn fiber_bundle_mm2(&self) -> f64 {
        let d = 0.25f64;
        std::f64::consts::PI * (d / 2.0) * (d / 2.0) * 2.0 * self.lanes() as f64
    }

    /// Total equalizer power (W) if copper lanes were driven with DSP at
    /// a 1 mm conductor diameter instead of growing the conductor.
    pub fn copper_eq_power_w(&self) -> f64 {
        let loss = copper_attenuation_db(self.lane_gbps, self.length_m, 1.0);
        let compensated = (loss - UNEQUALIZED_BUDGET_DB).max(0.0);
        equalizer_power_w(self.lane_gbps, compensated) * 2.0 * self.lanes() as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn calibration_point() {
        // 10 Gb/s (5 GHz), 10 m, 1 mm → ≈ 20·√5/5 ... = 2·2.236·10 ≈ 44.7?
        // K = 2.0: 2·√5·10/1 = 44.7 dB. At 1 m: 4.47 dB.
        let a = copper_attenuation_db(10.0, 1.0, 1.0);
        assert!((a - 4.472).abs() < 0.01);
    }

    #[test]
    fn attenuation_scales_with_sqrt_rate() {
        let a10 = copper_attenuation_db(10.0, 10.0, 1.0);
        let a40 = copper_attenuation_db(40.0, 10.0, 1.0);
        assert!((a40 / a10 - 2.0).abs() < 1e-9, "√(40/10) = 2");
    }

    #[test]
    fn reach_and_diameter_are_inverses() {
        let d = copper_required_diameter_mm(10.0, 50.0, UNEQUALIZED_BUDGET_DB);
        let reach = copper_max_reach_m(10.0, d, UNEQUALIZED_BUDGET_DB);
        assert!((reach - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paper_argument_copper_is_impractical_at_machine_room_scale() {
        // 50 m at 10 Gb/s within an unequalized budget needs a conductor
        // diameter that makes the bundle unmanageable (≫ 1 mm per lane).
        let d = copper_required_diameter_mm(10.0, 50.0, UNEQUALIZED_BUDGET_DB);
        assert!(d > 10.0, "diameter {d} mm");
        // ...while fiber loss over the same run is negligible.
        assert!(fiber_attenuation_db(50.0) < 0.1);
    }

    #[test]
    fn paper_argument_bundle_cross_sections() {
        let p = PortCabling::osmosis_reference();
        assert_eq!(p.lanes(), 10, "12 GB/s = 96 Gb/s over 10 Gb/s lanes");
        let cu = p.copper_bundle_mm2();
        let fi = p.fiber_bundle_mm2();
        assert!(
            cu / fi > 1000.0,
            "copper bundle {cu:.0} mm² vs fiber {fi:.2} mm²"
        );
    }

    #[test]
    fn paper_argument_eq_power_is_substantial() {
        // "The second option requires too much power [...] when many links
        // are put in parallel": equalizing 50 m on thin copper costs watts
        // per port.
        let p = PortCabling::osmosis_reference();
        assert!(p.copper_eq_power_w() > 1.0, "{} W", p.copper_eq_power_w());
    }

    #[test]
    fn flight_times() {
        assert_eq!(fiber_flight(50.0), TimeDelta::from_ns(250));
        assert!(copper_flight(50.0) < fiber_flight(50.0));
    }

    #[test]
    fn equalizer_power_zero_below_budget() {
        assert_eq!(equalizer_power_w(10.0, -5.0), 0.0);
        assert!(equalizer_power_w(10.0, 10.0) > 0.0);
    }
}
