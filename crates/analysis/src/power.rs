//! The §I power argument, as a model.
//!
//! "The main advantage of current optical switching technology is that the
//! optical switch element power consumption is independent of the data
//! rate, whereas in CMOS power consumption is proportional to the clock
//! (i.e. data) rates. The power consumption of the optical switch control
//! function is proportional to the packet rate."

/// Technology coefficients for the power model.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// CMOS dynamic power per port per Gb/s (W/Gb/s): switching capacitance
    /// × voltage² × activity, folded into one coefficient.
    pub cmos_w_per_gbps: f64,
    /// CMOS static (leakage + SerDes bias) power per port (W).
    pub cmos_static_w: f64,
    /// SOA bias power per optical gate (W) — independent of data rate.
    pub soa_bias_w: f64,
    /// Gates in the path of one port (fiber-select + λ-select banks share
    /// across ports; amortized gates per port).
    pub gates_per_port: f64,
    /// Control/scheduler energy per packet (J) — electronics clocked at
    /// the packet rate, not the bit rate.
    pub control_energy_per_packet_j: f64,
}

impl PowerModel {
    /// Coefficients calibrated to mid-2000s technology: a 40 Gb/s CMOS
    /// switch port at ≈4 W, SOA gates at ≈0.5 W bias, control at ≈1 nJ
    /// per scheduled packet.
    pub fn circa_2005() -> Self {
        PowerModel {
            cmos_w_per_gbps: 0.075,
            cmos_static_w: 1.0,
            soa_bias_w: 0.5,
            gates_per_port: 4.0,
            control_energy_per_packet_j: 1e-9,
        }
    }

    /// Electronic switch power per port at a given line rate.
    pub fn cmos_port_power_w(&self, gbps: f64) -> f64 {
        self.cmos_static_w + self.cmos_w_per_gbps * gbps
    }

    /// Optical (SOA) switch datapath power per port — flat in the rate.
    pub fn optical_port_power_w(&self, _gbps: f64) -> f64 {
        self.soa_bias_w * self.gates_per_port
    }

    /// Control power per port: proportional to the packet rate
    /// (rate / packet size), not the bit rate.
    pub fn control_port_power_w(&self, gbps: f64, cell_bytes: f64) -> f64 {
        let packets_per_s = gbps * 1e9 / (cell_bytes * 8.0);
        self.control_energy_per_packet_j * packets_per_s
    }

    /// Total hybrid (OSMOSIS-style) port power: optical datapath +
    /// electronic control + electronic buffers (counted in the control
    /// coefficient).
    pub fn hybrid_port_power_w(&self, gbps: f64, cell_bytes: f64) -> f64 {
        self.optical_port_power_w(gbps) + self.control_port_power_w(gbps, cell_bytes)
    }

    /// Line rate at which the optical datapath becomes cheaper than CMOS.
    pub fn crossover_gbps(&self) -> f64 {
        // cmos_static + k·r = soa·gates  →  r = (soa·gates − static)/k.
        ((self.soa_bias_w * self.gates_per_port) - self.cmos_static_w) / self.cmos_w_per_gbps
    }
}

/// Fabric-level power of an N-port, S-stage fabric at the given per-port
/// power (each stage's switches carry every packet once).
pub fn fabric_power_w(per_port_w: f64, ports: u64, stages: u32) -> f64 {
    per_port_w * ports as f64 * stages as f64
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn cmos_power_scales_with_rate() {
        let m = PowerModel::circa_2005();
        let p10 = m.cmos_port_power_w(10.0);
        let p40 = m.cmos_port_power_w(40.0);
        let p160 = m.cmos_port_power_w(160.0);
        assert!(p40 > p10 && p160 > p40);
        // Dynamic part is strictly linear.
        assert!(((p160 - p40) / (p40 - p10) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn optical_power_is_rate_independent() {
        let m = PowerModel::circa_2005();
        assert_eq!(
            m.optical_port_power_w(10.0),
            m.optical_port_power_w(200.0),
            "SOA bias does not change with the data rate"
        );
    }

    #[test]
    fn control_power_scales_with_packet_rate_not_bit_rate() {
        let m = PowerModel::circa_2005();
        // Same bit rate, double the cell size → half the packets → half
        // the control power.
        let small = m.control_port_power_w(40.0, 128.0);
        let large = m.control_port_power_w(40.0, 256.0);
        assert!((small / large - 2.0).abs() < 1e-9);
    }

    #[test]
    fn optics_wins_at_high_rates() {
        let m = PowerModel::circa_2005();
        let x = m.crossover_gbps();
        assert!(x > 0.0 && x < 40.0, "crossover {x} Gb/s");
        // Below crossover CMOS is cheaper, above it optics is.
        assert!(m.cmos_port_power_w(x * 0.5) < m.optical_port_power_w(x * 0.5));
        assert!(m.cmos_port_power_w(x * 4.0) > m.optical_port_power_w(x * 4.0));
    }

    #[test]
    fn hybrid_beats_cmos_at_osmosis_rates() {
        // At 40 Gb/s with 256-byte cells, the full hybrid port (datapath
        // + control) still undercuts the CMOS port.
        let m = PowerModel::circa_2005();
        let hybrid = m.hybrid_port_power_w(40.0, 256.0);
        let cmos = m.cmos_port_power_w(40.0);
        assert!(hybrid < cmos, "hybrid {hybrid} W vs CMOS {cmos} W");
    }

    #[test]
    fn fabric_power_multiplies_stages() {
        assert_eq!(fabric_power_w(2.0, 2048, 3), 2.0 * 2048.0 * 3.0);
        // Fewer stages (OSMOSIS's 3 vs commodity's 9) divide fabric power.
        let osmosis = fabric_power_w(2.0, 2048, 3);
        let commodity = fabric_power_w(2.0, 2048, 9);
        assert_eq!(commodity / osmosis, 3.0);
    }
}
