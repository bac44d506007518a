//! The fabric-level OSMOSIS system (§V): 64-port switches in a two-level
//! (three-stage) fat tree → 2048 ports at 12 GByte/s each.

use osmosis_fabric::{CompiledFabric, EngineConfig, EngineReport, TopologySpec};
use osmosis_sim::TimeDelta;
use osmosis_traffic::TrafficGen;

/// The fabric-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct OsmosisFabricConfig {
    /// Switch radix (64 for the real system; simulations use smaller
    /// instances of the same code).
    pub radix: usize,
    /// Port bandwidth in GByte/s per direction (Table 1: 12).
    pub port_gbyte_s: f64,
    /// Inter-switch cable length in meters.
    pub cable_m: f64,
    /// Cell cycle in nanoseconds (51.2 for the demonstrator).
    pub cell_cycle_ns: f64,
}

impl OsmosisFabricConfig {
    /// The full-size §V target: 2048 ports.
    pub fn full_size() -> Self {
        OsmosisFabricConfig {
            radix: 64,
            port_gbyte_s: 12.0,
            cable_m: 25.0,
            cell_cycle_ns: 51.2,
        }
    }

    /// A simulation-sized instance with identical structure.
    pub fn sim_sized(radix: usize) -> Self {
        OsmosisFabricConfig {
            radix,
            ..Self::full_size()
        }
    }

    /// The fabric as a topology spec: the §V two-level tree with the
    /// cable's flight time in slots, option-3 buffers sized for the
    /// credit RTT, and the one-slot local request/grant cycle.
    pub fn spec(&self) -> TopologySpec {
        TopologySpec::two_level(self.radix)
            .with_link_delay(self.link_delay_slots().max(1))
            .with_request_grant(1)
    }

    /// Fabric port count (2048 at full size).
    pub fn ports(&self) -> usize {
        self.spec().hosts() as usize
    }

    /// Aggregate bandwidth in TByte/s (≈25 at full size, §III).
    pub fn aggregate_tbyte_s(&self) -> f64 {
        self.ports() as f64 * self.port_gbyte_s / 1e3
    }

    /// Cable flight time per hop.
    pub fn cable_flight(&self) -> TimeDelta {
        TimeDelta::fiber_flight(self.cable_m)
    }

    /// Cable flight in whole cell slots (rounded up — cells are aligned to
    /// the global cadence).
    pub fn link_delay_slots(&self) -> u64 {
        self.cable_flight()
            .div_ceil_slots(TimeDelta::from_ns_f64(self.cell_cycle_ns))
    }

    /// Build a runnable fabric instance.
    pub fn build(&self) -> CompiledFabric {
        CompiledFabric::new(self.spec())
    }

    /// Run traffic through a fabric instance.
    pub fn run(&self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        self.build().run(traffic, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    #[test]
    fn full_size_matches_paper_targets() {
        let f = OsmosisFabricConfig::full_size();
        assert_eq!(f.ports(), 2_048, "Table 1: port count ≥ 2048");
        // §III: "This yields an aggregate bandwidth of 25 TByte/s."
        assert!((f.aggregate_tbyte_s() - 24.576).abs() < 0.01);
        assert!(f.aggregate_tbyte_s() > 24.0);
    }

    #[test]
    fn link_delay_in_slots() {
        let f = OsmosisFabricConfig::full_size();
        // 25 m → 125 ns → ⌈125/51.2⌉ = 3 slots.
        assert_eq!(f.link_delay_slots(), 3);
    }

    #[test]
    fn sim_sized_instance_runs() {
        let f = OsmosisFabricConfig::sim_sized(8);
        let mut tr = BernoulliUniform::new(f.ports(), 0.4, &SeedSequence::new(3));
        let r = f.run(&mut tr, &EngineConfig::new(500, 4_000));
        assert!((r.throughput - 0.4).abs() < 0.03);
        assert_eq!(r.reordered, 0);
    }
}
