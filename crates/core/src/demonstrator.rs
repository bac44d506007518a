//! The OSMOSIS demonstrator (§V): one object wiring together every
//! subsystem at the paper's parameters.
//!
//! * 64 ports at 40 Gb/s (8 WDM wavelengths × 8 fibers),
//! * fixed 256-byte cells → 51.2 ns cell cycle,
//! * broadcast-and-select crossbar with dual receivers per egress,
//! * FLPPR central scheduler (log₂64 = 6 parallel sub-schedulers),
//! * (272, 256, 3) FEC at 6.25% overhead,
//! * 10.4 ns guard budget → ≈75% effective user bandwidth.

use osmosis_fec::OsmosisCode;
use osmosis_phy::datapath::{BroadcastSelectCrossbar, CrossbarConfig};
use osmosis_phy::guard::{CellEfficiency, GuardBudget};
use osmosis_phy::units::Db;
use osmosis_sched::{CellScheduler, Flppr};
use osmosis_sim::TimeDelta;
use osmosis_switch::{EngineConfig, EngineReport, VoqSwitch};
use osmosis_traffic::TrafficGen;

/// Static parameters of the demonstrator.
#[derive(Debug, Clone, Copy)]
pub struct DemonstratorConfig {
    /// Port count (wavelengths × fibers).
    pub ports: usize,
    /// Port line rate in Gb/s.
    pub port_gbps: f64,
    /// Fixed cell size in bytes, including the guard-time equivalent.
    pub cell_bytes: u64,
    /// Receivers per egress port.
    pub receivers: usize,
}

impl Default for DemonstratorConfig {
    fn default() -> Self {
        DemonstratorConfig {
            ports: 64,
            port_gbps: 40.0,
            cell_bytes: 256,
            receivers: 2,
        }
    }
}

/// The assembled demonstrator.
pub struct Demonstrator {
    /// Static parameters.
    pub config: DemonstratorConfig,
    /// The optical datapath model.
    pub crossbar: BroadcastSelectCrossbar,
    /// Guard-time composition.
    pub guard: GuardBudget,
    /// Bandwidth-efficiency model.
    pub efficiency: CellEfficiency,
    /// The FEC code.
    pub fec: OsmosisCode,
}

impl Default for Demonstrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Demonstrator {
    /// Build the §V demonstrator.
    pub fn new() -> Self {
        let config = DemonstratorConfig::default();
        let crossbar = BroadcastSelectCrossbar::new(CrossbarConfig::osmosis_64());
        let guard = GuardBudget::osmosis_default();
        let efficiency = CellEfficiency::osmosis_default();
        Demonstrator {
            config,
            crossbar,
            guard,
            efficiency,
            fec: OsmosisCode::new(),
        }
    }

    /// The 51.2 ns cell cycle.
    pub fn cell_cycle(&self) -> TimeDelta {
        self.efficiency.cycle()
    }

    /// Effective user bandwidth as a fraction of the raw port rate.
    pub fn user_bandwidth_fraction(&self) -> f64 {
        self.efficiency.user_fraction()
    }

    /// Verify the optical power budget closes with margin (§VI.A).
    pub fn power_budget_closes(&self) -> bool {
        self.crossbar.budget_closes(Db(3.0))
    }

    /// A fresh FLPPR scheduler at the demonstrator's parameters.
    pub fn scheduler(&self) -> Flppr {
        Flppr::osmosis(self.config.ports, self.config.receivers)
    }

    /// A fresh switch simulation around a scheduler.
    pub fn switch(&self, sched: Box<dyn CellScheduler>) -> VoqSwitch {
        assert_eq!(sched.inputs(), self.config.ports);
        VoqSwitch::new(sched)
    }

    /// Run traffic through a demonstrator-parameter switch.
    pub fn run(
        &self,
        sched: Box<dyn CellScheduler>,
        traffic: &mut dyn TrafficGen,
        cfg: &EngineConfig,
    ) -> EngineReport {
        self.switch(sched).run(traffic, cfg)
    }

    /// Convert a latency in slots to nanoseconds at the demonstrator's
    /// cell cycle.
    pub fn slots_to_ns(&self, slots: f64) -> f64 {
        slots * self.cell_cycle().as_ns_f64()
    }

    /// Aggregate raw bandwidth in Tb/s (64 × 40 Gb/s = 2.56 Tb/s).
    pub fn aggregate_tbps(&self) -> f64 {
        self.config.ports as f64 * self.config.port_gbps / 1e3
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    #[test]
    fn demonstrator_parameters_match_section_v() {
        let d = Demonstrator::new();
        assert_eq!(d.config.ports, 64);
        assert_eq!(d.config.port_gbps, 40.0);
        assert_eq!(d.config.cell_bytes, 256);
        assert_eq!(d.config.receivers, 2);
        assert_eq!(d.cell_cycle(), TimeDelta::from_ps(51_200));
        assert!((d.aggregate_tbps() - 2.56).abs() < 1e-12);
    }

    #[test]
    fn user_bandwidth_is_75_percent() {
        let d = Demonstrator::new();
        assert!((d.user_bandwidth_fraction() - 0.75).abs() < 0.001);
    }

    #[test]
    fn power_budget_closes() {
        assert!(Demonstrator::new().power_budget_closes());
    }

    #[test]
    fn scheduler_depth_is_log2_ports() {
        let d = Demonstrator::new();
        assert_eq!(d.scheduler().depth(), 6);
    }

    #[test]
    fn quick_run_is_sane() {
        let d = Demonstrator::new();
        let mut tr = BernoulliUniform::new(64, 0.5, &SeedSequence::new(1));
        let r = d.run(
            Box::new(d.scheduler()),
            &mut tr,
            &EngineConfig::new(200, 2_000),
        );
        assert!((r.throughput - 0.5).abs() < 0.03);
        assert_eq!(r.reordered, 0);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn slots_to_ns_uses_cell_cycle() {
        let d = Demonstrator::new();
        assert!((d.slots_to_ns(10.0) - 512.0).abs() < 1e-9);
    }
}
