//! Hierarchical system synchronization (§IV.C, ref. \[20\]).
//!
//! "All packets need to arrive at the optical switching elements at the
//! same time, while the switch reconfigures. A solution for this timing
//! issue is proposed in \[20\]" — hierarchical synchronization and
//! signaling: a central reference clock distributed through a tree, plus
//! per-port *launch-time offsets* that pre-compensate each adapter's
//! individual cable length, so cells from all 64 ingress adapters hit
//! the crossbar aligned within the guard window's jitter allocation.

use osmosis_sim::TimeDelta;

/// The clock-distribution tree: each level adds buffering jitter.
#[derive(Debug, Clone)]
pub struct ClockTree {
    /// Jitter added per distribution level (ps).
    pub jitter_per_level_ps: u64,
    /// Number of fan-out levels from the master oscillator to a port.
    pub levels: u32,
}

impl ClockTree {
    /// The demonstrator: 3 fan-out levels (master → shelf → card → port)
    /// at 200 ps of jitter each.
    pub fn osmosis_default() -> Self {
        ClockTree {
            jitter_per_level_ps: 200,
            levels: 3,
        }
    }

    /// Worst-case accumulated clock skew at a port.
    pub fn skew(&self) -> TimeDelta {
        TimeDelta::from_ps(self.jitter_per_level_ps * self.levels as u64)
    }
}

/// Per-port synchronization state: cable length and the launch offset
/// that compensates it.
#[derive(Debug, Clone)]
pub struct PortSync {
    /// Fiber length from this adapter to the crossbar (m).
    pub cable_m: f64,
    /// Launch-time offset applied by the adapter (set by calibration).
    pub launch_offset: TimeDelta,
}

/// The fabric-wide synchronization plan.
#[derive(Debug, Clone)]
pub struct SyncPlan {
    /// Clock tree shared by all ports.
    pub clock: ClockTree,
    /// Per-port state.
    pub ports: Vec<PortSync>,
}

impl SyncPlan {
    /// Build a plan for the given cable lengths, calibrated so every
    /// port's (flight + offset) equals the longest port's flight — the
    /// ref. \[20\] launch-time compensation.
    pub fn calibrate(clock: ClockTree, cable_lengths_m: &[f64]) -> Self {
        assert!(!cable_lengths_m.is_empty());
        let max_flight = cable_lengths_m
            .iter()
            .map(|&m| TimeDelta::fiber_flight(m))
            .max()
            .unwrap_or_default();
        let ports = cable_lengths_m
            .iter()
            .map(|&m| {
                let flight = TimeDelta::fiber_flight(m);
                PortSync {
                    cable_m: m,
                    launch_offset: max_flight - flight,
                }
            })
            .collect();
        SyncPlan { clock, ports }
    }

    /// Arrival-time spread at the crossbar *with* compensation: only the
    /// residual clock skew remains (cable mismatch is nulled out).
    pub fn compensated_window(&self) -> TimeDelta {
        self.clock.skew()
    }

    /// Arrival-time spread *without* compensation: cable mismatch flight
    /// difference plus clock skew.
    pub fn uncompensated_window(&self) -> TimeDelta {
        let flights: Vec<TimeDelta> = self
            .ports
            .iter()
            .map(|p| TimeDelta::fiber_flight(p.cable_m))
            .collect();
        let spread = match (flights.iter().max(), flights.iter().min()) {
            (Some(&max), Some(&min)) => max - min,
            _ => TimeDelta::default(),
        };
        spread + self.clock.skew()
    }

    /// Does the compensated plan fit a jitter allocation (the guard
    /// budget's arrival-jitter share)?
    pub fn fits(&self, jitter_allocation: TimeDelta) -> bool {
        self.compensated_window() <= jitter_allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardBudget;

    fn lengths() -> Vec<f64> {
        // 64 adapters, cables from 2 m to 14.6 m (machine-room spread).
        (0..64).map(|i| 2.0 + i as f64 * 0.2).collect()
    }

    #[test]
    fn compensation_nulls_cable_mismatch() {
        let plan = SyncPlan::calibrate(ClockTree::osmosis_default(), &lengths());
        // Every port's flight + offset is identical.
        let totals: Vec<_> = plan
            .ports
            .iter()
            .map(|p| TimeDelta::fiber_flight(p.cable_m) + p.launch_offset)
            .collect();
        assert!(totals.windows(2).all(|w| w[0] == w[1]));
        // The longest cable gets zero offset.
        let max_port = plan
            .ports
            .iter()
            .max_by(|a, b| a.cable_m.partial_cmp(&b.cable_m).unwrap())
            .unwrap();
        assert_eq!(max_port.launch_offset, TimeDelta::ZERO);
    }

    #[test]
    fn compensated_window_is_clock_skew_only() {
        let plan = SyncPlan::calibrate(ClockTree::osmosis_default(), &lengths());
        assert_eq!(plan.compensated_window(), TimeDelta::from_ps(600));
    }

    #[test]
    fn uncompensated_window_blows_the_guard_budget() {
        // 12.6 m of cable spread = 63 ns of arrival skew — more than the
        // whole cell cycle; without ref. [20]'s scheme the switch cannot
        // work at all.
        let plan = SyncPlan::calibrate(ClockTree::osmosis_default(), &lengths());
        let uncomp = plan.uncompensated_window();
        assert!(uncomp > TimeDelta::from_ns(60), "{uncomp}");
        let allocation = GuardBudget::osmosis_default().arrival_jitter;
        assert!(uncomp > allocation);
        assert!(plan.fits(allocation), "compensated plan fits the budget");
    }

    #[test]
    fn skew_scales_with_tree_depth() {
        let shallow = ClockTree {
            jitter_per_level_ps: 200,
            levels: 2,
        };
        let deep = ClockTree {
            jitter_per_level_ps: 200,
            levels: 5,
        };
        assert!(deep.skew() > shallow.skew());
        assert_eq!(deep.skew(), TimeDelta::from_ps(1_000));
    }
}
