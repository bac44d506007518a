//! Epoch cadence and guard-time accounting.
//!
//! A circuit switch reconfigures on *epoch* boundaries: circuits are
//! held for `epoch_slots` cell cycles, and each reconfiguration pays the
//! physical-layer guard time — SOA settling plus burst-mode receiver
//! lock, the same [`GuardBudget`] the packet-mode datapath charges per
//! cell — during which no optical transfer is possible. At the OSMOSIS
//! operating point (10.4 ns guard, 51.2 ns cell cycle) that is a single
//! guard slot per reconfiguration, which is exactly why nanosecond-epoch
//! OCS proposals are viable: the reconfiguration tax is one cell cycle,
//! amortized over the whole epoch.
//!
//! Schedules are planned a *frame* at a time: every `frame_epochs`
//! epochs the scheduler rolls the traffic-matrix estimate, decomposes
//! it, and apportions the frame's epochs over the decomposition terms.

use osmosis_phy::{CellEfficiency, GuardBudget};

/// Epoch/frame cadence for an OCS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Cell cycles per epoch (≥ 1); circuits are held for this long.
    pub epoch_slots: u64,
    /// Cell cycles lost to each reconfiguration (0 ⇒ free switching).
    pub guard_slots: u64,
    /// Epochs per planning frame (≥ 1): the TM is re-estimated and
    /// re-decomposed once per frame.
    pub frame_epochs: usize,
}

impl EpochConfig {
    /// An explicit cadence; `epoch_slots` and `frame_epochs` are clamped
    /// to at least 1 so every configuration is runnable.
    pub fn new(epoch_slots: u64, guard_slots: u64, frame_epochs: usize) -> Self {
        EpochConfig {
            epoch_slots: epoch_slots.max(1),
            guard_slots,
            frame_epochs: frame_epochs.max(1),
        }
    }

    /// The demonstrator operating point: 64-slot epochs (~3.3 µs),
    /// 8-epoch frames, guard time from the OSMOSIS power-penalty budget
    /// quantized to cell cycles (= 1 slot).
    pub fn osmosis_default() -> Self {
        EpochConfig::new(
            64,
            guard_slots_for(
                &GuardBudget::osmosis_default(),
                &CellEfficiency::osmosis_default(),
            ),
            8,
        )
    }

    /// Fraction of an epoch that can carry payload when the epoch paid a
    /// reconfiguration (the OCS duty cycle).
    pub fn duty_cycle(&self) -> f64 {
        let payload = self.epoch_slots.saturating_sub(self.guard_slots);
        payload as f64 / self.epoch_slots as f64
    }
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig::osmosis_default()
    }
}

/// Quantize a physical guard budget to whole cell cycles (ceiling): the
/// slots a reconfiguring circuit is dark.
pub fn guard_slots_for(budget: &GuardBudget, cell: &CellEfficiency) -> u64 {
    let guard_ps = budget.total().as_ps();
    let cycle_ps = cell.cycle().as_ps();
    if cycle_ps == 0 {
        return 0;
    }
    guard_ps.div_ceil(cycle_ps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osmosis_guard_is_one_slot() {
        // 10.4 ns of SOA settling + receiver lock inside a 51.2 ns cell
        // cycle rounds up to exactly one guard slot.
        let g = guard_slots_for(
            &GuardBudget::osmosis_default(),
            &CellEfficiency::osmosis_default(),
        );
        assert_eq!(g, 1);
        assert_eq!(EpochConfig::osmosis_default().guard_slots, 1);
    }

    #[test]
    fn degenerate_cadence_is_clamped() {
        let c = EpochConfig::new(0, 5, 0);
        assert_eq!(c.epoch_slots, 1);
        assert_eq!(c.frame_epochs, 1);
    }

    #[test]
    fn duty_cycle_reflects_guard_share() {
        let c = EpochConfig::new(64, 1, 8);
        assert!((c.duty_cycle() - 63.0 / 64.0).abs() < 1e-12);
        let tight = EpochConfig::new(4, 1, 8);
        assert!((tight.duty_cycle() - 0.75).abs() < 1e-12);
    }
}
