//! Guard-time budget and effective user bandwidth (§IV.C, §V).
//!
//! Between consecutive cells the optical switch reconfigures, the
//! burst-mode receivers reacquire phase, and all packets must hit the
//! switching window despite arrival jitter. No user data flows during that
//! guard time, so it directly taxes the effective bandwidth. On top of
//! that the FEC costs 6.25% of the remaining bits.
//!
//! The demonstrator's 256-byte cell *includes* the guard time, giving the
//! 51.2 ns cell cycle at 40 Gb/s, and the paper claims ≈75% effective user
//! bandwidth — which pins the guard budget at 10.4 ns:
//!
//! ```text
//! (51.2 − 10.4)/51.2 / 1.0625 = 0.75
//! ```

use osmosis_sim::TimeDelta;

/// Itemized guard-time budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardBudget {
    /// SOA gate settling time (§II: ≈5 ns today).
    pub soa_switching: TimeDelta,
    /// Burst-mode receiver phase reacquisition (central reference clock
    /// removes the frequency search; phase still must lock).
    pub phase_reacquisition: TimeDelta,
    /// Packet arrival jitter absorbed at the switch (all cells must arrive
    /// aligned while the crossbar reconfigures; see ref. \[20\]).
    pub arrival_jitter: TimeDelta,
}

impl GuardBudget {
    /// The demonstrator's budget: 5 + 3.8 + 1.6 = 10.4 ns.
    pub fn osmosis_default() -> Self {
        GuardBudget {
            soa_switching: TimeDelta::from_ns(5),
            phase_reacquisition: TimeDelta::from_ps(3_800),
            arrival_jitter: TimeDelta::from_ps(1_600),
        }
    }

    /// §VII outlook: sub-ns SOAs (DPSK, high current density), fast
    /// dual-time-constant CDR, tighter synchronization.
    pub fn fast_outlook() -> Self {
        GuardBudget {
            soa_switching: TimeDelta::from_ps(800),
            phase_reacquisition: TimeDelta::from_ps(1_000),
            arrival_jitter: TimeDelta::from_ps(700),
        }
    }

    /// Total guard time: the components are sequential within the window
    /// (switch settles, receiver locks, jitter margin), so they add.
    pub fn total(&self) -> TimeDelta {
        self.soa_switching + self.phase_reacquisition + self.arrival_jitter
    }
}

/// Bandwidth-efficiency model of a fixed-cell synchronous port.
#[derive(Debug, Clone, Copy)]
pub struct CellEfficiency {
    /// Cell size in bytes, *including* the guard-time equivalent.
    pub cell_bytes: u64,
    /// Port line rate in Gb/s.
    pub port_gbps: f64,
    /// Guard time per cell.
    pub guard: TimeDelta,
    /// FEC coding overhead (0.0625 for the OSMOSIS code).
    pub fec_overhead: f64,
}

impl CellEfficiency {
    /// The demonstrator: 256-byte cells at 40 Gb/s with the default guard
    /// budget and the (272,256) FEC.
    pub fn osmosis_default() -> Self {
        CellEfficiency {
            cell_bytes: 256,
            port_gbps: 40.0,
            guard: GuardBudget::osmosis_default().total(),
            fec_overhead: 0.0625,
        }
    }

    /// Cell cycle time (serialization of the full cell).
    pub fn cycle(&self) -> TimeDelta {
        TimeDelta::serialization(self.cell_bytes, self.port_gbps)
    }

    /// Fraction of the cycle that carries line bits (1 − guard fraction).
    pub fn line_fraction(&self) -> f64 {
        let cycle = self.cycle().as_ns_f64();
        let guard = self.guard.as_ns_f64();
        assert!(guard < cycle, "guard time exceeds the cell cycle");
        (cycle - guard) / cycle
    }

    /// Effective user bandwidth as a fraction of the raw port rate:
    /// guard tax × FEC tax.
    pub fn user_fraction(&self) -> f64 {
        self.line_fraction() / (1.0 + self.fec_overhead)
    }

    /// Effective user bandwidth in Gb/s.
    pub fn user_gbps(&self) -> f64 {
        self.user_fraction() * self.port_gbps
    }

    /// User payload bytes carried per cell.
    pub fn user_bytes_per_cell(&self) -> f64 {
        self.user_fraction() * self.cell_bytes as f64
    }
}

/// Sweep helper: user-bandwidth fraction as a function of guard time for a
/// given cell size (the §VII argument that faster SOAs permit smaller
/// cells).
pub fn user_fraction_vs_guard(
    cell_bytes: u64,
    port_gbps: f64,
    fec_overhead: f64,
    guards: &[TimeDelta],
) -> Vec<(TimeDelta, f64)> {
    guards
        .iter()
        .map(|&g| {
            let e = CellEfficiency {
                cell_bytes,
                port_gbps,
                guard: g,
                fec_overhead,
            };
            (g, e.user_fraction())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_10_4_ns() {
        let g = GuardBudget::osmosis_default();
        assert_eq!(g.total(), TimeDelta::from_ps(10_400));
    }

    #[test]
    fn fast_outlook_is_sub_3ns() {
        let g = GuardBudget::fast_outlook();
        assert!(g.total() < TimeDelta::from_ns(3));
        assert!(
            g.soa_switching < TimeDelta::from_ns(1),
            "sub-ns SOA per §VII"
        );
    }

    #[test]
    fn demonstrator_cycle_is_51_2ns() {
        let e = CellEfficiency::osmosis_default();
        assert_eq!(e.cycle(), TimeDelta::from_ps(51_200));
    }

    #[test]
    fn paper_claim_75_percent_user_bandwidth() {
        // Table 1: "Effective user bandwidth ≥ 75% of raw transmission
        // bandwidth"; §VI.C: "close to 75%".
        let e = CellEfficiency::osmosis_default();
        let f = e.user_fraction();
        assert!((f - 0.75).abs() < 0.001, "user fraction {f}");
        assert!((e.user_gbps() - 30.0).abs() < 0.05);
        assert!((e.user_bytes_per_cell() - 192.0).abs() < 0.3);
    }

    #[test]
    fn smaller_cells_need_faster_soas() {
        // A 64-byte cell at 40 Gb/s is a 12.8 ns cycle: the 10.4 ns guard
        // would destroy efficiency, the sub-ns outlook keeps it usable.
        let slow = CellEfficiency {
            cell_bytes: 64,
            port_gbps: 40.0,
            guard: GuardBudget::osmosis_default().total(),
            fec_overhead: 0.0625,
        };
        assert!(slow.user_fraction() < 0.20, "{}", slow.user_fraction());
        let fast = CellEfficiency {
            guard: GuardBudget::fast_outlook().total(),
            ..slow
        };
        assert!(fast.user_fraction() > 0.70, "{}", fast.user_fraction());
    }

    #[test]
    #[should_panic(expected = "guard time exceeds")]
    fn guard_longer_than_cycle_rejected() {
        let e = CellEfficiency {
            cell_bytes: 64,
            port_gbps: 40.0,
            guard: TimeDelta::from_ns(20),
            fec_overhead: 0.0625,
        };
        e.line_fraction();
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let guards: Vec<TimeDelta> = (0..10).map(TimeDelta::from_ns).collect();
        let pts = user_fraction_vs_guard(256, 40.0, 0.0625, &guards);
        for w in pts.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
        assert!(
            (pts[0].1 - 1.0 / 1.0625).abs() < 1e-9,
            "zero guard → FEC tax only"
        );
    }
}
