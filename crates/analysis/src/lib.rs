//! # osmosis-analysis
//!
//! Closed-form models backing the paper's quantitative arguments:
//!
//! * [`power`] — CMOS power ∝ data rate vs. rate-independent SOA bias,
//!   control power ∝ packet rate, and the resulting crossover (§I);
//! * [`latency`] — the 500 ns fabric budget, the ≈1200 ns demonstrator
//!   budget and its FPGA→ASIC mapping, the 1 µs application budget, and
//!   the 40-FPGA → ≤4-ASIC scheduler partition (§III, §VI.B);
//! * [`scaling`] — the §VII outlook: the 6–8 Tb/s electronic ceiling,
//!   50 Tb/s per optical stage, 256×200 Gb/s feasibility, FLPPR depth
//!   scaling, and the ASIC-speedup trade space;
//! * [`cost`] — the §VII commercialization argument: $/Gb/s at the
//!   fabric level and the optical-integration factor needed for parity.
//!
//! Bandwidth-efficiency models live in `osmosis-phy::guard`; BER-tier
//! models live in `osmosis-fec::analytics`. This crate re-exports the
//! quantities Table 1 needs so experiment harnesses have one entry point.

#![deny(missing_docs)]

pub mod cost;
pub mod latency;
pub mod power;
pub mod scaling;

pub use cost::{tco_per_port, CostModel};
pub use latency::{
    asic_mapping, demonstrator_budget, total, ApplicationBudget, BudgetItem, FabricBudget,
    SchedulerPartition,
};
pub use power::{fabric_power_w, PowerModel};
pub use scaling::{
    asic_tradeoff_fits, cell_time_ns, flppr_depth_for, OpticalEnvelope, StageConfig,
    ELECTRONIC_SINGLE_STAGE_TBPS,
};

/// Re-exported effective-bandwidth model (guard + FEC tax → ≥75%).
pub use osmosis_phy::guard::{CellEfficiency, GuardBudget};

/// Re-exported BER tiers (raw → FEC → retransmission).
pub use osmosis_fec::analytics as ber;
