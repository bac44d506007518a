//! # osmosis-phy
//!
//! Physical-layer models for the OSMOSIS reproduction: optical power
//! units, component models (SOA gates, couplers, amplifiers), the
//! broadcast-and-select crossbar datapath of Fig. 5, the guard-time and
//! effective-bandwidth budget, the XGM/DPSK saturation model of Fig. 10,
//! copper-vs-fiber cable models (the §I motivation), and burst-mode
//! receiver / arrival-jitter models (§IV.C).
//!
//! Everything the paper implements in hardware (SOAs, star couplers,
//! 40 Gb/s serial links) is substituted here by calibrated analytic
//! models that expose the same architectural quantities: guard time,
//! power-budget closure, crosstalk, effective user bandwidth, and the
//! DPSK input-loading advantage.

//! ```
//! use osmosis_phy::{CellEfficiency, Db, GuardBudget};
//!
//! // The 75% user-bandwidth figure: 10.4 ns guard + 6.25% FEC tax.
//! let eff = CellEfficiency::osmosis_default();
//! assert!((eff.user_fraction() - 0.75).abs() < 0.001);
//!
//! // The Fig. 10 headline: DPSK buys 14 dB of SOA input loading.
//! use osmosis_phy::soa::dpsk_loading_improvement_db;
//! assert!((dpsk_loading_improvement_db(1e-10, 1.0) - 14.0).abs() < 0.01);
//! let _ = Db(0.0);
//! let _ = GuardBudget::osmosis_default();
//! ```

#![deny(missing_docs)]

pub mod burst;
pub mod cable;
pub mod components;
pub mod datapath;
pub mod guard;
pub mod soa;
pub mod sync;
pub mod timeline;
pub mod units;
pub mod wdm;

pub use components::{OpticalElement, PowerBudget, SelectorBank, SoaGate};
pub use datapath::{BroadcastSelectCrossbar, CrossbarConfig};
pub use guard::{CellEfficiency, GuardBudget};
pub use soa::Modulation;
pub use sync::{ClockTree, SyncPlan};
pub use timeline::{run_timeline, Timeline, TimelineConfig};
pub use units::{Db, PowerDbm};
pub use wdm::ChannelPlan;
