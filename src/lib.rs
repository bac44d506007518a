//! Umbrella crate: re-exports the OSMOSIS workspace crates for integration
//! tests and examples. See `osmosis-core` for the main public API.
#![deny(missing_docs)]

pub use osmosis_analysis as analysis;
pub use osmosis_campaign as campaign;
pub use osmosis_core as core;
pub use osmosis_fabric as fabric;
pub use osmosis_faults as faults;
pub use osmosis_fdl as fdl;
pub use osmosis_fec as fec;
pub use osmosis_ocs as ocs;
pub use osmosis_phy as phy;
pub use osmosis_sched as sched;
pub use osmosis_sim as sim;
pub use osmosis_switch as switch;
pub use osmosis_telemetry as telemetry;
pub use osmosis_traffic as traffic;
