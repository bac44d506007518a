//! # osmosis-core
//!
//! The OSMOSIS system facade: the §V demonstrator (64 ports × 40 Gb/s,
//! 256-byte cells, broadcast-and-select crossbar, dual receivers, FLPPR
//! scheduler, (272,256,3) FEC), the §V fabric-level configuration
//! (2048 ports via a two-level fat tree), and one experiment runner per
//! table/figure of the paper.
//!
//! ```
//! use osmosis_core::Demonstrator;
//!
//! let d = Demonstrator::new();
//! assert_eq!(d.config.ports, 64);
//! assert!((d.user_bandwidth_fraction() - 0.75).abs() < 0.001);
//! assert!(d.power_budget_closes());
//! ```

#![deny(missing_docs)]

pub mod demonstrator;
pub mod experiments;
pub mod fabric_level;

pub use demonstrator::{Demonstrator, DemonstratorConfig};
pub use experiments::Scale;
pub use fabric_level::OsmosisFabricConfig;
