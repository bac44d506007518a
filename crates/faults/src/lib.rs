//! # osmosis-faults
//!
//! Deterministic fault-injection plane for the OSMOSIS reproduction.
//!
//! OSMOSIS justifies its architecture partly on reliability grounds —
//! dual burst-mode receivers per egress port, FEC(272,256) over noisy
//! SOA-amplified links, lossless scheduler-relayed flow control — yet a
//! happy-path simulation never exercises any of it. This crate is the
//! scenario generator: a [`FaultPlan`] schedules component failures
//! ([`FaultKind`]) as one-shot, periodic, or MTBF/MTTR-sampled events
//! ([`FaultSchedule`]), and a [`FaultInjector`] plays the plan against
//! any engine run through the `FaultView` hook in `osmosis-sim`.
//!
//! Everything is seeded from the run's `EngineConfig::seed` through named
//! `SeedSequence` streams, so the same seed produces the same fault
//! trace — failures are as reproducible as the traffic.
//!
//! ```
//! use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
//! use osmosis_sim::{EngineConfig, FaultView};
//!
//! let plan = FaultPlan::new()
//!     .one_shot(FaultKind::WavelengthLoss { plane: 2 }, 1_000, Some(500));
//! let mut inj = FaultInjector::new(plan);
//! inj.configure(&EngineConfig::new(0, 4_000).with_seed(7));
//! inj.begin_slot(1_000);
//! assert!(inj.plane_down(2));
//! inj.begin_slot(1_500);
//! assert!(!inj.plane_down(2), "healed after the repair time");
//! ```

#![deny(missing_docs)]

pub mod injector;
pub mod plan;

pub use injector::{FaultInjector, FaultTransition};
pub use plan::{FaultEntry, FaultKind, FaultPlan, FaultSchedule, LINK_ANY};
