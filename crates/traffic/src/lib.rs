//! # osmosis-traffic
//!
//! Slotted traffic generators for HPC interconnect simulation, and the
//! per-flow order table ([`FlowOrder`]) used to verify the packet-ordering
//! requirement of Table 1.
//!
//! The paper assumes bimodal traffic — short control packets needing low
//! latency plus long data packets needing high utilization (§III) — and
//! evaluates throughput under uniform and adversarial (hotspot,
//! permutation, bursty) patterns, as its references [10][17][22] do.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod generators;
pub mod ml;
pub mod order;

pub use generators::{
    Arrival, BernoulliUniform, Bimodal, Bursty, Class, Hotspot, Permutation, Replay, TrafficGen,
};
pub use ml::{AllreduceRing, AllreduceTree, Diurnal, HotspotSkew, Incast};
pub use order::FlowOrder;
