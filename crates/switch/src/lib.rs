//! # osmosis-switch
//!
//! Slotted single-stage switch simulations for the OSMOSIS reproduction:
//!
//! * [`VoqSwitch`] — the OSMOSIS architecture: VOQ ingress, bufferless
//!   crossbar, central scheduler, single/dual receivers (Figs. 5–7);
//! * [`RemoteSchedulerSwitch`] — the Fig. 1 thought experiment: a distant
//!   scheduler costs 2 RTT of unloaded latency;
//! * [`FifoSwitch`] — head-of-line-blocked baseline (the 58.6% limit);
//! * [`OqSwitch`] — ideal output-queued electronic baseline (ref. \[16\]);
//! * [`BvnSwitch`] — load-balanced Birkhoff-von Neumann baseline (§VI.D);
//! * [`BurstSwitch`] — container/envelope switching baseline (§II, §VI.D);
//! * [`DeflectionSwitch`] — Data-Vortex-style deflection routing (§II);
//! * [`MulticastSwitch`] — fanout-splitting multicast scheduling on the
//!   broadcast-and-select datapath.
//!
//! Every simulator implements the [`CellSwitch`] hooks (or
//! `SlottedModel` directly, for self-driven workloads) and runs on the
//! shared engine in `osmosis_sim::engine`, producing the unified
//! [`EngineReport`]: throughput, delay and request-to-grant
//! distributions, losslessness and per-flow ordering — the switch-level
//! rows of Table 1. Cycle-level traces (grants, drops, flow-control
//! stalls, receiver conflicts) are available through any
//! [`TraceSink`](osmosis_sim::TraceSink) via [`run_switch_traced`].
//!
//! The six simulators with N×N ingress queues (VOQ, remote scheduler,
//! CIOQ, burst, BvN's middle stage and the OCS datapath) hold them in
//! one [`Voqs`] store each.

#![deny(missing_docs)]

pub mod burst_switch;
pub mod bvn;
pub mod cell;
pub mod cioq;
pub mod control_protocol;
pub mod deflection;
pub mod driven;
pub mod fifo_switch;
pub mod multicast;
pub mod oq_switch;
pub mod remote_sched;
pub mod voq_switch;
pub mod voqs;

pub use burst_switch::BurstSwitch;
pub use bvn::BvnSwitch;
pub use cell::Cell;
pub use cioq::CioqSwitch;
pub use control_protocol::{run_control_channel, ControlProtocol, ControlReport};
pub use deflection::DeflectionSwitch;
pub use driven::{
    run_switch, run_switch_audited, run_switch_circuit, run_switch_circuit_traced,
    run_switch_instrumented, run_switch_traced, CellSwitch, Driven,
};
pub use fifo_switch::FifoSwitch;
pub use multicast::{run_multicast, MulticastSwitch, MulticastWorkload};
pub use oq_switch::OqSwitch;
pub use remote_sched::RemoteSchedulerSwitch;
pub use voq_switch::{run_uniform, run_uniform_traced, VoqSwitch};
pub use voqs::Voqs;

// The engine types every consumer of this crate needs alongside the
// simulators.
pub use osmosis_sim::engine::{EngineConfig, EngineReport};
