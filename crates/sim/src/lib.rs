//! # osmosis-sim
//!
//! Deterministic simulation kernel for the OSMOSIS reproduction: picosecond
//! time arithmetic, the slotted engine, seedable random streams, online
//! statistics, and parallel parameter sweeps.
//!
//! The paper's own performance results (Figs. 6-7) came from an Omnet++
//! simulation environment; this crate is the Rust substitute for that
//! substrate. The switch/fabric simulations advance in fixed cell cycles
//! (51.2 ns in the demonstrator) on the one slot loop of [`engine`];
//! sub-cycle physics is composed in [`time::Time`] arithmetic at
//! picosecond resolution.
//!
//! All randomness flows from a single experiment seed through
//! [`rng::SeedSequence`], so every figure in `EXPERIMENTS.md` is exactly
//! reproducible.

#![deny(missing_docs)]

pub mod audit;
pub mod circuit;
pub mod engine;
pub mod extra;
pub mod fault;
pub mod json;
mod order;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;

pub use audit::{Auditor, CreditLedger, DropReason};
pub use circuit::{CircuitView, NullCircuits};
pub use engine::{
    CountingTrace, Engine, EngineConfig, EngineReport, NullTrace, Observer, RingTrace,
    SlottedModel, TraceEvent, TraceSink, VecTrace,
};
pub use extra::Extra;
pub use fault::FaultView;
pub use rng::{SeedSequence, SimRng};
pub use stats::{Histogram, Welford};
pub use sweep::{
    checkpointed_sweep, linspace, logspace, parallel_sweep, CheckpointLog, ProgressOutcome,
    SweepError, SweepProgress, SweepState,
};
pub use time::{Time, TimeDelta};
