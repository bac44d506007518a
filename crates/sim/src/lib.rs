//! # osmosis-sim
//!
//! Deterministic simulation kernel for the OSMOSIS reproduction: picosecond
//! time arithmetic, the slotted engine, seedable random streams, online
//! statistics, and parallel parameter sweeps.
//!
//! The paper's own performance results (Figs. 6-7) came from an Omnet++
//! simulation environment; this crate is the Rust substitute for that
//! substrate. The switch/fabric simulations advance in fixed cell cycles
//! (51.2 ns in the demonstrator, [`time::SlotClock`]) on the one slot loop
//! of [`engine`]; sub-cycle physics is composed in [`time::Time`]
//! arithmetic at picosecond resolution.
//!
//! All randomness flows from a single experiment seed through
//! [`rng::SeedSequence`], so every figure in `EXPERIMENTS.md` is exactly
//! reproducible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod buffer;
pub mod circuit;
pub mod engine;
pub mod fault;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;

pub use audit::{Auditor, CreditLedger, DropReason, NoAudit};
pub use buffer::{BufferLoss, BufferLossReason, BufferPlane, BufferStats};
pub use circuit::{CircuitView, NullCircuits};
pub use engine::{
    CountingTrace, EngineConfig, EngineReport, NullTrace, Observer, RingTrace, SlottedModel,
    TraceEvent, TraceSink, VecTrace,
};
pub use fault::{FaultView, NullFaults};
pub use rng::{SeedSequence, SimRng};
pub use stats::{Counter, Histogram, SimSummary, Welford};
pub use sweep::{
    checkpointed_sweep, linspace, logspace, parallel_sweep, supervised_sweep, watchdog,
    CheckpointLog, JobOutcome, JobRecord, ProgressHook, ProgressOutcome, SweepError, SweepOptions,
    SweepProgress, SweepState, SweepSummary,
};
pub use time::{SlotClock, Time, TimeDelta};
