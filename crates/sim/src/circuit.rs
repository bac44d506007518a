//! The engine-side circuit hook — the fourth operating mode.
//!
//! The packet datapath arbitrates every cell every slot; an optical
//! circuit switch instead holds a *configuration* (a partial permutation
//! of input→output circuits) for a whole reconfiguration epoch and pays a
//! guard time whenever the configuration changes. The engine exposes that
//! mode through one optional per-run hook — a [`CircuitView`] — that
//! circuit-switched models consult through their
//! [`Observer`](crate::engine::Observer):
//!
//! * **State queries** (`circuit`, `in_guard`) describe the configuration
//!   currently lit: which output each input's circuit points at, and
//!   whether the fabric is dark because a reconfiguration is in flight.
//! * **Traffic feeds** (`note_arrival`, `note_transfer`) flow the other
//!   way: the observer forwards every admitted cell and every circuit
//!   transfer to the view, which is how a traffic-matrix estimator inside
//!   the view learns the demand it schedules against — the same
//!   observation stream a [`TraceSink`](crate::engine::TraceSink) sees as
//!   `Inject`/`Grant` events, without the view ever touching the model.
//!
//! Every method has a benign default, so the trait doubles as the null
//! object: [`NullCircuits`] is an empty `impl`. The engine only attaches
//! a non-vacuous view (see
//! [`Engine::circuits`](crate::engine::Engine::circuits)); with
//! no circuit plan attached the per-slot cost is a single `Option` check
//! and every model-side query short-circuits on
//! [`Observer::circuits_attached`](crate::engine::Observer::circuits_attached)
//! — runs without an OCS plan are bit-identical to runs on an engine
//! without the hook (pinned by `tests/fingerprint_pins.rs`).
//!
//! The concrete epoch scheduler (traffic-matrix estimation,
//! Birkhoff–von-Neumann decomposition, guard-time accounting from
//! `osmosis-phy`) lives in the `osmosis-ocs` crate; this module only
//! defines the interface so the simulation kernel stays dependency-free.

use crate::engine::{EngineConfig, EngineReport};

/// The circuit plane a circuit-switched model consults, slot by slot,
/// through its `Observer`.
///
/// Implementations must be deterministic functions of the
/// [`EngineConfig`] seed and the feed sequence: the engine forwards
/// arrivals and transfers in a deterministic order, so same seed ⇒ same
/// epoch schedule.
pub trait CircuitView {
    /// Reset per-run state for a `ports`-port model. Called once by the
    /// engine before the first slot.
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {}

    /// Advance the epoch schedule to `slot` (epoch boundaries,
    /// reconfiguration decisions, guard-time windows). Called once per
    /// slot before the model's phases.
    fn begin_slot(&mut self, _slot: u64) {}

    /// `true` when the view can never install a circuit (empty plan).
    /// The engine does not attach vacuous views, keeping plan-free runs
    /// bit-identical to plain runs.
    fn is_vacuous(&self) -> bool {
        true
    }

    /// A cell from `src` to `dst` was admitted this slot — the
    /// traffic-matrix estimation feed. Forwarded by
    /// [`Observer::cell_injected`](crate::engine::Observer::cell_injected).
    fn note_arrival(&mut self, _src: usize, _dst: usize) {}

    /// A cell crossed the circuit from `input` to `output` this slot —
    /// the per-epoch utilization feed. Forwarded by
    /// [`Observer::cell_granted`](crate::engine::Observer::cell_granted).
    fn note_transfer(&mut self, _input: usize, _output: usize) {}

    /// The output that `input`'s circuit is scheduled to illuminate this
    /// slot, or `None` when the input has no circuit in this epoch.
    fn circuit(&self, _input: usize) -> Option<usize> {
        None
    }

    /// `true` while the fabric is dark because this epoch's
    /// reconfiguration guard time (SOA settling, phase reacquisition,
    /// jitter margin) is still running.
    fn in_guard(&self) -> bool {
        false
    }

    /// Post-run hook: surface scheduler counters (epochs,
    /// reconfigurations, guard slots paid, decomposition statistics) as
    /// report extras so they land in the fingerprint.
    fn finish(&mut self, _report: &mut EngineReport) {}
}

/// The no-plan view: every query returns the benign default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCircuits;

impl CircuitView for NullCircuits {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extra::Extra;

    #[test]
    fn null_circuits_is_vacuous_and_benign() {
        let mut c = NullCircuits;
        assert!(c.is_vacuous());
        assert_eq!(c.circuit(0), None);
        assert!(!c.in_guard());
        c.note_arrival(0, 1);
        c.note_transfer(1, 0);
        c.begin_slot(42);
        let mut report = EngineReport::default();
        c.finish(&mut report);
        assert!(report.extra(Extra::OcsEpochs).is_none());
    }
}
