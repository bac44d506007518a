//! The engine-side fault hook.
//!
//! Production optical fabrics live or die by availability under component
//! failure: SOA gates stick open or off, wavelength planes drop out,
//! burst-mode receivers die, links take BER excursions, and control
//! messages (grants, credits) get corrupted. The engine therefore exposes
//! one optional per-run hook — a [`FaultView`] — that models consult
//! through their [`Observer`](crate::engine::Observer):
//!
//! * **State queries** (`output_blocked`, `receivers_down`, `plane_down`)
//!   describe components that are currently dead; models mask them out of
//!   arbitration/routing and fail over to surviving resources.
//! * **Event draws** (`grant_lost`, `credit_dropped`, `cell_corrupted`)
//!   are consulted once per control message or cell transmission while a
//!   matching fault is active; models route affected traffic through
//!   their recovery paths (re-request, credit resync, hop-by-hop
//!   retransmission).
//!
//! Every method has a benign default. The disabled plane is no view at
//! all (`None`), and the engine only attaches a non-vacuous one (see
//! [`Engine::faults`](crate::engine::Engine::faults)); with no faults attached
//! the per-slot cost is a single `Option` check and every model-side
//! query short-circuits on [`Observer::faults_attached`](crate::engine::Observer::faults_attached) — runs without a
//! fault plan are bit-identical to runs on an engine without the hook.
//!
//! The concrete scheduled/stochastic injector lives in the
//! `osmosis-faults` crate; this module only defines the interface so the
//! simulation kernel stays dependency-free.

use crate::engine::{EngineConfig, EngineReport};

/// The fault plane a [`SlottedModel`](crate::engine::SlottedModel) run
/// consults, slot by slot, through its `Observer`.
///
/// Implementations must be deterministic functions of the
/// [`EngineConfig`] seed and the query sequence: the engine promises
/// models call the event draws in a deterministic order, so same seed ⇒
/// same fault behaviour.
pub trait FaultView {
    /// Reset per-run state and derive RNG streams from `cfg.seed`.
    /// Called once by the engine before the first slot.
    fn configure(&mut self, _cfg: &EngineConfig) {}

    /// Advance the fault schedule to `slot` (inject/heal transitions).
    /// Called once per slot before the model's phases.
    fn begin_slot(&mut self, _slot: u64) {}

    /// `true` when the view can never report a fault (empty plan). The
    /// engine does not attach vacuous views, keeping no-fault runs
    /// bit-identical to plain runs.
    fn is_vacuous(&self) -> bool {
        true
    }

    /// Whether a state query (`output_blocked` … `delay_line_dead`) may
    /// answer differently this slot than it did in the previous one: a
    /// fault was injected or healed in this slot's
    /// [`begin_slot`](FaultView::begin_slot). A model that mirrors fault
    /// state into its own tables re-reads it only then. A view that does
    /// not track its transitions keeps the default and is re-read every
    /// slot.
    fn state_changed(&self) -> bool {
        true
    }

    /// Output `output`'s SOA gate is stuck off: no cell can be switched
    /// to it this slot.
    fn output_blocked(&self, _output: usize) -> bool {
        false
    }

    /// Number of dead burst-mode receivers at `output` (0..=receivers).
    /// The switch fails over to the survivors by shrinking the
    /// scheduler's per-output grant capacity.
    fn receivers_down(&self, _output: usize) -> usize {
        0
    }

    /// Wavelength plane / middle-stage switch `plane` is down; the
    /// fabric re-routes ascending cells around it.
    fn plane_down(&self, _plane: usize) -> bool {
        false
    }

    /// Draw: the grant for (input, output) was corrupted in the control
    /// channel and never reached the ingress adapter. Consulted once per
    /// issued grant.
    fn grant_lost(&mut self, _input: usize, _output: usize) -> bool {
        false
    }

    /// Draw: the credit returned toward (`node`, `port`) was lost and
    /// must be recovered by the credit-resync mechanism. Consulted once
    /// per credit return.
    fn credit_dropped(&mut self, _node: usize, _port: usize) -> bool {
        false
    }

    /// Draw: the cell crossing `link` arrived detected-uncorrupted and
    /// must be retransmitted hop-by-hop. Consulted once per link
    /// traversal.
    fn cell_corrupted(&mut self, _link: usize) -> bool {
        false
    }

    /// Input `input`'s circuit element failed to reconfigure this slot:
    /// an OCS model keeps the previous epoch's circuit lit (stale,
    /// mis-reconfigured) instead of applying the scheduled one.
    fn circuit_stuck(&self, _input: usize) -> bool {
        false
    }

    /// Fiber delay line `line` is dead: it accepts no new cells (cells
    /// already in the fiber still emerge), so an FDL-buffered stage runs
    /// at reduced guaranteed capacity. Line indexing is model-defined —
    /// the multistage fabric uses
    /// `(node_index * radix + input) * lines_per_queue + local_line`.
    fn delay_line_dead(&self, _line: usize) -> bool {
        false
    }

    /// Post-run hook: surface injector counters (faults injected/healed,
    /// repair times, lost control messages) as report extras so they
    /// land in the fingerprint.
    fn finish(&mut self, _report: &mut EngineReport) {}
}
