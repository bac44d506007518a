//! The engine-side invariant-audit hook.
//!
//! The paper's robustness claims — lossless flow control (Figs. 3–4),
//! order-preserving dual-receiver delivery (Fig. 7), full-throughput
//! FLPPR arbitration (Fig. 6) — are structural properties of the models.
//! Until now they were asserted *by construction* and spot-checked by
//! end-of-run report fields; a degraded-mode recovery path (grant
//! re-request, go-back-N retransmission, spine re-routing) that silently
//! dropped or reordered cells would only show up as fingerprint drift.
//! This module defines the runtime verification interface: an [`Auditor`]
//! attached to a run receives every accounting event the
//! [`Observer`](crate::engine::Observer) sees — unconditionally, warm-up
//! included — plus model-reported state snapshots (scheduler capacities,
//! per-link credit ledgers), and checks invariants as the run progresses.
//!
//! The hook follows the pattern of
//! [`FaultView`](crate::fault::FaultView): every method has an empty
//! default, and the engine stores the auditor as an `Option` whose
//! `None` is the disabled plane — so a plain run pays one predictable
//! branch per event and its report fingerprint is bit-identical to a
//! build without the hook. The invariant battery (conservation,
//! ordering, capacity legality, liveness) is `AuditSet` in the
//! `osmosis-audit` crate; this module only defines the interface so the
//! simulation kernel stays dependency-free.

use crate::engine::{EngineConfig, EngineReport};

/// Why a cell was dropped — the attribution the cell-conservation
/// check needs to close its ledger.
///
/// The distinction that matters is *admission*: a [`Rejected`] arrival
/// was never injected (the host must retry — deflection's full
/// recirculation ring), so it appears on neither side of the
/// conservation ledger. Every other reason drops a cell that *was*
/// injected, and the ledger must account for it explicitly.
///
/// [`Rejected`]: DropReason::Rejected
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The arrival was refused at admission and never entered the
    /// system (blocked injection; the cell was *not* counted injected).
    Rejected,
    /// An admitted cell was discarded because a finite buffer was full.
    BufferFull,
    /// An admitted cell was permanently lost to an active fault.
    FaultLoss,
    /// Legacy/unattributed drop of an admitted cell.
    Other,
}

/// One link's credit-flow-control ledger, reported by a model each
/// audited slot for the credit-conservation invariant: under the
/// scheduler-relayed scheme of Figs. 3–4 the sum
/// `held + in_flight + occupancy` is the link's constant buffer
/// allocation, including across grant loss, go-back-N retransmission and
/// the credit-resync path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditLedger {
    /// Credits currently held by the upstream sender.
    pub held: u64,
    /// Credits *and* cells currently in flight on the link (a cell in
    /// flight carries the credit it consumed; a credit in flight is on
    /// its way back — both are buffer slots spoken for).
    pub in_flight: u64,
    /// Cells occupying the downstream input buffer.
    pub occupancy: u64,
    /// The buffer allocation the three terms must sum to.
    pub capacity: u64,
}

impl CreditLedger {
    /// Whether the ledger balances.
    #[inline]
    pub fn balanced(&self) -> bool {
        self.held + self.in_flight + self.occupancy == self.capacity
    }
}

/// The invariant-audit plane a run consults through its
/// [`Observer`](crate::engine::Observer).
///
/// Unlike report counters (which are warm-up-gated), audit events fire
/// for **every** slot of the run — conservation ledgers have to see the
/// warm-up cells that drain during measurement. Implementations must not
/// perturb the run: auditors observe, models never read them back, so an
/// audited run's report differs from an un-audited one only in extras an
/// auditor explicitly adds (`osmosis-audit`'s `AuditSet` adds one only
/// when violations exist, keeping clean audited runs bit-identical).
pub trait Auditor {
    /// Reset per-run state. Called once before the first slot with the
    /// run config and the model's edge-port count.
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {}

    /// A new slot begins. Called before the model's phases; per-slot
    /// invariant checks for the *previous* slot belong here.
    fn begin_slot(&mut self, _slot: u64) {}

    /// A cell entered an ingress queue.
    fn cell_injected(&mut self, _slot: u64, _src: usize, _dst: usize) {}

    /// A cell was granted `input` → `output` with the given
    /// request-to-grant wait (the liveness/capacity-legality feed).
    fn cell_granted(&mut self, _slot: u64, _input: usize, _output: usize, _wait: u64) {}

    /// A cell left the system at `output`.
    fn cell_delivered(&mut self, _slot: u64, _output: usize, _inject_slot: u64) {}

    /// A delivered cell of the (`src`, `dst`) flow carried `seq`, no
    /// higher than `last_seq`, the highest an earlier delivery of the
    /// flow carried this run — the order-preservation feed. The engine
    /// keeps the per-flow state and calls this only for such a delivery,
    /// just before its [`cell_delivered`](Auditor::cell_delivered).
    fn flow_regressed(&mut self, _slot: u64, _src: usize, _dst: usize, _seq: u64, _last_seq: u64) {}

    /// A cell was dropped at `port` for `reason`.
    fn cell_dropped(&mut self, _slot: u64, _port: usize, _reason: DropReason) {}

    /// The scheduler's legal grant capacity for `output` this slot (as
    /// degraded by `set_output_capacity` under faults). Grants beyond
    /// it — or any grant while an SOA gate is masked to capacity 0 —
    /// are capacity-legality violations.
    fn output_capacity(&mut self, _slot: u64, _output: usize, _capacity: usize) {}

    /// One link's credit ledger snapshot (see [`CreditLedger`]).
    fn credit_link(&mut self, _slot: u64, _node: usize, _port: usize, _ledger: CreditLedger) {}

    /// One FDL queue's cell-conservation ledger snapshot, reported by an
    /// FDL-buffered model at a quiescent point each audited slot. The
    /// invariant is `pushed == popped + dropped + resident`: every cell
    /// ever admitted into the delay-line bank is either served, lost with
    /// a typed reason, or still circulating in fiber.
    fn fdl_ledger(
        &mut self,
        _slot: u64,
        _queue: usize,
        _pushed: u64,
        _popped: u64,
        _dropped: u64,
        _resident: u64,
    ) {
    }

    /// The run ended. `resident_cells` is the model's count of cells
    /// still queued or in flight (when it can report one), which closes
    /// the global conservation ledger:
    /// `injected == delivered + dropped + resident`. Auditors surface
    /// violations as report extras here so fingerprints capture audit
    /// health.
    fn end_run(&mut self, _resident_cells: Option<u64>, _report: &mut EngineReport) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_ledger_balance() {
        let ok = CreditLedger {
            held: 2,
            in_flight: 1,
            occupancy: 1,
            capacity: 4,
        };
        assert!(ok.balanced());
        let bad = CreditLedger {
            held: 2,
            in_flight: 1,
            occupancy: 0,
            capacity: 4,
        };
        assert!(!bad.balanced());
    }
}
