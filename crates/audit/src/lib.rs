//! # osmosis-audit
//!
//! Runtime invariant checks for the OSMOSIS reproduction.
//!
//! The paper's architecture argument rests on structural guarantees:
//! credit flow control never loses a cell (Figs. 3–4), the dual-receiver
//! / go-back-N delivery path preserves per-flow order (Fig. 7), FLPPR
//! never grants past an output's legal capacity (Fig. 6), and the
//! scheduler serves every persistent requester within a bounded number
//! of cycles. The simulators were built to satisfy these properties *by
//! construction* — which means a regression introduced by a refactor or
//! a new degraded-mode path shows up only as unexplained fingerprint
//! drift, not as a named invariant failure.
//!
//! This crate turns those properties into one battery of machine-checked
//! invariants, [`AuditSet`]. It implements the kernel's
//! [`Auditor`](osmosis_sim::audit::Auditor) hook and watches the full
//! event stream of a run — warm-up included, because conservation
//! ledgers must see warm-up cells drain during measurement. Each
//! [`Violation`] carries the name of the invariant it breaks:
//!
//! * `cell-conservation` — nothing vanishes: globally and per egress
//!   port, `delivered + accounted drops ≤ injected` every slot, and at
//!   end of run `injected == delivered + drops + resident` when the
//!   model reports its resident-cell count. A
//!   [`DropReason::Rejected`] arrival was never admitted and stays off
//!   both sides of the ledger.
//! * `credit-conservation` — for every credit-flow-controlled link the
//!   model snapshots, `held + in flight + occupancy == capacity`,
//!   including across grant loss, retransmission and credit-resync.
//! * `fdl-conservation` — for every fiber-delay-line queue a model
//!   snapshots, `pushed == popped + dropped + resident`: an emulated
//!   optical buffer accounts every cell it was asked to store, typed
//!   losses included. Electronic buffer planes report no such ledger.
//! * `order-preservation` — per (source, destination) flow, egress
//!   sequence numbers strictly increase. The engine keeps the flow
//!   table and reports each regression; a flow's first delivery may
//!   carry any number, and a gap (a lost cell) is no violation.
//!   [`AuditSet::unordered`] leaves this check out for models that
//!   reorder by design.
//! * `capacity-legality` — no slot grants more cells to an output than
//!   the capacity the scheduler reported for it (an SOA gate masked to
//!   capacity 0 must receive zero grants). Outputs whose capacity was
//!   never reported are exempt.
//! * `liveness` — with [`AuditSet::with_liveness`], no granted cell
//!   waited longer than the bound between request and grant.
//!
//! The battery either panics on the first violation
//! ([`AuditMode::FailFast`], for tests) or keeps an exact count plus a
//! capped sample of structured [`Violation`]s ([`AuditMode::Accumulate`],
//! for sweeps) and folds the total into the run's report extras — only
//! when violations exist, so a clean audited run fingerprints
//! bit-identically to an un-audited one.

#![deny(missing_docs)]

use osmosis_sim::audit::{Auditor, CreditLedger, DropReason};
use osmosis_sim::engine::{EngineConfig, EngineReport};
use osmosis_sim::Extra;

/// How an [`AuditSet`] reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Panic (with the violation's display form) the moment the battery
    /// records one. The panic propagates out of the run, and out of a
    /// sweep once its other workers stop, so a violating job fails
    /// loudly; a checkpointed sweep keeps every point finished before it.
    FailFast,
    /// Record violations and keep running; totals surface in the
    /// [`AuditReport`] and the run's `audit_violations` report extra.
    Accumulate,
}

/// The structured payload of one invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The global cell ledger failed to balance.
    CellLedger {
        /// Cells injected (admission-accepted) over the whole run.
        injected: u64,
        /// Cells delivered over the whole run.
        delivered: u64,
        /// Admitted cells dropped (buffer-full, fault loss, other).
        dropped: u64,
        /// Model-reported cells still resident at end of run, when the
        /// check is the exact end-of-run ledger.
        resident: Option<u64>,
    },
    /// An egress port delivered more cells than were ever addressed
    /// to it.
    PortLedger {
        /// The egress port.
        port: usize,
        /// Cells injected with this destination.
        injected_to: u64,
        /// Cells delivered at this port.
        delivered_from: u64,
    },
    /// A credit-flow-controlled link's ledger failed to balance.
    CreditImbalance {
        /// The downstream node owning the audited input buffer.
        node: usize,
        /// The downstream input port.
        port: usize,
        /// The unbalanced ledger snapshot.
        ledger: CreditLedger,
    },
    /// A fiber-delay-line queue's cell-conservation ledger failed to
    /// balance.
    FdlLedger {
        /// The FDL queue (model-defined keying; the multistage fabric
        /// uses `node_index · radix + input`).
        queue: usize,
        /// Cells the queue was asked to store (admission refusals
        /// included).
        pushed: u64,
        /// Cells served to the matching.
        popped: u64,
        /// Cells lost (typed: admission, infeasible line, dead line).
        dropped: u64,
        /// Cells resident in the delay lines at the snapshot.
        resident: u64,
    },
    /// A flow's egress sequence number regressed or repeated.
    OrderRegression {
        /// Flow source.
        src: usize,
        /// Flow destination.
        dst: usize,
        /// The offending sequence number, in the flow's current
        /// numbering, which restarts at 0 each time the engine forgets
        /// the flow after it drained in order.
        seq: u64,
        /// The highest sequence previously delivered for the flow, in
        /// the same numbering.
        last_seq: u64,
    },
    /// An output received more grants in one slot than its reported
    /// legal capacity.
    CapacityExceeded {
        /// The over-granted output.
        output: usize,
        /// Grants issued to it that slot.
        granted: u64,
        /// The capacity the scheduler reported for that slot.
        capacity: u64,
    },
    /// A granted cell's request-to-grant wait exceeded the bound.
    Starvation {
        /// The granted input.
        input: usize,
        /// The granted output.
        output: usize,
        /// The observed wait, in slots.
        wait: u64,
        /// The configured bound, in slots.
        bound: u64,
    },
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::CellLedger {
                injected,
                delivered,
                dropped,
                resident,
            } => match resident {
                Some(r) => write!(
                    f,
                    "cell ledger open: injected {injected} != delivered {delivered} + dropped {dropped} + resident {r}"
                ),
                None => write!(
                    f,
                    "cell ledger overdrawn: delivered {delivered} + dropped {dropped} > injected {injected}"
                ),
            },
            ViolationKind::PortLedger {
                port,
                injected_to,
                delivered_from,
            } => write!(
                f,
                "port {port} delivered {delivered_from} cells but only {injected_to} were addressed to it"
            ),
            ViolationKind::CreditImbalance { node, port, ledger } => write!(
                f,
                "credit ledger for node {node} port {port}: held {} + in-flight {} + occupancy {} != capacity {}",
                ledger.held, ledger.in_flight, ledger.occupancy, ledger.capacity
            ),
            ViolationKind::FdlLedger {
                queue,
                pushed,
                popped,
                dropped,
                resident,
            } => write!(
                f,
                "fdl ledger for queue {queue}: pushed {pushed} != popped {popped} + dropped {dropped} + resident {resident}"
            ),
            ViolationKind::OrderRegression {
                src,
                dst,
                seq,
                last_seq,
            } => write!(
                f,
                "flow {src}->{dst} delivered seq {seq} after seq {last_seq}"
            ),
            ViolationKind::CapacityExceeded {
                output,
                granted,
                capacity,
            } => write!(
                f,
                "output {output} granted {granted} cells against capacity {capacity}"
            ),
            ViolationKind::Starvation {
                input,
                output,
                wait,
                bound,
            } => write!(
                f,
                "grant {input}->{output} waited {wait} slots (bound {bound})"
            ),
        }
    }
}

/// One recorded invariant violation, with the slot it was detected on
/// and the invariant it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Slot on which the violation was detected (end-of-run checks use
    /// the final slot count).
    pub slot: u64,
    /// Name of the invariant it breaks (`cell-conservation`, …).
    pub auditor: &'static str,
    /// The structured violation payload.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot {} [{}] {}", self.slot, self.auditor, self.kind)
    }
}

/// The capacity of an output whose capacity was not reported this slot:
/// its grants are exempt from the capacity check.
const UNREPORTED: u64 = u64::MAX;

/// Cap on *stored* violations; the count beyond the cap stays exact so
/// a pathological run cannot exhaust memory recording them.
const MAX_STORED: usize = 64;

/// The post-run audit summary an [`AuditSet`] produces.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Exact violation count.
    pub total: u64,
    /// The first violations recorded, at most 64 of them.
    pub sample: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean");
        }
        writeln!(f, "audit: {} violation(s)", self.total)?;
        for v in &self.sample {
            writeln!(f, "  {v}")?;
        }
        let unstored = self.total - self.sample.len() as u64;
        if unstored > 0 {
            writeln!(f, "  ... {unstored} more not stored")?;
        }
        Ok(())
    }
}

/// The invariant battery (see the crate docs for its checks).
///
/// Attach to a run with `Engine::new(&cfg).audit(Some(&mut set))` (or
/// the `run_switch_audited` entry point); after the run,
/// [`AuditSet::report`] summarizes what it saw. The set also writes an
/// `audit_violations` extra into the engine report — but only when
/// violations exist, so clean audited runs keep their fingerprints.
#[derive(Debug)]
pub struct AuditSet {
    mode: AuditMode,
    ordered: bool,
    liveness: Option<u64>,
    // Cell conservation: global and per-port ledgers, each flagged once.
    injected: u64,
    delivered: u64,
    dropped_admitted: u64,
    injected_to: Vec<u64>,
    delivered_from: Vec<u64>,
    port_flagged: Vec<bool>,
    global_flagged: bool,
    // Capacity legality: the slot being collected, its reported
    // capacities ([`UNREPORTED`] where none was) and its grants per
    // output, checked when the next slot begins. `touched` lists the
    // outputs either was written for, so the check and its reset visit
    // only those.
    slot: u64,
    caps: Vec<u64>,
    grants: Vec<u64>,
    touched: Vec<usize>,
    total: u64,
    sample: Vec<Violation>,
}

impl AuditSet {
    fn new(mode: AuditMode, ordered: bool, liveness: Option<u64>) -> Self {
        AuditSet {
            mode,
            ordered,
            liveness,
            injected: 0,
            delivered: 0,
            dropped_admitted: 0,
            injected_to: Vec::new(),
            delivered_from: Vec::new(),
            port_flagged: Vec::new(),
            global_flagged: false,
            slot: 0,
            caps: Vec::new(),
            grants: Vec::new(),
            touched: Vec::new(),
            total: 0,
            sample: Vec::new(),
        }
    }

    /// The battery for order-preserving models: every check but
    /// liveness.
    pub fn standard(mode: AuditMode) -> Self {
        Self::new(mode, true, None)
    }

    /// The battery for models that reorder by design (BVN load
    /// balancing, deflection routing): [`standard`](Self::standard)
    /// minus order preservation.
    pub fn unordered(mode: AuditMode) -> Self {
        Self::new(mode, false, None)
    }

    /// Also check that no granted cell waited more than `bound` slots
    /// between request and grant.
    pub fn with_liveness(mut self, bound: u64) -> Self {
        self.liveness = Some(bound);
        self
    }

    /// Exact violation count of the last audited run.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Summarize the last audited run.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            total: self.total,
            sample: self.sample.clone(),
        }
    }

    /// Count a violation and keep it in the sample while there is room;
    /// in fail-fast mode, panic with it.
    #[expect(
        clippy::panic,
        reason = "FailFast mode panics by contract: a violating run fails loudly instead of reporting numbers"
    )]
    fn record(&mut self, slot: u64, auditor: &'static str, kind: ViolationKind) {
        let v = Violation {
            slot,
            auditor,
            kind,
        };
        self.total += 1;
        if self.mode == AuditMode::FailFast {
            panic!("invariant violation: {v}");
        }
        if self.sample.len() < MAX_STORED {
            self.sample.push(v);
        }
    }

    /// The running cell ledgers: nothing delivered or dropped that was
    /// not injected, globally and per egress port.
    fn check_ledgers(&mut self, slot: u64) {
        if !self.global_flagged && self.delivered + self.dropped_admitted > self.injected {
            self.global_flagged = true;
            let kind = ViolationKind::CellLedger {
                injected: self.injected,
                delivered: self.delivered,
                dropped: self.dropped_admitted,
                resident: None,
            };
            self.record(slot, "cell-conservation", kind);
        }
        for port in 0..self.injected_to.len() {
            let (injected_to, delivered_from) = (self.injected_to[port], self.delivered_from[port]);
            if !self.port_flagged[port] && delivered_from > injected_to {
                self.port_flagged[port] = true;
                let kind = ViolationKind::PortLedger {
                    port,
                    injected_to,
                    delivered_from,
                };
                self.record(slot, "cell-conservation", kind);
            }
        }
    }

    /// Note that `output` is written this slot, growing the per-output
    /// tables for an output past the configured port count.
    fn touch(&mut self, output: usize) {
        if output >= self.caps.len() {
            self.caps.resize(output + 1, UNREPORTED);
            self.grants.resize(output + 1, 0);
        }
        if self.caps[output] == UNREPORTED && self.grants[output] == 0 {
            self.touched.push(output);
        }
    }

    /// Check the collected slot's grants against its reported
    /// capacities, in ascending output order, and reset the slot's
    /// tables.
    fn check_capacities(&mut self) {
        let over = |set: &Self, o: usize| set.caps[o] != UNREPORTED && set.grants[o] > set.caps[o];
        if self.touched.iter().any(|&o| over(self, o)) {
            self.touched.sort_unstable();
        }
        for k in 0..self.touched.len() {
            let output = self.touched[k];
            if over(self, output) {
                let kind = ViolationKind::CapacityExceeded {
                    output,
                    granted: self.grants[output],
                    capacity: self.caps[output],
                };
                self.record(self.slot, "capacity-legality", kind);
            }
            self.caps[output] = UNREPORTED;
            self.grants[output] = 0;
        }
        self.touched.clear();
    }
}

impl Auditor for AuditSet {
    fn configure(&mut self, _cfg: &EngineConfig, ports: usize) {
        *self = AuditSet {
            injected_to: vec![0; ports],
            delivered_from: vec![0; ports],
            port_flagged: vec![false; ports],
            caps: vec![UNREPORTED; ports],
            grants: vec![0; ports],
            touched: Vec::with_capacity(ports),
            ..AuditSet::new(self.mode, self.ordered, self.liveness)
        };
    }

    fn begin_slot(&mut self, slot: u64) {
        self.check_ledgers(slot);
        self.check_capacities();
        self.slot = slot;
    }

    fn cell_injected(&mut self, _slot: u64, _src: usize, dst: usize) {
        self.injected += 1;
        if let Some(c) = self.injected_to.get_mut(dst) {
            *c += 1;
        }
    }

    fn cell_granted(&mut self, slot: u64, input: usize, output: usize, wait: u64) {
        self.touch(output);
        self.grants[output] += 1;
        if let Some(bound) = self.liveness.filter(|&bound| wait > bound) {
            let kind = ViolationKind::Starvation {
                input,
                output,
                wait,
                bound,
            };
            self.record(slot, "liveness", kind);
        }
    }

    fn cell_delivered(&mut self, _slot: u64, output: usize, _inject_slot: u64) {
        self.delivered += 1;
        if let Some(c) = self.delivered_from.get_mut(output) {
            *c += 1;
        }
    }

    fn flow_regressed(&mut self, slot: u64, src: usize, dst: usize, seq: u64, last_seq: u64) {
        if self.ordered {
            let kind = ViolationKind::OrderRegression {
                src,
                dst,
                seq,
                last_seq,
            };
            self.record(slot, "order-preservation", kind);
        }
    }

    fn cell_dropped(&mut self, _slot: u64, _port: usize, reason: DropReason) {
        if reason != DropReason::Rejected {
            self.dropped_admitted += 1;
        }
    }

    fn output_capacity(&mut self, _slot: u64, output: usize, capacity: usize) {
        self.touch(output);
        self.caps[output] = capacity as u64;
    }

    fn credit_link(&mut self, slot: u64, node: usize, port: usize, ledger: CreditLedger) {
        if !ledger.balanced() {
            let kind = ViolationKind::CreditImbalance { node, port, ledger };
            self.record(slot, "credit-conservation", kind);
        }
    }

    fn fdl_ledger(
        &mut self,
        slot: u64,
        queue: usize,
        pushed: u64,
        popped: u64,
        dropped: u64,
        resident: u64,
    ) {
        if pushed != popped + dropped + resident {
            let kind = ViolationKind::FdlLedger {
                queue,
                pushed,
                popped,
                dropped,
                resident,
            };
            self.record(slot, "fdl-conservation", kind);
        }
    }

    fn end_run(&mut self, resident_cells: Option<u64>, report: &mut EngineReport) {
        let final_slot = report.measured_slots;
        self.check_ledgers(final_slot);
        if let Some(resident) = resident_cells {
            if self.injected != self.delivered + self.dropped_admitted + resident {
                let kind = ViolationKind::CellLedger {
                    injected: self.injected,
                    delivered: self.delivered,
                    dropped: self.dropped_admitted,
                    resident: Some(resident),
                };
                self.record(final_slot, "cell-conservation", kind);
            }
        }
        self.check_capacities();
        if self.total > 0 {
            report.set_extra(Extra::AuditViolations, self.total as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::engine::{Engine, Observer, SlottedModel, TraceSink};
    use std::collections::BTreeMap;

    fn cfg() -> EngineConfig {
        EngineConfig::new(0, 100)
    }

    /// A configured standard battery that accumulates.
    fn battery() -> AuditSet {
        let mut set = AuditSet::standard(AuditMode::Accumulate);
        set.configure(&cfg(), 4);
        set
    }

    #[test]
    fn cell_conservation_accepts_balanced_run() {
        let mut a = battery();
        a.cell_injected(0, 0, 1);
        a.cell_injected(0, 2, 3);
        a.begin_slot(1);
        a.cell_delivered(1, 1, 0);
        a.cell_dropped(1, 3, DropReason::FaultLoss);
        a.begin_slot(2);
        let mut r = EngineReport::default();
        a.end_run(Some(0), &mut r);
        assert_eq!(a.total_violations(), 0);
    }

    #[test]
    fn cell_conservation_catches_phantom_delivery() {
        let mut a = battery();
        a.cell_injected(0, 0, 1);
        a.cell_delivered(0, 1, 0);
        a.cell_delivered(0, 1, 0); // one in, two out
        a.begin_slot(1);
        assert!(a.total_violations() >= 1);
        assert!(matches!(
            a.report().sample[0].kind,
            ViolationKind::CellLedger { .. } | ViolationKind::PortLedger { .. }
        ));
    }

    #[test]
    fn cell_conservation_catches_leaked_cell() {
        let mut a = battery();
        a.cell_injected(0, 0, 1);
        a.cell_injected(0, 0, 2);
        a.cell_delivered(1, 1, 0);
        // The second cell is neither delivered, dropped, nor resident.
        let mut r = EngineReport::default();
        a.end_run(Some(0), &mut r);
        assert_eq!(a.total_violations(), 1);
        assert!(matches!(
            a.report().sample[0].kind,
            ViolationKind::CellLedger {
                resident: Some(0),
                ..
            }
        ));
    }

    #[test]
    fn rejected_arrivals_stay_off_the_ledger() {
        let mut a = battery();
        a.cell_dropped(0, 2, DropReason::Rejected);
        let mut r = EngineReport::default();
        a.end_run(Some(0), &mut r);
        assert_eq!(a.total_violations(), 0);
    }

    #[test]
    fn fdl_conservation_accepts_closed_and_flags_open_ledgers() {
        let mut a = battery();
        a.fdl_ledger(5, 2, 10, 6, 1, 3);
        assert_eq!(a.total_violations(), 0, "10 == 6 + 1 + 3");
        a.fdl_ledger(6, 2, 10, 6, 1, 2);
        assert_eq!(a.total_violations(), 1, "a cell vanished from fiber");
        let sample = a.report().sample;
        assert!(matches!(
            sample[0].kind,
            ViolationKind::FdlLedger {
                queue: 2,
                pushed: 10,
                ..
            }
        ));
        let text = sample[0].to_string();
        assert!(text.contains("fdl ledger for queue 2"), "{text}");
    }

    #[test]
    fn audit_set_forwards_fdl_ledgers() {
        let mut set = battery();
        set.fdl_ledger(1, 0, 4, 4, 0, 0);
        assert_eq!(set.total_violations(), 0);
        set.fdl_ledger(2, 1, 4, 1, 0, 0);
        assert_eq!(set.total_violations(), 1);
        let report = set.report();
        assert_eq!(report.total, 1);
        assert_eq!(report.sample[0].auditor, "fdl-conservation");
    }

    #[test]
    #[should_panic(expected = "fdl ledger for queue 3")]
    fn fail_fast_panics_on_fdl_imbalance() {
        let mut set = AuditSet::standard(AuditMode::FailFast);
        set.configure(&cfg(), 4);
        set.fdl_ledger(1, 3, 5, 1, 0, 0);
    }

    #[test]
    fn credit_conservation_flags_imbalance() {
        let mut a = battery();
        a.credit_link(
            3,
            1,
            2,
            CreditLedger {
                held: 2,
                in_flight: 1,
                occupancy: 1,
                capacity: 4,
            },
        );
        assert_eq!(a.total_violations(), 0);
        a.credit_link(
            4,
            1,
            2,
            CreditLedger {
                held: 2,
                in_flight: 0,
                occupancy: 1,
                capacity: 4,
            },
        );
        assert_eq!(a.total_violations(), 1);
    }

    /// Deliveries `(slot, src, dst, seq)`, in slot order.
    type Script = Vec<(u64, usize, usize, u64)>;

    /// A model that delivers `script` through the engine's flow check
    /// and admits nothing.
    struct Deliveries<'a> {
        script: &'a [(u64, usize, usize, u64)],
        ports: usize,
        next: usize,
    }

    impl SlottedModel for Deliveries<'_> {
        fn ports(&self) -> usize {
            self.ports
        }
        fn arbitrate<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
        fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
            while let Some(&(at, src, dst, seq)) = self.script.get(self.next) {
                if at != slot {
                    break;
                }
                obs.cell_delivered_flow(dst, slot, src, seq);
                self.next += 1;
            }
        }
        fn inject<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
    }

    /// `script` through the engine with the standard battery attached:
    /// its order violations as `(slot, src, dst, seq, last_seq)`. The
    /// script delivers cells it never injected, so the cell ledgers flag
    /// too; those entries are skipped.
    fn engine_view(script: &Script, ports: usize) -> Vec<(u64, usize, usize, u64, u64)> {
        let slots = script.last().map_or(1, |d| d.0 + 1);
        let mut set = AuditSet::standard(AuditMode::Accumulate);
        let mut model = Deliveries {
            script,
            ports,
            next: 0,
        };
        Engine::new(&EngineConfig::new(0, slots))
            .audit(Some(&mut set))
            .run(&mut model);
        let report = set.report();
        assert_eq!(report.total, report.sample.len() as u64, "none truncated");
        let flat = |v: &Violation| match v.kind {
            ViolationKind::OrderRegression {
                src,
                dst,
                seq,
                last_seq,
            } => Some((v.slot, src, dst, seq, last_seq)),
            _ => None,
        };
        report.sample.iter().filter_map(flat).collect()
    }

    /// The per-flow map the order check kept before it became a view of
    /// the engine's table: the reference its violations must match.
    fn map_oracle(script: &Script) -> Vec<(u64, usize, usize, u64, u64)> {
        let mut last_seq: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut violations = Vec::new();
        for &(slot, src, dst, seq) in script {
            match last_seq.get_mut(&(src, dst)) {
                Some(last) => {
                    if seq <= *last {
                        violations.push((slot, src, dst, seq, *last));
                    }
                    if seq > *last {
                        *last = seq;
                    }
                }
                None => {
                    last_seq.insert((src, dst), seq);
                }
            }
        }
        violations
    }

    #[test]
    fn order_preservation_flags_regression() {
        let script = vec![
            (0, 0, 1, 0),
            (1, 0, 1, 1),
            (1, 2, 1, 0), // distinct flow, fresh sequence
            (2, 0, 1, 1), // duplicate
            (3, 0, 1, 5), // gap
            (4, 0, 1, 3), // regression
            (4, 3, 2, 7), // a flow's first delivery may carry any number
        ];
        let found = engine_view(&script, 4);
        assert_eq!(found, [(2, 0, 1, 1, 1), (4, 0, 1, 3, 5)]);
        assert_eq!(found, map_oracle(&script));
    }

    /// Random delivery scripts over a few flows — in-order runs, gaps
    /// from lost cells, duplicates, regressions, and flows whose first
    /// delivery is not 0 — give the engine view exactly the violations
    /// the per-flow map gave.
    #[test]
    fn the_view_reports_what_the_per_flow_map_did() {
        use osmosis_sim::SimRng;
        let ports = 4;
        let mut rng = SimRng::seed_from_u64(29);
        let mut kinds = [0u64; 5];
        for _ in 0..200 {
            // Per flow: the next fresh number and the numbers delivered.
            let mut next = vec![0u64; ports * ports];
            let mut sent: Vec<Vec<u64>> = vec![Vec::new(); ports * ports];
            let mut script = Vec::new();
            for slot in 0..40 {
                for _ in 0..rng.index(4) {
                    let flow = rng.index(ports * ports);
                    let kind = if sent[flow].is_empty() {
                        rng.index(2) * 4
                    } else {
                        rng.index(5)
                    };
                    let seq = match kind {
                        0 => next[flow],
                        1 => next[flow] + 1 + rng.below(3),
                        2 => *sent[flow].last().unwrap_or(&0),
                        3 => sent[flow][rng.index(sent[flow].len())],
                        _ => next[flow] + rng.below(50),
                    };
                    kinds[kind] += 1;
                    next[flow] = next[flow].max(seq + 1);
                    sent[flow].push(seq);
                    script.push((slot, flow / ports, flow % ports, seq));
                }
            }
            assert_eq!(
                engine_view(&script, ports),
                map_oracle(&script),
                "{script:?}"
            );
        }
        assert!(
            kinds.iter().all(|&k| k > 100),
            "every kind scripted: {kinds:?}"
        );
    }

    #[test]
    fn capacity_legality_flags_overgrant_and_masked_gate() {
        let mut a = battery();
        a.begin_slot(0);
        a.output_capacity(0, 1, 2);
        a.cell_granted(0, 0, 1, 0);
        a.cell_granted(0, 2, 1, 0);
        a.begin_slot(1); // two grants, capacity two: legal
        assert_eq!(a.total_violations(), 0);
        a.output_capacity(1, 1, 0); // SOA gate masked off
        a.cell_granted(1, 0, 1, 0);
        a.begin_slot(2);
        assert_eq!(a.total_violations(), 1);
        // Unreported outputs are exempt.
        a.cell_granted(2, 0, 3, 0);
        a.cell_granted(2, 1, 3, 0);
        let mut r = EngineReport::default();
        a.end_run(None, &mut r);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn capacity_violations_are_recorded_in_ascending_output_order() {
        let mut a = battery();
        for output in [3, 0, 2] {
            a.output_capacity(0, output, 0);
            a.cell_granted(0, 1, output, 0);
        }
        // An output past the configured ports grows the tables.
        a.output_capacity(0, 9, 1);
        a.cell_granted(0, 1, 9, 0);
        a.cell_granted(0, 2, 9, 0);
        a.begin_slot(1);
        let outputs: Vec<usize> = a
            .report()
            .sample
            .iter()
            .map(|v| match v.kind {
                ViolationKind::CapacityExceeded { output, .. } => output,
                _ => usize::MAX,
            })
            .collect();
        assert_eq!(outputs, [0, 2, 3, 9]);
        // The slot's tables were reset: the same grants without a
        // report in the next slot are exempt.
        a.cell_granted(1, 1, 3, 0);
        a.begin_slot(2);
        assert_eq!(a.total_violations(), 4);
    }

    #[test]
    fn liveness_flags_starved_grant() {
        let mut a = AuditSet::standard(AuditMode::Accumulate).with_liveness(100);
        a.configure(&cfg(), 4);
        a.cell_granted(500, 0, 1, 100);
        assert_eq!(a.total_violations(), 0);
        a.cell_granted(900, 0, 1, 101);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn audit_set_accumulates_and_reports() {
        let mut set = battery();
        set.cell_injected(0, 0, 1);
        set.cell_injected(0, 0, 1);
        set.cell_delivered(1, 1, 0);
        set.flow_regressed(2, 0, 1, 3, 3); // duplicate sequence
        set.cell_delivered(2, 1, 0);
        let mut r = EngineReport::default();
        set.end_run(Some(0), &mut r);
        assert_eq!(set.total_violations(), 1);
        assert_eq!(r.extra(Extra::AuditViolations), Some(1.0));
        let report = set.report();
        assert!(!report.is_clean());
        assert!(report.to_string().contains("order-preservation"));
    }

    #[test]
    fn clean_audit_set_leaves_report_untouched() {
        let mut set = AuditSet::standard(AuditMode::Accumulate).with_liveness(1000);
        set.configure(&cfg(), 4);
        set.cell_injected(0, 0, 1);
        set.cell_delivered(1, 1, 0);
        let mut r = EngineReport::default();
        set.end_run(Some(0), &mut r);
        assert_eq!(r.extra(Extra::AuditViolations), None);
        assert!(set.report().is_clean());
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn fail_fast_panics_on_first_violation() {
        let mut set = AuditSet::standard(AuditMode::FailFast);
        set.configure(&cfg(), 4);
        set.flow_regressed(1, 0, 1, 2, 2);
    }

    #[test]
    fn unordered_ignores_a_regression_standard_records() {
        for (mut set, expected) in [
            (AuditSet::standard(AuditMode::Accumulate), 1),
            (AuditSet::unordered(AuditMode::Accumulate), 0),
        ] {
            set.configure(&cfg(), 4);
            set.flow_regressed(1, 0, 1, 2, 2);
            assert_eq!(set.total_violations(), expected);
        }
    }

    #[test]
    fn totals_stay_exact_past_the_stored_sample() {
        let mut set = battery();
        let short = CreditLedger {
            held: 1,
            in_flight: 0,
            occupancy: 0,
            capacity: 4,
        };
        for slot in 0..100 {
            set.credit_link(slot, 0, 1, short);
        }
        assert_eq!(set.total_violations(), 100);
        let report = set.report();
        assert!(report.sample.len() <= 64, "{} stored", report.sample.len());
        assert!(
            report.to_string().contains("... 36 more not stored"),
            "{report}"
        );
    }
}
