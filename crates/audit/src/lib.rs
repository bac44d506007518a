//! # osmosis-audit
//!
//! Runtime invariant auditors for the OSMOSIS reproduction.
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
//! This crate turns those properties into machine-checked invariants.
//! Each auditor implements the kernel's
//! [`Auditor`](osmosis_sim::audit::Auditor) hook (the zero-cost
//! `FaultView`-style plane added alongside it) and watches the full
//! event stream of a run — warm-up included, because conservation
//! ledgers must see warm-up cells drain during measurement:
//!
//! * [`CellConservation`] — nothing vanishes: globally and per egress
//!   port, `delivered + accounted drops ≤ injected` every slot, and at
//!   end of run `injected == delivered + drops + resident` when the
//!   model reports its resident-cell count.
//! * [`CreditConservation`] — for every credit-flow-controlled link the
//!   model snapshots, `held + in flight + occupancy == capacity`,
//!   including across grant loss, retransmission and credit-resync.
//! * [`FdlConservation`] — for every fiber-delay-line queue a model
//!   snapshots, `pushed == popped + dropped + resident`: an emulated
//!   optical buffer accounts every cell it was asked to store, typed
//!   losses included.
//! * [`OrderPreservation`] — per (source, destination) flow, egress
//!   sequence numbers strictly increase.
//! * [`CapacityLegality`] — no slot grants more cells to an output than
//!   the capacity the scheduler reported for it (an SOA gate masked to
//!   capacity 0 must receive zero grants).
//! * [`Liveness`] — no granted cell waited longer than a configured
//!   bound between request and grant.
//!
//! Auditors compose through an [`AuditSet`], which either panics on the
//! first violation ([`AuditMode::FailFast`], for tests) or accumulates
//! a capped sample of structured [`Violation`]s plus exact counts
//! ([`AuditMode::Accumulate`], for sweeps) and folds the total into the
//! run's report extras — only when violations exist, so a clean audited
//! run fingerprints bit-identically to an un-audited one.

#![deny(missing_docs)]

use osmosis_sim::audit::{Auditor, CreditLedger, DropReason};
use osmosis_sim::engine::{EngineConfig, EngineReport};
use std::collections::BTreeMap;

/// How an [`AuditSet`] reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Panic (with the violation's display form) the moment any auditor
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
        /// The offending sequence number.
        seq: u64,
        /// The highest sequence previously delivered for the flow.
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
/// and the auditor that raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Slot on which the violation was detected (end-of-run checks use
    /// the final slot count).
    pub slot: u64,
    /// Name of the auditor that raised it.
    pub auditor: &'static str,
    /// The structured violation payload.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot {} [{}] {}", self.slot, self.auditor, self.kind)
    }
}

/// Cap on *stored* violations per auditor; counts beyond the cap remain
/// exact so a pathological run cannot exhaust memory recording them.
const MAX_STORED: usize = 64;

#[derive(Debug, Default)]
struct Recorder {
    total: u64,
    stored: Vec<Violation>,
}

impl Recorder {
    fn reset(&mut self) {
        self.total = 0;
        self.stored.clear();
    }

    fn record(&mut self, slot: u64, auditor: &'static str, kind: ViolationKind) {
        self.total += 1;
        if self.stored.len() < MAX_STORED {
            self.stored.push(Violation {
                slot,
                auditor,
                kind,
            });
        }
    }
}

/// An [`Auditor`] that checks a named invariant and records
/// [`Violation`]s. Object-safe so an [`AuditSet`] can hold a mixed bag.
pub trait InvariantAuditor: Auditor {
    /// Short stable name, used in violation context and reports.
    fn name(&self) -> &'static str;
    /// Exact count of violations recorded this run.
    fn total_violations(&self) -> u64;
    /// The stored violation sample (capped at an internal limit).
    fn violations(&self) -> &[Violation];
}

// ---------------------------------------------------------------------
// Cell conservation
// ---------------------------------------------------------------------

/// Checks that no admitted cell vanishes: every slot,
/// `delivered + accounted drops ≤ injected` globally and
/// `delivered(port) ≤ injected-to(port)` per egress port; at end of run,
/// when the model reports its resident-cell count, the ledger must close
/// exactly: `injected == delivered + drops + resident`.
///
/// [`DropReason::Rejected`] arrivals were never admitted (blocked
/// injection — e.g. a full deflection ring refusing a new cell) and are
/// excluded from both sides of the ledger.
#[derive(Debug, Default)]
pub struct CellConservation {
    injected: u64,
    delivered: u64,
    dropped_admitted: u64,
    injected_to: Vec<u64>,
    delivered_from: Vec<u64>,
    port_flagged: Vec<bool>,
    global_flagged: bool,
    rec: Recorder,
}

impl CellConservation {
    /// A fresh cell-conservation auditor.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_slot(&mut self, slot: u64) {
        if !self.global_flagged && self.delivered + self.dropped_admitted > self.injected {
            self.global_flagged = true;
            self.rec.record(
                slot,
                self.name(),
                ViolationKind::CellLedger {
                    injected: self.injected,
                    delivered: self.delivered,
                    dropped: self.dropped_admitted,
                    resident: None,
                },
            );
        }
        for port in 0..self.injected_to.len() {
            if !self.port_flagged[port] && self.delivered_from[port] > self.injected_to[port] {
                self.port_flagged[port] = true;
                self.rec.record(
                    slot,
                    self.name(),
                    ViolationKind::PortLedger {
                        port,
                        injected_to: self.injected_to[port],
                        delivered_from: self.delivered_from[port],
                    },
                );
            }
        }
    }
}

impl Auditor for CellConservation {
    fn configure(&mut self, _cfg: &EngineConfig, ports: usize) {
        self.injected = 0;
        self.delivered = 0;
        self.dropped_admitted = 0;
        self.injected_to = vec![0; ports];
        self.delivered_from = vec![0; ports];
        self.port_flagged = vec![false; ports];
        self.global_flagged = false;
        self.rec.reset();
    }

    fn begin_slot(&mut self, slot: u64) {
        self.check_slot(slot);
    }

    fn cell_injected(&mut self, _slot: u64, _src: usize, dst: usize) {
        self.injected += 1;
        if let Some(c) = self.injected_to.get_mut(dst) {
            *c += 1;
        }
    }

    fn cell_delivered(&mut self, _slot: u64, output: usize, _inject_slot: u64) {
        self.delivered += 1;
        if let Some(c) = self.delivered_from.get_mut(output) {
            *c += 1;
        }
    }

    fn cell_dropped(&mut self, _slot: u64, _port: usize, reason: DropReason) {
        if reason != DropReason::Rejected {
            self.dropped_admitted += 1;
        }
    }

    fn end_run(&mut self, resident_cells: Option<u64>, report: &mut EngineReport) {
        let final_slot = report.measured_slots;
        self.check_slot(final_slot);
        if let Some(resident) = resident_cells {
            if self.injected != self.delivered + self.dropped_admitted + resident {
                self.rec.record(
                    final_slot,
                    self.name(),
                    ViolationKind::CellLedger {
                        injected: self.injected,
                        delivered: self.delivered,
                        dropped: self.dropped_admitted,
                        resident: Some(resident),
                    },
                );
            }
        }
    }
}

impl InvariantAuditor for CellConservation {
    fn name(&self) -> &'static str {
        "cell-conservation"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// Credit conservation
// ---------------------------------------------------------------------

/// Checks every credit-ledger snapshot a model reports: the paper's
/// lossless flow control (Figs. 3–4) requires
/// `held + in flight + occupancy == capacity` on every audited link,
/// every slot — including while grants are lost, cells retransmit under
/// go-back-N, or the credit-resync path restores dropped credits.
#[derive(Debug, Default)]
pub struct CreditConservation {
    rec: Recorder,
}

impl CreditConservation {
    /// A fresh credit-conservation auditor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Auditor for CreditConservation {
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {
        self.rec.reset();
    }

    fn credit_link(&mut self, slot: u64, node: usize, port: usize, ledger: CreditLedger) {
        if !ledger.balanced() {
            self.rec.record(
                slot,
                self.name(),
                ViolationKind::CreditImbalance { node, port, ledger },
            );
        }
    }
}

impl InvariantAuditor for CreditConservation {
    fn name(&self) -> &'static str {
        "credit-conservation"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// FDL cell conservation
// ---------------------------------------------------------------------

/// Checks every fiber-delay-line ledger snapshot a model reports:
/// an emulated optical buffer stores cells in recirculating fiber, so
/// "nothing vanishes" is a physical claim about the delay-line bank —
/// every cell pushed must be served, typed-lost, or still in fiber:
/// `pushed == popped + dropped + resident`, every snapshot, every queue.
/// Electronic buffer planes report no FDL ledgers, so this auditor is
/// vacuous (and the audited run bit-identical) for them.
#[derive(Debug, Default)]
pub struct FdlConservation {
    rec: Recorder,
}

impl FdlConservation {
    /// A fresh FDL-conservation auditor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Auditor for FdlConservation {
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {
        self.rec.reset();
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
            self.rec.record(
                slot,
                self.name(),
                ViolationKind::FdlLedger {
                    queue,
                    pushed,
                    popped,
                    dropped,
                    resident,
                },
            );
        }
    }
}

impl InvariantAuditor for FdlConservation {
    fn name(&self) -> &'static str {
        "fdl-conservation"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// Order preservation
// ---------------------------------------------------------------------

/// Checks strict per-flow sequence monotonicity at egress — the Fig. 7
/// claim that dual-receiver delivery and go-back-N retransmission never
/// reorder a (source, destination) flow. Not applicable to models that
/// reorder by design (BVN load balancing, deflection routing); use
/// [`AuditSet::unordered`] for those.
///
/// A view over the engine's flow table: the engine reports each delivery
/// that does not exceed every earlier one of its flow, and this auditor
/// records it. A flow's first delivery may carry any sequence number,
/// and a gap (a cell lost on the way) is no violation.
#[derive(Debug, Default)]
pub struct OrderPreservation {
    rec: Recorder,
}

impl OrderPreservation {
    /// A fresh order-preservation auditor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Auditor for OrderPreservation {
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {
        self.rec.reset();
    }

    fn flow_regressed(&mut self, slot: u64, src: usize, dst: usize, seq: u64, last_seq: u64) {
        self.rec.record(
            slot,
            "order-preservation",
            ViolationKind::OrderRegression {
                src,
                dst,
                seq,
                last_seq,
            },
        );
    }
}

impl InvariantAuditor for OrderPreservation {
    fn name(&self) -> &'static str {
        "order-preservation"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// Capacity legality
// ---------------------------------------------------------------------

/// Checks that no output receives more grants in a slot than the legal
/// capacity the scheduler reported for it that slot — in particular that
/// an output degraded to capacity 0 (its SOA gate faulted off, Fig. 5's
/// availability model) receives **no** grants. Only outputs whose
/// capacity was reported are checked, so models that never report
/// capacities are exempt rather than false-flagged.
#[derive(Debug, Default)]
pub struct CapacityLegality {
    slot: u64,
    caps: BTreeMap<usize, u64>,
    grants: BTreeMap<usize, u64>,
    rec: Recorder,
}

impl CapacityLegality {
    /// A fresh capacity-legality auditor.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush(&mut self) {
        let slot = self.slot;
        for (&output, &capacity) in &self.caps {
            let granted = self.grants.get(&output).copied().unwrap_or(0);
            if granted > capacity {
                self.rec.record(
                    slot,
                    "capacity-legality",
                    ViolationKind::CapacityExceeded {
                        output,
                        granted,
                        capacity,
                    },
                );
            }
        }
        self.caps.clear();
        self.grants.clear();
    }
}

impl Auditor for CapacityLegality {
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {
        self.slot = 0;
        self.caps.clear();
        self.grants.clear();
        self.rec.reset();
    }

    fn begin_slot(&mut self, slot: u64) {
        self.flush();
        self.slot = slot;
    }

    fn cell_granted(&mut self, _slot: u64, _input: usize, output: usize, _wait: u64) {
        *self.grants.entry(output).or_insert(0) += 1;
    }

    fn output_capacity(&mut self, _slot: u64, output: usize, capacity: usize) {
        self.caps.insert(output, capacity as u64);
    }

    fn end_run(&mut self, _resident_cells: Option<u64>, _report: &mut EngineReport) {
        self.flush();
    }
}

impl InvariantAuditor for CapacityLegality {
    fn name(&self) -> &'static str {
        "capacity-legality"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// Watchdog against starvation: every granted cell's request-to-grant
/// wait must stay within `bound` slots. FLPPR's pointer rotation
/// guarantees a persistent requester is served within a bounded number
/// of frames; a scheduler change that silently starves a VOQ shows up
/// here instead of as a tail-latency anomaly in Fig. 6.
#[derive(Debug)]
pub struct Liveness {
    bound: u64,
    rec: Recorder,
}

impl Liveness {
    /// A liveness auditor with the given request-to-grant wait bound.
    pub fn new(bound: u64) -> Self {
        Liveness {
            bound,
            rec: Recorder::default(),
        }
    }
}

impl Auditor for Liveness {
    fn configure(&mut self, _cfg: &EngineConfig, _ports: usize) {
        self.rec.reset();
    }

    fn cell_granted(&mut self, slot: u64, input: usize, output: usize, wait: u64) {
        if wait > self.bound {
            self.rec.record(
                slot,
                "liveness",
                ViolationKind::Starvation {
                    input,
                    output,
                    wait,
                    bound: self.bound,
                },
            );
        }
    }
}

impl InvariantAuditor for Liveness {
    fn name(&self) -> &'static str {
        "liveness"
    }
    fn total_violations(&self) -> u64 {
        self.rec.total
    }
    fn violations(&self) -> &[Violation] {
        &self.rec.stored
    }
}

// ---------------------------------------------------------------------
// AuditSet
// ---------------------------------------------------------------------

/// Per-auditor summary inside an [`AuditReport`].
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// The auditor's name.
    pub auditor: &'static str,
    /// Exact violation count.
    pub total: u64,
    /// Stored violation sample (capped).
    pub sample: Vec<Violation>,
}

/// The post-run audit summary an [`AuditSet`] produces.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// One entry per auditor, in registration order.
    pub entries: Vec<AuditEntry>,
}

impl AuditReport {
    /// Total violations across all auditors.
    pub fn total_violations(&self) -> u64 {
        self.entries.iter().map(|e| e.total).sum()
    }

    /// Whether the run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} auditors)", self.entries.len());
        }
        writeln!(f, "audit: {} violation(s)", self.total_violations())?;
        for entry in &self.entries {
            if entry.total == 0 {
                continue;
            }
            writeln!(f, "  {}: {}", entry.auditor, entry.total)?;
            for v in &entry.sample {
                writeln!(f, "    {v}")?;
            }
            if (entry.sample.len() as u64) < entry.total {
                writeln!(
                    f,
                    "    ... {} more not stored",
                    entry.total - entry.sample.len() as u64
                )?;
            }
        }
        Ok(())
    }
}

/// A composed set of invariant auditors sharing one [`AuditMode`].
///
/// Attach to a run with `Engine::new(&cfg).audit(Some(&mut set))` (or
/// the `run_switch_audited` entry point); after
/// the run, [`AuditSet::report`] summarizes what every auditor saw. In
/// [`AuditMode::Accumulate`] the set also writes an `audit_violations`
/// extra into the engine report — but only when violations exist, so
/// clean audited runs keep their fingerprints.
pub struct AuditSet {
    auditors: Vec<Box<dyn InvariantAuditor>>,
    mode: AuditMode,
    seen: u64,
}

impl AuditSet {
    /// An empty set.
    pub fn new(mode: AuditMode) -> Self {
        AuditSet {
            auditors: Vec::new(),
            mode,
            seen: 0,
        }
    }

    /// The standard battery for order-preserving models: cell
    /// conservation, credit conservation, FDL cell conservation, order
    /// preservation and capacity legality. The FDL auditor only sees
    /// ledgers from models running an FDL buffer plane; elsewhere it is
    /// vacuous.
    pub fn standard(mode: AuditMode) -> Self {
        Self::new(mode)
            .with(CellConservation::new())
            .with(CreditConservation::new())
            .with(FdlConservation::new())
            .with(OrderPreservation::new())
            .with(CapacityLegality::new())
    }

    /// The battery for models that reorder by design (BVN load
    /// balancing, deflection routing): [`standard`](Self::standard)
    /// minus order preservation.
    pub fn unordered(mode: AuditMode) -> Self {
        Self::new(mode)
            .with(CellConservation::new())
            .with(CreditConservation::new())
            .with(FdlConservation::new())
            .with(CapacityLegality::new())
    }

    /// Add an auditor.
    pub fn with(mut self, auditor: impl InvariantAuditor + 'static) -> Self {
        self.auditors.push(Box::new(auditor));
        self
    }

    /// Add a [`Liveness`] watchdog with the given wait bound.
    pub fn with_liveness(self, bound: u64) -> Self {
        self.with(Liveness::new(bound))
    }

    /// Exact violation count across all auditors.
    pub fn total_violations(&self) -> u64 {
        self.auditors.iter().map(|a| a.total_violations()).sum()
    }

    /// Summarize the last audited run.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            entries: self
                .auditors
                .iter()
                .map(|a| AuditEntry {
                    auditor: a.name(),
                    total: a.total_violations(),
                    sample: a.violations().to_vec(),
                })
                .collect(),
        }
    }

    /// In fail-fast mode, panic with the first newly recorded violation.
    #[expect(
        clippy::panic,
        reason = "FailFast mode panics by contract, also for auditors that count but do not store violations: a violating run fails loudly instead of reporting numbers"
    )]
    fn bark(&mut self) {
        let total = self.total_violations();
        if total > self.seen {
            if self.mode == AuditMode::FailFast {
                let latest = self
                    .auditors
                    .iter()
                    .flat_map(|a| a.violations())
                    .last()
                    .cloned();
                match latest {
                    Some(v) => panic!("invariant violation: {v}"),
                    None => panic!("invariant violation (not stored)"),
                }
            }
            self.seen = total;
        }
    }
}

impl std::fmt::Debug for AuditSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditSet")
            .field("mode", &self.mode)
            .field(
                "auditors",
                &self.auditors.iter().map(|a| a.name()).collect::<Vec<_>>(),
            )
            .field("violations", &self.total_violations())
            .finish()
    }
}

impl Auditor for AuditSet {
    fn configure(&mut self, cfg: &EngineConfig, ports: usize) {
        self.seen = 0;
        for a in &mut self.auditors {
            a.configure(cfg, ports);
        }
    }

    fn begin_slot(&mut self, slot: u64) {
        for a in &mut self.auditors {
            a.begin_slot(slot);
        }
        self.bark();
    }

    fn cell_injected(&mut self, slot: u64, src: usize, dst: usize) {
        for a in &mut self.auditors {
            a.cell_injected(slot, src, dst);
        }
        self.bark();
    }

    fn cell_granted(&mut self, slot: u64, input: usize, output: usize, wait: u64) {
        for a in &mut self.auditors {
            a.cell_granted(slot, input, output, wait);
        }
        self.bark();
    }

    fn cell_delivered(&mut self, slot: u64, output: usize, inject_slot: u64) {
        for a in &mut self.auditors {
            a.cell_delivered(slot, output, inject_slot);
        }
        self.bark();
    }

    fn flow_regressed(&mut self, slot: u64, src: usize, dst: usize, seq: u64, last_seq: u64) {
        for a in &mut self.auditors {
            a.flow_regressed(slot, src, dst, seq, last_seq);
        }
        self.bark();
    }

    fn cell_dropped(&mut self, slot: u64, port: usize, reason: DropReason) {
        for a in &mut self.auditors {
            a.cell_dropped(slot, port, reason);
        }
        self.bark();
    }

    fn cell_retransmitted(&mut self, slot: u64, port: usize) {
        for a in &mut self.auditors {
            a.cell_retransmitted(slot, port);
        }
        self.bark();
    }

    fn output_capacity(&mut self, slot: u64, output: usize, capacity: usize) {
        for a in &mut self.auditors {
            a.output_capacity(slot, output, capacity);
        }
        self.bark();
    }

    fn credit_link(&mut self, slot: u64, node: usize, port: usize, ledger: CreditLedger) {
        for a in &mut self.auditors {
            a.credit_link(slot, node, port, ledger);
        }
        self.bark();
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
        for a in &mut self.auditors {
            a.fdl_ledger(slot, queue, pushed, popped, dropped, resident);
        }
        self.bark();
    }

    fn end_run(&mut self, resident_cells: Option<u64>, report: &mut EngineReport) {
        for a in &mut self.auditors {
            a.end_run(resident_cells, report);
        }
        let total = self.total_violations();
        if total > 0 {
            report.set_extra("audit_violations", total as f64);
        }
        self.bark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::engine::{Engine, Observer, SlottedModel, TraceSink};

    fn cfg() -> EngineConfig {
        EngineConfig::new(0, 100)
    }

    #[test]
    fn cell_conservation_accepts_balanced_run() {
        let mut a = CellConservation::new();
        a.configure(&cfg(), 4);
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
        let mut a = CellConservation::new();
        a.configure(&cfg(), 4);
        a.cell_injected(0, 0, 1);
        a.cell_delivered(0, 1, 0);
        a.cell_delivered(0, 1, 0); // one in, two out
        a.begin_slot(1);
        assert!(a.total_violations() >= 1);
        assert!(matches!(
            a.violations()[0].kind,
            ViolationKind::CellLedger { .. } | ViolationKind::PortLedger { .. }
        ));
    }

    #[test]
    fn cell_conservation_catches_leaked_cell() {
        let mut a = CellConservation::new();
        a.configure(&cfg(), 4);
        a.cell_injected(0, 0, 1);
        a.cell_injected(0, 0, 2);
        a.cell_delivered(1, 1, 0);
        // The second cell is neither delivered, dropped, nor resident.
        let mut r = EngineReport::default();
        a.end_run(Some(0), &mut r);
        assert_eq!(a.total_violations(), 1);
        assert!(matches!(
            a.violations()[0].kind,
            ViolationKind::CellLedger {
                resident: Some(0),
                ..
            }
        ));
    }

    #[test]
    fn rejected_arrivals_stay_off_the_ledger() {
        let mut a = CellConservation::new();
        a.configure(&cfg(), 4);
        a.cell_dropped(0, 2, DropReason::Rejected);
        let mut r = EngineReport::default();
        a.end_run(Some(0), &mut r);
        assert_eq!(a.total_violations(), 0);
    }

    #[test]
    fn fdl_conservation_accepts_closed_and_flags_open_ledgers() {
        let mut a = FdlConservation::new();
        a.configure(&cfg(), 4);
        a.fdl_ledger(5, 2, 10, 6, 1, 3);
        assert_eq!(a.total_violations(), 0, "10 == 6 + 1 + 3");
        a.fdl_ledger(6, 2, 10, 6, 1, 2);
        assert_eq!(a.total_violations(), 1, "a cell vanished from fiber");
        assert!(matches!(
            a.violations()[0].kind,
            ViolationKind::FdlLedger {
                queue: 2,
                pushed: 10,
                ..
            }
        ));
        let text = a.violations()[0].to_string();
        assert!(text.contains("fdl ledger for queue 2"), "{text}");
    }

    #[test]
    fn audit_set_forwards_fdl_ledgers() {
        let mut set = AuditSet::standard(AuditMode::Accumulate);
        set.configure(&cfg(), 4);
        set.fdl_ledger(1, 0, 4, 4, 0, 0);
        assert_eq!(set.total_violations(), 0);
        set.fdl_ledger(2, 1, 4, 1, 0, 0);
        assert_eq!(set.total_violations(), 1);
        let report = set.report();
        assert!(report
            .entries
            .iter()
            .any(|e| e.auditor == "fdl-conservation" && e.total == 1));
    }

    #[test]
    #[should_panic(expected = "fdl ledger for queue 3")]
    fn fail_fast_barks_on_fdl_imbalance() {
        let mut set = AuditSet::standard(AuditMode::FailFast);
        set.configure(&cfg(), 4);
        set.fdl_ledger(1, 3, 5, 1, 0, 0);
    }

    #[test]
    fn credit_conservation_flags_imbalance() {
        let mut a = CreditConservation::new();
        a.configure(&cfg(), 4);
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

    /// `script` through the engine with [`OrderPreservation`] attached:
    /// its violations as `(slot, src, dst, seq, last_seq)`.
    fn engine_view(script: &Script, ports: usize) -> Vec<(u64, usize, usize, u64, u64)> {
        let slots = script.last().map_or(1, |d| d.0 + 1);
        let mut order = OrderPreservation::new();
        let mut model = Deliveries {
            script,
            ports,
            next: 0,
        };
        Engine::new(&EngineConfig::new(0, slots))
            .audit(Some(&mut order))
            .run(&mut model);
        assert_eq!(order.total_violations(), order.violations().len() as u64);
        let flat = |v: &Violation| match v.kind {
            ViolationKind::OrderRegression {
                src,
                dst,
                seq,
                last_seq,
            } => (v.slot, src, dst, seq, last_seq),
            ref other => panic!("not an order violation: {other}"),
        };
        order.violations().iter().map(flat).collect()
    }

    /// The per-flow map `OrderPreservation` kept before it became a view
    /// of the engine's table: the reference its violations must match.
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
        let mut a = CapacityLegality::new();
        a.configure(&cfg(), 4);
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
    fn liveness_flags_starved_grant() {
        let mut a = Liveness::new(100);
        a.configure(&cfg(), 4);
        a.cell_granted(500, 0, 1, 100);
        assert_eq!(a.total_violations(), 0);
        a.cell_granted(900, 0, 1, 101);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn audit_set_accumulates_and_reports() {
        let mut set = AuditSet::standard(AuditMode::Accumulate);
        set.configure(&cfg(), 4);
        set.cell_injected(0, 0, 1);
        set.cell_injected(0, 0, 1);
        set.cell_delivered(1, 1, 0);
        set.flow_regressed(2, 0, 1, 3, 3); // duplicate sequence
        set.cell_delivered(2, 1, 0);
        let mut r = EngineReport::default();
        set.end_run(Some(0), &mut r);
        assert_eq!(set.total_violations(), 1);
        assert_eq!(r.extra("audit_violations"), Some(1.0));
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
        assert_eq!(r.extra("audit_violations"), None);
        assert!(set.report().is_clean());
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn fail_fast_panics_on_first_violation() {
        let mut set = AuditSet::standard(AuditMode::FailFast);
        set.configure(&cfg(), 4);
        set.flow_regressed(1, 0, 1, 2, 2);
    }
}
