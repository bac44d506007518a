//! The shared slotted-simulation engine.
//!
//! Every switch and fabric simulator in the workspace advances in fixed
//! cell cycles with the same structure: an arbitration/transfer phase, an
//! egress-delivery phase, and an injection phase, wrapped in a
//! warmup-then-measure window with throughput/delay/ordering accounting.
//! This module hoists that structure out of the individual simulators:
//!
//! * [`SlottedModel`] — the per-cycle hooks a simulator implements;
//! * [`EngineConfig`] — the one simulation window/seed/buffer config;
//! * [`EngineReport`] — the one report every simulator produces;
//! * [`Observer`] — the cell-accounting callbacks handed to the hooks,
//!   which also fan out cycle-level [`TraceEvent`]s to a [`TraceSink`].
//!
//! # Phase order
//!
//! Within one slot the engine calls `arbitrate`, then `deliver`, then
//! `inject`. Injection last means a cell that arrives in slot *t* is
//! visible to arbitration no earlier than slot *t + 1* — the one-cycle
//! minimum request-to-grant latency of the paper's Fig. 6 — and matches
//! the loop structure all the bespoke simulators shared before they were
//! ported onto the engine.
//!
//! # Tracing is zero-cost when disabled
//!
//! The hooks are generic over the sink, so a run with [`NullTrace`]
//! (`TraceSink::ENABLED == false`) monomorphizes every `Observer::trace`
//! call to nothing; the measured engine overhead with tracing disabled is
//! within noise of the pre-engine hand-rolled loops (see
//! `crates/bench/benches/engine.rs`).

use crate::audit::{Auditor, CreditLedger, DropReason};
use crate::circuit::{CircuitView, NullCircuits};
use crate::fault::FaultView;
use crate::stats::Histogram;

/// A cycle-level event emitted through a [`TraceSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A cell entered an ingress queue.
    Inject {
        /// Ingress port.
        src: u32,
        /// Destination egress port.
        dst: u32,
    },
    /// The arbiter granted a cell across the crossbar.
    Grant {
        /// Granted input.
        input: u32,
        /// Granted output.
        output: u32,
        /// Slots the cell waited between injection and grant.
        wait_slots: u64,
    },
    /// A cell left the system at an egress port.
    Deliver {
        /// Egress port.
        output: u32,
        /// Injection-to-delivery latency in slots.
        delay_slots: u64,
    },
    /// A cell was dropped (blocked injection, bufferless contention loss).
    Drop {
        /// Port at which the drop occurred.
        port: u32,
    },
    /// Flow control held a cell back for want of credits.
    CreditStall {
        /// Switch/node index asserting the stall.
        node: u32,
        /// Port being stalled.
        port: u32,
    },
    /// More cells contended for an egress than it has receivers.
    ReceiverConflict {
        /// The contended output.
        output: u32,
        /// Number of simultaneous contenders.
        contenders: u32,
    },
    /// A cell was corrupted by a link fault and re-sent through the
    /// hop-by-hop recovery path.
    Retransmit {
        /// The link/port the retransmission occurred on.
        port: u32,
    },
}

/// A consumer of cycle-level [`TraceEvent`]s.
///
/// Implementations with `ENABLED == false` (notably [`NullTrace`]) are
/// compiled out of the hot path entirely: the engine's hooks are generic
/// over the sink type, so the `ENABLED` check constant-folds.
pub trait TraceSink {
    /// Whether this sink wants events at all.
    const ENABLED: bool = true;

    /// Receive one event, stamped with the slot it occurred in.
    fn event(&mut self, slot: u64, event: TraceEvent);

    /// Called once before the first slot with the run's configuration and
    /// the model's edge-port count. Sinks that need the warmup boundary or
    /// seed (e.g. the telemetry plane's span sampler) learn it here.
    fn run_begin(&mut self, _cfg: &EngineConfig, _ports: usize) {}

    /// Called at the top of every slot, before the model's phases.
    fn begin_slot(&mut self, _slot: u64) {}

    /// Called once after the report is finalized (model `finish`, fault
    /// and audit extras included). The report is read-only: a sink can
    /// never influence the run it observed, which is why *any* sink —
    /// not just a disabled one — leaves the fingerprint bit-identical.
    fn run_end(&mut self, _report: &EngineReport) {}
}

/// The disabled sink: all tracing compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _slot: u64, _event: TraceEvent) {}
}

/// A sink that records every event verbatim (tests, offline analysis).
#[derive(Debug, Default, Clone)]
pub struct VecTrace {
    /// The recorded `(slot, event)` stream.
    pub events: Vec<(u64, TraceEvent)>,
}

impl TraceSink for VecTrace {
    fn event(&mut self, slot: u64, event: TraceEvent) {
        self.events.push((slot, event));
    }
}

/// A bounded sink that keeps only the most recent events: when `cap` is
/// reached, recording a new event evicts the oldest. Long runs capture a
/// recent window for post-mortems without [`VecTrace`]'s unbounded
/// growth; `seen()` still counts every event ever offered.
#[derive(Debug, Default, Clone)]
pub struct RingTrace {
    cap: usize,
    events: std::collections::VecDeque<(u64, TraceEvent)>,
    seen: u64,
}

impl RingTrace {
    /// A ring holding at most `cap` events (0 records nothing).
    pub fn new(cap: usize) -> Self {
        RingTrace {
            cap,
            events: std::collections::VecDeque::with_capacity(cap.min(4_096)),
            seen: 0,
        }
    }

    /// The retained window, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.events.iter()
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events offered to the sink, evicted ones included.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingTrace {
    fn event(&mut self, slot: u64, event: TraceEvent) {
        self.seen += 1;
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back((slot, event));
    }
}

/// A sink that keeps only per-kind totals — cheap enough to leave on in
/// long sweeps while still exposing grant/drop/stall/conflict activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingTrace {
    /// Cells injected.
    pub injects: u64,
    /// Grants issued.
    pub grants: u64,
    /// Cells delivered.
    pub delivers: u64,
    /// Cells dropped.
    pub drops: u64,
    /// Flow-control stalls asserted.
    pub credit_stalls: u64,
    /// Receiver conflicts observed.
    pub receiver_conflicts: u64,
    /// Fault-path retransmissions observed.
    pub retransmits: u64,
}

impl TraceSink for CountingTrace {
    #[inline]
    fn event(&mut self, _slot: u64, event: TraceEvent) {
        match event {
            TraceEvent::Inject { .. } => self.injects += 1,
            TraceEvent::Grant { .. } => self.grants += 1,
            TraceEvent::Deliver { .. } => self.delivers += 1,
            TraceEvent::Drop { .. } => self.drops += 1,
            TraceEvent::CreditStall { .. } => self.credit_stalls += 1,
            TraceEvent::ReceiverConflict { .. } => self.receiver_conflicts += 1,
            TraceEvent::Retransmit { .. } => self.retransmits += 1,
        }
    }
}

/// The one simulation-window configuration shared by every simulator.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Slots simulated before measurement starts (queue warm-up).
    pub warmup_slots: u64,
    /// Slots measured.
    pub measure_slots: u64,
    /// Experiment seed, used by helpers that construct traffic or
    /// model-internal sources. Models whose traffic is pre-seeded at
    /// construction ignore it.
    pub seed: u64,
    /// Per-port buffer capacity in cells, for models with finite buffers.
    /// `None` leaves each model's structural default in place.
    pub buffer_cells: Option<usize>,
}

impl EngineConfig {
    /// A window of `warmup_slots` + `measure_slots`, seed 0,
    /// model-default buffering.
    pub fn new(warmup_slots: u64, measure_slots: u64) -> Self {
        EngineConfig {
            warmup_slots,
            measure_slots,
            seed: 0,
            buffer_cells: None,
        }
    }

    /// Set the experiment seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-port buffer capacity.
    pub fn with_buffer_cells(mut self, cells: usize) -> Self {
        self.buffer_cells = Some(cells);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(2_000, 20_000)
    }
}

/// The unified report every engine run produces.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Offered load: (injected + dropped) / port / measured slot.
    pub offered_load: f64,
    /// Carried throughput: deliveries / port / measured slot.
    pub throughput: f64,
    /// Mean cell delay in slots (injection → delivery).
    pub mean_delay: f64,
    /// 99th-percentile delay in slots, when resolvable.
    pub p99_delay: Option<f64>,
    /// Mean request-to-grant latency in slots (the Fig. 6 quantity);
    /// 0 for models without a grant stage.
    pub mean_request_grant: f64,
    /// Cells injected in the measurement window.
    pub injected: u64,
    /// Cells delivered in the measurement window.
    pub delivered: u64,
    /// Cells dropped in the measurement window.
    pub dropped: u64,
    /// Out-of-order deliveries.
    pub reordered: u64,
    /// Deepest ingress-side queue observed (VOQ, fabric buffer, ...).
    pub max_queue_depth: usize,
    /// Deepest egress queue observed.
    pub max_egress_depth: usize,
    /// Measured slots actually run.
    pub measured_slots: u64,
    /// Full delay histogram (slots).
    pub delay_hist: Histogram,
    /// Full request-to-grant histogram (slots).
    pub grant_hist: Histogram,
    /// Model-specific metrics (CIOQ work-conservation violation fraction,
    /// multicast copy counts, ...), as `(name, value)` pairs.
    pub extra: Vec<(&'static str, f64)>,
}

impl Default for EngineReport {
    /// An all-zero report with empty single-bucket histograms — the
    /// starting point for bridges that fill a report from non-engine
    /// sources (e.g. the fec link study).
    fn default() -> Self {
        EngineReport {
            offered_load: 0.0,
            throughput: 0.0,
            mean_delay: 0.0,
            p99_delay: None,
            mean_request_grant: 0.0,
            injected: 0,
            delivered: 0,
            dropped: 0,
            reordered: 0,
            max_queue_depth: 0,
            max_egress_depth: 0,
            measured_slots: 0,
            delay_hist: Histogram::new(1.0, 1),
            grant_hist: Histogram::new(1.0, 1),
            extra: Vec::new(),
        }
    }
}

impl EngineReport {
    /// Look up a model-specific metric by name.
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Add (or overwrite) a model-specific metric.
    pub fn set_extra(&mut self, name: &'static str, value: f64) {
        if let Some(slot) = self.extra.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.extra.push((name, value));
        }
    }

    /// A 64-bit digest over every field — including the exact bit patterns
    /// of the floating-point stats and the full histogram contents — so
    /// determinism tests can assert byte-identical reports in one line.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.injected,
            self.delivered,
            self.dropped,
            self.reordered,
            self.max_queue_depth as u64,
            self.max_egress_depth as u64,
            self.measured_slots,
            // A constant word in the digest: it stood for an early-stop
            // flag that no pinned run ever set, and leaving it out would
            // shift every pinned fingerprint.
            0u64,
            self.offered_load.to_bits(),
            self.throughput.to_bits(),
            self.mean_delay.to_bits(),
            self.p99_delay.map_or(u64::MAX, f64::to_bits),
            self.mean_request_grant.to_bits(),
        ] {
            h.write_u64(v);
        }
        for hist in [&self.delay_hist, &self.grant_hist] {
            h.write_u64(hist.count());
            h.write_u64(hist.overflow_count());
            h.write_u64(hist.mean().to_bits());
            for &c in hist.bucket_counts() {
                h.write_u64(c);
            }
        }
        for (name, value) in &self.extra {
            for b in name.bytes() {
                h.write_u64(b as u64);
            }
            h.write_u64(value.to_bits());
        }
        h.finish()
    }
}

/// FNV-1a over u64 words (for [`EngineReport::fingerprint`]).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cell-accounting callbacks handed to every [`SlottedModel`] hook.
///
/// The observer owns the warmup gating: models report every event
/// unconditionally and the observer decides what lands in the report.
/// Delay/grant statistics only include cells injected after warm-up;
/// throughput counts every delivery inside the measurement window (at
/// saturation the warm-up backlog drains strictly FIFO, as the bespoke
/// loops also assumed).
pub struct Observer<'a, T: TraceSink> {
    sink: &'a mut T,
    faults: Option<&'a mut dyn FaultView>,
    circuits: Option<&'a mut dyn CircuitView>,
    audit: Option<&'a mut dyn Auditor>,
    warmup_slots: u64,
    slot: u64,
    measuring: bool,
    injected: u64,
    delivered: u64,
    dropped: u64,
    drops_rejected: u64,
    drops_buffer_full: u64,
    fault_cells_lost: u64,
    fault_retransmits: u64,
    delay_hist: Histogram,
    grant_hist: Histogram,
    max_queue_depth: usize,
    max_egress_depth: usize,
}

impl<'a, T: TraceSink> Observer<'a, T> {
    fn new(cfg: &EngineConfig, sink: &'a mut T) -> Self {
        Observer {
            sink,
            faults: None,
            circuits: None,
            audit: None,
            warmup_slots: cfg.warmup_slots,
            slot: 0,
            measuring: cfg.warmup_slots == 0,
            injected: 0,
            delivered: 0,
            dropped: 0,
            drops_rejected: 0,
            drops_buffer_full: 0,
            fault_cells_lost: 0,
            fault_retransmits: 0,
            // Sized to stay cache-resident in the hot loop (32 KB + 8 KB);
            // larger delays land in the overflow bucket, where the mean
            // stays exact (Welford) and only quantiles become unresolvable.
            delay_hist: Histogram::new(1.0, 4_096),
            grant_hist: Histogram::new(1.0, 1_024),
            max_queue_depth: 0,
            max_egress_depth: 0,
        }
    }

    #[inline]
    fn begin_slot(&mut self, slot: u64) {
        self.slot = slot;
        self.measuring = slot >= self.warmup_slots;
        if T::ENABLED {
            self.sink.begin_slot(slot);
        }
        if let Some(f) = self.faults.as_mut() {
            f.begin_slot(slot);
        }
        if let Some(c) = self.circuits.as_mut() {
            c.begin_slot(slot);
        }
        if let Some(a) = self.audit.as_mut() {
            a.begin_slot(slot);
        }
    }

    /// The current slot.
    #[inline]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Whether the run is inside the measurement window.
    #[inline]
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// A cell entered an ingress queue this slot.
    #[inline]
    pub fn cell_injected(&mut self, src: usize, dst: usize) {
        if self.measuring {
            self.injected += 1;
        }
        if let Some(c) = self.circuits.as_mut() {
            c.note_arrival(src, dst);
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_injected(self.slot, src, dst);
        }
        self.trace(TraceEvent::Inject {
            src: src as u32,
            dst: dst as u32,
        });
    }

    /// A cell injected in `inject_slot` was granted across the crossbar
    /// from `input` to `output` this slot.
    #[inline]
    pub fn cell_granted(&mut self, input: usize, output: usize, inject_slot: u64) {
        let wait = self.slot - inject_slot;
        self.cell_granted_with_wait(input, output, inject_slot, wait);
    }

    /// Like [`cell_granted`](Observer::cell_granted) with an explicit
    /// request-to-grant wait — for models whose grant takes effect at a
    /// slot other than the current one (e.g. the cells of a burst
    /// container launch back to back over the following slots).
    #[inline]
    pub fn cell_granted_with_wait(
        &mut self,
        input: usize,
        output: usize,
        inject_slot: u64,
        wait: u64,
    ) {
        if self.measuring && inject_slot >= self.warmup_slots {
            self.grant_hist.record(wait as f64);
        }
        if let Some(c) = self.circuits.as_mut() {
            c.note_transfer(input, output);
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_granted(self.slot, input, output, wait);
        }
        self.trace(TraceEvent::Grant {
            input: input as u32,
            output: output as u32,
            wait_slots: wait,
        });
    }

    /// A cell injected in `inject_slot` left the system at `output` this
    /// slot.
    #[inline]
    pub fn cell_delivered(&mut self, output: usize, inject_slot: u64) {
        let delay = self.slot - inject_slot;
        if self.measuring {
            self.delivered += 1;
            if inject_slot >= self.warmup_slots {
                self.delay_hist.record(delay as f64);
            }
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_delivered(self.slot, output, inject_slot);
        }
        self.trace(TraceEvent::Deliver {
            output: output as u32,
            delay_slots: delay,
        });
    }

    /// Like [`cell_delivered`](Observer::cell_delivered), additionally
    /// reporting the cell's flow identity `(src, seq)` to an attached
    /// auditor — the order-preservation feed. Instrumented egress sites
    /// use this next to their `FlowOrder::record` call.
    #[inline]
    pub fn cell_delivered_flow(&mut self, output: usize, inject_slot: u64, src: usize, seq: u64) {
        if let Some(a) = self.audit.as_mut() {
            a.flow_delivered(self.slot, src, output, seq);
        }
        self.cell_delivered(output, inject_slot);
    }

    /// A cell was dropped at `port` this slot (unattributed; equivalent
    /// to [`cell_dropped_for`](Observer::cell_dropped_for) with
    /// [`DropReason::Other`]).
    #[inline]
    pub fn cell_dropped(&mut self, port: usize) {
        self.cell_dropped_for(port, DropReason::Other);
    }

    /// A cell was dropped at `port` this slot for `reason`. Per-reason
    /// tallies surface as `drops_*` report extras when non-zero; the
    /// conservation auditor uses the reason to keep rejected (never
    /// injected) arrivals off its ledger.
    #[inline]
    pub fn cell_dropped_for(&mut self, port: usize, reason: DropReason) {
        if self.measuring {
            self.dropped += 1;
            match reason {
                DropReason::Rejected => self.drops_rejected += 1,
                DropReason::BufferFull => self.drops_buffer_full += 1,
                DropReason::FaultLoss | DropReason::Other => {}
            }
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_dropped(self.slot, port, reason);
        }
        self.trace(TraceEvent::Drop { port: port as u32 });
    }

    /// Flow control stalled `port` of `node` this slot (trace-only).
    #[inline]
    pub fn credit_stall(&mut self, node: usize, port: usize) {
        self.trace(TraceEvent::CreditStall {
            node: node as u32,
            port: port as u32,
        });
    }

    /// `contenders` cells competed for `output`'s receivers this slot
    /// (trace-only).
    #[inline]
    pub fn receiver_conflict(&mut self, output: usize, contenders: usize) {
        self.trace(TraceEvent::ReceiverConflict {
            output: output as u32,
            contenders: contenders as u32,
        });
    }

    /// Whether a fault plane is attached to this run. Models gate all
    /// their fault logic on this so no-fault runs pay one branch per
    /// phase at most.
    #[inline]
    pub fn faults_attached(&self) -> bool {
        self.faults.is_some()
    }

    /// Fault query: may the fault plane's state queries answer
    /// differently this slot than last slot? `false` with no plane
    /// attached.
    #[inline]
    pub fn fault_state_changed(&self) -> bool {
        match &self.faults {
            Some(f) => f.state_changed(),
            None => false,
        }
    }

    /// Fault query: is `output`'s SOA gate stuck off this slot?
    #[inline]
    pub fn fault_output_blocked(&self, output: usize) -> bool {
        match &self.faults {
            Some(f) => f.output_blocked(output),
            None => false,
        }
    }

    /// Fault query: dead burst-mode receivers at `output` this slot.
    #[inline]
    pub fn fault_receivers_down(&self, output: usize) -> usize {
        match &self.faults {
            Some(f) => f.receivers_down(output),
            None => 0,
        }
    }

    /// Fault query: is wavelength plane / middle-stage `plane` down?
    #[inline]
    pub fn fault_plane_down(&self, plane: usize) -> bool {
        match &self.faults {
            Some(f) => f.plane_down(plane),
            None => false,
        }
    }

    /// Fault draw: was this issued grant lost in the control channel?
    /// Call once per grant.
    #[inline]
    pub fn fault_grant_lost(&mut self, input: usize, output: usize) -> bool {
        match &mut self.faults {
            Some(f) => f.grant_lost(input, output),
            None => false,
        }
    }

    /// Fault draw: was this credit return toward (`node`, `port`) lost?
    /// Call once per credit.
    #[inline]
    pub fn fault_credit_dropped(&mut self, node: usize, port: usize) -> bool {
        match &mut self.faults {
            Some(f) => f.credit_dropped(node, port),
            None => false,
        }
    }

    /// Fault draw: was the cell crossing `link` corrupted? Call once per
    /// link traversal.
    #[inline]
    pub fn fault_cell_corrupted(&mut self, link: usize) -> bool {
        match &mut self.faults {
            Some(f) => f.cell_corrupted(link),
            None => false,
        }
    }

    /// Fault query: is `input`'s circuit element stuck on its previous
    /// configuration (mis-reconfigured) this slot? Circuit-switched
    /// models keep the stale circuit lit instead of applying the
    /// scheduled one.
    #[inline]
    pub fn fault_circuit_stuck(&self, input: usize) -> bool {
        match &self.faults {
            Some(f) => f.circuit_stuck(input),
            None => false,
        }
    }

    /// Fault query: is fiber delay line `line` dead this slot? An
    /// FDL-buffered model masks the line out of its placement policy and
    /// runs the affected queue at reduced guaranteed capacity.
    #[inline]
    pub fn fault_delay_line_dead(&self, line: usize) -> bool {
        match &self.faults {
            Some(f) => f.delay_line_dead(line),
            None => false,
        }
    }

    /// Whether a circuit plane (an OCS plan) is attached to this run.
    /// Circuit-switched models gate all their circuit logic on this so
    /// plan-free runs pay one branch per phase at most.
    #[inline]
    pub fn circuits_attached(&self) -> bool {
        self.circuits.is_some()
    }

    /// Circuit query: the output `input`'s circuit illuminates this
    /// slot, or `None` with no plan attached / no circuit this epoch.
    #[inline]
    pub fn circuit_for(&self, input: usize) -> Option<usize> {
        match &self.circuits {
            Some(c) => c.circuit(input),
            None => None,
        }
    }

    /// Circuit query: is the fabric dark because a reconfiguration guard
    /// time is running this slot?
    #[inline]
    pub fn circuit_guard(&self) -> bool {
        match &self.circuits {
            Some(c) => c.in_guard(),
            None => false,
        }
    }

    /// A cell was permanently lost to a fault at `port` (counted both as
    /// a drop and in the fault-loss tally).
    #[inline]
    pub fn cell_lost_to_fault(&mut self, port: usize) {
        if self.measuring {
            self.dropped += 1;
            self.fault_cells_lost += 1;
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_dropped(self.slot, port, DropReason::FaultLoss);
        }
        self.trace(TraceEvent::Drop { port: port as u32 });
    }

    /// A corrupted cell was re-sent over `port`'s hop-by-hop recovery
    /// path this slot.
    #[inline]
    pub fn cell_retransmitted(&mut self, port: usize) {
        if self.measuring {
            self.fault_retransmits += 1;
        }
        if let Some(a) = self.audit.as_mut() {
            a.cell_retransmitted(self.slot, port);
        }
        self.trace(TraceEvent::Retransmit { port: port as u32 });
    }

    /// Whether an audit plane is attached to this run. Models gate their
    /// state-snapshot reporting (scheduler capacities, credit ledgers)
    /// on this so un-audited runs pay one branch per phase at most.
    #[inline]
    pub fn audit_attached(&self) -> bool {
        self.audit.is_some()
    }

    /// Report the scheduler's legal grant capacity for `output` this
    /// slot to an attached auditor (capacity-legality invariant).
    #[inline]
    pub fn audit_output_capacity(&mut self, output: usize, capacity: usize) {
        if let Some(a) = self.audit.as_mut() {
            a.output_capacity(self.slot, output, capacity);
        }
    }

    /// Report one link's credit-flow-control ledger snapshot to an
    /// attached auditor (credit-conservation invariant).
    #[inline]
    pub fn audit_credit_link(&mut self, node: usize, port: usize, ledger: CreditLedger) {
        if let Some(a) = self.audit.as_mut() {
            a.credit_link(self.slot, node, port, ledger);
        }
    }

    /// Report one FDL queue's cell-conservation ledger snapshot to an
    /// attached auditor (`pushed == popped + dropped + resident`).
    #[inline]
    pub fn audit_fdl_ledger(
        &mut self,
        queue: usize,
        pushed: u64,
        popped: u64,
        dropped: u64,
        resident: u64,
    ) {
        if let Some(a) = self.audit.as_mut() {
            a.fdl_ledger(self.slot, queue, pushed, popped, dropped, resident);
        }
    }

    /// Track the deepest ingress-side queue.
    #[inline]
    pub fn note_queue_depth(&mut self, depth: usize) {
        if depth > self.max_queue_depth {
            self.max_queue_depth = depth;
        }
    }

    /// Track the deepest egress queue.
    #[inline]
    pub fn note_egress_depth(&mut self, depth: usize) {
        if depth > self.max_egress_depth {
            self.max_egress_depth = depth;
        }
    }

    /// Emit a raw trace event. Compiles to nothing when the sink is
    /// disabled.
    #[inline]
    pub fn trace(&mut self, event: TraceEvent) {
        if T::ENABLED {
            self.sink.event(self.slot, event);
        }
    }

    /// Finalize into a report, handing the sink borrow back so the caller
    /// can deliver the [`TraceSink::run_end`] notification.
    fn into_report(self, ports: usize, measured_slots: u64) -> (EngineReport, &'a mut T) {
        let denom = (measured_slots as f64 * ports as f64).max(1.0);
        let mut report = EngineReport {
            offered_load: (self.injected + self.dropped) as f64 / denom,
            throughput: self.delivered as f64 / denom,
            mean_delay: self.delay_hist.mean(),
            p99_delay: self.delay_hist.quantile(0.99),
            mean_request_grant: self.grant_hist.mean(),
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            reordered: 0,
            max_queue_depth: self.max_queue_depth,
            max_egress_depth: self.max_egress_depth,
            measured_slots,
            delay_hist: self.delay_hist,
            grant_hist: self.grant_hist,
            extra: Vec::new(),
        };
        // Full tail quantiles as extras (the `p99_delay` field predates
        // them and stays). Derived purely from the delay histogram, so
        // they are identical across plain/faulted/audited/traced runs.
        for (name, q) in [
            ("delay_p50", 0.5),
            ("delay_p95", 0.95),
            ("delay_p99", 0.99),
            ("delay_p999", 0.999),
        ] {
            if let Some(v) = report.delay_hist.quantile(q) {
                report.set_extra(name, v);
            }
        }
        (report, self.sink)
    }
}

/// The per-cycle hooks a slotted simulator implements to run on the
/// engine.
///
/// Per slot the engine calls [`arbitrate`](SlottedModel::arbitrate),
/// [`deliver`](SlottedModel::deliver), then [`inject`](SlottedModel::inject)
/// (see the module docs for why injection comes last). Models that are
/// driven by an external traffic generator usually implement the
/// `CellSwitch` trait in `osmosis-switch` instead and run through its
/// `Driven` adapter, which implements this trait; self-driven models
/// (e.g. the multicast switch) implement it directly.
pub trait SlottedModel {
    /// Number of edge ports — the throughput normalization denominator.
    fn ports(&self) -> usize;

    /// Apply run-level configuration (buffer capacity, seed) before the
    /// first slot. The default ignores the config.
    fn configure(&mut self, _cfg: &EngineConfig) {}

    /// Phase 1: arbitration and crossbar/internal transfers.
    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>);

    /// Phase 2: egress transmission toward hosts.
    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>);

    /// Phase 3: this slot's new arrivals enter ingress queues.
    fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>);

    /// Post-run hook: set `reordered`, model-specific `extra` metrics, or
    /// override the engine-computed aggregate fields.
    fn finish(&mut self, _report: &mut EngineReport) {}

    /// Cells still queued or in flight inside the model at the run
    /// horizon, when the model can count them. Models that report
    /// `Some` let an attached auditor close the global conservation
    /// ledger exactly: `injected == delivered + dropped + resident`.
    fn resident_cells(&self) -> Option<u64> {
        None
    }
}

/// Run `model` over `cfg`'s window, streaming trace events into `sink`.
pub fn run<M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &mut T,
) -> EngineReport {
    run_inner(model, cfg, sink, None, None, None)
}

/// Run `model` with a fault plane attached: `faults` is configured from
/// the run seed, advanced every slot, and consulted by the model through
/// the observer's `fault_*` methods.
///
/// A vacuous view (empty fault plan) is *not* attached, so the run — and
/// its report fingerprint — is bit-identical to [`run`].
pub fn run_faulted<M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &mut T,
    faults: &mut dyn FaultView,
) -> EngineReport {
    run_instrumented(model, cfg, sink, Some(faults), None)
}

/// Run `model` with an invariant-audit plane attached: `audit` receives
/// every accounting event (warm-up included) plus model state snapshots,
/// and finalizes into the report in `end_run`.
pub fn run_audited<M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &mut T,
    audit: &mut dyn Auditor,
) -> EngineReport {
    run_inner(model, cfg, sink, None, None, Some(audit))
}

/// The general packet-switched entry point: optional fault plane,
/// optional audit plane, no circuit plane. A vacuous fault view is not
/// attached (as in [`run_faulted`]); with both planes `None` this is
/// exactly [`run`].
pub fn run_instrumented<M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &mut T,
    faults: Option<&mut dyn FaultView>,
    audit: Option<&mut dyn Auditor>,
) -> EngineReport {
    run_circuit_switched(model, cfg, sink, &mut NullCircuits, faults, audit)
}

/// Run `model` with a circuit plane (an OCS plan) attached, plus optional
/// fault and audit planes — the circuit-switched operating mode's entry
/// point, and the one place vacuous planes are dropped.
///
/// A vacuous circuit view (empty plan) is *not* attached, and a vacuous
/// fault view is dropped as in [`run_faulted`]; with a vacuous circuit
/// plan and both other planes `None` this is bit-identical to [`run`]
/// (pinned by `tests/fingerprint_pins.rs`).
pub fn run_circuit_switched<M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &mut T,
    circuits: &mut dyn CircuitView,
    faults: Option<&mut dyn FaultView>,
    audit: Option<&mut dyn Auditor>,
) -> EngineReport {
    circuits.configure(cfg, model.ports());
    let circuits = (!circuits.is_vacuous()).then_some(circuits);
    let faults = faults.and_then(|f| {
        f.configure(cfg);
        (!f.is_vacuous()).then_some(f)
    });
    // The casts reborrow each plane down to the observer's (shorter)
    // unified lifetime.
    run_inner(
        model,
        cfg,
        sink,
        faults.map(|f| f as &mut dyn FaultView),
        circuits.map(|c| c as &mut dyn CircuitView),
        audit.map(|a| a as &mut dyn Auditor),
    )
}

fn run_inner<'a, M: SlottedModel + ?Sized, T: TraceSink>(
    model: &mut M,
    cfg: &EngineConfig,
    sink: &'a mut T,
    faults: Option<&'a mut dyn FaultView>,
    circuits: Option<&'a mut dyn CircuitView>,
    audit: Option<&'a mut dyn Auditor>,
) -> EngineReport {
    model.configure(cfg);
    let ports = model.ports();
    let total_slots = cfg.warmup_slots + cfg.measure_slots;
    // Supervised sweeps bound each job by a slot budget; an over-budget
    // window aborts deterministically before the first slot runs.
    crate::sweep::watchdog::charge(total_slots);
    if T::ENABLED {
        sink.run_begin(cfg, ports);
    }
    let mut obs = Observer::new(cfg, sink);
    obs.faults = faults;
    obs.circuits = circuits;
    if let Some(a) = audit {
        a.configure(cfg, ports);
        obs.audit = Some(a);
    }
    for t in 0..total_slots {
        obs.begin_slot(t);
        model.arbitrate(t, &mut obs);
        model.deliver(t, &mut obs);
        model.inject(t, &mut obs);
    }
    crate::sweep::watchdog::consume(total_slots);
    let resident = model.resident_cells();
    let fault_cells_lost = obs.fault_cells_lost;
    let fault_retransmits = obs.fault_retransmits;
    let drops_rejected = obs.drops_rejected;
    let drops_buffer_full = obs.drops_buffer_full;
    let faults = obs.faults.take();
    let circuits = obs.circuits.take();
    let audit = obs.audit.take();
    let (mut report, sink) = obs.into_report(ports, cfg.measure_slots);
    model.finish(&mut report);
    // Per-reason drop attribution is attachment-independent (set purely
    // from model behaviour), so audited and un-audited runs fingerprint
    // identically.
    if drops_rejected > 0 {
        report.set_extra("drops_rejected", drops_rejected as f64);
    }
    if drops_buffer_full > 0 {
        report.set_extra("drops_buffer_full", drops_buffer_full as f64);
    }
    if let Some(f) = faults {
        report.set_extra("fault_cells_lost", fault_cells_lost as f64);
        report.set_extra("fault_retransmits", fault_retransmits as f64);
        f.finish(&mut report);
    }
    if let Some(c) = circuits {
        c.finish(&mut report);
    }
    if let Some(a) = audit {
        a.end_run(resident, &mut report);
    }
    if T::ENABLED {
        sink.run_end(&report);
    }
    report
}

/// Run `model` with tracing disabled — the common case.
pub fn run_model<M: SlottedModel + ?Sized>(model: &mut M, cfg: &EngineConfig) -> EngineReport {
    run(model, cfg, &mut NullTrace)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-server queue fed by a deterministic on/off source: inject
    /// one cell per slot while `slot % period < duty`, serve one per slot.
    struct ToyQueue {
        period: u64,
        duty: u64,
        queue: std::collections::VecDeque<u64>,
        served: u64,
    }

    impl ToyQueue {
        fn new(period: u64, duty: u64) -> Self {
            ToyQueue {
                period,
                duty,
                queue: std::collections::VecDeque::new(),
                served: 0,
            }
        }
    }

    impl SlottedModel for ToyQueue {
        fn ports(&self) -> usize {
            1
        }

        fn arbitrate<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
            if let Some(&inject_slot) = self.queue.front() {
                obs.cell_granted(0, 0, inject_slot);
            }
        }

        fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
            if let Some(inject_slot) = self.queue.pop_front() {
                obs.cell_delivered(0, inject_slot);
                self.served += 1;
            }
        }

        fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
            if slot % self.period < self.duty {
                self.queue.push_back(slot);
                obs.cell_injected(0, 0);
                obs.note_queue_depth(self.queue.len());
            }
        }

        fn finish(&mut self, report: &mut EngineReport) {
            report.set_extra("served_total", self.served as f64);
        }
    }

    #[test]
    fn window_accounting_matches_hand_count() {
        // Duty 1/2: one cell every other... rather, slots 0 of each
        // 2-period inject; queue never builds; delay is deterministic.
        let cfg = EngineConfig::new(10, 100);
        let r = run_model(&mut ToyQueue::new(2, 1), &cfg);
        assert_eq!(r.injected, 50, "half the 100 measured slots inject");
        assert_eq!(r.measured_slots, 100);
        assert!((r.throughput - 0.5).abs() < 0.02);
        assert!((r.offered_load - 0.5).abs() < 0.02);
        assert_eq!(r.dropped, 0);
        // Injection is the last phase of a slot, so a cell is served in
        // the following slot: delay is exactly 1.
        assert!((r.mean_delay - 1.0).abs() < 1e-12, "{}", r.mean_delay);
        assert_eq!(r.extra("served_total"), Some(r.delivered as f64 + 5.0));
        assert_eq!(r.extra("missing"), None);
    }

    #[test]
    fn warmup_gates_stats_but_not_throughput() {
        // Saturated source: the warm-up backlog drains during
        // measurement; delivered counts them, delay stats exclude them.
        let cfg = EngineConfig::new(50, 200);
        let r = run_model(&mut ToyQueue::new(1, 1), &cfg);
        assert_eq!(r.delivered, 200, "server busy every measured slot");
        assert!(
            r.delay_hist.count() < r.delivered,
            "warm-up cells excluded from delay stats"
        );
    }

    #[test]
    fn fingerprint_is_identical_across_reruns_and_sensitive_to_change() {
        let cfg = EngineConfig::new(10, 200);
        let a = run_model(&mut ToyQueue::new(3, 2), &cfg);
        let b = run_model(&mut ToyQueue::new(3, 2), &cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_model(&mut ToyQueue::new(3, 1), &cfg);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The fingerprint covers extras too.
        let mut d = run_model(&mut ToyQueue::new(3, 2), &cfg);
        d.set_extra("tweak", 1.0);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn trace_sinks_see_the_event_stream_without_perturbing_results() {
        let cfg = EngineConfig::new(5, 50);
        let quiet = run_model(&mut ToyQueue::new(2, 1), &cfg);

        let mut counting = CountingTrace::default();
        let traced = run(&mut ToyQueue::new(2, 1), &cfg, &mut counting);
        assert_eq!(quiet.fingerprint(), traced.fingerprint());
        // The sink saw warm-up events too (slots 0..55 → 28 injections).
        assert_eq!(counting.injects, 28);
        assert_eq!(counting.delivers, counting.injects - 1);
        assert_eq!(counting.drops, 0);

        let mut vec_sink = VecTrace::default();
        run(&mut ToyQueue::new(2, 1), &cfg, &mut vec_sink);
        assert_eq!(
            vec_sink.events.len() as u64,
            counting.injects + counting.grants + counting.delivers
        );
        assert!(matches!(
            vec_sink.events[0],
            (0, TraceEvent::Inject { src: 0, dst: 0 })
        ));
    }

    #[test]
    fn vacuous_fault_view_leaves_the_run_bit_identical() {
        use crate::fault::NullFaults;
        let cfg = EngineConfig::new(10, 200);
        let plain = run_model(&mut ToyQueue::new(3, 2), &cfg);
        let faulted = run_faulted(
            &mut ToyQueue::new(3, 2),
            &cfg,
            &mut NullTrace,
            &mut NullFaults,
        );
        assert_eq!(plain.fingerprint(), faulted.fingerprint());
        assert_eq!(faulted.extra("fault_cells_lost"), None, "no fault extras");
    }

    #[test]
    fn non_vacuous_fault_view_is_driven_and_surfaces_extras() {
        use crate::fault::FaultView;

        /// Blocks output 0 from slot 50 and counts the queries it saw.
        #[derive(Default)]
        struct Probe {
            slots_seen: u64,
            queries: u64,
            finished: bool,
        }
        impl FaultView for Probe {
            fn begin_slot(&mut self, _slot: u64) {
                self.slots_seen += 1;
            }
            fn is_vacuous(&self) -> bool {
                false
            }
            fn output_blocked(&self, _output: usize) -> bool {
                true
            }
            fn finish(&mut self, report: &mut EngineReport) {
                report.set_extra("probe_finished", 1.0);
                self.finished = true;
            }
        }

        /// A model that stalls whenever its output is blocked.
        struct Gated {
            queue: std::collections::VecDeque<u64>,
        }
        impl SlottedModel for Gated {
            fn ports(&self) -> usize {
                1
            }
            fn arbitrate<T: TraceSink>(&mut self, _slot: u64, _obs: &mut Observer<'_, T>) {}
            fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
                if obs.faults_attached() && obs.fault_output_blocked(0) {
                    return;
                }
                if let Some(inject_slot) = self.queue.pop_front() {
                    obs.cell_delivered(0, inject_slot);
                }
            }
            fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
                obs.cell_injected(0, 0);
                self.queue.push_back(slot);
            }
        }

        let cfg = EngineConfig::new(0, 100);
        let mut probe = Probe::default();
        let r = run_faulted(
            &mut Gated {
                queue: Default::default(),
            },
            &cfg,
            &mut NullTrace,
            &mut probe,
        );
        assert_eq!(probe.slots_seen, 100, "begin_slot driven every slot");
        assert!(probe.finished);
        let _ = probe.queries;
        assert_eq!(r.delivered, 0, "output stayed blocked");
        assert_eq!(r.extra("probe_finished"), Some(1.0));
        assert_eq!(r.extra("fault_cells_lost"), Some(0.0));
        assert_eq!(r.extra("fault_retransmits"), Some(0.0));
    }

    #[test]
    fn buffer_cells_and_seed_flow_through_configure() {
        struct Probe {
            seen: Option<(u64, Option<usize>)>,
        }
        impl SlottedModel for Probe {
            fn ports(&self) -> usize {
                1
            }
            fn configure(&mut self, cfg: &EngineConfig) {
                self.seen = Some((cfg.seed, cfg.buffer_cells));
            }
            fn arbitrate<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
            fn deliver<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
            fn inject<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
        }
        let mut p = Probe { seen: None };
        let cfg = EngineConfig::new(0, 1).with_seed(7).with_buffer_cells(16);
        run_model(&mut p, &cfg);
        assert_eq!(p.seen, Some((7, Some(16))));
    }

    #[test]
    fn ring_trace_keeps_only_the_recent_window() {
        let cfg = EngineConfig::new(5, 50);
        let mut full = VecTrace::default();
        run(&mut ToyQueue::new(2, 1), &cfg, &mut full);

        let mut ring = RingTrace::new(10);
        let quiet = run_model(&mut ToyQueue::new(2, 1), &cfg);
        let ringed = run(&mut ToyQueue::new(2, 1), &cfg, &mut ring);
        assert_eq!(quiet.fingerprint(), ringed.fingerprint());
        assert_eq!(ring.seen() as usize, full.events.len());
        assert_eq!(ring.len(), 10);
        // The window is exactly the tail of the full trace.
        let tail = &full.events[full.events.len() - 10..];
        let window: Vec<_> = ring.events().copied().collect();
        assert_eq!(window, tail);

        let mut empty = RingTrace::new(0);
        run(&mut ToyQueue::new(2, 1), &cfg, &mut empty);
        assert!(empty.is_empty());
        assert_eq!(empty.seen() as usize, full.events.len());
    }

    #[test]
    fn sink_lifecycle_hooks_fire_in_order() {
        #[derive(Default)]
        struct Lifecycle {
            began: Option<(u64, usize)>,
            slots: u64,
            events_before_begin: bool,
            ended: Option<u64>,
        }
        impl TraceSink for Lifecycle {
            fn event(&mut self, _slot: u64, _event: TraceEvent) {
                if self.began.is_none() {
                    self.events_before_begin = true;
                }
            }
            fn run_begin(&mut self, cfg: &EngineConfig, ports: usize) {
                self.began = Some((cfg.warmup_slots, ports));
            }
            fn begin_slot(&mut self, _slot: u64) {
                self.slots += 1;
            }
            fn run_end(&mut self, report: &EngineReport) {
                self.ended = Some(report.delivered);
            }
        }
        let cfg = EngineConfig::new(5, 50);
        let mut sink = Lifecycle::default();
        let r = run(&mut ToyQueue::new(2, 1), &cfg, &mut sink);
        assert_eq!(sink.began, Some((5, 1)));
        assert!(!sink.events_before_begin, "run_begin precedes all events");
        assert_eq!(sink.slots, 55, "begin_slot fires warmup slots included");
        assert_eq!(sink.ended, Some(r.delivered), "run_end sees final report");
    }

    #[test]
    fn tail_quantile_extras_cover_the_delay_distribution() {
        let cfg = EngineConfig::new(10, 200);
        let r = run_model(&mut ToyQueue::new(2, 1), &cfg);
        // Constant delay 1: every quantile of the distribution sits in
        // the first bucket above it.
        for name in ["delay_p50", "delay_p95", "delay_p99", "delay_p999"] {
            let v = r.extra(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!((1.0..=2.0).contains(&v), "{name} = {v}");
        }
        assert_eq!(r.extra("delay_p99"), r.p99_delay, "extra matches field");
    }
}
