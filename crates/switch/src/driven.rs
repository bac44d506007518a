//! The bridge between traffic-driven simulators and the shared engine.
//!
//! `osmosis-sim`'s [`SlottedModel`] cannot mention
//! [`TrafficGen`] — the traffic crate sits
//! *above* the simulation kernel. Simulators that are fed by an external
//! traffic generator therefore implement the [`CellSwitch`] trait from
//! this module instead; the [`Driven`] adapter pairs a `CellSwitch` with
//! a generator and implements `SlottedModel` for the pair, pulling the
//! slot's arrivals inside the engine's injection phase and handing them
//! to [`CellSwitch::admit`].
//!
//! Fabrics (which depend on this crate) implement `CellSwitch` too, so
//! every traffic-driven simulator in the workspace — single-stage switch
//! or multistage fabric — runs as `Engine::new(&cfg)…run(&mut
//! Driven::new(switch, traffic))`. The six `run_switch*` functions are
//! that call with the planes in a fixed order, kept as one-line forwards
//! for callers that link against them. Self-driven models (the multicast
//! switch, whose workload is internal) implement `SlottedModel` directly.

use osmosis_sim::engine::{Engine, EngineConfig, EngineReport, Observer, SlottedModel, TraceSink};
use osmosis_sim::{Auditor, CircuitView, FaultView};
use osmosis_traffic::{Arrival, TrafficGen};

/// A slotted simulator driven by an external traffic generator.
///
/// The hooks mirror [`SlottedModel`]'s phases; `admit` replaces `inject`
/// and receives the slot's arrivals already drawn from the generator.
pub trait CellSwitch {
    /// Edge port count; must equal the generator's `ports()`.
    fn ports(&self) -> usize;

    /// Apply run-level configuration (buffer depth, seed) and reset
    /// model-specific counters before the first slot.
    fn configure(&mut self, _cfg: &EngineConfig) {}

    /// Phase 1: arbitration and crossbar/internal transfers.
    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>);

    /// Phase 2: egress transmission toward hosts.
    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>);

    /// Phase 3: this slot's arrivals enter the ingress queues.
    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>);

    /// Post-run hook: add model-specific `extra` metrics.
    fn finish(&mut self, _report: &mut EngineReport) {}

    /// Cells still queued or in flight inside the switch, when it can
    /// count them. `Some` lets an attached invariant auditor close the
    /// global conservation ledger exactly:
    /// `injected == delivered + dropped + resident`.
    fn resident_cells(&self) -> Option<u64> {
        None
    }
}

/// Pairs a [`CellSwitch`] with its traffic generator to form a
/// [`SlottedModel`] the engine can run.
pub struct Driven<'a, S: CellSwitch + ?Sized> {
    switch: &'a mut S,
    traffic: &'a mut dyn TrafficGen,
    arrivals: Vec<Arrival>,
}

impl<'a, S: CellSwitch + ?Sized> Driven<'a, S> {
    /// Pair `switch` with `traffic`. Panics on a port-count mismatch.
    pub fn new(switch: &'a mut S, traffic: &'a mut dyn TrafficGen) -> Self {
        assert_eq!(
            traffic.ports(),
            switch.ports(),
            "traffic generator and switch disagree on port count"
        );
        let ports = switch.ports();
        Driven {
            switch,
            traffic,
            arrivals: Vec::with_capacity(ports),
        }
    }
}

impl<S: CellSwitch + ?Sized> SlottedModel for Driven<'_, S> {
    fn ports(&self) -> usize {
        self.switch.ports()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.switch.configure(cfg);
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        self.switch.arbitrate(slot, obs);
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        self.switch.deliver(slot, obs);
    }

    fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        self.arrivals.clear();
        self.traffic.arrivals(slot, &mut self.arrivals);
        self.switch.admit(&self.arrivals, slot, obs);
    }

    fn finish(&mut self, report: &mut EngineReport) {
        self.switch.finish(report);
    }

    fn resident_cells(&self) -> Option<u64> {
        self.switch.resident_cells()
    }
}

/// Run a traffic-driven simulator with tracing disabled.
pub fn run_switch<S: CellSwitch + ?Sized>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
) -> EngineReport {
    Engine::new(cfg).run(&mut Driven::new(switch, traffic))
}

/// Run a traffic-driven simulator, streaming trace events into `sink`.
pub fn run_switch_traced<S: CellSwitch + ?Sized, T: TraceSink>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    sink: &mut T,
) -> EngineReport {
    Engine::new(cfg)
        .trace(sink)
        .run(&mut Driven::new(switch, traffic))
}

/// Run a traffic-driven simulator with an invariant-audit plane.
pub fn run_switch_audited<S: CellSwitch + ?Sized>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    audit: &mut dyn Auditor,
) -> EngineReport {
    Engine::new(cfg)
        .audit(Some(audit))
        .run(&mut Driven::new(switch, traffic))
}

/// Run a traffic-driven simulator with optional fault and audit planes.
pub fn run_switch_instrumented<'a, S: CellSwitch + ?Sized>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    faults: Option<&'a mut dyn FaultView>,
    audit: Option<&'a mut dyn Auditor>,
) -> EngineReport {
    Engine::new(cfg)
        .faults(faults)
        .audit(audit)
        .run(&mut Driven::new(switch, traffic))
}

/// Run a traffic-driven simulator in circuit-switched mode, with
/// optional fault and audit planes.
pub fn run_switch_circuit<'a, S: CellSwitch + ?Sized>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    circuits: &mut dyn CircuitView,
    faults: Option<&'a mut dyn FaultView>,
    audit: Option<&'a mut dyn Auditor>,
) -> EngineReport {
    Engine::new(cfg)
        .circuits(Some(circuits))
        .faults(faults)
        .audit(audit)
        .run(&mut Driven::new(switch, traffic))
}

/// [`run_switch_circuit`] with a trace sink.
pub fn run_switch_circuit_traced<'a, S: CellSwitch + ?Sized, T: TraceSink>(
    switch: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    sink: &mut T,
    circuits: &mut dyn CircuitView,
    faults: Option<&'a mut dyn FaultView>,
    audit: Option<&'a mut dyn Auditor>,
) -> EngineReport {
    Engine::new(cfg)
        .trace(sink)
        .circuits(Some(circuits))
        .faults(faults)
        .audit(audit)
        .run(&mut Driven::new(switch, traffic))
}
