//! Bench-side timing wrappers around the public model traits.
//!
//! `TimedTraffic` wraps a `TrafficGen`, `TimedSched` a boxed
//! `CellScheduler` and `PhaseTimed` a `CellSwitch`. Each forwards every
//! call unchanged and stamps its span into one shared [`Trace`], so the
//! wall clock stays in the benchmark and never enters a model crate. The
//! wrapped run is bit-identical to the bare one (tested below).
//!
//! Span tree per slot (the engine calls arbitrate, deliver, inject):
//!
//! ```text
//! run ─ slot ─┬─ arbitrate ── sched.tick
//!             ├─ deliver
//!             └─ inject ─┬─ traffic.arrivals
//!                        └─ admit ── sched.note_arrival × cells
//! ```
//!
//! A span's self time is its duration minus its children's.

use osmosis_sched::{CellScheduler, Matching};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::CellSwitch;
use osmosis_traffic::{Arrival, TrafficGen};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// The spans and counts of one slot, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotSpans {
    /// Start of the slot's arbitrate span, since the run began.
    pub start_ns: u64,
    pub arbitrate_ns: u32,
    /// `sched.tick`, a child of arbitrate.
    pub tick_ns: u32,
    pub deliver_ns: u32,
    /// `traffic.arrivals`, a child of inject.
    pub arrivals_ns: u32,
    /// `admit`, a child of inject.
    pub admit_ns: u32,
    /// Sum of the slot's `sched.note_arrival` spans, children of admit.
    pub note_ns: u32,
    /// Cells the generator produced this slot.
    pub cells: u32,
    /// Pairs in the slot's matching.
    pub grants: u32,
}

/// Preallocated per-slot columns shared by the three wrappers of a run.
pub struct Trace {
    origin: Instant,
    pub slots: Vec<SlotSpans>,
}

pub type SharedTrace = Rc<RefCell<Trace>>;

impl Trace {
    /// Columns for a run of `total_slots`, allocated and touched up front
    /// so recording never allocates inside the timed run.
    pub fn shared(total_slots: u64) -> SharedTrace {
        Rc::new(RefCell::new(Trace {
            origin: Instant::now(),
            slots: vec![SlotSpans::default(); total_slots as usize],
        }))
    }

    /// Write one JSON line per slot (after a header line naming the
    /// fields) to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"type\":\"trace\",\"workload\":\"{workload}\",\"slots\":{},\"unit\":\"ns\",\
             \"tree\":\"slot>{{arbitrate>tick,deliver,inject>{{arrivals,admit>note}}}}\"}}",
            self.slots.len()
        )?;
        for (slot, s) in self.slots.iter().enumerate() {
            writeln!(
                out,
                "{{\"slot\":{slot},\"start\":{},\"arbitrate\":{},\"tick\":{},\"deliver\":{},\
                 \"arrivals\":{},\"admit\":{},\"note\":{},\"cells\":{},\"grants\":{}}}",
                s.start_ns,
                s.arbitrate_ns,
                s.tick_ns,
                s.deliver_ns,
                s.arrivals_ns,
                s.admit_ns,
                s.note_ns,
                s.cells,
                s.grants
            )?;
        }
        out.flush()
    }
}

fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Times `arrivals` and counts the cells it produces.
pub struct TimedTraffic<G: TrafficGen> {
    inner: G,
    trace: SharedTrace,
}

impl<G: TrafficGen> TimedTraffic<G> {
    pub fn new(inner: G, trace: SharedTrace) -> Self {
        TimedTraffic { inner, trace }
    }
}

impl<G: TrafficGen> TrafficGen for TimedTraffic<G> {
    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.arrivals(slot, out);
        let ns = ns_since(t);
        let mut trace = self.trace.borrow_mut();
        let s = &mut trace.slots[slot as usize];
        s.arrivals_ns = ns;
        s.cells = (out.len() - before) as u32;
    }
}

/// Times `tick` and every `note_arrival` of the scheduler it boxes.
pub struct TimedSched {
    inner: Box<dyn CellScheduler>,
    trace: SharedTrace,
    /// `note_arrival` carries no slot number; `tick` opens each slot.
    slot: usize,
}

impl TimedSched {
    pub fn new(inner: Box<dyn CellScheduler>, trace: SharedTrace) -> Self {
        TimedSched {
            inner,
            trace,
            slot: 0,
        }
    }
}

impl CellScheduler for TimedSched {
    fn inputs(&self) -> usize {
        self.inner.inputs()
    }

    fn outputs(&self) -> usize {
        self.inner.outputs()
    }

    fn out_capacity(&self) -> usize {
        self.inner.out_capacity()
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        let t = Instant::now();
        self.inner.note_arrival(input, output);
        let ns = ns_since(t);
        let mut trace = self.trace.borrow_mut();
        let s = &mut trace.slots[self.slot];
        s.note_ns = s.note_ns.saturating_add(ns);
    }

    fn tick(&mut self, slot: u64) -> Matching {
        self.slot = slot as usize;
        let t = Instant::now();
        let matching = self.inner.tick(slot);
        let ns = ns_since(t);
        let mut trace = self.trace.borrow_mut();
        let s = &mut trace.slots[self.slot];
        s.tick_ns = ns;
        s.grants = matching.len() as u32;
        matching
    }

    fn set_output_capacity(&mut self, output: usize, cap: usize) {
        self.inner.set_output_capacity(output, cap);
    }

    fn output_capacity(&self, output: usize) -> usize {
        self.inner.output_capacity(output)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times the three phases of the `CellSwitch` it wraps.
pub struct PhaseTimed<S: CellSwitch> {
    inner: S,
    trace: SharedTrace,
}

impl<S: CellSwitch> PhaseTimed<S> {
    pub fn new(inner: S, trace: SharedTrace) -> Self {
        PhaseTimed { inner, trace }
    }
}

impl<S: CellSwitch> CellSwitch for PhaseTimed<S> {
    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.inner.configure(cfg);
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let t = Instant::now();
        self.inner.arbitrate(slot, obs);
        let ns = ns_since(t);
        let mut trace = self.trace.borrow_mut();
        let start_ns = t.duration_since(trace.origin).as_nanos() as u64;
        let s = &mut trace.slots[slot as usize];
        s.start_ns = start_ns;
        s.arbitrate_ns = ns;
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let t = Instant::now();
        self.inner.deliver(slot, obs);
        let ns = ns_since(t);
        self.trace.borrow_mut().slots[slot as usize].deliver_ns = ns;
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        let t = Instant::now();
        self.inner.admit(arrivals, slot, obs);
        let ns = ns_since(t);
        self.trace.borrow_mut().slots[slot as usize].admit_ns = ns;
    }

    fn finish(&mut self, report: &mut EngineReport) {
        self.inner.finish(report);
    }

    fn resident_cells(&self) -> Option<u64> {
        self.inner.resident_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{model_rep, Kind, Probes, Workload};

    fn transparent(kind: Kind) {
        let w = Workload {
            name: "tiny",
            kind,
            probes: Probes::None,
            warmup: 50,
            measure: 400,
        };
        let bare = model_rep(&w, 11, None);
        let trace = Trace::shared(w.warmup + w.measure);
        let wrapped = model_rep(&w, 11, Some(&trace));
        assert_eq!(wrapped.sim, bare.sim, "wrappers must not perturb the run");
        assert!(bare.failures.is_empty(), "{:?}", bare.failures);
        let trace = trace.borrow();
        let cells: u64 = trace.slots.iter().map(|s| u64::from(s.cells)).sum();
        assert!(cells > 0, "the traffic wrapper saw no cells");
        assert!(trace.slots.iter().all(|s| s.arbitrate_ns >= s.tick_ns));
    }

    #[test]
    fn wrapped_switch_run_is_bit_identical() {
        transparent(Kind::Switch {
            ports: 16,
            load: 0.6,
        });
    }

    #[test]
    fn wrapped_fabric_run_is_bit_identical() {
        transparent(Kind::Fabric {
            spec: "fat-tree:radix=8,levels=2,planes=2",
            load: 0.3,
        });
    }
}
