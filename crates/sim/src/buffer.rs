//! The engine-side buffer-plane abstraction.
//!
//! The paper's buffer-placement argument (Fig. 2) takes as given that
//! per-stage buffers are *electronic*: optical buffers "don't exist", so
//! every stage pays an OEO conversion to queue cells. Tang et al.'s
//! fiber-delay-line (FDL) priority-queue construction challenges that
//! premise constructively, and this module defines the seam that lets a
//! multistage model swap its per-stage input buffering between the two
//! technologies without touching the scheduler, flow control, or any of
//! the observation planes:
//!
//! * [`BufferPlane`] — the object-safe per-switch buffering interface: a
//!   bank of per-(input, output) queues with explicit per-slot phases
//!   (`tick` → arrivals `push` → `fill_requests` → matched `pop`s →
//!   `settle`).
//! * [`ElectronicVoq`] — the reference implementation, the VOQ semantics
//!   every input-buffered model in the workspace used before the seam
//!   existed, kept as one arrival-ordered buffer per input. It never
//!   loses a cell and its `tick` / `settle` phases are no-ops, so a
//!   model running on it is bit-identical to the pre-seam code (pinned
//!   by `tests/fingerprint_pins.rs`).
//! * [`BufferLoss`] / [`BufferLossReason`] — typed loss accounting for
//!   implementations (the emulated FDL queue in `osmosis-fdl`) that can
//!   fail to schedule a cell onto any legal delay line.
//!
//! The concrete optical implementation lives in the `osmosis-fdl` crate;
//! this module only defines the interface so the simulation kernel stays
//! dependency-free, exactly as `fault`/`audit`/`circuit` do for their
//! planes.

use std::collections::VecDeque;

/// Why a buffer plane lost a cell it was asked to store.
///
/// [`ElectronicVoq`] never loses cells (credit flow control upstream of
/// it guarantees space); these reasons exist for emulated optical
/// buffers, where storage is a bank of fixed-length delay lines and a
/// cell that cannot be scheduled onto any legal line has nowhere
/// physical to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferLossReason {
    /// The arrival was refused because the queue already holds its
    /// guaranteed capacity (the provable emulation bound).
    AdmissionFull,
    /// A stored cell emerged from its delay line, was not served, and no
    /// alive delay line of legal length could accept it this slot.
    NoFeasibleLine,
    /// As [`NoFeasibleLine`](BufferLossReason::NoFeasibleLine), but a
    /// currently *dead* line would have been legal — the loss is
    /// attributable to the delay-line fault.
    DeadLine,
}

impl BufferLossReason {
    /// Short stable label (telemetry record field, report extras).
    pub fn name(self) -> &'static str {
        match self {
            BufferLossReason::AdmissionFull => "admission_full",
            BufferLossReason::NoFeasibleLine => "no_feasible_line",
            BufferLossReason::DeadLine => "dead_line",
        }
    }
}

/// One cell a buffer plane could not keep, surfaced by
/// [`BufferPlane::take_losses`] after each `settle` so the owning model
/// can drop it through its accounting (and return flow-control credit
/// upstream — the cell *was* admitted into the stage).
#[derive(Debug, Clone)]
pub struct BufferLoss<C> {
    /// Input port of the queue that lost the cell.
    pub input: usize,
    /// Output port the cell was routed toward.
    pub output: usize,
    /// Why it was lost.
    pub reason: BufferLossReason,
    /// The cell itself, for attribution (source, flow) at the drop site.
    pub cell: C,
}

/// Cumulative counters a buffer plane maintains across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Cells accepted into the plane.
    pub pushed: u64,
    /// Cells handed to the matching (served).
    pub popped: u64,
    /// Cells lost, all reasons combined.
    pub dropped: u64,
    /// Cells lost at admission ([`BufferLossReason::AdmissionFull`]).
    pub dropped_admission: u64,
    /// Cells lost to infeasible placement
    /// ([`BufferLossReason::NoFeasibleLine`]).
    pub dropped_infeasible: u64,
    /// Cells lost to dead delay lines ([`BufferLossReason::DeadLine`]).
    pub dropped_dead_line: u64,
    /// Emerged-but-unserved cells re-entered into a delay line
    /// (always 0 for electronic buffering).
    pub recirculations: u64,
    /// Slots in which the next cell due for service was still in fiber
    /// (always 0 for electronic buffering).
    pub underflow_stalls: u64,
}

/// A bank of per-switch input buffers, pluggable under an input-buffered
/// model — electronic VOQs or an emulated optical FDL queue.
///
/// # Per-slot protocol
///
/// The owning model drives one full cycle per slot, in order:
///
/// 1. [`tick`](BufferPlane::tick) — delay-line emergences become visible
///    (no-op for electronic buffers);
/// 2. [`push`](BufferPlane::push) — this slot's link arrivals enter;
/// 3. [`fill_requests`](BufferPlane::fill_requests) — one call hands the
///    matching every (input, output) pair with a visible cell, then
///    [`pop`](BufferPlane::pop) executes each matched pair;
/// 4. [`settle`](BufferPlane::settle) — unserved emerged cells and new
///    arrivals are committed to storage (recirculated into delay lines);
///    infeasible cells become losses;
/// 5. [`take_losses`](BufferPlane::take_losses) — the model collects and
///    accounts this slot's losses.
///
/// Implementations must be deterministic: no wall-clock, no ambient
/// randomness, iteration in index order only.
pub trait BufferPlane<C> {
    /// Start slot `slot`: make delay-line emergences visible. Electronic
    /// buffers do nothing.
    fn tick(&mut self, _slot: u64) {}

    /// A cell routed to `output` arrives at `input` in slot `slot`,
    /// becoming schedulable at `ready` (the model's request/grant
    /// latency; electronic buffers honour it exactly, delay lines
    /// quantize it up to their shortest line).
    fn push(&mut self, slot: u64, input: usize, output: usize, ready: u64, cell: C);

    /// Overwrite the matching's request masks with the pairs that can
    /// offer a cell in slot `slot`. With `words = requested.len()`
    /// (the port count in 64-bit words), bit `i` of
    /// `requests[o * words + i / 64]` says input `i` requests output
    /// `o`, and bit `o` of `requested` says output `o` has any request.
    /// The masks hold until the slot's first [`pop`](BufferPlane::pop).
    fn fill_requests(&self, slot: u64, requests: &mut [u64], requested: &mut [u64]);

    /// Remove and return the cell `(input, output)` offered this slot.
    /// Returns `None` when [`fill_requests`](BufferPlane::fill_requests)
    /// did not offer the pair.
    fn pop(&mut self, slot: u64, input: usize, output: usize) -> Option<C>;

    /// End slot `slot`: commit unserved emerged cells and new arrivals
    /// back into storage. Electronic buffers do nothing.
    fn settle(&mut self, _slot: u64) {}

    /// Cells currently stored at `input` (the occupancy the credit loop
    /// protects).
    fn occupancy(&self, input: usize) -> usize;

    /// Cells currently stored across all inputs.
    fn total(&self) -> usize;

    /// Drain the losses recorded since the last call (empty for
    /// electronic buffers).
    fn take_losses(&mut self) -> Vec<BufferLoss<C>> {
        Vec::new()
    }

    /// Cumulative counters for reporting and conservation auditing.
    fn stats(&self) -> BufferStats;

    /// Re-arm the plane for a different per-input capacity (engine-level
    /// buffer override, pre-run only). Electronic buffers are unbounded
    /// here — the credit loop enforces capacity — so the default is a
    /// no-op.
    fn reconfigure(&mut self, _capacity: usize) {}

    /// Mark delay line `line` (plane-local index:
    /// `input * lines_per_queue() + local`) dead or alive. Dead lines
    /// accept no new cells; cells already in the fiber still emerge.
    /// No-op for electronic buffers.
    fn set_line_dead(&mut self, _line: usize, _dead: bool) {}

    /// Delay lines per input queue (0 for electronic buffers — the
    /// model uses this to decide whether delay-line faults apply).
    fn lines_per_queue(&self) -> usize {
        0
    }

    /// Per-input cell-conservation ledger
    /// `(pushed, popped, dropped, resident)` for audit reporting, or
    /// `None` when the plane does not keep per-queue ledgers (electronic
    /// buffers — their conservation is covered by the credit ledger).
    fn queue_ledger(&self, _input: usize) -> Option<(u64, u64, u64, u64)> {
        None
    }
}

/// Raise the request bit of `(input, output)` in masks laid out as
/// [`BufferPlane::fill_requests`] describes.
#[inline]
pub fn set_request(requests: &mut [u64], requested: &mut [u64], input: usize, output: usize) {
    let words = requested.len();
    requests[output * words + input / 64] |= 1 << (input % 64);
    requested[output / 64] |= 1 << (output % 64);
}

/// The electronic reference implementation: virtual output queues, the
/// structure the multistage fabric used before the buffer plane existed.
/// Each input keeps one buffer of `(ready_slot, output, cell)` in arrival
/// order (the layout `CompiledFabric` uses); the queue of `(input,
/// output)` is that buffer's entries tagged `output`. `ready` slots must
/// not decrease from one push at an input to the next — every caller
/// stamps `now + constant` — so the ready cells are a prefix of the
/// buffer and a pair's head is ready exactly when any of its cells is.
/// Never loses a cell; `tick`/`settle` are no-ops.
#[derive(Debug, Clone)]
pub struct ElectronicVoq<C> {
    inputs: Vec<VecDeque<(u64, usize, C)>>,
    pushed: u64,
    popped: u64,
}

impl<C> ElectronicVoq<C> {
    /// A VOQ bank for a `ports`-port switch.
    pub fn new(ports: usize) -> Self {
        ElectronicVoq {
            inputs: (0..ports).map(|_| VecDeque::new()).collect(),
            pushed: 0,
            popped: 0,
        }
    }
}

impl<C> BufferPlane<C> for ElectronicVoq<C> {
    fn push(&mut self, _slot: u64, input: usize, output: usize, ready: u64, cell: C) {
        let buffer = &mut self.inputs[input];
        debug_assert!(
            buffer.back().is_none_or(|&(last, _, _)| last <= ready),
            "ready slots must not decrease at an input"
        );
        self.pushed += 1;
        buffer.push_back((ready, output, cell));
    }

    fn fill_requests(&self, slot: u64, requests: &mut [u64], requested: &mut [u64]) {
        requests.fill(0);
        requested.fill(0);
        for (input, buffer) in self.inputs.iter().enumerate() {
            for &(_, output, _) in buffer.iter().take_while(|&&(ready, _, _)| ready <= slot) {
                set_request(requests, requested, input, output);
            }
        }
    }

    fn pop(&mut self, _slot: u64, input: usize, output: usize) -> Option<C> {
        let buffer = &mut self.inputs[input];
        let oldest = buffer.iter().position(|&(_, o, _)| o == output)?;
        let (_, _, cell) = buffer.remove(oldest)?;
        self.popped += 1;
        Some(cell)
    }

    fn occupancy(&self, input: usize) -> usize {
        self.inputs[input].len()
    }

    fn total(&self) -> usize {
        self.inputs.iter().map(|buffer| buffer.len()).sum()
    }

    fn stats(&self) -> BufferStats {
        BufferStats {
            pushed: self.pushed,
            popped: self.popped,
            ..BufferStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `(input, output)` pairs `plane` offers in slot `slot`, read
    /// back bit by bit from the masks one `fill_requests` call wrote.
    fn offered<C>(plane: &dyn BufferPlane<C>, slot: u64, ports: usize) -> Vec<(usize, usize)> {
        let words = ports.div_ceil(64);
        // Stale bits everywhere: the fill must overwrite, not accumulate.
        let mut requests = vec![u64::MAX; ports * words];
        let mut requested = vec![u64::MAX; words];
        plane.fill_requests(slot, &mut requests, &mut requested);
        let bit = |mask: &[u64], b: usize| mask[b / 64] >> (b % 64) & 1 == 1;
        let clean = |mask: &[u64]| !(ports..words * 64).any(|b| bit(mask, b));
        assert!(clean(&requested), "summary bit beyond port {ports}");
        let mut pairs = Vec::new();
        for o in 0..ports {
            let column = &requests[o * words..(o + 1) * words];
            assert!(clean(column), "request bit beyond port {ports}");
            let inputs = (0..ports).filter(|&i| bit(column, i));
            pairs.extend(inputs.map(|i| (i, o)));
            let any = column.iter().any(|&w| w != 0);
            assert_eq!(bit(&requested, o), any, "summary bit {o}");
        }
        pairs.sort_unstable();
        pairs
    }

    /// The layout the flat buffer replaced, kept as the oracle: one
    /// `VecDeque` of `(ready, cell)` per (input, output) pair.
    struct PairVoq {
        ports: usize,
        queues: Vec<VecDeque<(u64, u32)>>,
    }

    impl PairVoq {
        fn new(ports: usize) -> Self {
            PairVoq {
                ports,
                queues: (0..ports * ports).map(|_| VecDeque::new()).collect(),
            }
        }

        fn push(&mut self, input: usize, output: usize, ready: u64, cell: u32) {
            self.queues[input * self.ports + output].push_back((ready, cell));
        }

        fn ready(&self, slot: u64, input: usize, output: usize) -> bool {
            self.queues[input * self.ports + output]
                .front()
                .is_some_and(|&(ready, _)| ready <= slot)
        }

        fn ready_pairs(&self, slot: u64) -> Vec<(usize, usize)> {
            let n = self.ports;
            let all = (0..n).flat_map(|i| (0..n).map(move |o| (i, o)));
            all.filter(|&(i, o)| self.ready(slot, i, o)).collect()
        }

        fn pop(&mut self, input: usize, output: usize) -> Option<u32> {
            let (_, cell) = self.queues[input * self.ports + output].pop_front()?;
            Some(cell)
        }

        fn occupancy(&self, input: usize) -> usize {
            let row = &self.queues[input * self.ports..(input + 1) * self.ports];
            row.iter().map(|q| q.len()).sum()
        }
    }

    #[test]
    fn electronic_voq_is_fifo_per_pair_and_gates_on_ready() {
        let mut v: ElectronicVoq<u32> = ElectronicVoq::new(2);
        v.tick(0);
        v.push(0, 0, 1, 1, 10);
        v.push(0, 0, 1, 1, 11);
        v.push(0, 1, 0, 2, 20);
        v.settle(0);
        assert_eq!(offered(&v, 0, 2), [], "not schedulable before ready");
        assert_eq!(offered(&v, 1, 2), [(0, 1)], "ready slot 2 not reached");
        assert_eq!(offered(&v, 2, 2), [(0, 1), (1, 0)]);
        assert_eq!(v.occupancy(0), 2);
        assert_eq!(v.total(), 3);
        assert_eq!(v.pop(1, 0, 1), Some(10), "FIFO within the pair");
        assert_eq!(v.pop(1, 0, 1), Some(11));
        assert_eq!(v.pop(1, 0, 1), None);
        assert_eq!(v.occupancy(0), 0);
        assert!(v.take_losses().is_empty(), "electronic buffers never lose");
        let s = v.stats();
        assert_eq!((s.pushed, s.popped, s.dropped), (3, 2, 0));
        assert_eq!(s.recirculations, 0);
    }

    #[test]
    fn interleaved_outputs_keep_per_pair_fifo() {
        let mut v: ElectronicVoq<u32> = ElectronicVoq::new(8);
        // Input 2 holds cells 0..6 for outputs 5, 6, 5, 7, 6, 5.
        for (id, out) in [5, 6, 5, 7, 6, 5].into_iter().enumerate() {
            v.push(0, 2, out, 1, id as u32);
        }
        // (output asked for, cell it must yield, outputs still offered)
        let script: [(usize, u32, &[usize]); 6] = [
            (5, 0, &[5, 6, 7]),
            (6, 1, &[5, 6, 7]),
            (5, 2, &[5, 6, 7]),
            (7, 3, &[5, 6]),
            (6, 4, &[5]),
            (5, 5, &[]),
        ];
        for (out, id, left) in script {
            assert_eq!(v.pop(1, 2, out), Some(id));
            let left: Vec<_> = left.iter().map(|&o| (2, o)).collect();
            assert_eq!(offered(&v, 1, 8), left);
        }
        assert_eq!(v.total(), 0);
    }

    #[test]
    fn request_masks_equal_the_per_pair_truth_table_at_every_width() {
        // Part of a word, exactly one word, one bit into the second
        // word, and three words; 40 slots of arrivals (ready next slot,
        // later five slots out) and pops against a per-pair oracle.
        for ports in [5usize, 64, 65, 130] {
            let mut rng = crate::SimRng::seed_from_u64(ports as u64);
            let mut flat: ElectronicVoq<u32> = ElectronicVoq::new(ports);
            let mut oracle = PairVoq::new(ports);
            let mut next = 0u32;
            let mut pops = 0;
            for slot in 0..40u64 {
                let extra = if slot < 20 { 0 } else { 4 };
                for i in 0..ports {
                    while oracle.occupancy(i) < 6 && rng.index(4) < 2 {
                        let o = rng.index(ports);
                        flat.push(slot, i, o, slot + 1 + extra, next);
                        oracle.push(i, o, slot + 1 + extra, next);
                        next += 1;
                    }
                }
                let truth = oracle.ready_pairs(slot);
                assert_eq!(
                    offered(&flat, slot, ports),
                    truth,
                    "{ports} ports, slot {slot}"
                );
                for (i, o) in truth.into_iter().filter(|_| rng.index(3) == 0) {
                    assert_eq!(flat.pop(slot, i, o), oracle.pop(i, o));
                    pops += 1;
                }
            }
            assert!(pops > 5 * ports, "{ports} ports: only {pops} pops");
        }
    }

    proptest! {
        /// Differential: the flat per-input buffer against the per-pair
        /// deques it replaced, over random scripts whose ready slots
        /// never decrease (`slot + 1 + extra`, `extra` growing). Every
        /// slot the offered pairs, each popped cell, the occupancies
        /// and the counters agree.
        #[test]
        fn flat_voq_matches_the_per_pair_deques(
            ports in 1usize..=6,
            script in prop::collection::vec(
                (
                    prop::collection::vec((0usize..6, 0usize..6), 0..=5),
                    0u64..=1,
                    prop::collection::vec(0usize..36, 0..=4),
                ),
                1..=40,
            ),
        ) {
            let mut flat: ElectronicVoq<u32> = ElectronicVoq::new(ports);
            let mut oracle = PairVoq::new(ports);
            let (mut next, mut extra, mut popped) = (0u32, 0u64, 0u64);
            for (slot, (arrivals, bump, serves)) in script.into_iter().enumerate() {
                let slot = slot as u64;
                extra += bump;
                flat.tick(slot);
                for (i, o) in arrivals {
                    let (i, o) = (i % ports, o % ports);
                    flat.push(slot, i, o, slot + 1 + extra, next);
                    oracle.push(i, o, slot + 1 + extra, next);
                    next += 1;
                }
                let truth = oracle.ready_pairs(slot);
                prop_assert_eq!(offered(&flat, slot, ports), truth.clone());
                for pick in serves {
                    let (i, o) = (pick / 6 % ports, pick % 6 % ports);
                    // Ready or not, both pop the pair's oldest cell.
                    let cell = oracle.pop(i, o);
                    popped += cell.is_some() as u64;
                    prop_assert_eq!(flat.pop(slot, i, o), cell);
                }
                flat.settle(slot);
                for i in 0..ports {
                    prop_assert_eq!(flat.occupancy(i), oracle.occupancy(i));
                }
                let s = flat.stats();
                prop_assert_eq!((s.pushed, s.popped, s.dropped), (next as u64, popped, 0));
                prop_assert_eq!(flat.total() as u64, next as u64 - popped);
            }
        }
    }

    #[test]
    fn loss_reason_names_are_stable() {
        assert_eq!(BufferLossReason::AdmissionFull.name(), "admission_full");
        assert_eq!(BufferLossReason::NoFeasibleLine.name(), "no_feasible_line");
        assert_eq!(BufferLossReason::DeadLine.name(), "dead_line");
    }

    #[test]
    fn plane_is_object_safe() {
        let mut plane: Box<dyn BufferPlane<u8>> = Box::new(ElectronicVoq::new(1));
        plane.push(0, 0, 0, 1, 7);
        assert_eq!(plane.lines_per_queue(), 0);
        assert_eq!(plane.queue_ledger(0), None);
        assert_eq!(offered(plane.as_ref(), 1, 1), [(0, 0)]);
        assert_eq!(plane.pop(1, 0, 0), Some(7));
    }
}
