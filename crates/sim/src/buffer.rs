//! The engine-side buffer-plane abstraction.
//!
//! The paper's buffer-placement argument (Fig. 2) takes as given that
//! per-stage buffers are *electronic*: optical buffers "don't exist", so
//! every stage pays an OEO conversion to queue cells. Tang et al.'s
//! fiber-delay-line (FDL) priority-queue construction challenges that
//! premise constructively, and this module defines the seam that lets a
//! multistage model put delay lines where its electronic input buffers
//! are (the fabric simulator's own flat per-port tables, which need no
//! seam) without touching the scheduler, flow control, or any of the
//! observation planes:
//!
//! * [`BufferPlane`] — the object-safe per-switch buffering interface: a
//!   bank of per-(input, output) queues with explicit per-slot phases
//!   (`tick` → arrivals `push` → `fill_requests` → matched `pop`s →
//!   `settle`).
//! * [`BufferLoss`] / [`BufferLossReason`] — typed loss accounting for
//!   implementations (the emulated FDL queue in `osmosis-fdl`) that can
//!   fail to schedule a cell onto any legal delay line.
//!
//! The concrete optical implementation lives in the `osmosis-fdl` crate;
//! this module only defines the interface so the simulation kernel stays
//! dependency-free, exactly as `fault`/`audit`/`circuit` do for their
//! planes.

/// Why a buffer plane lost a cell it was asked to store.
///
/// Electronic buffers never lose cells (credit flow control upstream of
/// them guarantees space); these reasons exist for emulated optical
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
    /// Emerged-but-unserved cells re-entered into a delay line.
    pub recirculations: u64,
    /// Slots in which the next cell due for service was still in fiber.
    pub underflow_stalls: u64,
}

/// A bank of per-switch input buffers, pluggable under an input-buffered
/// model — an emulated optical FDL queue per input.
///
/// # Per-slot protocol
///
/// The owning model drives one full cycle per slot, in order:
///
/// 1. [`tick`](BufferPlane::tick) — delay-line emergences become visible;
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
    /// Start slot `slot`: make delay-line emergences visible. A plane
    /// with nothing in flight does nothing.
    fn tick(&mut self, _slot: u64) {}

    /// A cell routed to `output` arrives at `input` in slot `slot`,
    /// becoming schedulable at `ready` (the model's request/grant
    /// latency; delay lines quantize it up to their shortest line).
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
    /// back into storage.
    fn settle(&mut self, _slot: u64) {}

    /// Cells currently stored at `input` (the occupancy the credit loop
    /// protects).
    fn occupancy(&self, input: usize) -> usize;

    /// Cells currently stored across all inputs.
    fn total(&self) -> usize;

    /// Drain the losses recorded since the last call (none from a plane
    /// that cannot lose a cell).
    fn take_losses(&mut self) -> Vec<BufferLoss<C>> {
        Vec::new()
    }

    /// Cumulative counters for reporting and conservation auditing.
    fn stats(&self) -> BufferStats;

    /// Mark delay line `line` (plane-local index:
    /// `input * lines_per_queue() + local`) dead or alive. Dead lines
    /// accept no new cells; cells already in the fiber still emerge.
    fn set_line_dead(&mut self, _line: usize, _dead: bool) {}

    /// Delay lines per input queue: the model walks them to apply
    /// delay-line faults (0 for a plane without any).
    fn lines_per_queue(&self) -> usize {
        0
    }

    /// Per-input cell-conservation ledger
    /// `(pushed, popped, dropped, resident)` for audit reporting, or
    /// `None` when the plane does not keep per-queue ledgers.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest plane: one cell per input, requestable at once.
    struct OneCell(Vec<Option<(usize, u8)>>);

    impl BufferPlane<u8> for OneCell {
        fn push(&mut self, _slot: u64, input: usize, output: usize, _ready: u64, cell: u8) {
            self.0[input] = Some((output, cell));
        }

        fn fill_requests(&self, _slot: u64, requests: &mut [u64], requested: &mut [u64]) {
            requests.fill(0);
            requested.fill(0);
            for (input, held) in self.0.iter().enumerate() {
                if let Some((output, _)) = held {
                    set_request(requests, requested, input, *output);
                }
            }
        }

        fn pop(&mut self, _slot: u64, input: usize, output: usize) -> Option<u8> {
            let (held, cell) = self.0[input]?;
            if held != output {
                return None;
            }
            self.0[input] = None;
            Some(cell)
        }

        fn occupancy(&self, input: usize) -> usize {
            self.0[input].is_some() as usize
        }

        fn total(&self) -> usize {
            self.0.iter().flatten().count()
        }

        fn stats(&self) -> BufferStats {
            BufferStats::default()
        }
    }

    #[test]
    fn request_masks_are_laid_out_per_output_in_words_of_inputs() {
        // 70 ports: two words per mask. Input 65 holds a cell for output 3,
        // input 2 one for output 69.
        let mut plane = OneCell(vec![None; 70]);
        plane.push(0, 65, 3, 1, 7);
        plane.push(0, 2, 69, 1, 9);
        // Stale bits everywhere: the fill must overwrite, not accumulate.
        let (mut requests, mut requested) = (vec![u64::MAX; 70 * 2], vec![u64::MAX; 2]);
        plane.fill_requests(1, &mut requests, &mut requested);
        assert_eq!(requested, [1 << 3, 1 << (69 - 64)]);
        assert_eq!(requests[3 * 2..3 * 2 + 2], [0, 1 << (65 - 64)]);
        assert_eq!(requests[69 * 2..69 * 2 + 2], [1 << 2, 0]);
        assert_eq!(requests.iter().filter(|&&w| w != 0).count(), 2);
    }

    #[test]
    fn loss_reason_names_are_stable() {
        assert_eq!(BufferLossReason::AdmissionFull.name(), "admission_full");
        assert_eq!(BufferLossReason::NoFeasibleLine.name(), "no_feasible_line");
        assert_eq!(BufferLossReason::DeadLine.name(), "dead_line");
    }

    #[test]
    fn plane_is_object_safe_and_its_optional_phases_default_to_nothing() {
        let mut plane: Box<dyn BufferPlane<u8>> = Box::new(OneCell(vec![None]));
        plane.tick(0);
        plane.push(0, 0, 0, 1, 7);
        plane.settle(0);
        assert_eq!(plane.lines_per_queue(), 0);
        assert_eq!(plane.queue_ledger(0), None);
        assert!(plane.take_losses().is_empty());
        assert_eq!((plane.occupancy(0), plane.total()), (1, 1));
        assert_eq!(plane.pop(1, 0, 0), Some(7));
        assert_eq!(plane.pop(1, 0, 0), None);
    }
}
