//! # osmosis-fdl
//!
//! Emulated optical buffering from switches and fiber delay lines.
//!
//! The paper's buffer-placement argument (Fig. 2) starts from "optical
//! buffers don't exist", forcing an OEO conversion wherever a stage must
//! queue. Tang et al. ("Constructing Sub-exponentially Large Optical
//! Priority Queues with Switches and Fiber Delay Lines") challenge that
//! premise constructively: an N×N crossbar feeding back through a bank of
//! fiber delay lines — each a passive fiber that holds a cell for a fixed
//! integer number of slots — can *emulate* a priority queue of provable
//! size, because a deterministic routing policy can always park each
//! waiting cell on a line whose length matches how long the cell must
//! keep waiting. Recursing the construction grows the emulated size
//! sub-exponentially in switch count; this crate implements one recursion
//! level, which is already super-linear in fiber: `n` delay lines buy a
//! guaranteed queue of `n` cells on `1 + n(n-1)/2` cell-slots of fiber.
//!
//! ## The construction
//!
//! ```text
//!            ┌──────────────────────────────────────┐
//!  arrivals ─┤                                      ├─ departures
//!            │            (n+1)×(n+1) switch        │   (min key)
//!            │                                      │
//!            └─┬────┬────┬────┬──────────────────┬──┘
//!              │L=1 │L=1 │L=2 │L=3     …         │L=n-1
//!              └────┴────┴────┴──────────────────┘
//!                 n fiber delay lines, lengths max(1, i)
//! ```
//!
//! Every slot the switch (a) departs the minimum-key cell if it is
//! currently emerging from a line, and (b) re-routes each still-waiting
//! cell — emerged-but-unserved or newly arrived — onto a delay line. The
//! policy that makes emulation work is the *rank rule*: a cell whose rank
//! (position in key order among all stored cells) is `r` may only enter a
//! line of length `≤ max(1, r)`, so that by the time it can become the
//! head of the queue it is guaranteed to be emerging every slot. The
//! balanced profile `1, 1, 2, 3, …, n-1` makes the greedy
//! shortest-line-first assignment feasible for every rank whenever at
//! most `n` cells are stored — that is the provable size bound
//! [`FdlLines::guaranteed_capacity`], and within it the queue is
//! observation-equivalent to an ideal priority queue with a one-slot
//! insertion latency (a new arrival becomes servable the next slot, once
//! it has transited its first line).
//!
//! ## Loss and degradation model
//!
//! Outside the bound — or when delay lines die
//! ([`FdlQueue::set_line_dead`]; cells already in a dead fiber still
//! emerge, but the line accepts no new cells — and the guaranteed
//! capacity shrinks accordingly) — cells that cannot be scheduled onto
//! any legal line have nowhere physical to exist and are dropped with a
//! typed [`BufferLossReason`]. A serve opportunity missed because the
//! minimum-key cell is still mid-fiber is counted as an underflow stall.
//! Conservation is auditable at every quiescent point:
//! `pushed == popped + dropped + resident`.
//!
//! [`FdlBufferPlane`] packages one FIFO-mode [`FdlQueue`] per input port
//! as the switch input stage a multistage fabric holds in place of its
//! electronic per-stage input buffers.

#![deny(missing_docs)]

/// A cell's key: `(priority, arrival sequence)`. Lower sorts first, so
/// priority 0 is the most urgent and ties serve in arrival order. FIFO
/// emulation is the degenerate case where every cell has priority 0.
pub type FdlKey = (u64, u64);

/// The delay-line bank of one emulated FDL queue: per-line fiber lengths
/// (in slots) and alive/dead state.
#[derive(Debug, Clone)]
pub struct FdlLines {
    lengths: Vec<u64>,
    dead: Vec<bool>,
}

impl FdlLines {
    /// The balanced Tang profile for `n` lines: lengths
    /// `1, 1, 2, 3, …, n-1` (line `i` has length `max(1, i)`). The two
    /// unit lines keep ranks 0 and 1 emerging every slot; the profile's
    /// guaranteed capacity is exactly `n`.
    pub fn balanced(n: usize) -> Self {
        FdlLines {
            lengths: (0..n).map(|i| i.max(1) as u64).collect(),
            dead: vec![false; n],
        }
    }

    /// A bank with explicit per-line lengths. Returns `None` if any line
    /// has length zero (a fiber must hold a cell for at least one slot).
    pub fn from_lengths(lengths: Vec<u64>) -> Option<Self> {
        if lengths.contains(&0) {
            return None;
        }
        let dead = vec![false; lengths.len()];
        Some(FdlLines { lengths, dead })
    }

    /// Number of lines in the bank, dead or alive.
    pub fn count(&self) -> usize {
        self.lengths.len()
    }

    /// Length in slots of line `line`, if it exists.
    pub fn length(&self, line: usize) -> Option<u64> {
        self.lengths.get(line).copied()
    }

    /// Whether line `line` is dead (out-of-range lines read as dead).
    pub fn is_dead(&self, line: usize) -> bool {
        self.dead.get(line).copied().unwrap_or(true)
    }

    /// Mark line `line` dead or alive. Out-of-range indices are ignored.
    pub fn set_dead(&mut self, line: usize, dead: bool) {
        if let Some(d) = self.dead.get_mut(line) {
            *d = dead;
        }
    }

    /// Number of currently alive lines.
    pub fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Total cell-slots of alive fiber — the physical storage the bank
    /// pays for. For the balanced profile this is `1 + n(n-1)/2`,
    /// super-linear in the `n` cells it guarantees.
    pub fn fiber_capacity(&self) -> u64 {
        self.lengths
            .iter()
            .zip(&self.dead)
            .filter(|&(_, &d)| !d)
            .map(|(&l, _)| l)
            .sum()
    }

    /// The provable emulation bound over the currently alive lines: the
    /// largest `B` such that, with alive lengths sorted ascending,
    /// `sorted[k] <= max(1, k)` for every `k < B`. Up to `B` stored
    /// cells, the rank rule can always re-park every waiting cell, so
    /// the queue emulates an ideal priority queue losslessly; beyond it,
    /// admission refuses arrivals.
    pub fn guaranteed_capacity(&self) -> usize {
        let mut alive: Vec<u64> = self
            .lengths
            .iter()
            .zip(&self.dead)
            .filter(|&(_, &d)| !d)
            .map(|(&l, _)| l)
            .collect();
        alive.sort_unstable();
        Self::bound(&alive)
    }

    /// The emulation bound the bank would have with every line alive —
    /// the design capacity losses are attributed against: an admission
    /// refusal below this bound can only be the fault plane's doing.
    pub fn nominal_capacity(&self) -> usize {
        let mut all: Vec<u64> = self.lengths.clone();
        all.sort_unstable();
        Self::bound(&all)
    }

    fn bound(sorted: &[u64]) -> usize {
        let mut b = 0usize;
        while b < sorted.len() && sorted[b] <= b.max(1) as u64 {
            b += 1;
        }
        b
    }
}

/// Why an emulated optical buffer lost a cell it was asked to store.
///
/// Electronic buffers never lose cells (credit flow control upstream of
/// them guarantees space); these reasons exist for emulated optical
/// buffers, where storage is a bank of fixed-length delay lines and a
/// cell that cannot be scheduled onto any legal line has nowhere
/// physical to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Cumulative counters an [`FdlQueue`] (and, summed, an
/// [`FdlBufferPlane`]) keeps across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Cells accepted into the queue.
    pub pushed: u64,
    /// Cells served.
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

impl std::iter::Sum for BufferStats {
    fn sum<I: Iterator<Item = Self>>(stats: I) -> Self {
        stats.fold(BufferStats::default(), |a, b| BufferStats {
            pushed: a.pushed + b.pushed,
            popped: a.popped + b.popped,
            dropped: a.dropped + b.dropped,
            dropped_admission: a.dropped_admission + b.dropped_admission,
            dropped_infeasible: a.dropped_infeasible + b.dropped_infeasible,
            dropped_dead_line: a.dropped_dead_line + b.dropped_dead_line,
            recirculations: a.recirculations + b.recirculations,
            underflow_stalls: a.underflow_stalls + b.underflow_stalls,
        })
    }
}

/// One cell an [`FdlQueue`] could not keep.
#[derive(Debug, Clone)]
pub struct FdlLoss<T> {
    /// The cell's priority.
    pub priority: u64,
    /// The cell's arrival sequence number within this queue.
    pub seq: u64,
    /// Why it was lost.
    pub reason: BufferLossReason,
    /// The cell payload.
    pub payload: T,
}

/// Where a stored cell currently is in the emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Arrived this slot; enters a delay line at settle.
    Pending,
    /// In a fiber, emerging at `emerge`.
    InFiber {
        /// The slot this cell exits its line.
        emerge: u64,
    },
    /// Emerged this slot; servable now, re-parked at settle if unserved.
    Present,
}

/// One stored cell.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: FdlKey,
    state: State,
    payload: T,
}

/// One emulated (switch, fiber-delay-line) priority queue.
///
/// # Per-slot protocol
///
/// ```text
/// tick(slot)    — fibers deliver: cells whose line ends now turn Present
/// push(…)*      — this slot's arrivals (admission-checked immediately)
/// peek()/pop()* — serve the minimum settled key, if it is Present
/// settle(slot)  — re-park Present leftovers and Pending arrivals onto
///                 legal lines; infeasible cells become typed losses
/// ```
///
/// Within [`FdlLines::guaranteed_capacity`] and with all lines alive, the
/// queue never drops and never stalls: it behaves exactly like a bounded
/// priority queue whose arrivals become servable one slot after entry.
///
/// Each phase is one pass over the stored cells and allocates nothing:
/// the cells sit in one key-sorted vector that never outgrows the line
/// count, and everything derived from line health is cached and
/// recomputed only when a line actually dies or heals.
#[derive(Debug, Clone)]
pub struct FdlQueue<T> {
    lines: FdlLines,
    /// Lengths of the alive lines, ascending: the order `settle` hands
    /// lines out in.
    alive_lengths: Vec<u64>,
    /// The emulation bound over the alive lines.
    capacity: usize,
    /// The emulation bound with every line alive.
    nominal: usize,
    /// Length of the shortest dead line, `u64::MAX` with none dead.
    shortest_dead: u64,
    /// Stored cells in key order.
    entries: Vec<Entry<T>>,
    next_seq: u64,
    stats: BufferStats,
    losses: Vec<FdlLoss<T>>,
}

impl<T> FdlQueue<T> {
    /// A queue over the given delay-line bank.
    pub fn new(lines: FdlLines) -> Self {
        let mut queue = FdlQueue {
            alive_lengths: Vec::with_capacity(lines.count()),
            capacity: 0,
            nominal: lines.nominal_capacity(),
            shortest_dead: u64::MAX,
            // Admission holds the queue below its capacity, which never
            // exceeds the line count.
            entries: Vec::with_capacity(lines.count()),
            lines,
            next_seq: 0,
            stats: BufferStats::default(),
            losses: Vec::new(),
        };
        queue.refresh_health();
        queue
    }

    /// Recompute what depends on which lines are alive.
    fn refresh_health(&mut self) {
        self.alive_lengths.clear();
        self.shortest_dead = u64::MAX;
        for (&len, &dead) in self.lines.lengths.iter().zip(&self.lines.dead) {
            if dead {
                self.shortest_dead = self.shortest_dead.min(len);
            } else {
                self.alive_lengths.push(len);
            }
        }
        self.alive_lengths.sort_unstable();
        self.capacity = FdlLines::bound(&self.alive_lengths);
    }

    /// The delay-line bank.
    pub fn lines(&self) -> &FdlLines {
        &self.lines
    }

    /// Current guaranteed capacity (shrinks when lines die).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cells currently stored (in fiber, emerged, or pending).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cells are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Start slot `slot`: cells whose fiber ends now become Present. If
    /// the minimum settled key is still mid-fiber (possible only after
    /// line deaths force long placements), this serve opportunity is
    /// lost — counted as an underflow stall.
    pub fn tick(&mut self, slot: u64) {
        let mut head_seen = false;
        for entry in &mut self.entries {
            if matches!(entry.state, State::InFiber { emerge } if emerge <= slot) {
                entry.state = State::Present;
            }
            if !head_seen && entry.state != State::Pending {
                head_seen = true;
                if entry.state != State::Present {
                    self.stats.underflow_stalls += 1;
                }
            }
        }
    }

    /// Offer a cell with `priority`. Admission succeeds while the queue
    /// holds fewer than [`capacity`](FdlQueue::capacity) cells; a refused
    /// cell is recorded as a typed loss and `false` is returned:
    /// [`BufferLossReason::DeadLine`] when the refusal only exists
    /// because dead lines shrank the capacity below its nominal bound,
    /// [`BufferLossReason::AdmissionFull`] when even a healthy bank
    /// would have refused. Admitted cells become servable after settle,
    /// one slot later.
    pub fn push(&mut self, priority: u64, payload: T) -> bool {
        self.stats.pushed += 1;
        let key = (priority, self.next_seq);
        self.next_seq += 1;
        if self.entries.len() >= self.capacity {
            let reason = if self.entries.len() < self.nominal {
                BufferLossReason::DeadLine
            } else {
                BufferLossReason::AdmissionFull
            };
            self.lose(key, reason, payload);
            return false;
        }
        let at = self.entries.partition_point(|e| e.key < key);
        let state = State::Pending;
        let entry = Entry {
            key,
            state,
            payload,
        };
        self.entries.insert(at, entry);
        true
    }

    /// Record a lost cell under its typed reason.
    fn lose(&mut self, key: FdlKey, reason: BufferLossReason, payload: T) {
        self.stats.dropped += 1;
        match reason {
            BufferLossReason::DeadLine => self.stats.dropped_dead_line += 1,
            BufferLossReason::AdmissionFull => self.stats.dropped_admission += 1,
            BufferLossReason::NoFeasibleLine => self.stats.dropped_infeasible += 1,
        }
        self.losses.push(FdlLoss {
            priority: key.0,
            seq: key.1,
            reason,
            payload,
        });
    }

    /// Index of the cell the queue can serve this slot: the minimum
    /// settled key, if it is currently emerging from a line.
    fn head(&self) -> Option<usize> {
        let settled = self
            .entries
            .iter()
            .position(|e| e.state != State::Pending)?;
        (self.entries[settled].state == State::Present).then_some(settled)
    }

    /// The cell the queue can serve this slot: the minimum settled key,
    /// if it is currently emerging from a line. `None` when the queue is
    /// empty, holds only this slot's arrivals, or the minimum settled
    /// cell is still mid-fiber (underflow).
    pub fn peek(&self) -> Option<(FdlKey, &T)> {
        let entry = &self.entries[self.head()?];
        Some((entry.key, &entry.payload))
    }

    /// Serve the cell [`peek`](FdlQueue::peek) offers.
    pub fn pop(&mut self) -> Option<(FdlKey, T)> {
        let entry = self.entries.remove(self.head()?);
        self.stats.popped += 1;
        Some((entry.key, entry.payload))
    }

    /// End slot `slot`: route every Present leftover and Pending arrival
    /// onto a delay line. Ranks are frozen at entry (position in key
    /// order among all stored cells); cells are considered in key order
    /// and greedily take the shortest unused alive line, legal when its
    /// length is `≤ max(1, rank)`. A cell with no legal line is dropped:
    /// [`BufferLossReason::DeadLine`] when a dead line would have been
    /// legal, [`BufferLossReason::NoFeasibleLine`] otherwise.
    pub fn settle(&mut self, slot: u64) {
        let mut next_line = 0;
        let mut at = 0;
        for rank in 0..self.entries.len() {
            let state = self.entries[at].state;
            if matches!(state, State::InFiber { .. }) {
                at += 1;
                continue;
            }
            let cap = rank.max(1) as u64;
            match self.alive_lengths.get(next_line) {
                Some(&len) if len <= cap => {
                    next_line += 1;
                    if state == State::Present {
                        self.stats.recirculations += 1;
                    }
                    self.entries[at].state = State::InFiber { emerge: slot + len };
                    at += 1;
                }
                _ => {
                    let reason = if self.shortest_dead <= cap {
                        BufferLossReason::DeadLine
                    } else {
                        BufferLossReason::NoFeasibleLine
                    };
                    let lost = self.entries.remove(at);
                    self.lose(lost.key, reason, lost.payload);
                }
            }
        }
    }

    /// Mark a line dead or alive; the guaranteed capacity is recomputed
    /// over the surviving lines. Cells already in a dead fiber still
    /// emerge — the fiber is passive — but the line takes no new cells.
    /// Re-stating a line's current health costs nothing.
    pub fn set_line_dead(&mut self, line: usize, dead: bool) {
        match self.lines.dead.get_mut(line) {
            Some(was) if *was != dead => *was = dead,
            _ => return,
        }
        self.refresh_health();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Drain the losses recorded since the last call.
    pub fn take_losses(&mut self) -> Vec<FdlLoss<T>> {
        std::mem::take(&mut self.losses)
    }

    /// The conservation ledger `(pushed, popped, dropped, resident)`;
    /// `pushed == popped + dropped + resident` holds at every quiescent
    /// point (outside the push→settle window of a slot).
    pub fn ledger(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.pushed,
            self.stats.popped,
            self.stats.dropped,
            self.entries.len() as u64,
        )
    }
}

/// One cell an [`FdlBufferPlane`] could not keep: the fabric drops it and
/// returns its credit upstream (the cell *was* admitted into the stage).
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

/// A bank of FIFO-mode [`FdlQueue`]s — one per input port — that a
/// multistage fabric uses as a switch's input stage in place of its
/// electronic VOQs.
///
/// Each input's arrivals share one physical delay-line queue in arrival
/// order (priority 0), with the destination output carried in the
/// payload: the head cell blocks the inputs behind it until its output
/// is served (head-of-line blocking — the physical price of buffering
/// in fiber instead of per-output electronic queues), so an input
/// requests at most one output per slot. An arrival in slot `t` first
/// emerges at `t + 1`, which matches an input-buffered fabric's `t + 1`
/// grant eligibility exactly.
///
/// Per slot the fabric calls [`tick`](Self::tick), a [`push`](Self::push)
/// per arriving cell, [`fill_requests`](Self::fill_requests) and a
/// [`pop`](Self::pop) per matched pair, [`settle`](Self::settle), and
/// [`take_losses`](Self::take_losses), in that order.
#[derive(Debug, Clone)]
pub struct FdlBufferPlane<C> {
    lines_per_queue: usize,
    queues: Vec<FdlQueue<(usize, C)>>,
}

impl<C> FdlBufferPlane<C> {
    /// A plane for a `ports`-port switch, each input buffered by a
    /// balanced bank of `lines_per_queue` delay lines (guaranteed
    /// capacity `lines_per_queue` cells per input).
    pub fn new(ports: usize, lines_per_queue: usize) -> Self {
        FdlBufferPlane {
            lines_per_queue,
            queues: (0..ports)
                .map(|_| FdlQueue::new(FdlLines::balanced(lines_per_queue)))
                .collect(),
        }
    }

    /// The queue buffering `input`, if it exists.
    pub fn queue(&self, input: usize) -> Option<&FdlQueue<(usize, C)>> {
        self.queues.get(input)
    }

    /// Start slot `slot`: make delay-line emergences visible.
    pub fn tick(&mut self, slot: u64) {
        for q in &mut self.queues {
            q.tick(slot);
        }
    }

    /// A cell routed to `output` arrives at `input`.
    pub fn push(&mut self, input: usize, output: usize, cell: C) {
        if let Some(q) = self.queues.get_mut(input) {
            q.push(0, (output, cell));
        }
    }

    /// Overwrite the matching's request masks with the pairs that can
    /// offer a cell this slot: each input's head cell, if it has
    /// emerged. With `words = requested.len()` (the port count in 64-bit
    /// words), bit `i` of `requests[o * words + i / 64]` says input `i`
    /// requests output `o`, and bit `o` of `requested` says output `o`
    /// has any request. The masks hold until the slot's first
    /// [`pop`](Self::pop).
    pub fn fill_requests(&self, requests: &mut [u64], requested: &mut [u64]) {
        requests.fill(0);
        requested.fill(0);
        let words = requested.len();
        for (input, q) in self.queues.iter().enumerate() {
            if let Some((_, &(output, _))) = q.peek() {
                requests[output * words + input / 64] |= 1 << (input % 64);
                requested[output / 64] |= 1 << (output % 64);
            }
        }
    }

    /// Remove and return the cell `(input, output)` offered this slot.
    /// Returns `None` when [`fill_requests`](Self::fill_requests) did not
    /// offer the pair.
    pub fn pop(&mut self, input: usize, output: usize) -> Option<C> {
        let q = self.queues.get_mut(input)?;
        let (_, &(head, _)) = q.peek()?;
        if head != output {
            return None;
        }
        let (_, (_, cell)) = q.pop()?;
        Some(cell)
    }

    /// End slot `slot`: commit unserved emerged cells and new arrivals
    /// back into the delay lines.
    pub fn settle(&mut self, slot: u64) {
        for q in &mut self.queues {
            q.settle(slot);
        }
    }

    /// Cells currently stored at `input` (the occupancy the credit loop
    /// protects).
    pub fn occupancy(&self, input: usize) -> usize {
        self.queues.get(input).map_or(0, |q| q.len())
    }

    /// Cells currently stored across all inputs.
    pub fn total(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Drain the losses recorded since the last call.
    pub fn take_losses(&mut self) -> Vec<BufferLoss<C>> {
        let mut out = Vec::new();
        for (input, q) in self.queues.iter_mut().enumerate() {
            for loss in q.take_losses() {
                let (output, cell) = loss.payload;
                out.push(BufferLoss {
                    input,
                    output,
                    reason: loss.reason,
                    cell,
                });
            }
        }
        out
    }

    /// Cumulative counters, summed over the inputs.
    pub fn stats(&self) -> BufferStats {
        self.queues.iter().map(FdlQueue::stats).sum()
    }

    /// Mark delay line `line` (plane-local index:
    /// `input * lines_per_queue() + local`) dead or alive. Dead lines
    /// accept no new cells; cells already in the fiber still emerge.
    pub fn set_line_dead(&mut self, line: usize, dead: bool) {
        if self.lines_per_queue == 0 {
            return;
        }
        let input = line / self.lines_per_queue;
        let local = line % self.lines_per_queue;
        if let Some(q) = self.queues.get_mut(input) {
            q.set_line_dead(local, dead);
        }
    }

    /// Delay lines per input queue.
    pub fn lines_per_queue(&self) -> usize {
        self.lines_per_queue
    }
}

/// The `BTreeMap`-backed [`FdlQueue`] the flat one replaced, statement
/// for statement, kept as the oracle the differential tests drive next
/// to it.
#[cfg(test)]
mod oracle {
    use super::{BufferLossReason, BufferStats, FdlKey, FdlLines, FdlLoss, State};
    use std::collections::BTreeMap;

    /// The queue as it was before it moved onto a flat vector.
    #[derive(Debug, Clone)]
    pub struct FdlQueue<T> {
        lines: FdlLines,
        capacity: usize,
        entries: BTreeMap<FdlKey, (State, T)>,
        next_seq: u64,
        stats: BufferStats,
        losses: Vec<FdlLoss<T>>,
    }

    impl<T> FdlQueue<T> {
        pub fn new(lines: FdlLines) -> Self {
            let capacity = lines.guaranteed_capacity();
            FdlQueue {
                lines,
                capacity,
                entries: BTreeMap::new(),
                next_seq: 0,
                stats: BufferStats::default(),
                losses: Vec::new(),
            }
        }

        pub fn lines(&self) -> &FdlLines {
            &self.lines
        }

        pub fn capacity(&self) -> usize {
            self.capacity
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub fn tick(&mut self, slot: u64) {
            for (state, _) in self.entries.values_mut() {
                if let State::InFiber { emerge } = *state {
                    if emerge <= slot {
                        *state = State::Present;
                    }
                }
            }
            if let Some((state, _)) = self
                .entries
                .values()
                .find(|(s, _)| !matches!(s, State::Pending))
            {
                if matches!(state, State::InFiber { .. }) {
                    self.stats.underflow_stalls += 1;
                }
            }
        }

        pub fn push(&mut self, priority: u64, payload: T) -> bool {
            self.stats.pushed += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.entries.len() >= self.capacity {
                let reason = if self.entries.len() < self.lines.nominal_capacity() {
                    BufferLossReason::DeadLine
                } else {
                    BufferLossReason::AdmissionFull
                };
                self.stats.dropped += 1;
                match reason {
                    BufferLossReason::DeadLine => self.stats.dropped_dead_line += 1,
                    _ => self.stats.dropped_admission += 1,
                }
                self.losses.push(FdlLoss {
                    priority,
                    seq,
                    reason,
                    payload,
                });
                return false;
            }
            self.entries
                .insert((priority, seq), (State::Pending, payload));
            true
        }

        pub fn peek(&self) -> Option<(FdlKey, &T)> {
            for (key, (state, payload)) in &self.entries {
                match state {
                    State::Pending => continue,
                    State::Present => return Some((*key, payload)),
                    State::InFiber { .. } => return None,
                }
            }
            None
        }

        pub fn pop(&mut self) -> Option<(FdlKey, T)> {
            let key = self.peek().map(|(k, _)| k)?;
            let (_, payload) = self.entries.remove(&key)?;
            self.stats.popped += 1;
            Some((key, payload))
        }

        pub fn settle(&mut self, slot: u64) {
            let mut to_place: Vec<(FdlKey, usize, bool)> = Vec::new();
            for (rank, (key, (state, _))) in self.entries.iter().enumerate() {
                match state {
                    State::Present => to_place.push((*key, rank, true)),
                    State::Pending => to_place.push((*key, rank, false)),
                    State::InFiber { .. } => {}
                }
            }
            if to_place.is_empty() {
                return;
            }
            let mut order: Vec<(u64, usize)> = self
                .lines
                .lengths
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.lines.is_dead(i))
                .map(|(i, &l)| (l, i))
                .collect();
            order.sort_unstable();
            let mut cursor = 0usize;
            for (key, rank, was_present) in to_place {
                let cap = rank.max(1) as u64;
                if order.get(cursor).is_some_and(|&(len, _)| len <= cap) {
                    let (len, _) = order[cursor];
                    cursor += 1;
                    if was_present {
                        self.stats.recirculations += 1;
                    }
                    if let Some((state, _)) = self.entries.get_mut(&key) {
                        *state = State::InFiber { emerge: slot + len };
                    }
                } else {
                    let dead_legal = self
                        .lines
                        .lengths
                        .iter()
                        .zip(&self.lines.dead)
                        .any(|(&l, &d)| d && l <= cap);
                    let reason = if dead_legal {
                        BufferLossReason::DeadLine
                    } else {
                        BufferLossReason::NoFeasibleLine
                    };
                    if let Some((_, payload)) = self.entries.remove(&key) {
                        self.stats.dropped += 1;
                        match reason {
                            BufferLossReason::DeadLine => self.stats.dropped_dead_line += 1,
                            _ => self.stats.dropped_infeasible += 1,
                        }
                        self.losses.push(FdlLoss {
                            priority: key.0,
                            seq: key.1,
                            reason,
                            payload,
                        });
                    }
                }
            }
        }

        pub fn set_line_dead(&mut self, line: usize, dead: bool) {
            self.lines.set_dead(line, dead);
            self.capacity = self.lines.guaranteed_capacity();
        }

        pub fn stats(&self) -> BufferStats {
            self.stats
        }

        pub fn take_losses(&mut self) -> Vec<FdlLoss<T>> {
            std::mem::take(&mut self.losses)
        }

        pub fn ledger(&self) -> (u64, u64, u64, u64) {
            (
                self.stats.pushed,
                self.stats.popped,
                self.stats.dropped,
                self.entries.len() as u64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `(input, output)` pairs `plane` offers, read back from the
    /// masks one `fill_requests` call wrote over stale bits.
    fn offered(plane: &FdlBufferPlane<u32>, ports: usize) -> Vec<(usize, usize)> {
        let words = ports.div_ceil(64);
        let mut requests = vec![u64::MAX; ports * words];
        let mut requested = vec![u64::MAX; words];
        plane.fill_requests(&mut requests, &mut requested);
        let bit = |mask: &[u64], b: usize| mask[b / 64] >> (b % 64) & 1 == 1;
        let mut pairs = Vec::new();
        for o in 0..ports {
            let column = &requests[o * words..(o + 1) * words];
            let inputs = (0..words * 64).filter(|&i| bit(column, i));
            pairs.extend(inputs.map(|i| (i, o)));
            let any = column.iter().any(|&w| w != 0);
            assert_eq!(bit(&requested, o), any, "summary bit {o}");
        }
        let summary_bits: u32 = requested.iter().map(|w| w.count_ones()).sum();
        let outputs = (0..ports).filter(|&o| bit(&requested, o)).count();
        assert_eq!(summary_bits as usize, outputs, "summary bit past {ports}");
        pairs.sort_unstable();
        pairs
    }

    /// Drive one full slot: tick, pushes, then up to one serve, then
    /// settle. Returns the served payload if any.
    fn slot_cycle<T: Clone>(
        q: &mut FdlQueue<T>,
        slot: u64,
        pushes: &[(u64, T)],
        serve: bool,
    ) -> Option<T> {
        q.tick(slot);
        for (prio, payload) in pushes {
            q.push(*prio, payload.clone());
        }
        let served = if serve { q.pop().map(|(_, p)| p) } else { None };
        q.settle(slot);
        served
    }

    #[test]
    fn balanced_profile_bound_and_fiber_cost() {
        for n in 1..=12usize {
            let lines = FdlLines::balanced(n);
            assert_eq!(lines.count(), n);
            assert_eq!(lines.guaranteed_capacity(), n, "B = n for balanced({n})");
            let expect_fiber = 1 + (n as u64) * (n as u64 - 1) / 2;
            if n >= 1 {
                assert_eq!(lines.fiber_capacity(), expect_fiber.max(n.min(1) as u64));
            }
        }
        assert_eq!(FdlLines::balanced(4).length(0), Some(1));
        assert_eq!(FdlLines::balanced(4).length(1), Some(1));
        assert_eq!(FdlLines::balanced(4).length(3), Some(3));
        assert!(FdlLines::from_lengths(vec![1, 0]).is_none());
    }

    #[test]
    fn fifo_emulation_is_lossless_within_bound() {
        let n = 6;
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(n));
        // Fill to the bound in slot 0; serve one per slot thereafter.
        let pushes: Vec<(u64, u32)> = (0..n as u32).map(|i| (0, i)).collect();
        assert!(
            slot_cycle(&mut q, 0, &pushes, true).is_none(),
            "arrivals not servable same slot"
        );
        let mut served = Vec::new();
        for slot in 1..=n as u64 {
            if let Some(c) = slot_cycle(&mut q, slot, &[], true) {
                served.push(c);
            }
        }
        assert_eq!(served, (0..n as u32).collect::<Vec<_>>(), "FIFO order");
        let s = q.stats();
        assert_eq!(s.dropped, 0, "no drops within the bound");
        assert_eq!(s.underflow_stalls, 0, "no stalls with all lines alive");
        assert!(s.recirculations > 0, "waiting cells recirculated");
        assert!(q.is_empty());
        let (pushed, popped, dropped, resident) = q.ledger();
        assert_eq!(pushed, popped + dropped + resident);
    }

    #[test]
    fn priority_mode_serves_min_key_first() {
        let mut q: FdlQueue<&'static str> = FdlQueue::new(FdlLines::balanced(5));
        slot_cycle(&mut q, 0, &[(3, "low"), (1, "high"), (2, "mid")], false);
        assert_eq!(slot_cycle(&mut q, 1, &[(0, "urgent")], true), Some("high"));
        // "urgent" entered in slot 1, so it overtakes only from slot 2 on.
        assert_eq!(slot_cycle(&mut q, 2, &[], true), Some("urgent"));
        assert_eq!(slot_cycle(&mut q, 3, &[], true), Some("mid"));
        assert_eq!(slot_cycle(&mut q, 4, &[], true), Some("low"));
        assert_eq!(q.stats().dropped, 0);
        assert_eq!(q.stats().underflow_stalls, 0);
    }

    #[test]
    fn admission_beyond_bound_is_a_typed_loss() {
        let n = 3;
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(n));
        q.tick(0);
        for i in 0..(n as u32 + 2) {
            q.push(0, i);
        }
        q.settle(0);
        let losses = q.take_losses();
        assert_eq!(losses.len(), 2);
        assert!(losses
            .iter()
            .all(|l| l.reason == BufferLossReason::AdmissionFull));
        assert_eq!(q.len(), n);
        assert_eq!(q.stats().dropped_admission, 2);
        let (pushed, popped, dropped, resident) = q.ledger();
        assert_eq!(pushed, popped + dropped + resident);
    }

    #[test]
    fn dead_line_shrinks_capacity_and_attributes_losses() {
        let n = 4;
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(n));
        // Kill both unit-length lines: no legal line for rank 0/1 remains,
        // so the guaranteed capacity collapses to zero.
        q.set_line_dead(0, true);
        q.set_line_dead(1, true);
        assert_eq!(q.capacity(), 0);
        // Kill only one unit line: capacity 1, and a second resident cell
        // would need the dead line — its settle loss is attributed DeadLine.
        let mut q2: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(n));
        q2.tick(0);
        q2.push(0, 1);
        q2.push(0, 2);
        q2.settle(0);
        q2.set_line_dead(1, true);
        assert_eq!(q2.capacity(), 1);
        // Slot 1: both emerge; serve one; the survivor (rank 0 after the
        // serve... rank frozen at settle) recirculates on line 0.
        q2.tick(1);
        let served = q2.pop();
        assert!(served.is_some());
        q2.settle(1);
        assert_eq!(
            q2.stats().dropped,
            0,
            "rank-0 survivor still legal on line 0"
        );
        // Heal and confirm capacity returns.
        q2.set_line_dead(1, false);
        assert_eq!(q2.capacity(), n);
    }

    #[test]
    fn admission_refusal_below_nominal_capacity_is_typed_dead_line() {
        let n = 4;
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(n));
        // One dead unit line: capacity 1 against a nominal bound of 4.
        q.set_line_dead(1, true);
        q.tick(0);
        assert!(q.push(0, 1));
        // The second arrival is refused purely because of the dead line —
        // a healthy bank would have held it — so the loss is DeadLine.
        assert!(!q.push(0, 2));
        let losses = q.take_losses();
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].reason, BufferLossReason::DeadLine);
        assert_eq!(q.stats().dropped_dead_line, 1);
        assert_eq!(q.stats().dropped_admission, 0);
        // Beyond the nominal bound the refusal is plain AdmissionFull,
        // dead lines or not.
        let mut full: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(2));
        full.tick(0);
        assert!(full.push(0, 1));
        assert!(full.push(0, 2));
        assert!(!full.push(0, 3));
        assert_eq!(
            full.take_losses()[0].reason,
            BufferLossReason::AdmissionFull
        );
    }

    #[test]
    fn dead_line_forces_typed_dead_line_drop() {
        // Two cells resident with both unit lines dead at settle time:
        // the rank-1 cell has no legal alive line (cap 1, shortest alive
        // is 2) while a dead unit line exists => DeadLine.
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(4));
        q.tick(0);
        q.push(0, 1);
        q.push(0, 2);
        q.settle(0);
        q.set_line_dead(0, true);
        q.set_line_dead(1, true);
        q.tick(1);
        q.settle(1); // both emerged, neither served, nowhere legal to go
        let losses = q.take_losses();
        assert_eq!(losses.len(), 2);
        assert!(losses
            .iter()
            .all(|l| l.reason == BufferLossReason::DeadLine));
        assert!(q.is_empty());
        let (pushed, popped, dropped, resident) = q.ledger();
        assert_eq!(pushed, popped + dropped + resident);
    }

    #[test]
    fn plane_gates_on_head_output_and_keeps_ledgers() {
        let mut plane: FdlBufferPlane<u32> = FdlBufferPlane::new(2, 4);
        plane.tick(0);
        plane.push(0, 1, 100); // input 0 -> output 1
        plane.push(0, 0, 101); // input 0 -> output 0, behind it
        plane.settle(0);
        plane.tick(1);
        assert_eq!(
            offered(&plane, 2),
            [(0, 1)],
            "head-of-line: output 0 blocked behind the output-1 head"
        );
        assert_eq!(plane.pop(0, 0), None);
        assert_eq!(plane.pop(0, 1), Some(100));
        plane.settle(1);
        plane.tick(2);
        assert_eq!(offered(&plane, 2), [(0, 0)]);
        assert_eq!(plane.pop(0, 0), Some(101));
        plane.settle(2);
        assert_eq!(plane.total(), 0);
        assert_eq!(plane.queue(0).map(FdlQueue::ledger), Some((2, 2, 0, 0)));
        assert_eq!(plane.lines_per_queue(), 4);
        assert!(plane.take_losses().is_empty());
    }

    #[test]
    fn plane_global_line_index() {
        let mut plane: FdlBufferPlane<u8> = FdlBufferPlane::new(2, 5);
        assert_eq!(plane.lines_per_queue(), 5);
        // Global line 7 = input 1, local line 2.
        plane.set_line_dead(7, true);
        let q1 = plane.queue(1);
        assert!(q1.is_some_and(|q| q.lines().is_dead(2)));
        assert!(plane.queue(0).is_some_and(|q| q.capacity() == 5));
        assert!(plane.queue(1).is_some_and(|q| q.capacity() < 5));
    }

    #[test]
    fn request_masks_are_laid_out_per_output_in_words_of_inputs() {
        // 70 ports: two words per mask. Input 65 holds a cell for output 3,
        // input 2 one for output 69.
        let mut plane: FdlBufferPlane<u32> = FdlBufferPlane::new(70, 2);
        plane.tick(0);
        plane.push(65, 3, 7);
        plane.push(2, 69, 9);
        plane.settle(0);
        plane.tick(1);
        // Stale bits everywhere: the fill must overwrite, not accumulate.
        let (mut requests, mut requested) = (vec![u64::MAX; 70 * 2], vec![u64::MAX; 2]);
        plane.fill_requests(&mut requests, &mut requested);
        assert_eq!(requested, [1 << 3, 1 << (69 - 64)]);
        assert_eq!(requests[3 * 2..3 * 2 + 2], [0, 1 << (65 - 64)]);
        assert_eq!(requests[69 * 2..69 * 2 + 2], [1 << 2, 0]);
        assert_eq!(requests.iter().filter(|&&w| w != 0).count(), 2);
        assert_eq!((plane.pop(65, 3), plane.pop(2, 69)), (Some(7), Some(9)));
    }

    #[test]
    fn rank_rule_limits_capacity_of_sparse_profiles() {
        // Ranks 0 and 1 both demand unit-length lines, so a profile with
        // a single unit line guarantees only one cell no matter how much
        // extra fiber it carries.
        let lines = FdlLines::from_lengths(vec![1, 2, 3]);
        let Some(lines) = lines else {
            unreachable!("lengths are nonzero")
        };
        assert_eq!(lines.guaranteed_capacity(), 1);
        let mut q: FdlQueue<u32> = FdlQueue::new(lines);
        slot_cycle(&mut q, 0, &[(0, 7), (0, 8)], false);
        let losses = q.take_losses();
        assert_eq!(losses.len(), 1, "second cell refused at admission");
        assert_eq!(losses[0].reason, BufferLossReason::AdmissionFull);
        // The admitted cell cycles on the unit line with no stalls: the
        // greedy rank rule never parks a cell longer than its service
        // horizon, so the stall counter stays a pure degradation guard.
        for slot in 1..5 {
            q.tick(slot);
            assert_eq!(q.peek().map(|(_, &p)| p), Some(7));
            q.settle(slot);
        }
        assert_eq!(q.stats().underflow_stalls, 0);
        q.tick(5);
        assert_eq!(q.pop().map(|(_, p)| p), Some(7));
    }

    /// One slot of a differential script: line-health commands (line,
    /// dead), prioritised arrivals, and how many serves to attempt.
    type SlotScript = (Vec<(usize, bool)>, Vec<u64>, usize);

    /// A bank — balanced, or arbitrary lengths (sparse profiles guarantee
    /// less than their line count) — and a script for it. A slot changes
    /// line health one time in four, so deaths last long enough to force
    /// long placements and mid-fiber heads.
    fn script_strategy() -> impl Strategy<Value = (FdlLines, Vec<SlotScript>)> {
        let bank = (
            any::<bool>(),
            1usize..=9,
            prop::collection::vec(1u64..=5, 1..=8),
        )
            .prop_map(|(balanced, n, lengths)| {
                let arbitrary = || FdlLines::from_lengths(lengths);
                if balanced {
                    Some(FdlLines::balanced(n))
                } else {
                    arbitrary()
                }
                .expect("lengths are nonzero")
            });
        // Lines 0 and 1 — a balanced bank's unit lines, the ones whose
        // loss strands the cells parked behind them — are hit as often
        // as all the others together.
        let command = (0usize..14, any::<bool>())
            .prop_map(|(x, dead)| (if x < 7 { x % 2 } else { x - 5 }, dead));
        let health = (0usize..4, prop::collection::vec(command, 1..=2))
            .prop_map(|(when, commands)| if when == 0 { commands } else { Vec::new() });
        let slot = (health, prop::collection::vec(0u64..4, 0..=4), 0usize..=2);
        (bank, prop::collection::vec(slot, 4..=60))
    }

    /// Differential: the flat queue against the `BTreeMap` oracle, side
    /// by side through `script`, comparing everything observable after
    /// every step. Returns the final counters.
    fn run_side_by_side(
        lines: FdlLines,
        script: Vec<SlotScript>,
    ) -> Result<BufferStats, TestCaseError> {
        let mut flat: FdlQueue<u32> = FdlQueue::new(lines.clone());
        let mut map: oracle::FdlQueue<u32> = oracle::FdlQueue::new(lines);
        let mut payload = 0u32;
        let key = |l: &FdlLoss<u32>| (l.priority, l.seq, l.reason, l.payload);
        for (slot, (health, arrivals, serves)) in script.into_iter().enumerate() {
            let slot = slot as u64;
            for (line, dead) in health {
                flat.set_line_dead(line, dead);
                map.set_line_dead(line, dead);
                prop_assert_eq!(flat.capacity(), map.capacity());
                prop_assert_eq!(flat.lines().is_dead(line), map.lines().is_dead(line));
            }
            flat.tick(slot);
            map.tick(slot);
            prop_assert_eq!(flat.stats(), map.stats());
            for priority in arrivals {
                payload += 1;
                prop_assert_eq!(flat.push(priority, payload), map.push(priority, payload));
            }
            for _ in 0..serves {
                prop_assert_eq!(flat.peek(), map.peek());
                prop_assert_eq!(flat.pop(), map.pop());
            }
            prop_assert_eq!(flat.peek(), map.peek());
            flat.settle(slot);
            map.settle(slot);
            let (lost, expect) = (flat.take_losses(), map.take_losses());
            prop_assert_eq!(
                lost.iter().map(key).collect::<Vec<_>>(),
                expect.iter().map(key).collect::<Vec<_>>()
            );
            prop_assert_eq!(flat.stats(), map.stats());
            prop_assert_eq!(flat.ledger(), map.ledger());
            prop_assert_eq!((flat.len(), flat.is_empty()), (map.len(), map.is_empty()));
        }
        Ok(flat.stats())
    }

    proptest! {
        #[test]
        fn flat_queue_matches_the_btreemap_oracle(case in script_strategy()) {
            run_side_by_side(case.0, case.1)?;
        }
    }

    #[test]
    fn flat_queue_matches_the_oracle_through_a_stall_and_settle_losses() {
        // Four cells on lines 1, 1, 2, 3. Both unit lines die in the
        // slot the third cell emerges: at settle the two cells ahead of
        // it have nowhere legal to go (dead-line losses) and it re-parks
        // on the 2-line, so next slot the head of the queue is mid-fiber
        // (an underflow stall); an arrival is refused for the dead
        // lines' sake, the fourth cell is lost in its turn, and after
        // the heal the queue refills in priority order.
        let quiet = |serves| (vec![], vec![], serves);
        let script = vec![
            (vec![], vec![0, 0, 0, 0], 0),
            quiet(0),
            (vec![(0, true), (1, true)], vec![], 0),
            (vec![], vec![1], 1),
            quiet(1),
            (vec![(0, false), (1, false), (1, false)], vec![2, 0, 1], 0),
            quiet(2),
            quiet(1),
        ];
        let s = run_side_by_side(FdlLines::balanced(4), script).expect("queues agree");
        assert_eq!(s.underflow_stalls, 1, "{s:?}");
        assert_eq!((s.dropped_dead_line, s.dropped), (4, 4), "{s:?}");
        assert_eq!((s.pushed, s.popped), (8, 4), "{s:?}");
    }

    #[test]
    fn differential_scripts_reach_refusals_losses_and_recirculation() {
        // The proptest proves nothing about paths its scripts never
        // reach: replay a batch of the same scripts and count.
        let mut seen = BufferStats::default();
        for case in 0..256 {
            let mut rng = proptest::test_runner::TestRng::deterministic("coverage", case);
            let (lines, script) = script_strategy().sample(&mut rng);
            let s = run_side_by_side(lines, script).expect("queues agree");
            seen.dropped_admission += s.dropped_admission;
            seen.dropped_dead_line += s.dropped_dead_line;
            seen.recirculations += s.recirculations;
            seen.popped += s.popped;
        }
        assert!(seen.dropped_admission > 100, "{seen:?}");
        assert!(seen.dropped_dead_line > 100, "{seen:?}");
        assert!(
            seen.recirculations > 1_000 && seen.popped > 1_000,
            "{seen:?}"
        );
    }

    #[test]
    fn restating_line_health_is_a_no_op() {
        let mut q: FdlQueue<u32> = FdlQueue::new(FdlLines::balanced(4));
        q.set_line_dead(1, true);
        let before = (q.capacity(), q.lines().alive());
        q.set_line_dead(1, true);
        q.set_line_dead(0, false);
        q.set_line_dead(99, true);
        q.set_line_dead(99, false);
        assert_eq!((q.capacity(), q.lines().alive()), before);
        assert_eq!(before, (1, 3));
    }

    #[test]
    fn request_masks_equal_the_per_pair_truth_table_at_every_width() {
        // Part of a word, exactly one word, one bit into the second
        // word, and three words. The truth table is the removed
        // per-pair `ready`: the oracle queue's head carries output o.
        const LINES: usize = 4;
        for ports in [5usize, 64, 65, 130] {
            let mut rng = osmosis_sim::SimRng::seed_from_u64(ports as u64);
            let mut plane: FdlBufferPlane<u32> = FdlBufferPlane::new(ports, LINES);
            let bank = || oracle::FdlQueue::new(FdlLines::balanced(LINES));
            let mut truth: Vec<oracle::FdlQueue<(usize, u32)>> =
                (0..ports).map(|_| bank()).collect();
            let mut pops = 0;
            for slot in 0..40u64 {
                // A few lines die and heal along the way.
                let line = rng.index(ports * LINES);
                let dead = rng.index(3) == 0;
                plane.set_line_dead(line, dead);
                truth[line / LINES].set_line_dead(line % LINES, dead);
                plane.tick(slot);
                truth.iter_mut().for_each(|q| q.tick(slot));
                for (i, q) in truth.iter_mut().enumerate() {
                    while rng.index(4) < 2 {
                        let o = rng.index(ports);
                        plane.push(i, o, slot as u32);
                        q.push(0, (o, slot as u32));
                    }
                }
                let head = |q: &oracle::FdlQueue<(usize, u32)>| q.peek().map(|(_, &(o, _))| o);
                let mut ready = Vec::new();
                for o in 0..ports {
                    ready.extend(
                        (0..ports)
                            .filter(|&i| head(&truth[i]) == Some(o))
                            .map(|i| (i, o)),
                    );
                }
                ready.sort_unstable();
                assert_eq!(offered(&plane, ports), ready, "{ports} ports, slot {slot}");
                for (i, o) in ready.into_iter().filter(|_| rng.index(2) == 0) {
                    let other = (o + 1) % ports;
                    assert_eq!(plane.pop(i, other), None, "not the head's output");
                    let served = truth[i].pop().map(|(_, (_, cell))| cell);
                    assert_eq!(plane.pop(i, o), served);
                    pops += 1;
                }
                plane.settle(slot);
                truth.iter_mut().for_each(|q| q.settle(slot));
                let lost: Vec<_> = plane
                    .take_losses()
                    .iter()
                    .map(|l| (l.input, l.output, l.reason, l.cell))
                    .collect();
                let mut expect = Vec::new();
                for (i, q) in truth.iter_mut().enumerate() {
                    expect.extend(
                        q.take_losses()
                            .iter()
                            .map(|l| (i, l.payload.0, l.reason, l.payload.1)),
                    );
                }
                assert_eq!(lost, expect);
                for (i, q) in truth.iter().enumerate() {
                    assert_eq!(plane.queue(i).map(FdlQueue::ledger), Some(q.ledger()));
                }
            }
            assert!(pops > 5 * ports, "{ports} ports: only {pops} pops");
        }
    }
}
