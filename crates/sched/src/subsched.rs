//! The one-iteration-per-slot accumulating matcher used as the
//! sub-scheduler building block of both FLPPR and the prior-art pipelined
//! arbiter.
//!
//! Hardware schedulers cannot run log₂N grant/accept iterations inside one
//! 51.2 ns cell cycle, so pipelined designs spread a matching's iterations
//! over several cycles. A [`SubScheduler`] owns its request view and a
//! partial matching; [`SubScheduler::iterate`] performs one round-robin
//! grant/accept round (one "iteration"), and [`SubScheduler::take`]
//! harvests the accumulated matching and starts a fresh one.

use crate::arbiter::{BitSet, RoundRobinArbiter};
use crate::requests::{Matching, Requests};

/// A pipelined matching engine for an n×n crossbar with `out_capacity`
/// receivers per output.
#[derive(Debug, Clone)]
pub struct SubScheduler {
    /// This sub-scheduler's view of the VOQ occupancy.
    pub req: Requests,
    /// Cells already claimed by the in-progress matching.
    reserved: Requests,
    out_capacity: usize,
    /// Per-output *effective* capacity (≤ `out_capacity`), lowered by the
    /// owner when fault masking degrades an egress.
    out_cap: Vec<usize>,
    in_matched: Vec<bool>,
    /// Bit i set ⇔ input i is matched (word-parallel mirror of
    /// `in_matched` for the grant stage).
    in_matched_bits: BitSet,
    subport_used: Vec<bool>,
    /// Accumulated partial matching: (input, output, sub-port).
    pairs: Vec<(usize, usize, usize)>,
    grant_arb: Vec<RoundRobinArbiter>,
    accept_arb: Vec<RoundRobinArbiter>,
    grants_to_input: Vec<BitSet>,
    /// Per output: bit i set ⇔ req(i,o) > reserved(i,o) — maintained
    /// incrementally so the grant stage is O(N/64) per output instead of
    /// an O(N) scan.
    req_bits: Vec<BitSet>,
    requesters: BitSet,
}

impl SubScheduler {
    /// Fresh engine for an `n`-port crossbar.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0);
        SubScheduler {
            req: Requests::square(n),
            reserved: Requests::square(n),
            out_capacity,
            out_cap: vec![out_capacity; n],
            in_matched: vec![false; n],
            in_matched_bits: BitSet::new(n),
            subport_used: vec![false; n * out_capacity],
            pairs: Vec::with_capacity(n),
            // Stagger sub-port pointers so a dual-receiver output's two
            // grant arbiters do not grant the same input on slot 0.
            grant_arb: (0..n * out_capacity)
                .map(|sp| RoundRobinArbiter::with_pointer(n, sp % out_capacity))
                .collect(),
            accept_arb: (0..n)
                .map(|_| RoundRobinArbiter::new(n * out_capacity))
                .collect(),
            grants_to_input: (0..n).map(|_| BitSet::new(n * out_capacity)).collect(),
            req_bits: (0..n).map(|_| BitSet::new(n)).collect(),
            requesters: BitSet::new(n),
        }
    }

    /// Keep `req_bits[o]` consistent with `req`/`reserved` at (i, o).
    #[inline]
    fn refresh_bit(&mut self, i: usize, o: usize) {
        if self.req.get(i, o) > self.reserved.get(i, o) {
            self.req_bits[o].set(i);
        } else {
            self.req_bits[o].clear(i);
        }
    }

    /// Ports.
    pub fn ports(&self) -> usize {
        self.req.inputs()
    }

    /// Record a request (cell arrival) in this sub-scheduler's view.
    pub fn note_arrival(&mut self, input: usize, output: usize) {
        self.req.inc(input, output);
        self.refresh_bit(input, output);
    }

    /// Remove one cell for (input, output) from this view, saturating —
    /// used when another sub-scheduler's grant consumed the cell. If the
    /// in-progress matching had claimed the now-gone cell, the stale pair
    /// is un-matched immediately so the input and output become available
    /// again (FLPPR's duplicate-removal step; without it a served cell
    /// would block its input and output in every other sub-scheduler for
    /// up to K cycles).
    pub fn note_departure(&mut self, input: usize, output: usize) {
        self.req.try_dec(input, output);
        while self.reserved.get(input, output) > self.req.get(input, output) {
            let pos = self
                .pairs
                .iter()
                .position(|&(i, o, _)| i == input && o == output)
                // lint:allow(panic-free): `reserved` is only incremented
                // when a pair is pushed, so a surplus implies a match
                .expect("reserved count implies a matched pair");
            let (_, _, sp) = self.pairs.swap_remove(pos);
            self.in_matched[input] = false;
            self.in_matched_bits.clear(input);
            self.subport_used[sp] = false;
            self.reserved.dec(input, output);
        }
        self.refresh_bit(input, output);
    }

    /// Size of the partial matching accumulated so far.
    pub fn partial_len(&self) -> usize {
        self.pairs.len()
    }

    /// Degrade (or restore) one output's effective capacity. Lowering the
    /// cap un-matches any in-progress pairs on the now-dead sub-ports so
    /// their inputs become grantable elsewhere this very iteration.
    pub fn set_output_capacity(&mut self, output: usize, cap: usize) {
        let cap = cap.min(self.out_capacity);
        if self.out_cap[output] == cap {
            return;
        }
        self.out_cap[output] = cap;
        let r = self.out_capacity;
        let mut k = 0;
        while k < self.pairs.len() {
            let (i, o, sp) = self.pairs[k];
            if o == output && sp - o * r >= cap {
                self.pairs.swap_remove(k);
                self.in_matched[i] = false;
                self.in_matched_bits.clear(i);
                self.subport_used[sp] = false;
                self.reserved.dec(i, o);
                self.refresh_bit(i, o);
            } else {
                k += 1;
            }
        }
    }

    /// Perform one grant/accept iteration, extending the partial matching.
    /// `move_pointers` is the pointer rule, the one thing the owners
    /// disagree on: every accept advances its grant and accept pointers
    /// when set (FLPPR and the pipelined arbiter, one iteration per
    /// cycle); iSLIP sets it on the first iteration of a slot only, so
    /// later iterations cannot starve a first-iteration loser.
    pub fn iterate(&mut self, move_pointers: bool) {
        let n = self.ports();
        let r = self.out_capacity;
        for g in &mut self.grants_to_input {
            g.clear_all();
        }
        let mut any = false;
        for o in 0..n {
            for sub in 0..self.out_cap[o] {
                let sp = o * r + sub;
                if self.subport_used[sp] {
                    continue;
                }
                self.requesters
                    .assign_and_not(&self.req_bits[o], &self.in_matched_bits);
                if self.requesters.is_empty() {
                    continue;
                }
                if let Some(i) = self.grant_arb[sp].arbitrate(&self.requesters) {
                    self.grants_to_input[i].set(sp);
                    any = true;
                }
            }
        }
        if !any {
            return;
        }
        for i in 0..n {
            if self.in_matched[i] || self.grants_to_input[i].is_empty() {
                continue;
            }
            if let Some(sp) = self.accept_arb[i].arbitrate(&self.grants_to_input[i]) {
                let o = sp / r;
                self.in_matched[i] = true;
                self.in_matched_bits.set(i);
                self.subport_used[sp] = true;
                self.reserved.inc(i, o);
                self.refresh_bit(i, o);
                self.pairs.push((i, o, sp));
                if move_pointers {
                    self.grant_arb[sp].advance_past(i);
                    self.accept_arb[i].advance_past(sp);
                }
            }
        }
    }

    /// Harvest the accumulated matching and reset for the next one.
    /// The request view is *not* touched: granted cells are removed by the
    /// owner once the grants are validated and issued.
    pub fn take(&mut self, out: &mut Matching) {
        out.clear();
        for &(i, o, _) in &self.pairs {
            out.push(i, o);
        }
        // Releasing the reservations can only *add* requester bits, and
        // only at the matched pairs.
        let pairs = std::mem::take(&mut self.pairs);
        self.in_matched.fill(false);
        self.in_matched_bits.clear_all();
        self.subport_used.fill(false);
        self.reserved.clear_all();
        for &(i, o, _) in &pairs {
            self.refresh_bit(i, o);
        }
        self.pairs = pairs;
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_iteration_matches_uncontended_requests() {
        let mut s = SubScheduler::new(8, 1);
        s.note_arrival(1, 2);
        s.note_arrival(3, 4);
        s.iterate(true);
        assert_eq!(s.partial_len(), 2);
        let mut m = Matching::new();
        s.take(&mut m);
        let mut pairs = m.pairs().to_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
        assert_eq!(s.partial_len(), 0, "reset after take");
    }

    #[test]
    fn iterations_accumulate_without_double_booking() {
        let mut s = SubScheduler::new(4, 1);
        // Everyone wants output 0 plus a private output.
        for i in 0..4 {
            s.note_arrival(i, 0);
            s.note_arrival(i, (i + 1) % 4);
        }
        s.iterate(true);
        let after1 = s.partial_len();
        s.iterate(true);
        s.iterate(true);
        let after3 = s.partial_len();
        assert!(after3 >= after1);
        let mut m = Matching::new();
        s.take(&mut m);
        m.validate(&s.req, 1).unwrap();
    }

    #[test]
    fn reserved_cells_not_rematched() {
        let mut s = SubScheduler::new(4, 1);
        s.note_arrival(0, 0); // exactly one cell
        s.iterate(true);
        s.iterate(true);
        assert_eq!(s.partial_len(), 1, "single cell matched once");
    }

    #[test]
    fn departure_is_saturating() {
        let mut s = SubScheduler::new(4, 1);
        s.note_departure(0, 0); // no cell: must not underflow
        s.note_arrival(0, 0);
        s.note_departure(0, 0);
        s.iterate(true);
        assert_eq!(s.partial_len(), 0, "view empty after departure");
    }

    #[test]
    fn dual_capacity_matches_two_per_output() {
        let mut s = SubScheduler::new(4, 2);
        for i in 0..4 {
            s.note_arrival(i, 0);
        }
        s.iterate(true);
        assert_eq!(s.partial_len(), 2, "two receivers on output 0");
    }

    #[test]
    fn degraded_output_matches_fewer_and_recovers() {
        let mut s = SubScheduler::new(4, 2);
        s.set_output_capacity(0, 1);
        for i in 0..4 {
            s.note_arrival(i, 0);
        }
        s.iterate(true);
        assert_eq!(s.partial_len(), 1, "one surviving receiver on output 0");
        let mut m = Matching::new();
        s.take(&mut m);
        s.set_output_capacity(0, 2);
        s.iterate(true);
        s.iterate(true);
        assert_eq!(s.partial_len(), 2, "full capacity after repair");
    }

    #[test]
    fn lowering_capacity_unmatches_in_progress_pairs() {
        let mut s = SubScheduler::new(4, 2);
        for i in 0..4 {
            s.note_arrival(i, 0);
            s.note_arrival(i, 1);
        }
        s.iterate(true);
        s.iterate(true);
        let before = s.partial_len();
        assert!(before >= 3, "warm matching uses both receivers");
        // Kill output 0 entirely: its pairs must be released so the
        // freed inputs can be re-matched toward output 1.
        s.set_output_capacity(0, 0);
        let mut m = Matching::new();
        s.take(&mut m);
        assert!(
            m.pairs().iter().all(|&(_, o)| o != 0),
            "no grant to dead output"
        );
        s.iterate(true);
        s.iterate(true);
        let mut m2 = Matching::new();
        s.take(&mut m2);
        assert!(m2.pairs().iter().all(|&(_, o)| o != 0));
        assert!(!m2.is_empty(), "surviving output still matched");
    }
}
