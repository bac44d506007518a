//! The one-iteration-per-slot accumulating matcher used as the
//! sub-scheduler building block of FLPPR, the prior-art pipelined arbiter
//! and iSLIP.
//!
//! Hardware schedulers cannot run log₂N grant/accept iterations inside one
//! 51.2 ns cell cycle, so pipelined designs spread a matching's iterations
//! over several cycles. A [`SubScheduler`] holds a partial matching over a
//! VOQ occupancy it *borrows*: [`SubScheduler::iterate`] performs one
//! round-robin grant/accept round (one "iteration"), and
//! [`SubScheduler::take`] harvests the accumulated matching and starts a
//! fresh one.
//!
//! The state is what the hardware holds — matched masks, pointers and a
//! partial matching — as flat word tables on the one priority encoder
//! ([`pick`]). The counts and their requester mask stay with the owner,
//! which passes them to every call: K engines that are all told of every
//! arrival and departure see one matrix, so they share it. A cell claimed
//! by the in-progress matching needs no bit of its own either: an input is
//! in at most one pair, so the reservation *is* the output the input is
//! matched to, and a grant already masks matched inputs out.

use crate::matching::pick;
use crate::requests::{Matching, Requests};

/// `matched_out` of an unmatched input.
const UNMATCHED: u32 = u32::MAX;

/// A pipelined matching engine for an n×n crossbar with `out_capacity`
/// receivers per output.
#[derive(Debug, Clone)]
pub struct SubScheduler {
    n: usize,
    out_capacity: usize,
    /// Words per requester row and per input mask: `n.div_ceil(64)`.
    words: usize,
    /// Words per grant row and per sub-port mask.
    sp_words: usize,
    /// Per-output *effective* capacity (≤ `out_capacity`), lowered by the
    /// owner when fault masking degrades an egress.
    out_cap: Vec<u32>,
    in_matched: Vec<u64>,
    subport_used: Vec<u64>,
    /// Per output sub-port, over inputs.
    grant_ptr: Vec<u32>,
    /// Per input, over output sub-ports.
    accept_ptr: Vec<u32>,
    /// Row i, `sp_words` words: the sub-ports that granted input i in the
    /// current iteration; all zero between iterations.
    grants: Vec<u64>,
    /// Inputs granted in the current iteration.
    granted: Vec<u64>,
    /// Accumulated partial matching: (input, output, sub-port), in accept
    /// order except where an un-match moved the last pair into a hole.
    pairs: Vec<(u32, u32, u32)>,
    /// Per matched input, its position in `pairs`.
    pair_of: Vec<u32>,
    /// Per input, the output it is matched to — the one cell of its VOQs
    /// the in-progress matching has claimed — or [`UNMATCHED`].
    matched_out: Vec<u32>,
}

impl SubScheduler {
    /// Fresh engine for an `n`-port crossbar.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0);
        assert!(n * out_capacity < UNMATCHED as usize);
        let (words, sp_words) = (n.div_ceil(64), (n * out_capacity).div_ceil(64));
        SubScheduler {
            n,
            out_capacity,
            words,
            sp_words,
            out_cap: vec![out_capacity as u32; n],
            in_matched: vec![0; words],
            subport_used: vec![0; sp_words],
            // Stagger sub-port pointers so a dual-receiver output's two
            // grant arbiters do not grant the same input on slot 0.
            grant_ptr: (0..n * out_capacity)
                .map(|sp| (sp % out_capacity % n) as u32)
                .collect(),
            accept_ptr: vec![0; n],
            grants: vec![0; n * sp_words],
            granted: vec![0; words],
            pairs: Vec::with_capacity(n),
            pair_of: vec![0; n],
            matched_out: vec![UNMATCHED; n],
        }
    }

    /// Remove the pair at `pos` from the partial matching, freeing its
    /// input, its sub-port and the cell it had claimed. The last pair
    /// takes its place.
    fn unmatch(&mut self, pos: usize) {
        let (i, _, sp) = self.pairs.swap_remove(pos);
        if let Some(&(moved, _, _)) = self.pairs.get(pos) {
            self.pair_of[moved as usize] = pos as u32;
        }
        let (i, sp) = (i as usize, sp as usize);
        self.matched_out[i] = UNMATCHED;
        self.in_matched[i / 64] &= !(1 << (i % 64));
        self.subport_used[sp / 64] &= !(1 << (sp % 64));
    }

    /// Ports.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// The owner's VOQ (input, output) just emptied — this engine's grant
    /// was issued, or another sub-scheduler's grant consumed the cell. If
    /// the in-progress matching had claimed the now-gone cell, the stale
    /// pair is un-matched immediately so the input and output become
    /// available again (FLPPR's duplicate-removal step; without it a
    /// served cell would block its input and output in every other
    /// sub-scheduler for up to K cycles).
    pub fn note_departure(&mut self, input: usize, output: usize) {
        if self.matched_out[input] == output as u32 {
            let pos = self.pair_of[input] as usize;
            assert!(
                self.pairs[pos].0 == input as u32 && self.pairs[pos].1 == output as u32,
                "a reservation implies a matched pair"
            );
            self.unmatch(pos);
        }
    }

    /// Size of the partial matching accumulated so far.
    pub fn partial_len(&self) -> usize {
        self.pairs.len()
    }

    /// Degrade (or restore) one output's effective capacity. Lowering the
    /// cap un-matches any in-progress pairs on the now-dead sub-ports so
    /// their inputs become grantable elsewhere this very iteration.
    pub fn set_output_capacity(&mut self, output: usize, cap: usize) {
        let cap = cap.min(self.out_capacity) as u32;
        if self.out_cap[output] == cap {
            return;
        }
        self.out_cap[output] = cap;
        let first_dead = (output * self.out_capacity) as u32 + cap;
        let mut k = 0;
        while k < self.pairs.len() {
            let (_, o, sp) = self.pairs[k];
            if o as usize == output && sp >= first_dead {
                self.unmatch(k);
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
    pub fn iterate(&mut self, counts: &Requests, move_pointers: bool) {
        let (n, r, words, sp_words) = (self.n, self.out_capacity, self.words, self.sp_words);
        // Grant: every free live sub-port of an output with requests
        // picks one of the output's unmatched requesters. A claimed cell
        // needs no masking of its own: its input is matched.
        for (w, &asked) in counts.requested().iter().enumerate() {
            let mut outs = asked;
            while outs != 0 {
                let o = w * 64 + outs.trailing_zeros() as usize;
                outs &= outs - 1;
                let (row, taken) = (counts.requesters(o), &self.in_matched);
                // Every requester already matched: common once a matching
                // has accumulated, and cheaper to see here than per sub-port.
                if (0..words).all(|k| row[k] & !taken[k] == 0) {
                    continue;
                }
                for sp in o * r..o * r + self.out_cap[o] as usize {
                    if self.subport_used[sp / 64] & 1 << (sp % 64) != 0 {
                        continue;
                    }
                    let from = self.grant_ptr[sp] as usize;
                    let Some(i) = pick(words, from, |k| row[k] & !taken[k]) else {
                        break;
                    };
                    self.grants[i * sp_words + sp / 64] |= 1 << (sp % 64);
                    self.granted[i / 64] |= 1 << (i % 64);
                }
            }
        }
        // Accept: every granted input picks one of its granters.
        for w in 0..words {
            let mut ins = std::mem::take(&mut self.granted[w]);
            while ins != 0 {
                let i = w * 64 + ins.trailing_zeros() as usize;
                ins &= ins - 1;
                let row = i * sp_words;
                let (grants, from) = (&self.grants, self.accept_ptr[i] as usize);
                let Some(sp) = pick(sp_words, from, |k| grants[row + k]) else {
                    continue;
                };
                self.grants[row..row + sp_words].fill(0);
                let o = (sp as u32 / r as u32) as usize;
                self.in_matched[i / 64] |= 1 << (i % 64);
                self.subport_used[sp / 64] |= 1 << (sp % 64);
                self.matched_out[i] = o as u32;
                self.pair_of[i] = self.pairs.len() as u32;
                self.pairs.push((i as u32, o as u32, sp as u32));
                if move_pointers {
                    self.grant_ptr[sp] = if i + 1 == n { 0 } else { i as u32 + 1 };
                    self.accept_ptr[i] = if sp + 1 == n * r { 0 } else { sp as u32 + 1 };
                }
            }
        }
    }

    /// Harvest the accumulated matching and reset for the next one.
    /// Granted cells are removed by the owner once the grants are
    /// validated and issued.
    pub fn take(&mut self, out: &mut Matching) {
        out.clear();
        for (i, o, _) in self.pairs.drain(..) {
            out.push(i as usize, o as usize);
            self.matched_out[i as usize] = UNMATCHED;
        }
        self.in_matched.fill(0);
        self.subport_used.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Saturating, as an owner's validated `try_dec` is; the engine hears
    /// of it only when the VOQ emptied, as from FLPPR's `tick`.
    fn depart(s: &mut SubScheduler, req: &mut Requests, i: usize, o: usize) {
        req.try_dec(i, o);
        if req.get(i, o) == 0 {
            s.note_departure(i, o);
        }
    }

    #[test]
    fn one_iteration_matches_uncontended_requests() {
        let (mut s, mut req) = (SubScheduler::new(8, 1), Requests::square(8));
        req.inc(1, 2);
        req.inc(3, 4);
        s.iterate(&req, true);
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
        let (mut s, mut req) = (SubScheduler::new(4, 1), Requests::square(4));
        // Everyone wants output 0 plus a private output.
        for i in 0..4 {
            req.inc(i, 0);
            req.inc(i, (i + 1) % 4);
        }
        s.iterate(&req, true);
        let after1 = s.partial_len();
        s.iterate(&req, true);
        s.iterate(&req, true);
        let after3 = s.partial_len();
        assert!(after3 >= after1);
        let mut m = Matching::new();
        s.take(&mut m);
        m.validate(&req, 1).unwrap();
    }

    #[test]
    fn reserved_cells_not_rematched() {
        let (mut s, mut req) = (SubScheduler::new(4, 1), Requests::square(4));
        req.inc(0, 0); // exactly one cell
        s.iterate(&req, true);
        s.iterate(&req, true);
        assert_eq!(s.partial_len(), 1, "single cell matched once");
    }

    #[test]
    fn departure_is_saturating() {
        let (mut s, mut req) = (SubScheduler::new(4, 1), Requests::square(4));
        depart(&mut s, &mut req, 0, 0); // no cell: must not underflow
        req.inc(0, 0);
        depart(&mut s, &mut req, 0, 0);
        s.iterate(&req, true);
        assert_eq!(s.partial_len(), 0, "view empty after departure");
    }

    #[test]
    fn dual_capacity_matches_two_per_output() {
        let (mut s, mut req) = (SubScheduler::new(4, 2), Requests::square(4));
        for i in 0..4 {
            req.inc(i, 0);
        }
        s.iterate(&req, true);
        assert_eq!(s.partial_len(), 2, "two receivers on output 0");
    }

    #[test]
    fn degraded_output_matches_fewer_and_recovers() {
        let (mut s, mut req) = (SubScheduler::new(4, 2), Requests::square(4));
        s.set_output_capacity(0, 1);
        for i in 0..4 {
            req.inc(i, 0);
        }
        s.iterate(&req, true);
        assert_eq!(s.partial_len(), 1, "one surviving receiver on output 0");
        let mut m = Matching::new();
        s.take(&mut m);
        s.set_output_capacity(0, 2);
        s.iterate(&req, true);
        s.iterate(&req, true);
        assert_eq!(s.partial_len(), 2, "full capacity after repair");
    }

    #[test]
    fn lowering_capacity_unmatches_in_progress_pairs() {
        let (mut s, mut req) = (SubScheduler::new(4, 2), Requests::square(4));
        for i in 0..4 {
            req.inc(i, 0);
            req.inc(i, 1);
        }
        s.iterate(&req, true);
        s.iterate(&req, true);
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
        s.iterate(&req, true);
        s.iterate(&req, true);
        let mut m2 = Matching::new();
        s.take(&mut m2);
        assert!(m2.pairs().iter().all(|&(_, o)| o != 0));
        assert!(!m2.is_empty(), "surviving output still matched");
    }

    /// Every table, rebuilt from `pairs` alone; every claimed cell still
    /// queued in `req`.
    fn assert_tables_consistent(s: &SubScheduler, req: &Requests, at: &str) {
        let (n, r) = (s.n, s.out_capacity);
        let mut matched_out = vec![UNMATCHED; n];
        let mut in_matched = vec![0u64; s.words];
        let mut subport_used = vec![0u64; s.sp_words];
        for (k, &(i, o, sp)) in s.pairs.iter().enumerate() {
            assert_eq!(s.pair_of[i as usize], k as u32, "{at}: index of input {i}");
            assert_eq!(matched_out[i as usize], UNMATCHED, "{at}: input {i} twice");
            assert!(
                sp / r as u32 == o && sp % (r as u32) < s.out_cap[o as usize],
                "{at}: pair ({i},{o}) on sub-port {sp}"
            );
            assert_eq!(subport_used[sp as usize / 64] >> (sp % 64) & 1, 0, "{at}");
            assert!(
                req.get(i as usize, o as usize) > 0,
                "{at}: ({i},{o}) served"
            );
            matched_out[i as usize] = o;
            in_matched[i as usize / 64] |= 1 << (i % 64);
            subport_used[sp as usize / 64] |= 1 << (sp % 64);
        }
        assert_eq!(s.matched_out, matched_out, "{at}");
        assert_eq!(s.in_matched, in_matched, "{at}");
        assert_eq!(s.subport_used, subport_used, "{at}");
        assert!(
            s.grants.iter().chain(&s.granted).all(|&w| w == 0),
            "{at}: grant scratch left set"
        );
    }

    #[test]
    fn tables_track_counts_through_random_runs() {
        use osmosis_sim::SimRng;
        for (n, r) in [
            (5usize, 1usize),
            (8, 2),
            (16, 3),
            (64, 2),
            (70, 1),
            (130, 2),
        ] {
            let mut rng = SimRng::seed_from_u64((n * 10 + r) as u64);
            let (mut s, mut req) = (SubScheduler::new(n, r), Requests::square(n));
            let mut m = Matching::new();
            let mut unmatched = 0;
            for step in 0..6_000 {
                let (i, o) = (rng.index(n), rng.index(n));
                match rng.index(12) {
                    0..=4 => req.inc(i, o),
                    // A departure, as often as not of a claimed cell.
                    5..=7 => {
                        let claimed = s
                            .pairs
                            .get(rng.index(n))
                            .map(|p| (p.0 as usize, p.1 as usize));
                        let (i, o) = claimed.unwrap_or((i, o));
                        let before = s.partial_len();
                        depart(&mut s, &mut req, i, o);
                        unmatched += before - s.partial_len();
                    }
                    8 | 9 => s.iterate(&req, rng.coin(0.5)),
                    10 => s.set_output_capacity(o, rng.index(r + 1)),
                    _ => {
                        s.take(&mut m);
                        // The owner serves what it validates.
                        for &(i, o) in m.pairs() {
                            depart(&mut s, &mut req, i, o);
                        }
                    }
                }
                assert_tables_consistent(&s, &req, &format!("n {n} r {r} step {step}"));
            }
            assert!(unmatched > 20, "n {n} r {r}: {unmatched} un-matches");
        }
    }
}
