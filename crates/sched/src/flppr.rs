//! FLPPR — Fast Low-latency Parallel Pipelined aRbitration (ref. [22],
//! the paper's key scheduler novelty).
//!
//! The problem: good matchings need ≈log₂N grant/accept iterations, but at
//! 51.2 ns per cell a hardware arbiter completes only *one* iteration per
//! cell cycle. Classic pipelined arbiters therefore spread each matching
//! over K = log₂N cycles — which makes *every* cell wait K cycles between
//! request and grant, even in an empty switch (see
//! [`crate::pipelined::PipelinedArbiter`]).
//!
//! FLPPR runs K sub-schedulers *in parallel*: every incoming request is
//! forwarded to all of them, each accumulates its own matching one
//! iteration per cycle, and sub-scheduler k issues the crossbar
//! configuration for cycles with `t mod K == k`. A newly arrived cell is
//! therefore picked up by the sub-scheduler issuing *next* — a
//! request-to-grant latency of a single cell cycle at low load (Fig. 6) —
//! while under saturation each issued matching still benefited from K
//! accumulated iterations, preserving high throughput. When one
//! sub-scheduler's grant consumes a cell, the duplicate request is removed
//! from the other K−1 views; grants are re-validated against the master
//! VOQ state at issue time so no phantom cell is ever launched.
//!
//! The K sub-schedulers hold no counts and no request bits of their own:
//! all are lent `master`, whose requester mask every grant pass reads.
//! That is exact — every one is told of every arrival and of every issued
//! grant, so by induction over `note_arrival`/`tick` K private count
//! matrices would each equal `master` after every call. What differs per
//! sub-scheduler is the cell its matching has claimed, and that is the
//! output its input is matched to: a claimed cell's input is masked out
//! of every grant anyway. So an arrival is one `master.inc`, and a
//! departure reaches the K sub-schedulers only when it empties its VOQ —
//! the one case where a claimed cell is gone.

use crate::requests::{Matching, Requests};
use crate::subsched::SubScheduler;
use crate::traits::CellScheduler;

/// The FLPPR scheduler.
#[derive(Debug, Clone)]
pub struct Flppr {
    /// Ground truth of the ingress VOQ occupancy.
    master: Requests,
    subs: Vec<SubScheduler>,
    out_capacity: usize,
    /// Per-output effective capacity under fault masking.
    out_cap: Vec<usize>,
    /// Per-slot issue counts, used only while masked.
    out_issued: Vec<usize>,
    /// Whether any output is currently degraded (fast-path gate: the
    /// unmasked tick does zero extra work).
    masked: bool,
    scratch: Matching,
    /// Grants dropped at validation because another sub-scheduler already
    /// served the cell (diagnostic).
    pub stale_grants: u64,
    /// Grants withheld at issue time because fault masking had removed
    /// the egress capacity; the cell stays queued and is re-granted once
    /// the output heals (diagnostic).
    pub masked_grants: u64,
}

impl Flppr {
    /// FLPPR for an `n`-port switch with `depth` parallel sub-schedulers
    /// and `out_capacity` receivers per output.
    pub fn new(n: usize, depth: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && depth > 0 && out_capacity > 0);
        Flppr {
            master: Requests::square(n),
            subs: (0..depth)
                .map(|_| SubScheduler::new(n, out_capacity))
                .collect(),
            out_capacity,
            out_cap: vec![out_capacity; n],
            out_issued: vec![0; n],
            masked: false,
            scratch: Matching::new(),
            stale_grants: 0,
            masked_grants: 0,
        }
    }

    /// The demonstrator configuration: depth log₂N (6 for 64 ports), so
    /// each issued matching accumulated log₂N iterations — the iteration
    /// count ref. [17] calls for.
    pub fn osmosis(n: usize, out_capacity: usize) -> Self {
        Self::new(n, crate::log2_ceil(n), out_capacity)
    }

    /// Number of parallel sub-schedulers.
    pub fn depth(&self) -> usize {
        self.subs.len()
    }

    /// The master occupancy view (for tests).
    pub fn occupancy(&self) -> &Requests {
        &self.master
    }
}

impl CellScheduler for Flppr {
    fn inputs(&self) -> usize {
        self.master.inputs()
    }

    fn outputs(&self) -> usize {
        self.master.outputs()
    }

    fn out_capacity(&self) -> usize {
        self.out_capacity
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        // The novelty: the request goes to *all* sub-schedulers, which
        // all read `master`.
        self.master.inc(input, output);
    }

    fn tick(&mut self, slot: u64) -> Matching {
        // Every sub-scheduler advances its matching by one iteration —
        // this is the per-cycle hardware work.
        for s in &mut self.subs {
            s.iterate(&self.master, true);
        }
        // The sub-scheduler owning this slot issues its matching.
        let k = (slot % self.subs.len() as u64) as usize;
        self.subs[k].take(&mut self.scratch);
        let mut issued = Matching::with_capacity(self.scratch.len());
        if self.masked {
            self.out_issued.iter_mut().for_each(|c| *c = 0);
        }
        for &(i, o) in self.scratch.pairs() {
            // Under fault masking, re-check the effective capacity at
            // issue time: the sub-scheduler may have accumulated this
            // pair before the output degraded. The request survives in
            // every view, so the cell is re-granted after repair.
            if self.masked && self.out_issued[o] >= self.out_cap[o] {
                self.masked_grants += 1;
                continue;
            }
            // Validate against the master: the cell may have been served
            // by another sub-scheduler in the meantime.
            if self.master.try_dec(i, o) {
                if self.masked {
                    self.out_issued[o] += 1;
                }
                issued.push(i, o);
                // Remove the duplicate request everywhere: a claim on
                // the VOQ's last cell is now stale.
                if self.master.get(i, o) == 0 {
                    for s in &mut self.subs {
                        s.note_departure(i, o);
                    }
                }
            } else {
                self.stale_grants += 1;
            }
        }
        issued
    }

    fn set_output_capacity(&mut self, output: usize, cap: usize) {
        let cap = cap.min(self.out_capacity);
        if self.out_cap[output] == cap {
            return;
        }
        self.out_cap[output] = cap;
        self.masked = self.out_cap.iter().any(|&c| c < self.out_capacity);
        for s in &mut self.subs {
            s.set_output_capacity(output, cap);
        }
    }

    fn output_capacity(&self, output: usize) -> usize {
        self.out_cap[output]
    }

    fn name(&self) -> &'static str {
        "FLPPR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SimRng;

    /// One sub-scheduler as dense matrices and linear scans: its own
    /// copy of the counts, an explicit matrix of cells claimed by the
    /// in-progress matching, one flag per input and per sub-port.
    struct ScalarSub {
        n: usize,
        r: usize,
        /// Cells queued, `[output][input]`, as is `reserved`.
        req: Vec<Vec<u32>>,
        /// Cells queued for each output, over all inputs: a sub-port of
        /// an output with none is not scanned.
        queued_for: Vec<u32>,
        reserved: Vec<Vec<u32>>,
        out_cap: Vec<usize>,
        in_matched: Vec<bool>,
        subport_used: Vec<bool>,
        /// (input, output, sub-port).
        pairs: Vec<(usize, usize, usize)>,
        /// Grant pointer per output sub-port, over inputs.
        grant_ptr: Vec<usize>,
        /// Accept pointer per input, over output sub-ports.
        accept_ptr: Vec<usize>,
    }

    impl ScalarSub {
        fn new(n: usize, r: usize) -> Self {
            ScalarSub {
                n,
                r,
                req: vec![vec![0; n]; n],
                queued_for: vec![0; n],
                reserved: vec![vec![0; n]; n],
                out_cap: vec![r; n],
                in_matched: vec![false; n],
                subport_used: vec![false; n * r],
                pairs: Vec::new(),
                grant_ptr: (0..n * r).map(|sp| sp % r % n).collect(),
                accept_ptr: vec![0; n],
            }
        }

        fn unmatch(&mut self, pos: usize) {
            let (i, o, sp) = self.pairs.swap_remove(pos);
            self.in_matched[i] = false;
            self.subport_used[sp] = false;
            self.reserved[o][i] -= 1;
        }

        fn arrive(&mut self, i: usize, o: usize) {
            self.req[o][i] += 1;
            self.queued_for[o] += 1;
        }

        fn depart(&mut self, i: usize, o: usize) {
            if self.req[o][i] > 0 {
                self.req[o][i] -= 1;
                self.queued_for[o] -= 1;
            }
            while self.reserved[o][i] > self.req[o][i] {
                let stale = self
                    .pairs
                    .iter()
                    .position(|&(pi, po, _)| (pi, po) == (i, o));
                self.unmatch(stale.expect("a reserved cell has its pair"));
            }
        }

        fn set_output_capacity(&mut self, output: usize, cap: usize) {
            self.out_cap[output] = cap;
            let mut k = 0;
            while k < self.pairs.len() {
                let (_, o, sp) = self.pairs[k];
                if o == output && sp - o * self.r >= cap {
                    self.unmatch(k);
                } else {
                    k += 1;
                }
            }
        }

        fn iterate(&mut self) {
            let (n, r) = (self.n, self.r);
            // Per input, the sub-ports that granted it.
            let mut grants = vec![Vec::new(); n];
            for sp in 0..n * r {
                let o = sp / r;
                if self.subport_used[sp] || sp % r >= self.out_cap[o] || self.queued_for[o] == 0 {
                    continue;
                }
                // The first unmatched requester at or after the pointer.
                let (req, reserved) = (&self.req[o], &self.reserved[o]);
                let mut i = self.grant_ptr[sp];
                for _ in 0..n {
                    if !self.in_matched[i] && req[i] > reserved[i] {
                        grants[i].push(sp);
                        break;
                    }
                    i = if i + 1 == n { 0 } else { i + 1 };
                }
            }
            for (i, granters) in grants.iter().enumerate() {
                // The first granter at or after the accept pointer.
                let behind = |sp: &&usize| (**sp + n * r - self.accept_ptr[i]) % (n * r);
                if let Some(&sp) = granters.iter().min_by_key(behind) {
                    self.in_matched[i] = true;
                    self.subport_used[sp] = true;
                    self.reserved[sp / r][i] += 1;
                    self.pairs.push((i, sp / r, sp));
                    self.grant_ptr[sp] = (i + 1) % n;
                    self.accept_ptr[i] = (sp + 1) % (n * r);
                }
            }
        }

        fn take(&mut self) -> Vec<(usize, usize)> {
            self.in_matched.fill(false);
            self.subport_used.fill(false);
            self.reserved.iter_mut().for_each(|row| row.fill(0));
            self.pairs.drain(..).map(|(i, o, _)| (i, o)).collect()
        }
    }

    /// FLPPR over [`ScalarSub`]s, sharing nothing with [`SubScheduler`]
    /// or the priority encoder: the grants [`Flppr`] must issue, pair for
    /// pair and in issue order.
    struct ScalarFlppr {
        master: Vec<Vec<u32>>,
        subs: Vec<ScalarSub>,
        out_cap: Vec<usize>,
        stale_grants: u64,
        masked_grants: u64,
    }

    impl ScalarFlppr {
        fn new(n: usize, depth: usize, r: usize) -> Self {
            ScalarFlppr {
                master: vec![vec![0; n]; n],
                subs: (0..depth).map(|_| ScalarSub::new(n, r)).collect(),
                out_cap: vec![r; n],
                stale_grants: 0,
                masked_grants: 0,
            }
        }

        fn note_arrival(&mut self, i: usize, o: usize) {
            self.master[i][o] += 1;
            for s in &mut self.subs {
                s.arrive(i, o);
            }
        }

        fn set_output_capacity(&mut self, output: usize, cap: usize) {
            self.out_cap[output] = cap;
            for s in &mut self.subs {
                s.set_output_capacity(output, cap);
            }
        }

        fn tick(&mut self, slot: u64) -> Vec<(usize, usize)> {
            for s in &mut self.subs {
                s.iterate();
            }
            let k = (slot % self.subs.len() as u64) as usize;
            let mut out_issued = vec![0; self.out_cap.len()];
            let mut issued = Vec::new();
            for (i, o) in self.subs[k].take() {
                if out_issued[o] >= self.out_cap[o] {
                    self.masked_grants += 1;
                } else if self.master[i][o] == 0 {
                    self.stale_grants += 1;
                } else {
                    self.master[i][o] -= 1;
                    out_issued[o] += 1;
                    issued.push((i, o));
                    for s in &mut self.subs {
                        s.depart(i, o);
                    }
                }
            }
            issued
        }
    }

    #[test]
    fn matches_the_scalar_flppr_pair_for_pair() {
        for n in [5usize, 8, 16, 64, 70, 130] {
            for receivers in [1usize, 2] {
                for depth in [1, 3, crate::log2_ceil(n)] {
                    for seed in 0..20u64 {
                        let mut rng = SimRng::seed_from_u64(seed * 1_000 + n as u64);
                        let mut fast = Flppr::new(n, depth, receivers);
                        let mut slow = ScalarFlppr::new(n, depth, receivers);
                        // One in `idle` inputs sits a slot out: from
                        // saturation down to a trickle across the seeds.
                        let idle = 1 + rng.index(6);
                        let mut granted = 0;
                        for slot in 0..400 {
                            for i in 0..n {
                                if rng.index(idle) == 0 {
                                    let o = rng.index(n);
                                    fast.note_arrival(i, o);
                                    slow.note_arrival(i, o);
                                }
                            }
                            // Receivers die and are repaired, sometimes
                            // both of an output at once.
                            if rng.index(20) == 0 {
                                let (o, cap) = (rng.index(n), rng.index(receivers + 1));
                                fast.set_output_capacity(o, cap);
                                slow.set_output_capacity(o, cap);
                            }
                            let got = fast.tick(slot);
                            let at = format!(
                                "n {n} receivers {receivers} depth {depth} seed {seed} slot {slot}"
                            );
                            assert_eq!(got.pairs(), slow.tick(slot), "{at}");
                            assert_eq!(fast.stale_grants, slow.stale_grants, "{at}");
                            assert_eq!(fast.masked_grants, slow.masked_grants, "{at}");
                            granted += got.len();
                        }
                        assert!(granted > 20 * n, "n {n} seed {seed}: {granted} grants");
                    }
                }
            }
        }
    }

    /// Single cell into an idle switch: granted at the very next tick —
    /// the Fig. 6 headline behaviour.
    #[test]
    fn lone_cell_granted_in_one_cycle() {
        let mut s = Flppr::osmosis(64, 1);
        assert_eq!(s.depth(), 6);
        // Arrival lands between tick(i) and tick(i+1).
        s.tick(0);
        s.note_arrival(17, 42);
        let m = s.tick(1);
        assert_eq!(m.pairs(), &[(17, 42)], "granted one cycle after request");
    }

    #[test]
    fn lone_cell_granted_next_cycle_from_any_phase() {
        // The property must hold regardless of which sub-scheduler issues
        // next (the pipeline phase at arrival time).
        for phase in 0..6u64 {
            let mut s = Flppr::osmosis(64, 1);
            for t in 0..=phase {
                assert!(s.tick(t).is_empty());
            }
            s.note_arrival(3, 9);
            let m = s.tick(phase + 1);
            assert_eq!(m.pairs(), &[(3, 9)], "phase {phase}");
        }
    }

    #[test]
    fn no_phantom_grants_under_duplication() {
        // One cell, many sub-schedulers all match it; only one grant may
        // fire and the rest must be dropped as stale.
        let mut s = Flppr::new(8, 4, 1);
        s.note_arrival(2, 5);
        let mut granted = 0;
        for t in 0..8 {
            granted += s.tick(t).len();
        }
        assert_eq!(granted, 1, "exactly one grant for one cell");
        assert_eq!(
            s.stale_grants, 0,
            "duplicate removal must strip the copies before they issue"
        );
        assert!(s.occupancy().is_empty());
    }

    #[test]
    fn grants_respect_crossbar_constraints() {
        let mut s = Flppr::new(8, 3, 1);
        let mut shadow = Requests::square(8);
        for i in 0..8 {
            for o in 0..8 {
                if (i + o) % 2 == 0 {
                    s.note_arrival(i, o);
                    shadow.inc(i, o);
                }
            }
        }
        for t in 0..20 {
            let m = s.tick(t);
            m.validate(&shadow, 1).unwrap();
            for &(i, o) in m.pairs() {
                shadow.dec(i, o);
            }
        }
    }

    #[test]
    fn conservation_all_cells_eventually_served() {
        let mut s = Flppr::new(8, 3, 1);
        let mut injected = 0u64;
        for i in 0..8 {
            for o in 0..8 {
                for _ in 0..5 {
                    s.note_arrival(i, o);
                    injected += 1;
                }
            }
        }
        let mut served = 0u64;
        for t in 0..200 {
            served += s.tick(t).len() as u64;
        }
        assert_eq!(served, injected, "work conservation");
        assert!(s.occupancy().is_empty());
    }

    #[test]
    fn saturated_uniform_throughput_is_high() {
        // Table 1: sustained throughput > 95%. Saturate all VOQs and
        // measure grant rate.
        let n = 16;
        let mut s = Flppr::osmosis(n, 1);
        for i in 0..n {
            for o in 0..n {
                for _ in 0..80 {
                    s.note_arrival(i, o);
                }
            }
        }
        let slots = 400u64;
        let granted: usize = (0..slots).map(|t| s.tick(t).len()).sum();
        let thr = granted as f64 / (slots as f64 * n as f64);
        assert!(thr > 0.95, "throughput {thr}");
    }

    #[test]
    fn dual_receiver_serves_hot_output_twice_per_slot() {
        let mut s = Flppr::new(8, 3, 2);
        for i in 0..8 {
            for _ in 0..6 {
                s.note_arrival(i, 0);
            }
        }
        // 48 cells for output 0; with 2 receivers the drain rate is 2/slot
        // once the pipeline is warm.
        let mut drained = 0;
        for t in 0..30 {
            let m = s.tick(t);
            assert!(m.len() <= 2);
            drained += m.len();
        }
        assert_eq!(drained, 48);
    }

    #[test]
    fn depth_one_is_immediate_islip_like() {
        let mut s = Flppr::new(4, 1, 1);
        s.note_arrival(0, 1);
        let m = s.tick(0);
        assert_eq!(m.pairs(), &[(0, 1)]);
    }

    #[test]
    fn masked_output_receives_no_grants_until_repair() {
        let mut s = Flppr::new(8, 3, 1);
        for i in 0..8 {
            s.note_arrival(i, 0);
            s.note_arrival(i, 1);
        }
        s.set_output_capacity(0, 0);
        let mut to_dead = 0usize;
        let mut to_live = 0usize;
        for t in 0..40 {
            for &(_, o) in s.tick(t).pairs() {
                if o == 0 {
                    to_dead += 1;
                } else {
                    to_live += 1;
                }
            }
        }
        assert_eq!(to_dead, 0, "dead output must receive nothing");
        assert_eq!(to_live, 8, "surviving output drains normally");
        assert_eq!(s.occupancy().total(), 8, "masked cells stay queued");
        // Repair: the withheld cells drain with no loss.
        s.set_output_capacity(0, 1);
        let mut drained = 0usize;
        for t in 40..120 {
            drained += s.tick(t).len();
        }
        assert_eq!(drained, 8, "every masked cell served after repair");
        assert!(s.occupancy().is_empty());
    }

    #[test]
    fn receiver_failover_halves_hot_output_drain_rate() {
        let mut s = Flppr::new(8, 3, 2);
        for i in 0..8 {
            for _ in 0..6 {
                s.note_arrival(i, 0);
            }
        }
        // One of the two burst-mode receivers dies: drain rate must drop
        // to at most one cell per slot, but service continues.
        s.set_output_capacity(0, 1);
        let mut drained = 0;
        for t in 0..60 {
            let m = s.tick(t);
            assert!(m.len() <= 1, "failover caps grants at one per slot");
            drained += m.len();
        }
        assert_eq!(drained, 48, "all cells served through the survivor");
    }

    #[test]
    fn unmasked_behaviour_is_unchanged_by_the_masking_machinery() {
        // Degrade then fully repair before any traffic: the subsequent
        // grant sequence must equal a scheduler that was never touched.
        let run = |touch: bool| {
            let mut s = Flppr::new(8, 3, 1);
            if touch {
                s.set_output_capacity(2, 0);
                s.set_output_capacity(2, 1);
            }
            let mut grants = Vec::new();
            for i in 0..8 {
                for o in 0..8 {
                    if (i * 3 + o) % 2 == 0 {
                        s.note_arrival(i, o);
                    }
                }
            }
            for t in 0..50 {
                grants.extend(s.tick(t).pairs().to_vec());
            }
            grants
        };
        assert_eq!(run(false), run(true));
    }
}
