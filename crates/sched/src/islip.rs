//! iSLIP — the classic iterative round-robin matcher (McKeown, ref. \[17\]).
//!
//! The *non-pipelined* reference scheduler: it computes a complete
//! i-iteration matching within a single cell slot, which is exactly what
//! the paper argues is infeasible in hardware at 51.2 ns — the motivation
//! for FLPPR.
//!
//! The grant/accept round is [`SubScheduler`]'s, the one FLPPR and the
//! pipelined arbiter spread over several cycles; iSLIP runs all its
//! iterations on one sub-scheduler inside the slot, harvests the matching
//! and removes the granted cells. Only the pointer rule differs: pointers
//! move on first-iteration accepts alone. The dual-receiver extension
//! (each output as `out_capacity` sub-ports, each with its own grant
//! arbiter) comes with the sub-scheduler, so the same algorithm serves
//! both Fig. 7 curves.

use crate::requests::{Matching, Requests};
use crate::subsched::SubScheduler;
use crate::traits::CellScheduler;

/// iSLIP scheduler with a configurable iteration count and output capacity.
#[derive(Debug, Clone)]
pub struct Islip {
    /// The VOQ occupancy `sub` matches over.
    req: Requests,
    sub: SubScheduler,
    iterations: usize,
    out_capacity: usize,
}

impl Islip {
    /// `n × n` iSLIP with `iterations` iterations and `out_capacity`
    /// receivers per output.
    pub fn new(n: usize, iterations: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && iterations > 0 && out_capacity > 0);
        Islip {
            req: Requests::square(n),
            sub: SubScheduler::new(n, out_capacity),
            iterations,
            out_capacity,
        }
    }

    /// The canonical configuration from ref. \[17\]: log₂N iterations.
    pub fn log2n(n: usize, out_capacity: usize) -> Self {
        Self::new(n, crate::log2_ceil(n), out_capacity)
    }

    /// Internal VOQ occupancy view (for tests and diagnostics).
    pub fn occupancy(&self) -> &Requests {
        &self.req
    }
}

impl CellScheduler for Islip {
    fn inputs(&self) -> usize {
        self.sub.ports()
    }

    fn outputs(&self) -> usize {
        self.sub.ports()
    }

    fn out_capacity(&self) -> usize {
        self.out_capacity
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        self.req.inc(input, output);
    }

    fn tick(&mut self, _slot: u64) -> Matching {
        // iSLIP pointer rule: update only on first-iteration accepts
        // (prevents starvation, desynchronizes pointers).
        for iter in 0..self.iterations {
            self.sub.iterate(&self.req, iter == 0);
        }
        let mut matching = Matching::with_capacity(self.sub.partial_len());
        self.sub.take(&mut matching);
        for &(i, o) in matching.pairs() {
            self.req.dec(i, o);
        }
        matching
    }

    fn name(&self) -> &'static str {
        "iSLIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SimRng;

    /// Single-slot iSLIP as a dense port-by-port scan that shares nothing
    /// with [`SubScheduler`]: the matchings [`Islip`] must produce, pair
    /// for pair.
    struct ScalarIslip {
        n: usize,
        iterations: usize,
        r: usize,
        occ: Vec<Vec<u32>>,
        /// Grant pointer per output sub-port, over inputs.
        grant_ptr: Vec<usize>,
        /// Accept pointer per input, over output sub-ports.
        accept_ptr: Vec<usize>,
    }

    impl ScalarIslip {
        fn new(n: usize, iterations: usize, r: usize) -> Self {
            ScalarIslip {
                n,
                iterations,
                r,
                occ: vec![vec![0; n]; n],
                grant_ptr: (0..n * r).map(|sp| sp % r).collect(),
                accept_ptr: vec![0; n],
            }
        }

        fn tick(&mut self) -> Vec<(usize, usize)> {
            let (n, r) = (self.n, self.r);
            let mut pairs = Vec::new();
            let mut in_matched = vec![false; n];
            let mut subport_used = vec![false; n * r];
            // Outputs with any cell queued; only they can grant.
            let waiting: Vec<bool> = (0..n).map(|o| self.occ.iter().any(|q| q[o] > 0)).collect();
            for iter in 0..self.iterations {
                // Per input, the sub-ports that granted it.
                let mut grants = vec![Vec::new(); n];
                for sp in (0..n * r).filter(|&sp| !subport_used[sp] && waiting[sp / r]) {
                    let mut from_pointer = (0..n).map(|k| (self.grant_ptr[sp] + k) % n);
                    if let Some(i) =
                        from_pointer.find(|&i| !in_matched[i] && self.occ[i][sp / r] > 0)
                    {
                        grants[i].push(sp);
                    }
                }
                for (i, granters) in grants.iter().enumerate() {
                    // The first granter at or after the accept pointer.
                    let behind = |sp: &&usize| (**sp + n * r - self.accept_ptr[i]) % (n * r);
                    if let Some(&sp) = granters.iter().min_by_key(behind) {
                        in_matched[i] = true;
                        subport_used[sp] = true;
                        pairs.push((i, sp / r));
                        if iter == 0 {
                            self.grant_ptr[sp] = (i + 1) % n;
                            self.accept_ptr[i] = (sp + 1) % (n * r);
                        }
                    }
                }
            }
            for &(i, o) in &pairs {
                self.occ[i][o] -= 1;
            }
            pairs
        }
    }

    #[test]
    fn matches_the_scalar_islip_loop_pair_for_pair() {
        for n in [5usize, 8, 16, 64, 70] {
            for receivers in [1usize, 2] {
                for seed in 0..20u64 {
                    let mut rng = SimRng::seed_from_u64(seed * 1_000 + n as u64);
                    let iterations = 1 + rng.index(4);
                    let mut fast = Islip::new(n, iterations, receivers);
                    let mut slow = ScalarIslip::new(n, iterations, receivers);
                    // One in `idle` inputs sits a slot out: from
                    // saturation down to a trickle across the seeds.
                    let idle = 1 + rng.index(6);
                    let mut matched = 0;
                    for slot in 0..400 {
                        for i in 0..n {
                            if rng.index(idle) == 0 {
                                let o = rng.index(n);
                                fast.note_arrival(i, o);
                                slow.occ[i][o] += 1;
                            }
                        }
                        let got = fast.tick(slot);
                        assert_eq!(
                            got.pairs(),
                            slow.tick(),
                            "n {n} receivers {receivers} seed {seed} slot {slot}"
                        );
                        matched += got.len();
                    }
                    assert!(matched > 40 * n, "n {n} seed {seed}: {matched} matches");
                }
            }
        }
    }

    fn drain(s: &mut Islip, slots: u64) -> Vec<Matching> {
        (0..slots).map(|t| s.tick(t)).collect()
    }

    #[test]
    fn empty_switch_grants_nothing() {
        let mut s = Islip::new(4, 2, 1);
        assert!(s.tick(0).is_empty());
    }

    #[test]
    fn single_cell_granted_immediately() {
        let mut s = Islip::new(8, 1, 1);
        s.note_arrival(3, 5);
        let m = s.tick(0);
        assert_eq!(m.pairs(), &[(3, 5)]);
        assert!(s.tick(1).is_empty(), "cell consumed");
    }

    #[test]
    fn grants_respect_constraints() {
        let mut s = Islip::new(8, 3, 1);
        let mut shadow = Requests::square(8);
        // Load a conflicted pattern.
        for i in 0..8 {
            for o in [0usize, 1] {
                s.note_arrival(i, o);
                shadow.inc(i, o);
            }
        }
        let m = s.tick(0);
        m.validate(&shadow, 1).unwrap();
        // Single-receiver: at most 2 grants (outputs 0 and 1).
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn dual_receiver_doubles_hot_output_drain() {
        let mut s1 = Islip::new(8, 3, 1);
        let mut s2 = Islip::new(8, 3, 2);
        for i in 0..8 {
            s1.note_arrival(i, 0);
            s2.note_arrival(i, 0);
        }
        let m1 = s1.tick(0);
        let m2 = s2.tick(0);
        assert_eq!(m1.len(), 1);
        assert_eq!(m2.len(), 2, "two receivers accept two cells");
    }

    #[test]
    fn permutation_load_fully_matched_in_one_iteration() {
        let mut s = Islip::new(16, 1, 1);
        for i in 0..16 {
            s.note_arrival(i, (i + 3) % 16);
        }
        let m = s.tick(0);
        assert_eq!(m.len(), 16, "contention-free load matches completely");
    }

    #[test]
    fn more_iterations_grow_the_matching() {
        // A dense conflicted pattern: 1 iteration leaves holes that 4
        // iterations fill.
        let build = |iters| {
            let mut s = Islip::new(16, iters, 1);
            for i in 0..16 {
                for o in 0..16 {
                    if (i + o) % 3 == 0 {
                        s.note_arrival(i, o);
                    }
                }
            }
            s.tick(0).len()
        };
        let one = build(1);
        let four = build(4);
        assert!(four >= one);
        assert!(four >= 12, "iterated matching near-maximal: {four}");
    }

    #[test]
    fn round_robin_is_fair_across_hot_inputs() {
        // 4 inputs all fighting for output 0: over 8 slots each gets 2.
        let mut s = Islip::new(4, 1, 1);
        for _ in 0..8 {
            for i in 0..4 {
                s.note_arrival(i, 0);
            }
        }
        let mut served = [0u32; 4];
        for m in drain(&mut s, 8) {
            assert_eq!(m.len(), 1);
            served[m.pairs()[0].0] += 1;
        }
        assert_eq!(served, [2, 2, 2, 2], "round-robin fairness");
    }

    #[test]
    fn saturated_uniform_throughput_is_high() {
        // All VOQs deep: every slot must fill nearly all outputs —
        // iSLIP with log2(N) iterations converges to ~100% throughput.
        let n = 16;
        let mut s = Islip::log2n(n, 1);
        for i in 0..n {
            for o in 0..n {
                for _ in 0..50 {
                    s.note_arrival(i, o);
                }
            }
        }
        let slots = 200u64;
        let granted: usize = drain(&mut s, slots).iter().map(|m| m.len()).sum();
        let thr = granted as f64 / (slots as f64 * n as f64);
        assert!(thr > 0.95, "throughput {thr}");
    }

    #[test]
    fn occupancy_never_negative() {
        let mut s = Islip::new(4, 2, 2);
        s.note_arrival(0, 0);
        s.tick(0);
        // Would panic internally on a double grant for the same cell.
        for t in 1..10 {
            assert!(s.tick(t).is_empty());
        }
    }
}
