//! PIM — Parallel Iterative Matching (Anderson et al.), the randomized
//! ancestor of iSLIP. Included as a baseline: random arbitration needs
//! about log₂N iterations for a maximal match but lacks iSLIP's
//! desynchronization, so it saturates near 63% with a single iteration.

use crate::requests::{Matching, Requests};
use crate::traits::CellScheduler;
use osmosis_sim::SimRng;

/// PIM scheduler with `iterations` iterations.
#[derive(Debug, Clone)]
pub struct Pim {
    occ: Requests,
    iterations: usize,
    out_capacity: usize,
    rng: SimRng,
    /// Bit i set ⇔ input i is matched, over `requesters` words.
    in_matched: Vec<u64>,
    out_used: Vec<usize>,
    grants: Vec<Vec<usize>>, // per input: granting outputs this iteration
    scratch: Vec<usize>,
}

impl Pim {
    /// `n × n` PIM with the given iteration count and output capacity.
    pub fn new(n: usize, iterations: usize, out_capacity: usize, seed: u64) -> Self {
        assert!(n > 0 && iterations > 0 && out_capacity > 0);
        Pim {
            occ: Requests::square(n),
            iterations,
            out_capacity,
            rng: SimRng::seed_from_u64(seed),
            in_matched: vec![0; n.div_ceil(64)],
            out_used: vec![0; n],
            grants: vec![Vec::new(); n],
            scratch: Vec::with_capacity(n),
        }
    }
}

impl CellScheduler for Pim {
    fn inputs(&self) -> usize {
        self.occ.inputs()
    }

    fn outputs(&self) -> usize {
        self.occ.outputs()
    }

    fn out_capacity(&self) -> usize {
        self.out_capacity
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        self.occ.inc(input, output);
    }

    fn tick(&mut self, _slot: u64) -> Matching {
        let n = self.occ.inputs();
        let mut matching = Matching::with_capacity(n);
        self.in_matched.fill(0);
        self.out_used.fill(0);

        for _ in 0..self.iterations {
            for g in &mut self.grants {
                g.clear();
            }
            let mut any = false;
            // Grant: each output with spare capacity picks uniformly among
            // requesting unmatched inputs, listed ascending.
            for o in 0..n {
                let spare = self.out_capacity - self.out_used[o];
                if spare == 0 {
                    continue;
                }
                self.scratch.clear();
                let asked = self.occ.requesters(o);
                for (w, &taken) in self.in_matched.iter().enumerate() {
                    let mut ins = asked[w] & !taken;
                    while ins != 0 {
                        self.scratch.push(w * 64 + ins.trailing_zeros() as usize);
                        ins &= ins - 1;
                    }
                }
                if self.scratch.is_empty() {
                    continue;
                }
                // Grant up to `spare` distinct inputs at random.
                for _ in 0..spare.min(self.scratch.len()) {
                    let k = self.rng.index(self.scratch.len());
                    let i = self.scratch.swap_remove(k);
                    self.grants[i].push(o);
                    any = true;
                }
            }
            if !any {
                break;
            }
            // Accept: each granted input picks uniformly among its grants.
            for i in 0..n {
                if self.in_matched[i / 64] & 1 << (i % 64) != 0 || self.grants[i].is_empty() {
                    continue;
                }
                let k = self.rng.index(self.grants[i].len());
                let o = self.grants[i][k];
                if self.out_used[o] < self.out_capacity {
                    self.in_matched[i / 64] |= 1 << (i % 64);
                    self.out_used[o] += 1;
                    matching.push(i, o);
                }
            }
        }
        for &(i, o) in matching.pairs() {
            self.occ.dec(i, o);
        }
        matching
    }

    fn name(&self) -> &'static str {
        "PIM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_served() {
        let mut s = Pim::new(8, 1, 1, 1);
        s.note_arrival(2, 6);
        let m = s.tick(0);
        assert_eq!(m.pairs(), &[(2, 6)]);
    }

    #[test]
    fn constraints_hold_under_conflict() {
        let mut s = Pim::new(8, 4, 1, 2);
        let mut shadow = Requests::square(8);
        for i in 0..8 {
            for o in 0..8 {
                s.note_arrival(i, o);
                shadow.inc(i, o);
            }
        }
        let m = s.tick(0);
        m.validate(&shadow, 1).unwrap();
        assert!(
            m.len() >= 6,
            "log2(8)=3 < 4 iterations nearly perfect: {}",
            m.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = Pim::new(8, 2, 1, seed);
            for i in 0..8 {
                s.note_arrival(i, (i * 3) % 8);
                s.note_arrival(i, (i * 5) % 8);
            }
            (0..4).map(|t| s.tick(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn single_iteration_pim_saturates_below_iterated() {
        // Saturated uniform traffic: PIM(1) visibly below PIM(4).
        let run = |iters| {
            let n = 16;
            let mut s = Pim::new(n, iters, 1, 3);
            for i in 0..n {
                for o in 0..n {
                    for _ in 0..100 {
                        s.note_arrival(i, o);
                    }
                }
            }
            let slots = 300u64;
            let g: usize = (0..slots).map(|t| s.tick(t).len()).sum();
            g as f64 / (slots as f64 * n as f64)
        };
        let one = run(1);
        let four = run(4);
        assert!(one < four, "{one} vs {four}");
        assert!(one < 0.85, "single-iteration PIM limited: {one}");
        assert!(four > 0.95, "iterated PIM near-perfect: {four}");
    }

    #[test]
    fn dual_capacity_respected() {
        let mut s = Pim::new(4, 3, 2, 9);
        let mut shadow = Requests::square(4);
        for i in 0..4 {
            s.note_arrival(i, 0);
            shadow.inc(i, 0);
        }
        let m = s.tick(0);
        m.validate(&shadow, 2).unwrap();
        assert_eq!(m.len(), 2);
    }
}
