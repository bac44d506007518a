//! The prior-art pipelined arbiter ("previous state of the art" in
//! Fig. 6).
//!
//! Like FLPPR it runs K sub-schedulers, each completing one grant/accept
//! iteration per cell cycle. Unlike FLPPR, every request is assigned to
//! exactly *one* sub-scheduler — the one that just started filling — so a
//! request always waits the full K cycles for its sub-scheduler to issue,
//! giving a fixed log₂N request-to-grant latency even in an idle switch.
//! Throughput at saturation is comparable to FLPPR (each matching still
//! accumulates K iterations); only the low-load latency differs. That
//! contrast *is* Fig. 6.
//!
//! Unlike FLPPR's, these sub-schedulers cannot be lent one occupancy
//! matrix: a request is known to its own stage alone, so each stage's
//! counts are a different share of `master` and each is kept.

use crate::requests::{Matching, Requests};
use crate::subsched::SubScheduler;
use crate::traits::CellScheduler;

/// Prior-art pipelined arbiter with exclusive request assignment.
#[derive(Debug, Clone)]
pub struct PipelinedArbiter {
    master: Requests,
    /// Each stage behind the counts of the requests assigned to it.
    subs: Vec<(Requests, SubScheduler)>,
    out_capacity: usize,
    /// Sub-scheduler currently receiving new requests.
    fill: usize,
    scratch: Matching,
    /// Grants dropped at validation (defensive; exclusive assignment makes
    /// this zero in practice).
    pub stale_grants: u64,
}

impl PipelinedArbiter {
    /// K-deep pipelined arbiter for an `n`-port switch.
    pub fn new(n: usize, depth: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && depth > 0 && out_capacity > 0);
        PipelinedArbiter {
            master: Requests::square(n),
            subs: (0..depth)
                .map(|_| (Requests::square(n), SubScheduler::new(n, out_capacity)))
                .collect(),
            out_capacity,
            // Before the first tick, arrivals go to the sub-scheduler that
            // issues at slot depth−1, giving it a full fill window.
            fill: depth - 1,
            scratch: Matching::new(),
            stale_grants: 0,
        }
    }

    /// The canonical configuration: depth log₂N.
    pub fn log2n(n: usize, out_capacity: usize) -> Self {
        Self::new(n, crate::log2_ceil(n), out_capacity)
    }

    /// Number of pipeline stages.
    pub fn depth(&self) -> usize {
        self.subs.len()
    }

    /// Master occupancy (for tests).
    pub fn occupancy(&self) -> &Requests {
        &self.master
    }
}

impl CellScheduler for PipelinedArbiter {
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
        self.master.inc(input, output);
        // Exclusive assignment: only the filling sub-scheduler sees it.
        self.subs[self.fill].0.inc(input, output);
    }

    fn tick(&mut self, slot: u64) -> Matching {
        for (view, sub) in &mut self.subs {
            sub.iterate(view, true);
        }
        let k = (slot % self.subs.len() as u64) as usize;
        let (view, sub) = &mut self.subs[k];
        sub.take(&mut self.scratch);
        let mut issued = Matching::with_capacity(self.scratch.len());
        for &(i, o) in self.scratch.pairs() {
            if self.master.try_dec(i, o) {
                issued.push(i, o);
                view.try_dec(i, o);
            } else {
                self.stale_grants += 1;
            }
        }
        // Residual (unmatched) requests stay in this sub-scheduler's view;
        // it keeps iterating on them and retries at its next issue slot,
        // K cycles later. New arrivals now fill the just-drained stage.
        self.fill = k;
        issued
    }

    fn name(&self) -> &'static str {
        "pipelined-prior-art"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 6's contrast: the lone-cell request-to-grant latency equals
    /// the pipeline depth (log₂N = 6 for 64 ports).
    #[test]
    fn lone_cell_waits_full_pipeline_depth() {
        let mut s = PipelinedArbiter::log2n(64, 1);
        assert_eq!(s.depth(), 6);
        s.tick(0);
        s.note_arrival(17, 42);
        // The cell was assigned to the sub-scheduler that issues at slot
        // 0 mod 6 — i.e. next at slot 6.
        let mut grant_slot = None;
        for t in 1..=12 {
            let m = s.tick(t);
            if !m.is_empty() {
                assert_eq!(m.pairs(), &[(17, 42)]);
                grant_slot = Some(t);
                break;
            }
        }
        assert_eq!(grant_slot, Some(6), "grant after log2(64) = 6 cycles");
    }

    #[test]
    fn grant_latency_is_depth_for_every_phase() {
        for phase in 0..6u64 {
            let mut s = PipelinedArbiter::log2n(64, 1);
            for t in 0..=phase {
                s.tick(t);
            }
            s.note_arrival(1, 2);
            let mut waited = 0;
            for t in (phase + 1)..(phase + 20) {
                waited += 1;
                if !s.tick(t).is_empty() {
                    break;
                }
            }
            assert_eq!(waited, 6, "phase {phase}");
        }
    }

    #[test]
    fn conservation_under_backlog() {
        let mut s = PipelinedArbiter::new(8, 3, 1);
        let mut injected = 0u64;
        for i in 0..8 {
            for o in 0..8 {
                for _ in 0..4 {
                    s.note_arrival(i, o);
                    injected += 1;
                }
            }
        }
        let mut served = 0u64;
        for t in 0..400 {
            served += s.tick(t).len() as u64;
        }
        assert_eq!(served, injected);
        assert!(s.occupancy().is_empty());
    }

    #[test]
    fn high_load_throughput_comparable_to_flppr() {
        // Live arrivals at 85% load (arrivals interleave with ticks, so
        // requests spread across the pipeline's fill phases).
        use osmosis_sim::SimRng;
        let n = 16;
        let mut s = PipelinedArbiter::log2n(n, 1);
        let mut rng = SimRng::seed_from_u64(42);
        let slots = 4000u64;
        let mut offered = 0u64;
        let mut granted = 0u64;
        for t in 0..slots {
            granted += s.tick(t).len() as u64;
            for i in 0..n {
                if rng.coin(0.85) {
                    s.note_arrival(i, rng.index(n));
                    offered += 1;
                }
            }
        }
        let thr = granted as f64 / (slots as f64 * n as f64);
        let load = offered as f64 / (slots as f64 * n as f64);
        assert!(thr > load - 0.05, "throughput {thr} vs offered {load}");
    }

    #[test]
    fn no_phantom_grants() {
        let mut s = PipelinedArbiter::new(8, 4, 1);
        let mut shadow = Requests::square(8);
        for i in 0..8 {
            s.note_arrival(i, (i * 3) % 8);
            shadow.inc(i, (i * 3) % 8);
        }
        for t in 0..30 {
            let m = s.tick(t);
            m.validate(&shadow, 1).unwrap();
            for &(i, o) in m.pairs() {
                shadow.dec(i, o);
            }
        }
        assert!(shadow.is_empty());
    }
}
