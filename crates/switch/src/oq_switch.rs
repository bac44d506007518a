//! Ideal output-queued switch — the classic electronic baseline.
//!
//! §III: "Traditional supercomputing interconnect fabrics have typically
//! used output-queued electronic switches with integrated buffers [16]."
//! An OQ switch moves every arriving cell into its output buffer within
//! the same slot (internal speedup N), making it trivially
//! work-conserving — the delay lower bound every input-queued design is
//! measured against. Its cost is what the paper's optics cannot provide:
//! a memory running N times faster than the line rate.

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;

/// The ideal output-queued switch.
pub struct OqSwitch {
    n: usize,
    egress: Vec<VecDeque<Cell>>,
}

impl OqSwitch {
    /// An `n`-port OQ switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        OqSwitch {
            n,
            egress: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Run traffic and report.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for OqSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    // No arbitration stage: arrivals land in their output queue with
    // internal speedup N, so `mean_request_grant` stays 0.
    fn arbitrate<T: TraceSink>(&mut self, _slot: u64, _obs: &mut Observer<'_, T>) {}

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        for (o, q) in self.egress.iter_mut().enumerate() {
            obs.note_egress_depth(q.len());
            if let Some(cell) = q.pop_front() {
                debug_assert_eq!(cell.dst, o);
                obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        // Arrivals go straight to their output queue (speedup N).
        for a in arrivals {
            let seq = obs.stamp(a.src, a.dst);
            let mut cell = Cell::new(a.src, a.dst, seq, slot);
            cell.grant_slot = slot;
            obs.cell_injected(a.src, a.dst);
            self.egress[a.dst].push_back(cell);
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        Some(self.egress.iter().map(VecDeque::len).sum::<usize>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    fn cfg() -> EngineConfig {
        EngineConfig::new(1_000, 10_000)
    }

    #[test]
    fn oq_sustains_full_load() {
        let mut sw = OqSwitch::new(16);
        let mut tr = BernoulliUniform::new(16, 0.98, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &cfg());
        assert!((r.throughput - 0.98).abs() < 0.02, "{}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn oq_delay_is_a_lower_bound_for_voq() {
        use crate::voq_switch::run_uniform;
        use osmosis_sched::Flppr;
        let mut sw = OqSwitch::new(16);
        let mut tr = BernoulliUniform::new(16, 0.8, &SeedSequence::new(7));
        let oq = sw.run(&mut tr, &cfg());
        let voq = run_uniform(|| Box::new(Flppr::osmosis(16, 1)), 0.8, &cfg().with_seed(7));
        assert!(
            oq.mean_delay <= voq.mean_delay + 0.5,
            "OQ {} vs VOQ {}",
            oq.mean_delay,
            voq.mean_delay
        );
    }

    #[test]
    fn unloaded_oq_delay_is_one_slot() {
        let mut sw = OqSwitch::new(8);
        let mut tr = BernoulliUniform::new(8, 0.01, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &cfg());
        assert!((r.mean_delay - 1.0).abs() < 0.1, "{}", r.mean_delay);
    }
}
