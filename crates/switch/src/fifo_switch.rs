//! Single-FIFO input-queued switch — the head-of-line blocking baseline.
//!
//! §III: "Achieving high throughput requires the use of the well-known
//! Virtual Output Queuing (VOQ) method to resolve head-of-line blocking in
//! bufferless crossbars \[17\]." This model quantifies what VOQ buys: with
//! one FIFO per input only the head cell is eligible, and the classic
//! result (Karol et al.) caps saturated uniform throughput at 2−√2 ≈
//! 0.586.

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use osmosis_sched::arbiter::{BitSet, RoundRobinArbiter};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;

/// FIFO-input switch with round-robin output arbitration over head cells.
pub struct FifoSwitch {
    n: usize,
    fifos: Vec<VecDeque<Cell>>,
    egress: Vec<VecDeque<Cell>>,
    out_arb: Vec<RoundRobinArbiter>,
    input_won: Vec<bool>,
    requesters: BitSet,
}

impl FifoSwitch {
    /// An `n`-port FIFO switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        FifoSwitch {
            n,
            fifos: (0..n).map(|_| VecDeque::new()).collect(),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            out_arb: (0..n).map(|_| RoundRobinArbiter::new(n)).collect(),
            input_won: vec![false; n],
            requesters: BitSet::new(n),
        }
    }

    /// Run traffic and report (same schema as the VOQ switch).
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for FifoSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        // Head-of-line matching: each output round-robins over the inputs
        // whose *head* cell wants it; an input can win once.
        let n = self.n;
        self.input_won.iter_mut().for_each(|w| *w = false);
        for o in 0..n {
            self.requesters.clear_all();
            let mut have = false;
            for i in 0..n {
                if !self.input_won[i] {
                    if let Some(head) = self.fifos[i].front() {
                        if head.dst == o {
                            self.requesters.set(i);
                            have = true;
                        }
                    }
                }
            }
            if !have {
                continue;
            }
            if let Some(i) = self.out_arb[o].arbitrate(&self.requesters) {
                self.out_arb[o].advance_past(i);
                self.input_won[i] = true;
                #[expect(
                    clippy::expect_used,
                    reason = "the output arbiter only considers inputs whose FIFO head requests this output, so a winner's FIFO is never empty"
                )]
                let mut cell = self.fifos[i]
                    .pop_front()
                    .expect("arbitration winner with an empty FIFO");
                cell.grant_slot = slot;
                obs.cell_granted(i, o, cell.inject_slot);
                self.egress[o].push_back(cell);
            }
        }
    }

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
        for a in arrivals {
            let seq = obs.stamp(a.src, a.dst);
            let cell = Cell::new(a.src, a.dst, seq, slot);
            obs.cell_injected(a.src, a.dst);
            self.fifos[a.src].push_back(cell);
            obs.note_queue_depth(self.fifos[a.src].len());
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        let queued: usize = self.fifos.iter().map(VecDeque::len).sum::<usize>()
            + self.egress.iter().map(VecDeque::len).sum::<usize>();
        Some(queued as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    #[test]
    fn hol_blocking_caps_throughput_near_0_586() {
        // The Karol limit for FIFO input queueing under saturated uniform
        // traffic: 2 − √2 ≈ 0.586.
        let mut sw = FifoSwitch::new(16);
        let mut tr = BernoulliUniform::new(16, 1.0, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &EngineConfig::new(3_000, 20_000));
        assert!(
            (r.throughput - 0.586).abs() < 0.02,
            "throughput {}",
            r.throughput
        );
    }

    #[test]
    fn light_load_flows_fine() {
        let mut sw = FifoSwitch::new(8);
        let mut tr = BernoulliUniform::new(8, 0.2, &SeedSequence::new(2));
        let r = sw.run(&mut tr, &EngineConfig::new(500, 5_000));
        assert!((r.throughput - 0.2).abs() < 0.02);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn fifo_preserves_order_trivially() {
        let mut sw = FifoSwitch::new(4);
        let mut tr = BernoulliUniform::new(4, 0.9, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &EngineConfig::new(500, 5_000));
        assert_eq!(r.reordered, 0);
    }
}
