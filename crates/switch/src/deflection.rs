//! Deflection routing — the Data Vortex approach (§II, ref. [10]).
//!
//! "The Data Vortex project specifically targets HPC interconnect and
//! uses SOA technology. Switch contention is resolved by deflection
//! routing, keeping the packets in the optical domain. The architecture
//! can scale to very high port counts but has **limited throughput per
//! port**."
//!
//! The model: a bufferless single-stage switch with recirculating delay
//! lines. Each slot, every live cell contends for its destination output;
//! one winner per output is delivered, the losers are *deflected* into a
//! fiber delay loop and retry next slot. Because the loop re-injection
//! ports share capacity with fresh traffic, injection is **blocked** when
//! the recirculation ring is full at that input — which is exactly how
//! the per-port throughput gets capped, and why deflection architectures
//! deliver out of order (a deflected cell falls behind its successors).

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use osmosis_sim::audit::DropReason;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_sim::rng::SimRng;
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;

/// Deflection-routing switch with recirculation loops.
pub struct DeflectionSwitch {
    n: usize,
    /// Cells a recirculation loop can hold per input.
    loop_capacity: usize,
    /// Recirculating cells per input.
    loops: Vec<VecDeque<Cell>>,
    rng: SimRng,
    contenders: Vec<Vec<usize>>,
}

impl DeflectionSwitch {
    /// An `n`-port deflection switch with the given per-input loop depth.
    pub fn new(n: usize, loop_capacity: usize, seed: u64) -> Self {
        assert!(n > 0 && loop_capacity >= 1);
        DeflectionSwitch {
            n,
            loop_capacity,
            loops: (0..n).map(|_| VecDeque::new()).collect(),
            rng: SimRng::seed_from_u64(seed),
            contenders: vec![Vec::new(); n],
        }
    }

    /// Run traffic and report. Arrivals that find their input's loop full
    /// are counted as blocked injections (reported via `dropped` — the
    /// host must retry, which is the throughput limitation in action; no
    /// accepted cell is ever lost).
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for DeflectionSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        // Contention: the head cell of every loop fights for its
        // destination; one random winner per output is delivered, losers
        // recirculate (deflection). Delivery is immediate — the winner
        // leaves in the same slot — so the whole contest lives here and
        // the deliver phase is empty.
        for c in self.contenders.iter_mut() {
            c.clear();
        }
        for (i, l) in self.loops.iter().enumerate() {
            if let Some(head) = l.front() {
                self.contenders[head.dst].push(i);
            }
        }
        for o in 0..self.n {
            if self.contenders[o].is_empty() {
                continue;
            }
            if self.contenders[o].len() > 1 {
                obs.receiver_conflict(o, self.contenders[o].len());
            }
            let k = self.rng.index(self.contenders[o].len());
            let winner = self.contenders[o][k];
            #[expect(
                clippy::expect_used,
                reason = "contenders are collected from non-empty ring slots this same arbitration pass"
            )]
            let cell = self.loops[winner]
                .pop_front()
                .expect("contender with an empty loop queue");
            obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
            // Losers: rotate to the back of their loop — they lost a slot
            // in the ring (the deflection penalty).
            for idx in 0..self.contenders[o].len() {
                let loser = self.contenders[o][idx];
                if loser != winner {
                    if let Some(c) = self.loops[loser].pop_front() {
                        self.loops[loser].push_back(c);
                    }
                }
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, _obs: &mut Observer<'_, T>) {}

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        // Fresh arrivals: blocked when the loop has no room — the
        // "limited throughput per port" mechanism.
        for a in arrivals {
            if self.loops[a.src].len() >= self.loop_capacity {
                // The arrival never entered the ring: a rejection, not a
                // loss of an admitted cell (the host retries).
                obs.cell_dropped_for(a.src, DropReason::Rejected);
                continue;
            }
            let seq = obs.stamp(a.src, a.dst);
            let cell = Cell::new(a.src, a.dst, seq, slot);
            obs.cell_injected(a.src, a.dst);
            self.loops[a.src].push_back(cell);
            obs.note_queue_depth(self.loops[a.src].len());
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        Some(self.loops.iter().map(VecDeque::len).sum::<usize>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    fn cfg() -> EngineConfig {
        EngineConfig::new(2_000, 10_000)
    }

    #[test]
    fn light_load_flows_with_low_latency() {
        let mut sw = DeflectionSwitch::new(16, 4, 7);
        let mut tr = BernoulliUniform::new(16, 0.1, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &cfg());
        assert!((r.throughput - 0.1).abs() < 0.02);
        assert!(r.mean_delay < 2.0, "{}", r.mean_delay);
        assert_eq!(r.dropped, 0, "no blocking at light load");
    }

    #[test]
    fn throughput_per_port_is_limited_at_high_load() {
        // §II's critique: offered 95%, carried substantially less — the
        // deflection ring saturates and blocks injections.
        let mut sw = DeflectionSwitch::new(16, 4, 7);
        let mut tr = BernoulliUniform::new(16, 0.95, &SeedSequence::new(2));
        let r = sw.run(&mut tr, &cfg());
        assert!(
            r.throughput < 0.85,
            "deflection must cap throughput: {}",
            r.throughput
        );
        assert!(r.dropped > 0, "injection blocking is the mechanism");
    }

    #[test]
    fn deflection_reorders_flows() {
        // A deflected cell falls behind its younger siblings → the
        // architecture cannot keep Table 1's ordering requirement
        // without an (expensive) resequencer.
        let mut sw = DeflectionSwitch::new(16, 8, 7);
        let mut tr = BernoulliUniform::new(16, 0.7, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &cfg());
        assert!(r.reordered > 0, "deflection must reorder under load");
    }

    #[test]
    fn osmosis_beats_deflection_at_high_load() {
        use crate::voq_switch::run_uniform;
        use osmosis_sched::Flppr;
        let mut sw = DeflectionSwitch::new(16, 4, 7);
        let mut tr = BernoulliUniform::new(16, 0.9, &SeedSequence::new(4));
        let defl = sw.run(&mut tr, &cfg());
        let osmo = run_uniform(|| Box::new(Flppr::osmosis(16, 2)), 0.9, &cfg().with_seed(4));
        assert!(osmo.throughput > defl.throughput + 0.05);
        assert_eq!(osmo.reordered, 0);
    }
}
