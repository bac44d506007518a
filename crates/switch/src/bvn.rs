//! The load-balanced Birkhoff–von Neumann switch (§VI.D, ref. [24]) —
//! the scalable-but-unsuitable baseline.
//!
//! A space-time-space architecture with *distributed* scheduling: the
//! first stage walks a deterministic round-robin pattern that shapes any
//! admissible traffic into uniform traffic; the middle holds the buffers;
//! the second stage walks the same deterministic pattern toward the
//! outputs. No central scheduler at all — which is why it scales — but,
//! as the paper notes, it is unattractive for HPC: an unloaded N-port
//! switch still averages ≈N/2 packet cycles of latency (a cell must wait
//! for the rotation to reach its output) and packets of one flow take
//! different middle ports, arriving out of order.
//!
//! The N² middle-stage VOQs are one [`Voqs`] store.

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use crate::voqs::Voqs;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, TrafficGen};

/// The two-stage load-balanced BvN switch.
pub struct BvnSwitch {
    n: usize,
    /// Middle-stage VOQs: `mid[m * n + o]`.
    mid: Voqs<Cell>,
}

impl BvnSwitch {
    /// An `n`-port BvN switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        BvnSwitch {
            n,
            mid: Voqs::new(n * n),
        }
    }

    /// Run traffic and report.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for BvnSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    // Stage 2 delivers straight from the middle buffers to the hosts, so
    // the whole transfer lives in the delivery phase; there is no
    // arbitration (that is the architecture's point) and
    // `mean_request_grant` stays 0.
    fn arbitrate<T: TraceSink>(&mut self, _slot: u64, _obs: &mut Observer<'_, T>) {}

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        // Stage 2: middle m → output (m + t) mod N; deliver the head cell
        // of the matching middle VOQ straight to the host.
        let n = self.n as u64;
        for m in 0..self.n {
            let o = ((m as u64 + slot) % n) as usize;
            let q = m * self.n + o;
            obs.note_queue_depth(self.mid.len(q));
            if let Some(cell) = self.mid.pop(q) {
                obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        // Stage 1: input i → middle (i + t) mod N; arriving cells are
        // spread over the middles by the rotation itself.
        let n = self.n as u64;
        for a in arrivals {
            let seq = obs.stamp(a.src, a.dst);
            let cell = Cell::new(a.src, a.dst, seq, slot);
            obs.cell_injected(a.src, a.dst);
            let m = ((a.src as u64 + slot) % n) as usize;
            self.mid.push(m * self.n + a.dst, cell);
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        Some(self.mid.total() as u64)
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
    fn unloaded_latency_is_about_n_over_2() {
        // §VI.D: "high average switching latency of N/2 packets for an
        // unloaded N-port switch".
        for n in [16usize, 32] {
            let mut sw = BvnSwitch::new(n);
            let mut tr = BernoulliUniform::new(n, 0.02, &SeedSequence::new(1));
            let r = sw.run(&mut tr, &cfg());
            let expect = n as f64 / 2.0;
            assert!(
                (r.mean_delay - expect).abs() < expect * 0.15,
                "n={n}: delay {} vs ≈{expect}",
                r.mean_delay
            );
        }
    }

    #[test]
    fn delivers_out_of_order() {
        // §VI.D: "out-of-order packet delivery" — the other disqualifier.
        let mut sw = BvnSwitch::new(16);
        let mut tr = BernoulliUniform::new(16, 0.7, &SeedSequence::new(2));
        let r = sw.run(&mut tr, &cfg());
        assert!(
            r.reordered > 0,
            "BvN must reorder under load (got {})",
            r.reordered
        );
    }

    #[test]
    fn scalable_throughput_without_a_scheduler() {
        // Its merit: full throughput under uniform traffic, no scheduler.
        let mut sw = BvnSwitch::new(16);
        let mut tr = BernoulliUniform::new(16, 0.95, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &cfg());
        assert!((r.throughput - 0.95).abs() < 0.02, "{}", r.throughput);
        assert_eq!(r.dropped, 0);
    }
}
