//! Multicast switching on the broadcast-and-select datapath.
//!
//! The OSMOSIS crossbar is *inherently multicast-capable*: the star
//! couplers broadcast every input to all 128 switching modules, so any
//! number of outputs can select the same input in the same slot at no
//! extra optical cost (§V's architecture; verified in
//! `osmosis_phy::datapath`). This module adds the scheduling side — a
//! fanout-splitting multicast scheduler: each input exposes the head of
//! its multicast queue; per slot every free output claims at most one
//! transmitting input, an input may serve *many* outputs at once, and a
//! cell retires when its residue (unserved destinations) is empty.
//! Fanout splitting across slots is the standard technique (cf. ESLIP).
//!
//! The randomized workload runner is a *self-driven* [`SlottedModel`]
//! (its traffic comes from internal seeded streams, not a `TrafficGen`),
//! so it runs on the same engine as every other simulator. In its
//! [`EngineReport`]: `delivered`/`mean_delay` are completions and
//! completion latency, `throughput` is overridden to the output-line
//! utilization (copies per output per slot), and the extras
//! [`Extra::CopiesDelivered`] / [`Extra::MeanTransmissions`] carry the
//! multicast-specific counters.

use osmosis_sched::arbiter::{BitSet, RoundRobinArbiter};
use osmosis_sim::engine::{Engine, EngineConfig, EngineReport, Observer, SlottedModel, TraceSink};
use osmosis_sim::{Extra, SeedSequence, SimRng};
use std::collections::VecDeque;

/// A multicast cell: one source, a set of destinations.
#[derive(Debug, Clone)]
pub struct McCell {
    /// Source port.
    pub src: usize,
    /// Remaining (unserved) destinations.
    pub residue: Vec<bool>,
    /// Injection slot.
    pub inject_slot: u64,
    /// Original fanout.
    pub fanout: usize,
}

/// Fanout-splitting multicast switch.
pub struct MulticastSwitch {
    n: usize,
    queues: Vec<VecDeque<McCell>>,
    out_arb: Vec<RoundRobinArbiter>,
    tx_count: Vec<u64>,                 // scratch: transmissions per head cell
    requesters_per_output: Vec<BitSet>, // scratch, cleared each tick
    served: Vec<Vec<usize>>,            // scratch, cleared each tick
    /// Cells whose fanout completed in the last `tick`, until the next.
    completions: Vec<McCell>,
}

impl MulticastSwitch {
    /// An `n`-port multicast switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        MulticastSwitch {
            n,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            out_arb: (0..n).map(|_| RoundRobinArbiter::new(n)).collect(),
            tx_count: vec![0; n],
            requesters_per_output: (0..n).map(|_| BitSet::new(n)).collect(),
            served: (0..n).map(|_| Vec::new()).collect(),
            completions: Vec::new(),
        }
    }

    /// Inject a multicast cell at `src` toward the destination set.
    pub fn inject(&mut self, src: usize, dsts: &[usize], slot: u64) {
        assert!(src < self.n);
        let mut residue = vec![false; self.n];
        let mut fanout = 0;
        for &d in dsts {
            assert!(d < self.n);
            if !residue[d] {
                residue[d] = true;
                fanout += 1;
            }
        }
        assert!(fanout > 0, "empty destination set");
        self.queues[src].push_back(McCell {
            src,
            residue,
            inject_slot: slot,
            fanout,
        });
    }

    /// One slot: every free output claims one input whose head cell still
    /// owes it a copy; heads transmit to all claiming outputs at once.
    /// Returns copies delivered; cells that completed their fanout are in
    /// `self.completions` until the next tick. All working storage is
    /// persistent scratch — the per-slot path does not allocate.
    pub fn tick(&mut self, _slot: u64) -> u64 {
        let n = self.n;
        self.completions.clear();
        // Which inputs want which outputs (head cells only).
        for req in self.requesters_per_output.iter_mut() {
            req.clear_all();
        }
        let mut any = false;
        for (i, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.front() {
                for (o, req) in self.requesters_per_output.iter_mut().enumerate() {
                    if head.residue[o] {
                        req.set(i);
                        any = true;
                    }
                }
            }
        }
        if !any {
            return 0;
        }
        // Each output picks one input round-robin. Many outputs may pick
        // the same input — that is the broadcast advantage.
        let mut copies = 0u64;
        self.tx_count.fill(0);
        for s in self.served.iter_mut() {
            s.clear();
        }
        for (o, req) in self.requesters_per_output.iter().enumerate() {
            if req.is_empty() {
                continue;
            }
            if let Some(i) = self.out_arb[o].arbitrate(req) {
                self.out_arb[o].advance_past(i);
                self.served[i].push(o);
                copies += 1;
            }
        }
        for i in 0..n {
            if self.served[i].is_empty() {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "`served` only lists inputs whose head cell won at least one output this slot"
            )]
            let head = self.queues[i]
                .front_mut()
                .expect("served input with an empty queue");
            for &o in &self.served[i] {
                head.residue[o] = false;
            }
            self.tx_count[i] += 1;
            if head.residue.iter().all(|&r| !r) {
                if let Some(done) = self.queues[i].pop_front() {
                    self.completions.push(done);
                }
            }
        }
        copies
    }
}

/// The randomized multicast workload as a self-driven engine model: each
/// input injects cells with the given fanout at `rate` cells/slot, drawn
/// from per-input seeded streams.
pub struct MulticastWorkload {
    sw: MulticastSwitch,
    rngs: Vec<SimRng>,
    fanout: usize,
    rate: f64,
    copies: u64,
    total_tx: u64,
}

impl MulticastWorkload {
    /// An `n`-port workload; RNG streams come from `cfg.seed` at
    /// configure time.
    pub fn new(n: usize, fanout: usize, rate: f64) -> Self {
        assert!(fanout >= 1 && fanout <= n);
        MulticastWorkload {
            sw: MulticastSwitch::new(n),
            rngs: Vec::new(),
            fanout,
            rate,
            copies: 0,
            total_tx: 0,
        }
    }
}

impl SlottedModel for MulticastWorkload {
    fn ports(&self) -> usize {
        self.sw.n
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        let seeds = SeedSequence::new(cfg.seed);
        self.rngs = (0..self.sw.n)
            .map(|i| seeds.stream("mc", i as u64))
            .collect();
        self.copies = 0;
        self.total_tx = 0;
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let c = self.sw.tick(slot);
        self.copies += c;
        for cell in &self.sw.completions {
            obs.cell_delivered(cell.src, cell.inject_slot);
        }
        self.total_tx += self.sw.tx_count.iter().sum::<u64>();
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, _obs: &mut Observer<'_, T>) {}

    fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let n = self.sw.n;
        for i in 0..n {
            if self.rngs[i].coin(self.rate) {
                // A random fanout-sized destination set.
                let mut dsts = Vec::with_capacity(self.fanout);
                while dsts.len() < self.fanout {
                    let d = self.rngs[i].index(n);
                    if !dsts.contains(&d) {
                        dsts.push(d);
                    }
                }
                self.sw.inject(i, &dsts, slot);
                obs.cell_injected(i, dsts[0]);
                obs.note_queue_depth(self.sw.queues[i].len());
            }
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        // Throughput for a multicast run is output-line utilization:
        // copies (not completions) per output per slot.
        let denom = (report.measured_slots as f64 * self.sw.n as f64).max(1.0);
        report.throughput = self.copies as f64 / denom;
        report.set_extra(Extra::CopiesDelivered, self.copies as f64);
        report.set_extra(
            Extra::MeanTransmissions,
            if report.delivered == 0 {
                0.0
            } else {
                self.total_tx as f64 / report.delivered as f64
            },
        );
    }
}

/// Run a randomized multicast workload for `slots` slots (no warm-up).
pub fn run_multicast(n: usize, fanout: usize, rate: f64, slots: u64, seed: u64) -> EngineReport {
    let cfg = EngineConfig::new(0, slots).with_seed(seed);
    Engine::new(&cfg).run(&mut MulticastWorkload::new(n, fanout, rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_broadcast_completes_in_one_slot() {
        // One input, all 8 outputs free: the broadcast-and-select fabric
        // serves the full fanout in a single transmission.
        let mut sw = MulticastSwitch::new(8);
        sw.inject(0, &[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let copies = sw.tick(1);
        assert_eq!(copies, 8);
        assert_eq!(sw.completions.len(), 1);
        assert_eq!(sw.completions[0].fanout, 8);
    }

    #[test]
    fn contending_multicasts_split_their_fanout() {
        // Two inputs multicast to the same pair of outputs: each output
        // picks one input per slot, so each cell completes over ~2 slots.
        let mut sw = MulticastSwitch::new(4);
        sw.inject(0, &[2, 3], 0);
        sw.inject(1, &[2, 3], 0);
        let mut done = 0;
        for t in 1..6 {
            sw.tick(t);
            done += sw.completions.len();
        }
        assert_eq!(done, 2, "both complete via fanout splitting");
    }

    #[test]
    fn unicast_degenerates_to_crossbar() {
        let r = run_multicast(8, 1, 0.5, 5_000, 1);
        assert!(r.delivered > 0);
        assert!((r.extra(Extra::MeanTransmissions).unwrap() - 1.0).abs() < 0.05);
        // Unicast load 0.5: copies/output/slot ≈ 0.5.
        assert!((r.throughput - 0.5).abs() < 0.05);
    }

    #[test]
    fn broadcast_fanout_multiplies_output_load() {
        // Fanout 4 at injection rate 0.1: copy load ≈ 0.4 per output.
        let r = run_multicast(8, 4, 0.1, 10_000, 2);
        assert!((r.throughput - 0.4).abs() < 0.05, "{}", r.throughput);
        assert!(
            r.extra(Extra::MeanTransmissions).unwrap() < 2.5,
            "broadcast serves most copies in few transmissions: {}",
            r.extra(Extra::MeanTransmissions).unwrap()
        );
    }

    #[test]
    fn conservation_under_saturation() {
        let r = run_multicast(8, 3, 0.25, 20_000, 3);
        // Copy demand = 0.25 × 3 = 0.75 per output: below capacity, so
        // completions keep pace with injections.
        assert!(
            r.delivered as f64 >= r.injected as f64 * 0.95,
            "{} of {}",
            r.delivered,
            r.injected
        );
        // Copy accounting: completed cells account for exactly 3 copies
        // each; cells still in flight may have delivered a partial
        // residue.
        let copies = r.extra(Extra::CopiesDelivered).unwrap() as u64;
        assert!(copies >= r.delivered * 3);
        assert!(copies <= r.injected * 3);
    }

    #[test]
    fn multicast_runs_are_deterministic_per_seed() {
        let a = run_multicast(8, 2, 0.3, 3_000, 11);
        let b = run_multicast(8, 2, 0.3, 3_000, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_multicast(8, 2, 0.3, 3_000, 12);
        assert_ne!(a.delivered, c.delivered);
    }

    #[test]
    #[should_panic(expected = "empty destination set")]
    fn empty_destination_rejected() {
        let mut sw = MulticastSwitch::new(4);
        sw.inject(0, &[], 0);
    }
}
