//! Burst (container / envelope) switching — the workaround the paper
//! rejects (§II, §VI.D).
//!
//! High-port-count centrally scheduled crossbars have been built by
//! aggregating packets into multi-cell bursts so the scheduler only has
//! to produce a matching every B cell cycles (refs. \[5\]\[6\]). The price is
//! exactly what §VI.D states: *"Owing to the packet burst size, these
//! architectures exhibit latencies on the order of the packet burst time
//! for unloaded switches, which is not attractive for HPC interconnect
//! fabrics."* A lone cell must first wait for its container to be
//! assembled (or for the assembly timeout) and then for a burst-grained
//! grant.
//!
//! The model: VOQs aggregate cells into containers of `burst` cells; a
//! container becomes eligible when full **or** when its oldest cell has
//! waited `timeout` slots (the standard assembly rule). The scheduler
//! computes one matching every `burst` slots (it has B cycles to do so —
//! that is the whole point: log₂N rounds of [`osmosis_sched::matching`])
//! and a granted container occupies its input and output for the
//! following `burst` slots.
//!
//! The N² VOQs are one [`Voqs`] store; a launched container is up to
//! `burst` pops off its queue's head.

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use crate::voqs::Voqs;
use osmosis_sched::{log2_ceil, matching::Matcher};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;

/// Burst-switching crossbar.
pub struct BurstSwitch {
    n: usize,
    /// Cells per container.
    burst: u64,
    /// Assembly timeout in slots.
    timeout: u64,
    voq: Voqs<Cell>,
    egress: Vec<VecDeque<Cell>>,
    /// Per output, `n.div_ceil(64)` words, refilled at each burst
    /// boundary: bit i set ⇔ input i is idle and container (i, o) is
    /// eligible.
    requests: Vec<u64>,
    /// Bit o set ⇔ output o has any request.
    requested: Vec<u64>,
    grant_ptr: Vec<u16>,
    accept_ptr: Vec<u16>,
    matcher: Matcher,
    /// Remaining busy slots per input / output (container in flight).
    in_busy: Vec<u64>,
    out_busy: Vec<u64>,
}

impl BurstSwitch {
    /// An `n`-port burst switch with `burst` cells per container and the
    /// given assembly timeout; `n` < 2¹⁶, the matching pointers being
    /// 16-bit.
    pub fn new(n: usize, burst: u64, timeout: u64) -> Self {
        assert!(n > 0 && n <= u16::MAX as usize && burst >= 1);
        BurstSwitch {
            n,
            burst,
            timeout,
            voq: Voqs::new(n * n),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            requests: vec![0; n * n.div_ceil(64)],
            requested: vec![0; n.div_ceil(64)],
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            matcher: Matcher::new(n),
            in_busy: vec![0; n],
            out_busy: vec![0; n],
        }
    }

    fn container_eligible(&self, i: usize, o: usize, t: u64) -> bool {
        let q = i * self.n + o;
        self.voq.front(q).is_some_and(|head| {
            self.voq.len(q) as u64 >= self.burst
                || t.saturating_sub(head.inject_slot) >= self.timeout
        })
    }

    /// Rebuild the request masks for a matching at slot `t`.
    fn fill_requests(&mut self, t: u64) {
        let (n, words) = (self.n, self.n.div_ceil(64));
        self.requests.fill(0);
        self.requested.fill(0);
        for i in (0..n).filter(|&i| self.in_busy[i] == 0) {
            for o in 0..n {
                if self.container_eligible(i, o, t) {
                    self.requests[o * words + i / 64] |= 1 << (i % 64);
                    self.requested[o / 64] |= 1 << (o % 64);
                }
            }
        }
    }

    /// Run traffic and report (same schema as the VOQ switch).
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for BurstSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn arbitrate<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        let n = self.n;

        // Ports tied up by a container in flight count down.
        for b in self.in_busy.iter_mut().chain(self.out_busy.iter_mut()) {
            *b = b.saturating_sub(1);
        }

        // A matching is computed only on burst boundaries — and the
        // scheduler had `burst` cycles to compute it, so it can afford a
        // full log2(N)-iteration matching (that relaxation is the entire
        // point of container switching).
        if t.is_multiple_of(self.burst) {
            let iterations = log2_ceil(n);
            self.fill_requests(t);
            let out_busy = &self.out_busy;
            self.matcher.match_switch(
                iterations,
                &self.requests,
                &self.requested,
                &mut self.grant_ptr,
                &mut self.accept_ptr,
                |o| out_busy[o] == 0,
            );
            for &(i, o) in &self.matcher.matched {
                let (i, o) = (i as usize, o as usize);
                // Launch the container: up to `burst` cells leave back
                // to back over the next slots.
                for at in t..t + self.burst {
                    let Some(mut cell) = self.voq.pop(i * n + o) else {
                        break;
                    };
                    cell.grant_slot = at;
                    obs.cell_granted_with_wait(i, o, cell.inject_slot, at - cell.inject_slot);
                    self.egress[o].push_back(cell);
                }
                self.in_busy[i] = self.burst;
                self.out_busy[o] = self.burst;
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        // Egress drains one cell per slot.
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
            let depth = self.voq.push(a.src * self.n + a.dst, cell);
            obs.note_queue_depth(depth);
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        let queued = self.voq.total() + self.egress.iter().map(VecDeque::len).sum::<usize>();
        Some(queued as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::{SeedSequence, SimRng};
    use osmosis_traffic::BernoulliUniform;

    fn cfg() -> EngineConfig {
        EngineConfig::new(2_000, 10_000)
    }

    #[test]
    fn unloaded_latency_is_on_the_order_of_the_burst_time() {
        // §VI.D's disqualifier: a lone cell waits out the assembly
        // timeout (≈ the burst time) before anything moves.
        let burst = 16u64;
        let mut sw = BurstSwitch::new(8, burst, burst);
        let mut tr = BernoulliUniform::new(8, 0.02, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &cfg());
        assert!(
            r.mean_delay >= burst as f64 * 0.8,
            "delay {} vs burst {burst}",
            r.mean_delay
        );
    }

    #[test]
    fn bigger_bursts_mean_bigger_unloaded_latency() {
        let measure = |burst| {
            let mut sw = BurstSwitch::new(8, burst, burst);
            let mut tr = BernoulliUniform::new(8, 0.02, &SeedSequence::new(2));
            sw.run(&mut tr, &cfg()).mean_delay
        };
        let b4 = measure(4);
        let b32 = measure(32);
        assert!(b32 > b4 * 3.0, "{b4} vs {b32}");
    }

    #[test]
    fn keeps_order_and_loses_nothing() {
        let mut sw = BurstSwitch::new(8, 8, 8);
        let mut tr = BernoulliUniform::new(8, 0.6, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &cfg());
        assert_eq!(r.reordered, 0);
        assert_eq!(r.dropped, 0);
        assert!((r.throughput - 0.6).abs() < 0.05, "{}", r.throughput);
    }

    #[test]
    fn burst_one_degenerates_to_cell_switching() {
        let mut sw = BurstSwitch::new(8, 1, 1);
        let mut tr = BernoulliUniform::new(8, 0.05, &SeedSequence::new(4));
        let r = sw.run(&mut tr, &cfg());
        assert!(r.mean_delay < 3.0, "{}", r.mean_delay);
    }

    #[test]
    fn masks_are_eligible_containers_at_idle_inputs_after_random_runs() {
        for n in [5usize, 64, 65, 130] {
            let mut rng = SimRng::seed_from_u64(n as u64);
            let (mut asking, mut masked) = (0, 0);
            for (run, load) in [0.9, 0.2, 0.6].into_iter().enumerate() {
                let (burst, timeout) = (2 + rng.index(6) as u64, rng.index(12) as u64);
                let mut sw = BurstSwitch::new(n, burst, timeout);
                let t = 20 + rng.index(60) as u64;
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(run as u64));
                sw.run(&mut tr, &EngineConfig::new(0, t));
                sw.fill_requests(t);
                let words = n.div_ceil(64);
                let bit = |mask: &[u64], k: usize| mask[k / 64] >> (k % 64) & 1 != 0;
                for o in 0..n {
                    let col = &sw.requests[o * words..(o + 1) * words];
                    let mut any = false;
                    for i in 0..n {
                        let q = i * n + o;
                        let ripe = sw.voq.front(q).is_some_and(|head| {
                            sw.voq.len(q) as u64 >= burst || t - head.inject_slot >= timeout
                        });
                        let asks = sw.in_busy[i] == 0 && ripe;
                        assert_eq!(bit(col, i), asks, "n {n} run {run} VOQ({i},{o})");
                        any |= asks;
                        asking += asks as usize;
                        masked += (ripe && !asks) as usize;
                    }
                    assert_eq!(bit(&sw.requested, o), any, "n {n} run {run} output {o}");
                }
            }
            assert!(asking > 0, "n {n}: no request to check");
            assert!(masked > 0, "n {n}: no busy input masked a container");
        }
    }
}
