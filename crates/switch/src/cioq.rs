//! Combined input/output-queued (CIOQ) switch with internal speedup and
//! *limited* output buffers — the subject of the paper's ref. \[11\]
//! (Minkenberg, "Work-conservingness of CIOQ packet switches with limited
//! output buffers") and the basis of §III's requirement that "the
//! switches must be work-conserving".
//!
//! A CIOQ switch runs its crossbar S times per cell slot (speedup S) —
//! each phase one round of the shared round-robin grant/accept kernel,
//! [`osmosis_sched::matching`], over request masks kept in step with the
//! VOQs — moving cells from the ingress VOQs into small egress buffers
//! that drain at line rate. With S = 1 the switch is input-queued and cannot
//! be work-conserving; with S = 2 and enough egress buffer it (almost)
//! is. This model measures work conservation directly: a slot where an
//! output idles while a cell for it sits anywhere in the switch is a
//! violation, reported as [`Extra::ViolationFraction`].
//!
//! The N² VOQs are one [`Voqs`] store; the egress buffers, one per
//! output, are `VecDeque`s.

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use crate::voqs::Voqs;
use osmosis_sched::matching::Matcher;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_sim::Extra;
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;

/// The CIOQ switch.
pub struct CioqSwitch {
    n: usize,
    /// Internal speedup: matching phases per slot.
    speedup: usize,
    /// Egress buffer capacity per output, in cells.
    egress_cap: usize,
    voq: Voqs<Cell>,
    egress: Vec<VecDeque<Cell>>,
    /// Per output, `n.div_ceil(64)` words: bit i set ⇔ VOQ (i, o) holds
    /// a cell.
    requests: Vec<u64>,
    /// Bit o set ⇔ some VOQ for output o holds a cell.
    requested: Vec<u64>,
    grant_ptr: Vec<u16>,
    accept_ptr: Vec<u16>,
    matcher: Matcher,
    violations: u64,
    busy_slots: u64,
    /// `requested` at slot start: the outputs work existed for, for the
    /// audit.
    pending: Vec<u64>,
}

impl CioqSwitch {
    /// An `n`-port CIOQ switch with the given speedup and egress cap;
    /// `n` < 2¹⁶, the matching pointers being 16-bit.
    pub fn new(n: usize, speedup: usize, egress_cap: usize) -> Self {
        assert!(n > 0 && n <= u16::MAX as usize && speedup >= 1 && egress_cap >= 1);
        let words = n.div_ceil(64);
        CioqSwitch {
            n,
            speedup,
            egress_cap,
            voq: Voqs::new(n * n),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            requests: vec![0; n * words],
            requested: vec![0; words],
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            matcher: Matcher::new(n),
            violations: 0,
            busy_slots: 0,
            pending: vec![0; words],
        }
    }

    /// Run traffic and report. The work-conservation violation rate is in
    /// [`Extra::ViolationFraction`].
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for CioqSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn configure(&mut self, _cfg: &EngineConfig) {
        self.violations = 0;
        self.busy_slots = 0;
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let (n, words) = (self.n, self.n.div_ceil(64));

        // Work-conservation audit *before* this slot's transfers: an
        // output with an empty egress buffer but pending VOQ cells can
        // only transmit this slot if a matching phase feeds it.
        self.pending.copy_from_slice(&self.requested);

        // S matching phases per slot (single-iteration RR each — speedup,
        // not iteration count, is the knob under study).
        for _phase in 0..self.speedup {
            // Limited output buffer: a full egress does not grant.
            let (egress, cap) = (&self.egress, self.egress_cap);
            self.matcher.match_switch(
                1,
                &self.requests,
                &self.requested,
                &mut self.grant_ptr,
                &mut self.accept_ptr,
                |o| egress[o].len() < cap,
            );
            for &(i, o) in &self.matcher.matched {
                let (i, o) = (i as usize, o as usize);
                let q = i * n + o;
                #[expect(
                    clippy::expect_used,
                    reason = "the request masks track the VOQs, so a granted VOQ still holds its cell"
                )]
                let mut cell = self.voq.pop(q).expect("accepted grant with an empty VOQ");
                if self.voq.is_empty(q) {
                    let col = o * words;
                    self.requests[col + i / 64] &= !(1 << (i % 64));
                    if self.requests[col..col + words].iter().all(|&w| w == 0) {
                        self.requested[o / 64] &= !(1 << (o % 64));
                    }
                }
                cell.grant_slot = slot;
                obs.cell_granted(i, o, cell.inject_slot);
                self.egress[o].push_back(cell);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        // Egress transmits one cell per slot; audit idleness.
        for (o, q) in self.egress.iter_mut().enumerate() {
            obs.note_egress_depth(q.len());
            match q.pop_front() {
                Some(cell) => {
                    debug_assert_eq!(cell.dst, o);
                    if obs.measuring() {
                        self.busy_slots += 1;
                    }
                    obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
                }
                None => {
                    if obs.measuring() && self.pending[o / 64] >> (o % 64) & 1 != 0 {
                        // Work existed for this output at slot start, the
                        // output line still idled.
                        self.violations += 1;
                        self.busy_slots += 1;
                    }
                }
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        let words = self.n.div_ceil(64);
        for a in arrivals {
            let seq = obs.stamp(a.src, a.dst);
            let cell = Cell::new(a.src, a.dst, seq, slot);
            obs.cell_injected(a.src, a.dst);
            let depth = self.voq.push(a.src * self.n + a.dst, cell);
            obs.note_queue_depth(depth);
            self.requests[a.dst * words + a.src / 64] |= 1 << (a.src % 64);
            self.requested[a.dst / 64] |= 1 << (a.dst % 64);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        let fraction = if self.busy_slots == 0 {
            0.0
        } else {
            self.violations as f64 / self.busy_slots as f64
        };
        report.set_extra(Extra::ViolationFraction, fraction);
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
        EngineConfig::new(1_000, 10_000)
    }

    fn run_at(speedup: usize, cap: usize, load: f64, seed: u64) -> EngineReport {
        let mut sw = CioqSwitch::new(16, speedup, cap);
        let mut tr = BernoulliUniform::new(16, load, &SeedSequence::new(seed));
        sw.run(&mut tr, &cfg())
    }

    fn violation_fraction(r: &EngineReport) -> f64 {
        r.extra(Extra::ViolationFraction).unwrap()
    }

    #[test]
    fn speedup_one_violates_work_conservation() {
        // Input-queued (S=1): contention leaves outputs idle while work
        // waits at other inputs — the violation rate is material.
        let r = run_at(1, 4, 0.9, 1);
        assert!(
            violation_fraction(&r) > 0.02,
            "violations {}",
            violation_fraction(&r)
        );
    }

    #[test]
    fn speedup_two_nearly_work_conserving() {
        // Ref. [11]'s regime: S=2 with modest egress buffers almost
        // eliminates violations.
        let s1 = run_at(1, 8, 0.9, 2);
        let s2 = run_at(2, 8, 0.9, 2);
        assert!(
            violation_fraction(&s2) < violation_fraction(&s1) / 4.0,
            "{} vs {}",
            violation_fraction(&s2),
            violation_fraction(&s1)
        );
        assert!(violation_fraction(&s2) < 0.01);
    }

    #[test]
    fn tiny_egress_buffers_restore_violations_despite_speedup() {
        // Ref. [11]'s point: *limited* output buffers can break work
        // conservation even with speedup, because backpressure blocks
        // the transfer phases.
        let small = run_at(2, 1, 0.95, 3);
        let large = run_at(2, 16, 0.95, 3);
        assert!(
            violation_fraction(&small) > violation_fraction(&large),
            "{} vs {}",
            violation_fraction(&small),
            violation_fraction(&large)
        );
    }

    #[test]
    fn lossless_and_ordered() {
        let r = run_at(2, 8, 0.8, 4);
        assert_eq!(r.reordered, 0);
        assert!((r.throughput - 0.8).abs() < 0.03);
        assert!(r.max_egress_depth <= 8);
    }

    #[test]
    fn masks_track_voqs_through_random_runs() {
        for n in [5usize, 64, 65, 130] {
            let mut rng = SimRng::seed_from_u64(n as u64);
            let mut queued = 0;
            // Overload leaves the VOQs crowded, light load nearly empty.
            for (run, load) in [1.0, 0.2, 0.9, 0.05].into_iter().enumerate() {
                let mut sw = CioqSwitch::new(n, 1 + rng.index(3), 1 + rng.index(4));
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(run as u64));
                sw.run(&mut tr, &EngineConfig::new(0, 20 + rng.index(60) as u64));
                let words = n.div_ceil(64);
                let bit = |mask: &[u64], k: usize| mask[k / 64] >> (k % 64) & 1 != 0;
                for o in 0..n {
                    let col = &sw.requests[o * words..(o + 1) * words];
                    let holding = (0..n).filter(|&i| !sw.voq.is_empty(i * n + o));
                    let holding: Vec<usize> = holding.collect();
                    for &i in &holding {
                        assert!(bit(col, i), "n {n} run {run} VOQ({i},{o}) lost its bit");
                    }
                    // No bit beyond those: none stale, none in the padding.
                    let bits: u32 = col.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(bits as usize, holding.len(), "n {n} run {run} output {o}");
                    assert_eq!(bit(&sw.requested, o), !holding.is_empty());
                    queued += holding.len();
                }
            }
            assert!(queued > n, "n {n}: only {queued} VOQs left queued to check");
        }
    }
}
