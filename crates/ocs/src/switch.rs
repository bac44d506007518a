//! The circuit-switched datapath: VOQ ingress adapters feeding epoch
//! circuits instead of a per-slot crossbar matching.
//!
//! Structurally the switch is the OSMOSIS edge with the central packet
//! scheduler removed: cells wait in per-destination VOQs, and in each
//! slot input `i` may transfer **only** along its currently lit circuit
//! (`Observer::circuit_for(i)`), one cell per slot, none during a guard
//! slot. Egress queues transmit one cell per slot toward hosts with the
//! same hop-by-hop retransmission path the packet switch uses under
//! link-corruption faults.
//!
//! Fault semantics: a [`CircuitStuck`] element
//! (`Observer::fault_circuit_stuck`) keeps an input's *previously
//! applied* circuit lit instead of the newly scheduled one. Two stale
//! circuits can then light the same output; the collision is resolved
//! deterministically (lowest input wins the receiver, the loser's cell
//! stays queued and the conflict is reported through
//! `Observer::receiver_conflict`).
//!
//! [`CircuitStuck`]: osmosis_sim::FaultView::circuit_stuck

use osmosis_sim::audit::DropReason;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::{Cell, CellSwitch};
use osmosis_traffic::{Arrival, FlowOrder};
use std::collections::VecDeque;

/// An input with no circuit applied.
const DARK: usize = usize::MAX;

/// The circuit-switched edge datapath.
pub struct OcsSwitch {
    n: usize,
    voq: Vec<VecDeque<Cell>>, // [input * n + output]
    egress: Vec<VecDeque<Cell>>,
    /// Circuit physically lit per input this slot (stale under a stuck
    /// fault; `DARK` when unconnected).
    applied: Vec<usize>,
    /// Scratch: which outputs already received a cell this slot.
    claimed: Vec<bool>,
    order: FlowOrder,
    next_id: u64,
    buffer_cells: Option<usize>,
}

impl OcsSwitch {
    /// An `n`-port circuit switch with empty queues and all circuits
    /// dark.
    pub fn new(n: usize) -> Self {
        OcsSwitch {
            n,
            voq: (0..n * n).map(|_| VecDeque::new()).collect(),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            applied: vec![DARK; n],
            claimed: vec![false; n],
            order: FlowOrder::new(),
            next_id: 0,
            buffer_cells: None,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n
    }
}

impl CellSwitch for OcsSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.order.begin_run();
        self.applied.iter_mut().for_each(|a| *a = DARK);
        self.buffer_cells = cfg.buffer_cells;
        for q in self.voq.iter_mut().chain(self.egress.iter_mut()) {
            q.clear();
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        if obs.audit_attached() {
            // One receiver per egress: the capacity-legality auditor can
            // police that circuits never double-book an output.
            for o in 0..self.n {
                obs.audit_output_capacity(o, 1);
            }
        }
        if obs.circuit_guard() {
            // Guard slot: the fabric is reconfiguring, nothing transfers.
            return;
        }
        // Refresh the physically applied circuits. A stuck element keeps
        // its stale circuit; everything else follows the schedule.
        for i in 0..self.n {
            if obs.faults_attached() && obs.fault_circuit_stuck(i) {
                continue;
            }
            self.applied[i] = match obs.circuit_for(i) {
                Some(o) if o < self.n => o,
                _ => DARK,
            };
        }
        self.claimed.iter_mut().for_each(|c| *c = false);
        // Report physical collisions (possible only with stale circuits)
        // before resolving them: count loaded contenders per output.
        if obs.faults_attached() {
            for o in 0..self.n {
                let contenders = (0..self.n)
                    .filter(|&i| self.applied[i] == o && !self.voq[i * self.n + o].is_empty())
                    .count();
                if contenders > 1 {
                    obs.receiver_conflict(o, contenders);
                }
            }
        }
        // Transfer: lowest input wins a contended receiver.
        for i in 0..self.n {
            let o = self.applied[i];
            if o == DARK || self.claimed[o] {
                continue;
            }
            if let Some(mut cell) = self.voq[i * self.n + o].pop_front() {
                self.claimed[o] = true;
                cell.grant_slot = slot;
                obs.cell_granted(i, o, cell.inject_slot);
                self.egress[o].push_back(cell);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        for (o, q) in self.egress.iter_mut().enumerate() {
            obs.note_egress_depth(q.len());
            if !q.is_empty() && obs.faults_attached() && obs.fault_cell_corrupted(o) {
                // Corrupted on the egress link: keep the cell at the head
                // and re-send next slot (hop-by-hop retransmission).
                obs.cell_retransmitted(o);
                continue;
            }
            if let Some(cell) = q.pop_front() {
                debug_assert_eq!(cell.dst, o);
                self.order.record(cell.src, cell.dst, cell.seq);
                obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        for a in arrivals {
            obs.cell_injected(a.src, a.dst);
            let q = &mut self.voq[a.src * self.n + a.dst];
            if let Some(cap) = self.buffer_cells {
                if q.len() >= cap {
                    // Finite ingress buffer: the cell is admitted to the
                    // ledger, then discarded (counted as a buffer drop).
                    obs.cell_dropped_for(a.src, DropReason::BufferFull);
                    continue;
                }
            }
            let seq = self.order.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            q.push_back(cell);
            obs.note_queue_depth(q.len());
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.order.reordered();
    }

    fn resident_cells(&self) -> Option<u64> {
        let queued: usize = self.voq.iter().map(VecDeque::len).sum::<usize>()
            + self.egress.iter().map(VecDeque::len).sum::<usize>();
        Some(queued as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochConfig;
    use crate::sched::OcsScheduler;
    use osmosis_sim::SeedSequence;
    use osmosis_switch::run_switch_circuit;
    use osmosis_traffic::{BernoulliUniform, Permutation};

    fn cfg() -> EngineConfig {
        EngineConfig::new(500, 5_000)
    }

    #[test]
    fn permutation_traffic_locks_on_and_flows() {
        let mut sw = OcsSwitch::new(8);
        let mut tr = Permutation::random(8, 0.8, &SeedSequence::new(3));
        let mut sched = OcsScheduler::new(EpochConfig::new(16, 1, 4));
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut sched, None, None);
        // Once the estimator locks onto the (static) permutation the
        // circuits stop changing; throughput approaches offered load.
        assert!(
            r.throughput > 0.9 * r.offered_load,
            "thr {} vs offered {}",
            r.throughput,
            r.offered_load
        );
        assert_eq!(r.reordered, 0);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn uniform_traffic_is_carried_at_moderate_load() {
        let mut sw = OcsSwitch::new(8);
        let mut tr = BernoulliUniform::new(8, 0.3, &SeedSequence::new(5));
        let mut sched = OcsScheduler::new(EpochConfig::osmosis_default());
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut sched, None, None);
        assert!(r.throughput > 0.25, "throughput {}", r.throughput);
        assert_eq!(r.reordered, 0);
        assert!(r.extra("ocs_epochs").is_some());
    }

    #[test]
    fn finite_buffer_drops_are_attributed() {
        let mut sw = OcsSwitch::new(4);
        let mut tr = BernoulliUniform::new(4, 0.95, &SeedSequence::new(9));
        let mut sched = OcsScheduler::new(EpochConfig::new(32, 1, 4));
        let r = run_switch_circuit(
            &mut sw,
            &mut tr,
            &cfg().with_buffer_cells(8),
            &mut sched,
            None,
            None,
        );
        assert!(r.dropped > 0, "overload must overflow an 8-cell buffer");
        assert_eq!(r.extra("drops_buffer_full"), Some(r.dropped as f64));
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let run = || {
            let mut sw = OcsSwitch::new(8);
            let mut tr = BernoulliUniform::new(8, 0.5, &SeedSequence::new(21));
            let mut sched = OcsScheduler::new(EpochConfig::osmosis_default());
            run_switch_circuit(
                &mut sw,
                &mut tr,
                &cfg().with_seed(21),
                &mut sched,
                None,
                None,
            )
            .fingerprint()
        };
        assert_eq!(run(), run());
    }
}
