//! Single-stage fabric with a *distant* central scheduler — the Fig. 1
//! latency argument.
//!
//! In a hypothetical single-stage 2048-port optical fabric, the crossbar
//! and its scheduler sit in the middle of the machine room, half an RTT of
//! fiber away from every host adapter. A cell then pays:
//!
//! 1. ½ RTT for the request to reach the scheduler,
//! 2. the scheduling delay,
//! 3. ½ RTT for the grant to return,
//! 4. ½ RTT for the data to reach the crossbar,
//! 5. ½ RTT from the crossbar to the egress adapter,
//!
//! i.e. **2 RTT plus scheduling** of unloaded latency — which is what
//! rules the single-stage topology out (§III): with 250 ns of one-way
//! cable flight the budget of 500 ns is blown by the control loop alone.
//! This module simulates that timing around any [`CellScheduler`].

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use osmosis_sched::CellScheduler;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, FlowOrder, TrafficGen};
use std::collections::VecDeque;

/// A VOQ switch whose hosts are `half_rtt_slots` of flight time away from
/// the central scheduler/crossbar.
pub struct RemoteSchedulerSwitch {
    n: usize,
    sched: Box<dyn CellScheduler>,
    half_rtt_slots: u64,
    voq: Vec<VecDeque<Cell>>,
    egress: Vec<VecDeque<Cell>>,
    /// (due slot, input, output) — requests in flight to the scheduler.
    requests_in_flight: VecDeque<(u64, usize, usize)>,
    /// (due slot at input, input, output) — grants in flight back.
    grants_in_flight: VecDeque<(u64, usize, usize)>,
    /// (arrival slot at egress adapter, cell).
    data_in_flight: VecDeque<(u64, Cell)>,
    order: FlowOrder,
    next_id: u64,
}

impl RemoteSchedulerSwitch {
    /// Build around a scheduler with the given one-way host↔crossbar
    /// flight time in slots (½ RTT).
    pub fn new(sched: Box<dyn CellScheduler>, half_rtt_slots: u64) -> Self {
        let n = sched.inputs();
        RemoteSchedulerSwitch {
            n,
            sched,
            half_rtt_slots,
            voq: (0..n * n).map(|_| VecDeque::new()).collect(),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            requests_in_flight: VecDeque::new(),
            grants_in_flight: VecDeque::new(),
            data_in_flight: VecDeque::new(),
            order: FlowOrder::new(),
            next_id: 0,
        }
    }

    /// Run traffic and report.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for RemoteSchedulerSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn configure(&mut self, _cfg: &EngineConfig) {
        self.order.begin_run();
    }

    fn arbitrate<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        let n = self.n;
        let d = self.half_rtt_slots;

        // Requests arriving at the scheduler this slot. The `<=` matters
        // for d = 0: a colocated adapter's request is filed during slot
        // t's injection phase (due = t) and must be picked up at slot
        // t + 1, after its due slot has passed.
        while self
            .requests_in_flight
            .front()
            .is_some_and(|&(due, _, _)| due <= t)
        {
            let Some((_, i, o)) = self.requests_in_flight.pop_front() else {
                break;
            };
            self.sched.note_arrival(i, o);
        }

        // Scheduler computes this slot's matching; grants fly back.
        let matching = self.sched.tick(t);
        for &(i, o) in matching.pairs() {
            self.grants_in_flight.push_back((t + d, i, o));
        }

        // Grants arriving at the inputs: launch the cell. It reaches the
        // crossbar ½ RTT later and the egress adapter a further ½ RTT
        // after that.
        while self
            .grants_in_flight
            .front()
            .is_some_and(|&(due, _, _)| due <= t)
        {
            let Some((_, i, o)) = self.grants_in_flight.pop_front() else {
                break;
            };
            if obs.faults_attached() && obs.fault_grant_lost(i, o) {
                // The grant was corrupted on the way back: the adapter
                // times out and re-requests; the cell stays queued. The
                // max(1) keeps a colocated (d = 0) re-request from landing
                // in this already-processed slot and leaking the cell.
                self.requests_in_flight.push_back((t + d.max(1), i, o));
                continue;
            }
            let mut cell = self.voq[i * n + o]
                .pop_front()
                // lint:allow(panic-free): a grant is only issued for a
                // request filed by a queued cell, and grant-loss re-queues
                // the request rather than dropping the cell
                .expect("grant for missing cell");
            cell.grant_slot = t;
            obs.cell_granted(i, o, cell.inject_slot);
            self.data_in_flight.push_back((t + 2 * d, cell));
        }

        // Data arriving at the egress adapters.
        while self
            .data_in_flight
            .front()
            .is_some_and(|&(due, _)| due <= t)
        {
            let Some((_, cell)) = self.data_in_flight.pop_front() else {
                break;
            };
            self.egress[cell.dst].push_back(cell);
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        // Egress transmits one cell per slot to the host.
        for (o, q) in self.egress.iter_mut().enumerate() {
            if let Some(cell) = q.pop_front() {
                self.order.record(cell.src, cell.dst, cell.seq);
                obs.cell_delivered_flow(o, cell.inject_slot, cell.src, cell.seq);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        // New arrivals: enqueue locally, request flies to scheduler.
        let d = self.half_rtt_slots;
        for a in arrivals {
            let seq = self.order.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            obs.cell_injected(a.src, a.dst);
            self.voq[a.src * self.n + a.dst].push_back(cell);
            self.requests_in_flight.push_back((slot + d, a.src, a.dst));
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.order.reordered();
    }

    fn resident_cells(&self) -> Option<u64> {
        let queued: usize = self.voq.iter().map(VecDeque::len).sum::<usize>()
            + self.egress.iter().map(VecDeque::len).sum::<usize>()
            + self.data_in_flight.len();
        Some(queued as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sched::Flppr;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    fn cfg() -> EngineConfig {
        EngineConfig::new(1_000, 8_000)
    }

    #[test]
    fn colocated_scheduler_matches_plain_switch() {
        // d = 0 degenerates to the ordinary VOQ switch timing.
        let mut sw = RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 0);
        let mut tr = BernoulliUniform::new(8, 0.1, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &cfg());
        assert!(r.delivered > 0, "colocated switch must actually deliver");
        assert!((r.throughput - 0.1).abs() < 0.02, "{}", r.throughput);
        assert!(r.mean_delay < 3.5, "{}", r.mean_delay);
    }

    #[test]
    fn unloaded_latency_is_two_rtt_plus_scheduling() {
        // Fig. 1: 2 RTT (= 4 half-RTTs) + scheduling.
        let d = 10u64;
        let mut sw = RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), d);
        let mut tr = BernoulliUniform::new(8, 0.05, &SeedSequence::new(2));
        let r = sw.run(&mut tr, &cfg());
        let two_rtt = 4.0 * d as f64;
        assert!(
            r.mean_delay >= two_rtt,
            "delay {} below 2 RTT {two_rtt}",
            r.mean_delay
        );
        assert!(
            r.mean_delay < two_rtt + 4.0,
            "delay {} ≫ 2 RTT + sched",
            r.mean_delay
        );
    }

    #[test]
    fn latency_scales_linearly_with_distance() {
        let measure = |d| {
            let mut sw = RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), d);
            let mut tr = BernoulliUniform::new(8, 0.05, &SeedSequence::new(3));
            sw.run(&mut tr, &cfg()).mean_delay
        };
        let d5 = measure(5);
        let d20 = measure(20);
        assert!((d20 - d5 - 60.0).abs() < 3.0, "Δ {}", d20 - d5);
    }

    #[test]
    fn lost_grants_are_retimed_through_the_control_loop() {
        use crate::driven::run_switch_faulted;
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        let c = EngineConfig::new(0, 8_000).with_seed(9);
        let mut sw = RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4);
        let mut tr = BernoulliUniform::new(8, 0.4, &SeedSequence::new(c.seed));
        let plan = FaultPlan::new().permanent(FaultKind::GrantLoss { prob: 0.15 }, 0);
        let mut inj = FaultInjector::new(plan);
        let r = run_switch_faulted(&mut sw, &mut tr, &c, &mut inj);
        assert!(r.extra("fault_grants_lost").unwrap() > 50.0);
        assert_eq!(r.dropped, 0, "lost grants re-request, cells stay queued");
        assert_eq!(r.reordered, 0);
        assert!(
            (r.throughput - r.offered_load).abs() < 0.03,
            "{} vs {}",
            r.throughput,
            r.offered_load
        );
    }

    #[test]
    fn throughput_survives_the_control_loop() {
        // The RTT adds latency but not a throughput penalty when the VOQ
        // request pipeline keeps the scheduler busy.
        let mut sw = RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 6);
        let mut tr = BernoulliUniform::new(8, 0.9, &SeedSequence::new(4));
        let r = sw.run(&mut tr, &cfg());
        assert!((r.throughput - 0.9).abs() < 0.03, "{}", r.throughput);
        assert_eq!(r.reordered, 0);
    }
}
