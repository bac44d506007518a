//! The single-stage OSMOSIS switch simulation: VOQ ingress adapters, a
//! bufferless crossbar driven by a central scheduler, and egress queues
//! with one or two receivers per port (Fig. 5).
//!
//! The simulation is slotted at the cell cycle and runs on the shared
//! engine (`osmosis_sim::engine`) through the [`CellSwitch`] hooks:
//!
//! 1. `arbitrate` — the scheduler issues the slot's matching (grants) and
//!    granted cells cross the (bufferless) crossbar into their egress
//!    queue — with dual receivers an egress can absorb two cells per slot,
//! 2. `deliver` — each egress transmits one cell per slot to its host,
//! 3. `admit` — the slot's new arrivals enter the VOQs and are reported to
//!    the scheduler (so the minimum request-to-grant latency is one cycle,
//!    as in Fig. 6).
//!
//! The run reports throughput, delay distributions, the request-to-grant
//! distribution, losslessness and per-flow ordering — every switch-level
//! row of Table 1 — in the unified [`EngineReport`].

use crate::cell::Cell;
use crate::driven::{run_switch, CellSwitch};
use osmosis_sched::CellScheduler;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_traffic::{Arrival, FlowOrder, TrafficGen};
use std::collections::VecDeque;

/// The switch simulator.
pub struct VoqSwitch {
    n: usize,
    sched: Box<dyn CellScheduler>,
    voq: Vec<VecDeque<Cell>>, // [input * n + output]
    egress: Vec<VecDeque<Cell>>,
    order: FlowOrder,
    next_id: u64,
    /// Receivers per egress in the fault-free switch.
    nominal_cap: usize,
    /// Capacity currently applied to the scheduler per output; updated
    /// only under an attached fault plane.
    applied_cap: Vec<usize>,
}

impl VoqSwitch {
    /// A switch around the given scheduler (ports are taken from it).
    pub fn new(sched: Box<dyn CellScheduler>) -> Self {
        let n = sched.inputs();
        assert_eq!(n, sched.outputs(), "square switch expected");
        let nominal_cap = sched.out_capacity();
        VoqSwitch {
            n,
            sched,
            voq: (0..n * n).map(|_| VecDeque::new()).collect(),
            egress: (0..n).map(|_| VecDeque::new()).collect(),
            order: FlowOrder::new(),
            next_id: 0,
            nominal_cap,
            applied_cap: vec![nominal_cap; n],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Run the traffic through the switch and report.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for VoqSwitch {
    fn ports(&self) -> usize {
        self.n
    }

    fn configure(&mut self, _cfg: &EngineConfig) {
        self.order.begin_run();
        // Restore full egress capacity in case a previous faulted run
        // left a degraded scheduler behind.
        for o in 0..self.n {
            if self.applied_cap[o] != self.nominal_cap {
                self.applied_cap[o] = self.nominal_cap;
                self.sched.set_output_capacity(o, self.nominal_cap);
            }
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        if obs.faults_attached() {
            // Reflect this slot's fault state into the scheduler: a
            // stuck-off SOA gate removes the whole egress, a dead
            // burst-mode receiver halves it (failover to the survivor).
            for o in 0..self.n {
                let cap = if obs.fault_output_blocked(o) {
                    0
                } else {
                    self.nominal_cap.saturating_sub(obs.fault_receivers_down(o))
                };
                if cap != self.applied_cap[o] {
                    self.applied_cap[o] = cap;
                    self.sched.set_output_capacity(o, cap);
                }
            }
        }
        if obs.audit_attached() {
            // Tell the audit plane what each output may legally absorb
            // this slot (as degraded by the fault reflection above), so
            // the capacity-legality auditor can police the matching.
            for o in 0..self.n {
                obs.audit_output_capacity(o, self.sched.output_capacity(o));
            }
        }
        let matching = self.sched.tick(slot);
        for &(i, o) in matching.pairs() {
            if obs.faults_attached() && obs.fault_grant_lost(i, o) {
                // The grant was corrupted in the control channel and never
                // reached the ingress adapter: the cell stays in its VOQ
                // and the adapter re-requests it next slot.
                self.sched.note_arrival(i, o);
                continue;
            }
            let q = &mut self.voq[i * self.n + o];
            let mut cell = q
                .pop_front()
                // lint:allow(panic-free): FLPPR validates every matching
                // against the occupancy snapshot before it is applied
                .expect("scheduler granted a cell the VOQ does not hold");
            cell.grant_slot = slot;
            obs.cell_granted(i, o, cell.inject_slot);
            self.egress[o].push_back(cell);
        }
    }

    fn deliver<T: TraceSink>(&mut self, _slot: u64, obs: &mut Observer<'_, T>) {
        for (o, q) in self.egress.iter_mut().enumerate() {
            obs.note_egress_depth(q.len());
            if !q.is_empty() && obs.faults_attached() && obs.fault_cell_corrupted(o) {
                // The egress transmission was corrupted by a link fault;
                // the cell stays at the queue head and is re-sent next
                // slot (hop-by-hop retransmission).
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
            let seq = self.order.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            obs.cell_injected(a.src, a.dst);
            let q = &mut self.voq[a.src * self.n + a.dst];
            q.push_back(cell);
            obs.note_queue_depth(q.len());
            self.sched.note_arrival(a.src, a.dst);
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

/// Convenience: run Bernoulli-uniform traffic at `load` through a fresh
/// switch built from `make_sched`, seeded from `cfg.seed`.
pub fn run_uniform(
    make_sched: impl FnOnce() -> Box<dyn CellScheduler>,
    load: f64,
    cfg: &EngineConfig,
) -> EngineReport {
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;
    let sched = make_sched();
    let n = sched.inputs();
    let mut sw = VoqSwitch::new(sched);
    let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(cfg.seed));
    sw.run(&mut tr, cfg)
}

/// [`run_uniform`] with a caller-supplied trace sink (telemetry,
/// ring-buffer capture, ...). Identical report for any sink.
pub fn run_uniform_traced<T: osmosis_sim::TraceSink>(
    make_sched: impl FnOnce() -> Box<dyn CellScheduler>,
    load: f64,
    cfg: &EngineConfig,
    sink: &mut T,
) -> EngineReport {
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;
    let sched = make_sched();
    let n = sched.inputs();
    let mut sw = VoqSwitch::new(sched);
    let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(cfg.seed));
    crate::driven::run_switch_traced(&mut sw, &mut tr, cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sched::{Flppr, Islip, PipelinedArbiter};
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::{BernoulliUniform, Bursty, Hotspot, Permutation};

    fn small_cfg() -> EngineConfig {
        EngineConfig::new(500, 5_000)
    }

    #[test]
    fn empty_traffic_idles() {
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.0, &SeedSequence::new(1));
        let r = sw.run(&mut tr, &small_cfg());
        assert_eq!(r.injected, 0);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn low_load_delay_is_two_slots_with_flppr() {
        // One cycle request→grant (Fig. 6) + one cycle egress transmission.
        let r = run_uniform(
            || Box::new(Flppr::osmosis(16, 1)),
            0.05,
            &small_cfg().with_seed(7),
        );
        assert!(
            (r.mean_request_grant - 1.0).abs() < 0.05,
            "grant latency {}",
            r.mean_request_grant
        );
        assert!(r.mean_delay < 2.2, "delay {}", r.mean_delay);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn low_load_delay_is_log2n_with_pipelined_prior_art() {
        let r = run_uniform(
            || Box::new(PipelinedArbiter::log2n(16, 1)),
            0.05,
            &small_cfg().with_seed(7),
        );
        // depth = log2(16) = 4 → request-to-grant ≈ 4 (+ rare contention).
        assert!(
            (r.mean_request_grant - 4.0).abs() < 0.3,
            "grant latency {}",
            r.mean_request_grant
        );
        assert!(r.mean_delay > 4.0);
    }

    #[test]
    fn throughput_tracks_offered_load_under_uniform_traffic() {
        for load in [0.3, 0.6, 0.9] {
            let r = run_uniform(
                || Box::new(Flppr::osmosis(16, 1)),
                load,
                &small_cfg().with_seed(11),
            );
            assert!(
                (r.throughput - r.offered_load).abs() < 0.02,
                "load {load}: thr {} vs offered {}",
                r.throughput,
                r.offered_load
            );
            assert_eq!(r.reordered, 0, "ordering at load {load}");
        }
    }

    #[test]
    fn sustained_throughput_above_95_percent() {
        // Table 1: sustained throughput > 95%.
        let r = run_uniform(
            || Box::new(Flppr::osmosis(16, 1)),
            0.99,
            &EngineConfig::new(2_000, 20_000).with_seed(13),
        );
        assert!(r.throughput > 0.95, "throughput {}", r.throughput);
    }

    #[test]
    fn dual_receiver_lowers_delay_at_medium_load() {
        // Fig. 7: the dual-receiver curve sits below the single-receiver
        // curve in the mid-load region.
        let single = run_uniform(
            || Box::new(Flppr::osmosis(16, 1)),
            0.7,
            &small_cfg().with_seed(17),
        );
        let dual = run_uniform(
            || Box::new(Flppr::osmosis(16, 2)),
            0.7,
            &small_cfg().with_seed(17),
        );
        assert!(
            dual.mean_delay < single.mean_delay,
            "dual {} vs single {}",
            dual.mean_delay,
            single.mean_delay
        );
    }

    #[test]
    fn permutation_traffic_flows_without_contention() {
        let sched: Box<dyn CellScheduler> = Box::new(Flppr::osmosis(16, 1));
        let mut sw = VoqSwitch::new(sched);
        let mut tr = Permutation::random(16, 0.9, &SeedSequence::new(3));
        let r = sw.run(&mut tr, &small_cfg());
        assert!((r.throughput - 0.9).abs() < 0.02);
        assert!(r.mean_delay < 3.0, "no contention: {}", r.mean_delay);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn hotspot_remains_lossless_and_ordered() {
        // Output 0 is overloaded (2× line rate): its VOQs grow, but no
        // cell is lost and flows stay in order; other outputs keep flowing.
        let sched: Box<dyn CellScheduler> = Box::new(Flppr::osmosis(8, 1));
        let mut sw = VoqSwitch::new(sched);
        let mut tr = Hotspot::new(8, 0.5, 0, 0.5, &SeedSequence::new(5));
        let r = sw.run(&mut tr, &small_cfg());
        assert_eq!(r.dropped, 0);
        assert_eq!(r.reordered, 0);
        assert!(r.throughput > 0.3, "non-hot traffic still flows");
    }

    #[test]
    fn bursty_traffic_is_ordered() {
        let sched: Box<dyn CellScheduler> = Box::new(Flppr::osmosis(8, 2));
        let mut sw = VoqSwitch::new(sched);
        let mut tr = Bursty::new(8, 0.8, 12.0, &SeedSequence::new(23));
        let r = sw.run(&mut tr, &small_cfg());
        assert_eq!(r.reordered, 0);
        assert!((r.throughput - r.offered_load).abs() < 0.03);
    }

    #[test]
    fn islip_reference_behaves_like_flppr_at_low_load() {
        let r = run_uniform(
            || Box::new(Islip::log2n(16, 1)),
            0.1,
            &small_cfg().with_seed(29),
        );
        assert!(r.mean_delay < 2.5);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn a_drained_switch_run_again_reports_no_reordering() {
        // Every source sends one cell to every destination, twice over;
        // the schedule is finite, so the first run ends drained. The
        // second run's first cell of each flow is the flow's next cell,
        // not an early arrival against a forgotten expectation.
        use osmosis_traffic::Replay;
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
        let all_to_all = || Replay::new((0..16).map(|_| (0..16).chain(0..16).collect()).collect());
        for run in 0..2 {
            let r = sw.run(&mut all_to_all(), &EngineConfig::new(0, 400));
            assert_eq!((r.injected, r.delivered), (512, 512), "run {run} drains");
            assert_eq!(r.reordered, 0, "run {run}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_cfg().with_seed(99);
        let a = run_uniform(|| Box::new(Flppr::osmosis(8, 1)), 0.5, &cfg);
        let b = run_uniform(|| Box::new(Flppr::osmosis(8, 1)), 0.5, &cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        use crate::driven::run_switch_faulted;
        use osmosis_faults::{FaultInjector, FaultPlan};
        let cfg = small_cfg().with_seed(99);
        let plain = run_uniform(|| Box::new(Flppr::osmosis(8, 1)), 0.5, &cfg);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.5, &SeedSequence::new(cfg.seed));
        let mut inj = FaultInjector::new(FaultPlan::new());
        let faulted = run_switch_faulted(&mut sw, &mut tr, &cfg, &mut inj);
        assert_eq!(plain.fingerprint(), faulted.fingerprint());
    }

    #[test]
    fn stuck_off_soa_gate_blocks_its_output_and_heals() {
        use crate::driven::run_switch_faulted_traced;
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        use osmosis_sim::{TraceEvent, VecTrace};
        // Output 0's gate sticks off for slots [1000, 2000); the run
        // measures from slot 0 so the trace shows the outage window.
        let cfg = EngineConfig::new(0, 5_000).with_seed(3);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.6, &SeedSequence::new(cfg.seed));
        let plan =
            FaultPlan::new().one_shot(FaultKind::SoaStuckOff { output: 0 }, 1_000, Some(1_000));
        let mut inj = FaultInjector::new(plan);
        let mut sink = VecTrace::default();
        let r = run_switch_faulted_traced(&mut sw, &mut tr, &cfg, &mut sink, &mut inj);
        let deliveries_to_0 = |from: u64, to: u64| {
            sink.events
                .iter()
                .filter(|&&(slot, e)| {
                    (from..to).contains(&slot) && matches!(e, TraceEvent::Deliver { output: 0, .. })
                })
                .count()
        };
        // One residual egress cell may drain right after the gate dies.
        assert!(
            deliveries_to_0(1_001, 2_000) == 0,
            "no deliveries from a stuck-off gate"
        );
        assert!(
            deliveries_to_0(2_000, 5_000) > 100,
            "output 0 drains its backlog after repair"
        );
        assert_eq!(r.dropped, 0, "masking is lossless");
        assert_eq!(r.reordered, 0);
        assert_eq!(r.extra("faults_injected"), Some(1.0));
        assert_eq!(r.extra("faults_healed"), Some(1.0));
    }

    #[test]
    fn receiver_death_degrades_then_recovers_throughput() {
        use crate::driven::run_switch_faulted;
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        // Dual receivers; hotspot output 0 at 1.5× line rate needs both.
        // Killing one receiver for a window must not lose or reorder
        // anything — the backlog drains through the survivor.
        let cfg = EngineConfig::new(0, 8_000).with_seed(7);
        let run = |plan: FaultPlan| {
            let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 2)));
            let mut tr = Hotspot::new(8, 0.2, 0, 0.75, &SeedSequence::new(cfg.seed));
            let mut inj = FaultInjector::new(plan);
            run_switch_faulted(&mut sw, &mut tr, &cfg, &mut inj)
        };
        let nominal = run(FaultPlan::new());
        let degraded = run(FaultPlan::new().one_shot(
            FaultKind::ReceiverDeath { output: 0 },
            1_000,
            Some(2_000),
        ));
        assert_eq!(degraded.dropped, 0);
        assert_eq!(degraded.reordered, 0);
        assert!(
            degraded.mean_delay > nominal.mean_delay,
            "failover shows up as queueing delay: {} vs {}",
            degraded.mean_delay,
            nominal.mean_delay
        );
        assert!(
            degraded.throughput > 0.9 * nominal.throughput,
            "window is long enough to recover: {} vs {}",
            degraded.throughput,
            nominal.throughput
        );
    }

    #[test]
    fn lost_grants_are_reissued_without_loss() {
        use crate::driven::run_switch_faulted;
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        let cfg = EngineConfig::new(0, 6_000).with_seed(11);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.5, &SeedSequence::new(cfg.seed));
        let plan = FaultPlan::new().permanent(FaultKind::GrantLoss { prob: 0.2 }, 0);
        let mut inj = FaultInjector::new(plan);
        let r = run_switch_faulted(&mut sw, &mut tr, &cfg, &mut inj);
        assert!(
            r.extra("fault_grants_lost").unwrap() > 100.0,
            "the fault actually fired"
        );
        assert_eq!(r.dropped, 0, "every lost grant is re-requested");
        assert_eq!(r.reordered, 0);
        assert!(
            (r.throughput - r.offered_load).abs() < 0.03,
            "20% grant loss costs latency, not throughput: {} vs {}",
            r.throughput,
            r.offered_load
        );
    }

    #[test]
    fn link_ber_burst_retransmits_at_egress() {
        use crate::driven::run_switch_faulted;
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
        let cfg = EngineConfig::new(0, 6_000).with_seed(13);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.4, &SeedSequence::new(cfg.seed));
        let plan = FaultPlan::new().permanent(
            FaultKind::LinkBerBurst {
                link: LINK_ANY,
                cell_error_prob: 0.1,
            },
            0,
        );
        let mut inj = FaultInjector::new(plan);
        let r = run_switch_faulted(&mut sw, &mut tr, &cfg, &mut inj);
        assert!(
            r.extra("fault_retransmits").unwrap() > 100.0,
            "corrupted egress transmissions were re-sent"
        );
        assert_eq!(r.dropped, 0, "retransmission recovers every corruption");
        assert_eq!(r.reordered, 0, "head-of-line retransmit preserves order");
    }

    #[test]
    fn trace_stream_matches_report_counters() {
        use crate::driven::run_switch_traced;
        use osmosis_sim::CountingTrace;
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)));
        let mut tr = BernoulliUniform::new(8, 0.4, &SeedSequence::new(41));
        let mut sink = CountingTrace::default();
        let r = run_switch_traced(&mut sw, &mut tr, &EngineConfig::new(0, 2_000), &mut sink);
        // With no warm-up, the sink and the report see the same window,
        // modulo cells still queued at the horizon.
        assert_eq!(sink.injects, r.injected);
        assert_eq!(sink.delivers, r.delivered);
        assert!(sink.grants >= r.delivered);
        assert_eq!(sink.drops, 0);
    }
}
