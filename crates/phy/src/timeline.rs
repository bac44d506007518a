//! Per-cell timeline through the demonstrator datapath — the latency
//! budget of §VI.B played out at picosecond resolution.
//!
//! The slotted simulations count whole cell cycles; this model composes
//! the *sub-cycle* physics: FEC pipeline, request flight, scheduling,
//! grant flight, SOA guard window, serialization, fiber flight, burst
//! lock, FEC decode. The composed end-to-end time must agree with the
//! §VI.B budget tables in `osmosis-analysis`, tying the two views of the
//! system together.

use crate::burst::BurstReceiver;
use crate::components::SoaGate;
use osmosis_sim::{Time, TimeDelta};

/// Timing parameters of one cell's traversal.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Ingress datapath (FEC encode + VOQ write + 40G pipeline).
    pub ingress_pipeline: TimeDelta,
    /// Adapter → scheduler control flight.
    pub request_flight: TimeDelta,
    /// Scheduler decision time (one FLPPR issue).
    pub scheduling: TimeDelta,
    /// Scheduler → adapter grant flight.
    pub grant_flight: TimeDelta,
    /// Scheduler → SOA control-fiber flight.
    pub soa_control_flight: TimeDelta,
    /// SOA gate settle (guard window start).
    pub soa_guard: TimeDelta,
    /// Cell serialization at the line rate.
    pub serialization: TimeDelta,
    /// Adapter → crossbar → adapter fiber flight.
    pub data_flight: TimeDelta,
    /// Burst-mode receiver lock.
    pub burst_lock: TimeDelta,
    /// Egress datapath (burst RX pipeline + FEC decode).
    pub egress_pipeline: TimeDelta,
}

impl TimelineConfig {
    /// The FPGA demonstrator's numbers (§VI.B budget, decomposed).
    pub fn fpga_demonstrator() -> Self {
        TimelineConfig {
            ingress_pipeline: TimeDelta::from_ns(280),
            request_flight: TimeDelta::from_ns(90),
            // One FLPPR issue through the 40-FPGA scheduler: the
            // matching pipeline plus its chip crossings (§VI.B).
            scheduling: TimeDelta::from_ns(360),
            grant_flight: TimeDelta::from_ns(90),
            soa_control_flight: TimeDelta::from_ns(60),
            soa_guard: SoaGate::osmosis_default().switching_time,
            serialization: TimeDelta::serialization(256, 40.0),
            data_flight: TimeDelta::from_ns(10),
            burst_lock: BurstReceiver::osmosis_default().lock_time(),
            egress_pipeline: TimeDelta::from_ns(260),
        }
    }
}

/// One step of the traversal, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Cell enters the ingress adapter.
    Inject,
    /// FEC encoded and queued; request launched.
    RequestSent,
    /// Request reaches the scheduler.
    RequestArrived,
    /// Grant issued.
    Granted,
    /// Grant reaches the adapter; SOA command reaches the gates.
    LaunchReady,
    /// Guard window over, serialization begins.
    TransmitStart,
    /// Last bit leaves the adapter.
    TransmitEnd,
    /// Last bit arrives at the egress adapter.
    Received,
    /// Burst lock done, decode done — cell delivered.
    Delivered,
}

/// The computed timeline: (absolute time, step) pairs.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Events in time order.
    pub events: Vec<(Time, Step)>,
}

impl Timeline {
    /// Time of a step (panics if absent).
    pub fn at(&self, step: Step) -> Time {
        self.events
            .iter()
            .find(|(_, s)| *s == step)
            .map(|(t, _)| *t)
            // lint:allow(panic-free): documented panic contract — a
            // timeline is always built with every step recorded
            .expect("step missing from timeline")
    }

    /// Total injection → delivery latency.
    pub fn total(&self) -> TimeDelta {
        self.at(Step::Delivered).since(self.at(Step::Inject))
    }
}

/// Play one cell through the datapath. Every step has exactly one
/// successor, so the timeline is a running sum of the legs between them.
pub fn run_timeline(cfg: &TimelineConfig) -> Timeline {
    let legs = [
        (TimeDelta::ZERO, Step::Inject),
        (cfg.ingress_pipeline, Step::RequestSent),
        (cfg.request_flight, Step::RequestArrived),
        (cfg.scheduling, Step::Granted),
        // Grant to the adapter and the switch command to the SOAs travel
        // in parallel; the launch happens when both are done.
        (
            cfg.grant_flight.max(cfg.soa_control_flight),
            Step::LaunchReady,
        ),
        (cfg.soa_guard, Step::TransmitStart),
        (cfg.serialization, Step::TransmitEnd),
        (cfg.data_flight, Step::Received),
        (cfg.burst_lock + cfg.egress_pipeline, Step::Delivered),
    ];
    let mut t = Time::ZERO;
    let events = legs.into_iter().map(|(leg, step)| {
        t += leg;
        (t, step)
    });
    Timeline {
        events: events.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_come_out_in_order() {
        let tl = run_timeline(&TimelineConfig::fpga_demonstrator());
        assert_eq!(tl.events.len(), 9);
        for w in tl.events.windows(2) {
            assert!(w[1].0 >= w[0].0, "time must not go backwards");
        }
        assert_eq!(tl.events[0].1, Step::Inject);
        assert_eq!(tl.events[8].1, Step::Delivered);
    }

    #[test]
    fn fpga_total_matches_the_section_6b_scale() {
        // §VI.B: "the demonstrator prototype has only around 1200 ns
        // latency". The composed sub-cycle timeline must land in that
        // neighbourhood (it decomposes the same budget).
        let tl = run_timeline(&TimelineConfig::fpga_demonstrator());
        let ns = tl.total().as_ns_f64();
        assert!((1_000.0..1_400.0).contains(&ns), "total {ns} ns");
    }

    #[test]
    fn components_compose_additively_except_parallel_legs() {
        let cfg = TimelineConfig::fpga_demonstrator();
        let tl = run_timeline(&cfg);
        let serial_sum = cfg.ingress_pipeline
            + cfg.request_flight
            + cfg.scheduling
            + cfg.grant_flight.max(cfg.soa_control_flight)
            + cfg.soa_guard
            + cfg.serialization
            + cfg.data_flight
            + cfg.burst_lock
            + cfg.egress_pipeline;
        assert_eq!(tl.total(), serial_sum);
    }

    #[test]
    fn guard_window_precedes_every_payload_bit() {
        let tl = run_timeline(&TimelineConfig::fpga_demonstrator());
        assert!(tl.at(Step::TransmitStart) >= tl.at(Step::LaunchReady));
        assert_eq!(
            tl.at(Step::TransmitStart).since(tl.at(Step::LaunchReady)),
            SoaGate::osmosis_default().switching_time,
            "no user data during the SOA guard"
        );
    }

    #[test]
    fn asic_numbers_reach_a_few_hundred_ns() {
        // Scale the logic items 4× and shorten control runs as in §VI.B.
        let f = TimelineConfig::fpga_demonstrator();
        let asic = TimelineConfig {
            ingress_pipeline: f.ingress_pipeline / 4,
            request_flight: f.request_flight / 4,
            scheduling: f.scheduling / 4,
            grant_flight: f.grant_flight / 4,
            soa_control_flight: TimeDelta::from_ns(6),
            egress_pipeline: f.egress_pipeline / 4,
            ..f
        };
        let ns = run_timeline(&asic).total().as_ns_f64();
        assert!((200.0..450.0).contains(&ns), "ASIC total {ns} ns");
    }
}
