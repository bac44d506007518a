//! Figs. 3–4 — the scheduler-relayed remote flow-control loop, verified
//! on both the isolated link model and a full fabric under hotspot
//! overload.

use super::Scale;
use osmosis_fabric::flow_control::{
    required_buffer_cells, run_relay_loop, RelayConfig, RelayReport,
};
use osmosis_fabric::{CompiledFabric, EngineConfig, EngineReport, TopologySpec};
use osmosis_sim::SeedSequence;
use osmosis_traffic::Hotspot;

/// Results of the flow-control experiment.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The isolated relay-loop run (deterministic RTT, sizing law).
    pub relay: RelayReport,
    /// The configured link delay (slots).
    pub link_delay: u64,
    /// Buffer cells required by the sizing rule.
    pub buffer_rule: usize,
    /// Fabric run under hotspot overload: must be lossless and in order.
    pub hotspot: EngineReport,
    /// Buffer capacity used in the fabric run.
    pub fabric_buffer: usize,
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Fig4Result {
    let link_delay = 4u64;
    let relay = run_relay_loop(
        &RelayConfig {
            link_delay,
            buffer_cells: required_buffer_cells(link_delay),
            drain_rate: 1.0,
            reverse_data_rate: 0.3,
        },
        20_000,
        seed,
    );

    let fabric_buffer = required_buffer_cells(link_delay) + 1;
    let spec = TopologySpec::two_level(scale.fabric_radix())
        .with_link_delay(link_delay)
        .with_buffer_cells(fabric_buffer)
        .with_request_grant(1);
    let mut fab = CompiledFabric::new(spec);
    let hosts = spec.hosts() as usize;
    let mut tr = Hotspot::new(hosts, 0.5, 0, 0.5, &SeedSequence::new(seed));
    let hotspot = fab.run(&mut tr, &EngineConfig::new(scale.warmup(), scale.measure()));

    Fig4Result {
        relay,
        link_delay,
        buffer_rule: required_buffer_cells(link_delay),
        hotspot,
        fabric_buffer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_control_claims_hold() {
        let r = run(Scale::Quick, 11);
        // Deterministic FC RTT (§IV.B).
        assert_eq!(r.relay.fc_rtt_min, r.relay.fc_rtt_max);
        // Full rate at the sizing rule.
        assert!(r.relay.throughput > 0.99, "{}", r.relay.throughput);
        // Hotspot overload: lossless (the sim asserts on overflow),
        // in-order, buffers bounded.
        assert_eq!(r.hotspot.reordered, 0);
        assert!(r.hotspot.max_queue_depth <= r.fabric_buffer);
        assert!(r.hotspot.delivered > 0);
    }
}
