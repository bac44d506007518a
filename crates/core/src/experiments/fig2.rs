//! Fig. 2 — the three buffer-placement options around an optical
//! crossbar, compared on the quantities the paper argues with: OEO
//! conversions per stage, scheduling-latency penalty, end-to-end latency,
//! and the input-buffer size option 3 must carry.

use super::Scale;
use osmosis_fabric::flow_control::required_buffer_cells;
use osmosis_fabric::{CompiledFabric, EngineConfig, Placement, TopologySpec};
use osmosis_sim::SeedSequence;
use osmosis_traffic::BernoulliUniform;

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The placement option.
    pub placement: Placement,
    /// OEO conversions per stage (cost / power proxy).
    pub oeo_per_stage: u32,
    /// Mean end-to-end latency (cell cycles) at light load.
    pub light_load_latency: f64,
    /// Mean end-to-end latency at moderate load.
    pub moderate_load_latency: f64,
    /// Throughput at moderate load.
    pub moderate_throughput: f64,
    /// Input-buffer cells needed per port for full-rate operation
    /// (option 3 absorbs the full credit RTT; the others split it).
    pub buffer_cells_needed: usize,
}

/// The topology the comparison runs on when none is declared: the §V
/// two-level leaf–spine at the scale's fabric radix, with the longer
/// 3-slot cable the figure's request/grant argument is about.
pub fn default_topology(scale: Scale) -> TopologySpec {
    TopologySpec {
        link_delay: 3,
        ..TopologySpec::two_level(scale.fabric_radix())
    }
}

/// Run the comparison on the declared default topology.
pub fn run(scale: Scale, seed: u64) -> Vec<Fig2Row> {
    run_on(&default_topology(scale), scale, seed)
}

/// Run the comparison on a declared topology spec. The spec contributes
/// the fabric's shape, cable length and matching iterations; the
/// placement axis and the per-placement fair buffer sizing are the
/// experiment's own, so the spec's `placement` and `buffer` fields are
/// ignored, and the stages run the paper's request/grant cycle (`rg` at
/// least 1).
pub fn run_on(spec: &TopologySpec, scale: Scale, seed: u64) -> Vec<Fig2Row> {
    let link_delay = spec.link_delay;
    Placement::ALL
        .into_iter()
        .map(|placement| {
            // Fair sizing: option 2's request/grant crosses the long cable,
            // so cells occupy the buffer for an extra control RTT before
            // they are even schedulable — its buffers must grow by 2·d to
            // sustain the same load (the paper's "impact on the size"
            // remark for the non-chosen options cuts both ways).
            let buffer_cells = required_buffer_cells(link_delay)
                + 2
                + if placement == Placement::OutputOnly {
                    2 * link_delay as usize
                } else {
                    0
                };
            let placed = spec
                .with_placement(placement)
                .with_buffer_cells(buffer_cells)
                .with_request_grant(spec.request_grant.max(1));
            let run_at = |load: f64| {
                let mut fab = CompiledFabric::new(placed);
                let hosts = placed.hosts() as usize;
                let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
                fab.run(&mut tr, &EngineConfig::new(scale.warmup(), scale.measure()))
            };
            let light = run_at(0.05);
            let moderate = run_at(0.6);
            Fig2Row {
                placement,
                oeo_per_stage: placement.oeo_per_stage(),
                light_load_latency: light.mean_delay,
                moderate_load_latency: moderate.mean_delay,
                moderate_throughput: moderate.throughput,
                buffer_cells_needed: buffer_cells,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option3_wins_on_the_paper_criteria() {
        let rows = run(Scale::Quick, 3);
        let opt1 = &rows[0];
        let opt2 = &rows[1];
        let opt3 = &rows[2];

        // §IV.A: option 1 "would require twice as many OEO conversions
        // as the other two options, and is therefore discarded".
        assert_eq!(opt1.oeo_per_stage, 2);
        assert_eq!(opt2.oeo_per_stage, 1);
        assert_eq!(opt3.oeo_per_stage, 1);

        // Option 2's request/grant crosses the long cable: its light-load
        // latency exceeds option 3's by roughly a control RTT per stage.
        assert!(
            opt2.light_load_latency > opt3.light_load_latency + 4.0,
            "option2 {} vs option3 {}",
            opt2.light_load_latency,
            opt3.light_load_latency
        );

        // Option 1 also pays an extra queue stage over option 3.
        assert!(opt1.light_load_latency > opt3.light_load_latency + 1.5);

        // All three remain lossless and carry the moderate load.
        for r in &rows {
            assert!(
                (r.moderate_throughput - 0.6).abs() < 0.05,
                "{:?}: {}",
                r.placement,
                r.moderate_throughput
            );
        }
    }

    #[test]
    fn declared_default_topology_reproduces_the_undeclared_run() {
        let implicit = run(Scale::Quick, 3);
        let declared = run_on(&default_topology(Scale::Quick), Scale::Quick, 3);
        assert_eq!(implicit.len(), declared.len());
        for (a, b) in implicit.iter().zip(&declared) {
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.buffer_cells_needed, b.buffer_cells_needed);
            assert_eq!(
                a.light_load_latency.to_bits(),
                b.light_load_latency.to_bits()
            );
            assert_eq!(
                a.moderate_load_latency.to_bits(),
                b.moderate_load_latency.to_bits()
            );
            assert_eq!(
                a.moderate_throughput.to_bits(),
                b.moderate_throughput.to_bits()
            );
        }
    }

    #[test]
    fn a_declared_topology_changes_the_fabric_shape() {
        // A shorter cable shrinks the light-load latency: the declared
        // spec must actually reach the fabric, not just be parsed.
        let long = run_on(&default_topology(Scale::Quick), Scale::Quick, 3);
        let short = run_on(&TopologySpec::two_level(8), Scale::Quick, 3);
        assert!(
            short[2].light_load_latency < long[2].light_load_latency,
            "short {} vs long {}",
            short[2].light_load_latency,
            long[2].light_load_latency
        );
    }
}
