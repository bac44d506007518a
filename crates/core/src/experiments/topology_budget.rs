//! Fig. 1 rerun at fabric scale — stage count vs. the 500 ns latency
//! budget for 8192- and 32768-port fabrics, built from declarative
//! topology specs instead of hand-picked instances.
//!
//! Fig. 1 argues a single-stage, centrally scheduled fabric blows the
//! latency budget at machine-room diameters; §VI.C argues stage count
//! is the scaling currency of the multistage alternative (3 OSMOSIS vs.
//! 5 high-end-electronic vs. 9 commodity stages at 2048 ports). This
//! experiment pushes that comparison past 2048 ports: for each target
//! port count it compiles a ladder of [`TopologySpec`]s — fat trees of
//! the paper's three switch classes plus a radix-64 dragonfly — into
//! [`ExpandedFabric`]s, reads the stage count off the expanded graph,
//! and scores an unloaded-latency model against the 500 ns budget.
//! Instances small enough to simulate quickly get a simulated
//! cross-check through [`CompiledFabric`]; a full mesh cannot reach
//! these port counts at all ([`full_mesh_max_ports`]), which is the
//! §VI.C flat-topology argument in one number.

use crate::experiments::fig1::CELL_NS;
use osmosis_fabric::{
    try_levels_for_ports, CompiledFabric, DragonflyShape, EngineConfig, ExpandedFabric,
    TopologyError, TopologySpec,
};
use osmosis_sim::{SeedSequence, TimeDelta};
use osmosis_traffic::BernoulliUniform;

/// The paper's end-to-end fabric latency budget in nanoseconds.
pub const BUDGET_NS: f64 = 500.0;

/// One compiled topology scored against the budget.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPoint {
    /// The spec the instance was expanded from.
    pub spec: TopologySpec,
    /// Host (fabric port) count.
    pub hosts: u64,
    /// Switch count of the expanded graph.
    pub switches: u64,
    /// Switch-to-switch cable count of the expanded graph.
    pub links: u64,
    /// Switch stages on the longest minimal route.
    pub stages: u32,
    /// Unloaded-latency model: per-hop fiber flight on every link of the
    /// longest minimal route plus one cell cycle of local scheduling per
    /// stage.
    pub analytic_ns: f64,
    /// Whether the model fits [`BUDGET_NS`].
    pub fits_budget: bool,
    /// Structural fingerprint of the expanded graph (re-expansion pins).
    pub fingerprint: u64,
    /// Simulated unloaded latency through [`CompiledFabric`], for
    /// instances within the simulation host limit.
    pub simulated_ns: Option<f64>,
}

/// The §VI.C comparison ladder at a target port count: fat trees of the
/// paper's switch classes (OSMOSIS 64-port, high-end electronic 32-port,
/// commodity 8-port) sized by [`try_levels_for_ports`], plus a radix-64
/// dragonfly with just enough groups.
pub fn ladder(ports: u64) -> Result<Vec<TopologySpec>, TopologyError> {
    let mut specs = Vec::new();
    for radix in [64usize, 32, 8] {
        let levels = try_levels_for_ports(radix, ports)?;
        specs.push(TopologySpec::fat_tree(radix, levels));
    }
    let shape = DragonflyShape::for_radix(64)?;
    let per_group = (shape.routers_per_group * shape.hosts_per_router) as u64;
    let groups = ports.div_ceil(per_group).max(1) as u32;
    if groups <= shape.max_groups() {
        specs.push(TopologySpec::dragonfly(64, groups));
    }
    Ok(specs)
}

/// The largest host count a radix-k full mesh can reach, over all mesh
/// sizes n ≤ k: max over n of n·(k − n + 1).
pub fn full_mesh_max_ports(radix: u64) -> u64 {
    (1..=radix).map(|n| n * (radix - n + 1)).max().unwrap_or(0)
}

/// Expand and score each spec at `cable_m` meters per hop. Instances
/// with at most `sim_host_limit` hosts also run a short unloaded
/// simulation for a measured latency alongside the model.
pub fn run(
    specs: &[TopologySpec],
    cable_m: f64,
    sim_host_limit: u64,
    seed: u64,
) -> Result<Vec<BudgetPoint>, TopologyError> {
    let hop_ns = 5.0 * cable_m; // 5 ns/m of fiber, as Fig. 1
    let link_slots = TimeDelta::from_ns_f64(hop_ns)
        .div_ceil_slots(TimeDelta::from_ns_f64(CELL_NS))
        .max(1);
    specs
        .iter()
        .map(|&base| {
            let spec = base.with_link_delay(link_slots);
            let fab = ExpandedFabric::expand(spec)?;
            let stages = spec.stages();
            // Longest minimal route: stages + 1 links of flight, one cell
            // cycle of request/grant per stage (option-3 scheduling stays
            // inside the switch — no control RTT, unlike Fig. 1).
            let analytic_ns = (stages as f64 + 1.0) * hop_ns + stages as f64 * CELL_NS;
            let simulated_ns = if spec.hosts() <= sim_host_limit {
                let hosts = fab.hosts.len();
                let mut sim = CompiledFabric::over(fab.clone());
                let mut tr = BernoulliUniform::new(hosts, 0.02, &SeedSequence::new(seed));
                let r = sim.run(&mut tr, &EngineConfig::new(200, 1_500));
                Some(r.mean_delay * CELL_NS)
            } else {
                None
            };
            Ok(BudgetPoint {
                spec,
                hosts: spec.hosts(),
                switches: fab.switches.len() as u64,
                links: fab.link_count() as u64,
                stages,
                analytic_ns,
                fits_budget: analytic_ns <= BUDGET_NS,
                fingerprint: fab.structural_fingerprint(),
                simulated_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reaches_the_target_port_counts() {
        for ports in [8_192u64, 32_768] {
            let specs = ladder(ports).unwrap();
            assert!(specs.len() >= 4, "three fat trees and a dragonfly");
            for s in &specs {
                assert!(
                    s.hosts() >= ports,
                    "{s} reaches only {} of {ports}",
                    s.hosts()
                );
            }
        }
    }

    #[test]
    fn stage_count_orders_the_latency_model() {
        // The §VI.C argument at 8K ports: commodity switches need more
        // than twice the stages of the OSMOSIS class, and the model is
        // monotone in stage count.
        let pts = run(&ladder(8_192).unwrap(), 10.0, 0, 7).unwrap();
        let osmosis = &pts[0];
        let commodity = &pts[2];
        let dragonfly = pts.last().unwrap();
        assert!(commodity.stages > 2 * osmosis.stages - 1);
        assert!(commodity.analytic_ns > osmosis.analytic_ns);
        assert!(!commodity.fits_budget, "{} ns", commodity.analytic_ns);
        // The dragonfly's 4-stage minimal routes undercut every fat tree
        // at this scale.
        assert_eq!(dragonfly.stages, 4);
        assert!(dragonfly.analytic_ns < osmosis.analytic_ns);
    }

    #[test]
    fn full_mesh_cannot_reach_fabric_scale() {
        // n·(k−n+1) maxes near n = k/2: about k²/4 ports — radix 64
        // tops out at 1056, far short of 8192 (the §VI.C flat-topology
        // scaling wall).
        assert_eq!(full_mesh_max_ports(64), 1_056);
        assert!(full_mesh_max_ports(64) < 8_192);
    }

    #[test]
    fn small_instance_simulation_tracks_the_model() {
        // A quick-scale two-level instance: the simulated unloaded
        // latency lands above the pure flight floor and within a few
        // cell cycles of the model.
        let specs = [TopologySpec::two_level(8)];
        let pts = run(&specs, 10.0, 1_000, 11).unwrap();
        let p = &pts[0];
        let sim = p.simulated_ns.expect("32 hosts is under the sim limit");
        assert!(sim > 0.0);
        assert!(
            (sim - p.analytic_ns).abs() < 6.0 * CELL_NS,
            "simulated {sim} vs model {}",
            p.analytic_ns
        );
    }

    #[test]
    fn expansion_fingerprints_are_reproducible() {
        let a = run(&ladder(8_192).unwrap(), 25.0, 0, 1).unwrap();
        let b = run(&ladder(8_192).unwrap(), 25.0, 0, 2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint);
        }
    }
}
