//! Static link-load analysis for expanded fabrics.
//!
//! Per-flow routing is deterministic (that is what preserves packet
//! order), so the expected load on every link under uniform traffic can
//! be computed *without simulation* by walking each flow's
//! [`ExpandedFabric::route`] over the graph. The worst link bounds the
//! fabric's saturation load: carried throughput cannot exceed
//! `1 / max_link_load` per unit of offered load.
//!
//! This analysis is how the repository found (and fixed) a real routing
//! defect: an under-mixed flow hash concentrated 4.3× the average load
//! on a few uplinks, capping a radix-4 six-level fabric at 11% — the
//! analyzer's prediction matched the simulator within 2%.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId as _, HostId, PortId};
use std::collections::BTreeMap;

/// A load map over an [`ExpandedFabric`], keyed by the typed egress
/// port driving each cable direction — so it works for every topology
/// family the compiler expands, not just folded Clos.
#[derive(Debug, Clone)]
pub struct ExpandedLoadMap {
    /// Expected load per cable direction (keyed by the transmitting
    /// port), in cells/slot at the given traffic matrix.
    pub loads: BTreeMap<PortId, f64>,
    /// Mean over directions that carry anything.
    pub mean: f64,
    /// The hottest direction's load.
    pub max: f64,
    /// The hottest direction's transmitting port.
    pub argmax: Option<PortId>,
}

impl ExpandedLoadMap {
    /// Max-to-mean imbalance ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        // Exact zero sentinel guarding the division.
        if self.mean == 0.0 {
            1.0
        } else {
            self.max / self.mean
        }
    }

    /// Saturation offered-load estimate: the per-host load at which the
    /// hottest link reaches 1 cell/slot, given the map was computed at
    /// `offered` per host.
    pub fn saturation_load(&self, offered: f64) -> f64 {
        // Exact zero sentinel guarding the division.
        if self.max == 0.0 {
            1.0
        } else {
            (offered / self.max).min(1.0)
        }
    }
}

/// Compute the switch-to-switch link loads of an expanded fabric under
/// uniform traffic at `offered` cells/slot per host, by walking every
/// flow's route on the graph itself. Quadratic in hosts — meant for
/// analysis-scale instances, not the 32K-port ones.
pub fn expanded_uniform_load_map(fab: &ExpandedFabric, offered: f64) -> ExpandedLoadMap {
    let hosts = fab.hosts.len();
    let per_flow = offered / (hosts - 1).max(1) as f64;
    let mut loads: BTreeMap<PortId, f64> = BTreeMap::new();
    for src in 0..hosts {
        for dst in 0..hosts {
            if src == dst {
                continue;
            }
            let (s, d) = (HostId::from_index(src), HostId::from_index(dst));
            let (mut sw, mut in_port) = fab.host_attach(s);
            loop {
                let out = fab.route(sw, in_port, s, d);
                let pid = fab.port_id(sw, out);
                match fab.peer(pid) {
                    // Host delivery is the NIC's own link, not fabric
                    // cabling.
                    Peer::Host(_) | Peer::Unconnected => break,
                    Peer::Port(far) => {
                        *loads.entry(pid).or_insert(0.0) += per_flow;
                        sw = fab.port_switch(far);
                        in_port = fab.port_local(far);
                    }
                }
            }
        }
    }
    let (mut max, mut sum, mut argmax) = (0.0f64, 0.0f64, None);
    for (&p, &v) in &loads {
        sum += v;
        if v > max {
            max = v;
            argmax = Some(p);
        }
    }
    let mean = if loads.is_empty() {
        0.0
    } else {
        sum / loads.len() as f64
    };
    ExpandedLoadMap {
        loads,
        mean,
        max,
        argmax,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;
    use crate::multilevel::MultiLevelClos;
    use crate::spec::TopologySpec;

    fn m_ary_map(radix: usize, levels: u32) -> ExpandedLoadMap {
        let fab = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(radix, levels)).unwrap();
        expanded_uniform_load_map(&fab, 1.0)
    }

    #[test]
    fn uniform_two_level_is_well_balanced() {
        let m = m_ary_map(8, 2);
        assert!(m.max <= 1.4, "max link load {}", m.max);
        assert!(m.imbalance() < 1.8, "imbalance {}", m.imbalance());
    }

    #[test]
    fn deep_binary_tree_stays_routable_after_the_hash_fix() {
        // The regression this module was built to catch: with the raw FNV
        // low bit the 6-level radix-4 fabric saturated at 0.12; with the
        // mixed hash its worst link stays below 1.5× the mean.
        let m = m_ary_map(4, 6);
        assert!(
            m.saturation_load(1.0) > 0.6,
            "saturation estimate {} — flow hash has regressed",
            m.saturation_load(1.0)
        );
    }

    #[test]
    fn saturation_estimate_matches_the_simulator() {
        use crate::compiled::CompiledFabric;
        use osmosis_sim::SeedSequence;
        use osmosis_traffic::BernoulliUniform;

        let spec = TopologySpec::m_ary_fat_tree(4, 4);
        let est = m_ary_map(4, 4).saturation_load(1.0);
        // Simulate well above the estimate: carried throughput should
        // flatten near the analytic ceiling (within 12%).
        let mut fab = CompiledFabric::new(spec);
        let hosts = spec.hosts() as usize;
        let mut tr = BernoulliUniform::new(hosts, (est + 0.2).min(1.0), &SeedSequence::new(5));
        let r = fab.run(&mut tr, &osmosis_sim::EngineConfig::new(2_000, 10_000));
        assert!(
            (r.throughput - est).abs() < 0.12,
            "simulated {} vs analytic ceiling {est}",
            r.throughput
        );
    }

    #[test]
    fn expanded_map_agrees_with_the_closed_form_paths() {
        // planes = 1 expansion routes exactly like MultiLevelClos, so
        // the per-direction load profile must match the one read off the
        // closed-form switch paths.
        let (radix, levels) = (4usize, 3u32);
        let topo = MultiLevelClos::new(radix, levels);
        let hosts = topo.hosts();
        let per_flow = 1.0 / (hosts - 1) as f64;
        let mut reference = BTreeMap::new();
        for src in 0..hosts {
            for dst in (0..hosts).filter(|&dst| dst != src) {
                for w in topo.path(src, dst).windows(2) {
                    *reference.entry((w[0], w[1])).or_insert(0.0) += per_flow;
                }
            }
        }
        let max = reference.values().fold(0.0f64, |a, &v| a.max(v));
        let mean = reference.values().sum::<f64>() / reference.len() as f64;
        let typed = m_ary_map(radix, levels);
        assert_eq!(typed.loads.len(), reference.len());
        assert!((typed.max - max).abs() < 1e-9);
        assert!((typed.mean - mean).abs() < 1e-9);
    }

    #[test]
    fn expanded_map_covers_all_families() {
        // A full mesh under uniform traffic is perfectly balanced.
        let mesh = ExpandedFabric::expand(TopologySpec::full_mesh(8, 5)).unwrap();
        let m = expanded_uniform_load_map(&mesh, 1.0);
        assert!(m.imbalance() < 1.01, "mesh imbalance {}", m.imbalance());
        // A dragonfly's flow-hashed global channels stay within a small
        // constant of the mean.
        let df = ExpandedFabric::expand(TopologySpec::dragonfly(8, 4)).unwrap();
        let d = expanded_uniform_load_map(&df, 1.0);
        assert!(d.max > 0.0);
        assert!(d.imbalance() < 3.0, "dragonfly imbalance {}", d.imbalance());
    }

    #[test]
    fn linkless_fabric_is_trivially_balanced() {
        // A single switch has no switch-to-switch cable: the map is
        // empty and both ratios fall back to their sentinels.
        let m = m_ary_map(4, 1);
        assert!(m.loads.is_empty());
        assert_eq!(m.max, 0.0);
        assert_eq!(m.imbalance(), 1.0);
        assert_eq!(m.saturation_load(0.3), 1.0);
    }
}
