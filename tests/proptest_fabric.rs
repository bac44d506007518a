//! Property-based tests of the fabric topology and routing: paths are
//! well-formed for arbitrary host pairs and topologies, and simulated
//! fabrics preserve the Table 1 invariants for arbitrary traffic.

use osmosis::fabric::spec::{top_choice, TopologySpec};
use osmosis::fabric::CompiledFabric;
use osmosis::fabric::{EntityId, ExpandedFabric, HostId, SwitchId};
use osmosis::sim::{EngineConfig, SeedSequence};
use osmosis::traffic::BernoulliUniform;
use proptest::prelude::*;

/// An m-ary fat tree's radix and level count.
fn shape_strategy() -> impl Strategy<Value = (usize, u32)> {
    (1u32..=4, prop::sample::select(vec![4usize, 6, 8])).prop_map(|(levels, radix)| {
        // Cap host counts so tests stay fast.
        let levels = if radix >= 8 { levels.min(2) } else { levels };
        (radix, levels)
    })
}

/// Up-hops of a src→dst flow in the m-ary Clos: one above the highest
/// base-m digit in which the two leaves differ (0 under one leaf).
fn ascent(m: usize, levels: u32, src: usize, dst: usize) -> u32 {
    let (mut ls, mut ld, mut a) = (src / m, dst / m, 0);
    for pos in 0..levels - 1 {
        if ls % m != ld % m {
            a = pos + 1;
        }
        (ls, ld) = (ls / m, ld / m);
    }
    a
}

proptest! {
    /// Every src→dst path of an m-ary expansion starts at the source
    /// leaf, ends at the destination leaf, ascends then descends
    /// symmetrically, and stays within topology bounds.
    #[test]
    fn paths_are_well_formed(shape in shape_strategy(), seed in any::<u64>()) {
        let (radix, levels) = shape;
        let fab = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(radix, levels)).unwrap();
        let m = radix / 2;
        let (hosts, width) = (m.pow(levels), m.pow(levels - 1));
        prop_assert_eq!(fab.hosts.len(), hosts);
        let src = (seed as usize) % hosts;
        let dst = (seed as usize / hosts) % hosts;
        let path = fab.path(HostId::from_index(src), HostId::from_index(dst));
        let leaf = |sw: SwitchId| (fab.level_of(sw), sw.index());
        prop_assert_eq!(leaf(path[0]), (0, src / m));
        prop_assert_eq!(leaf(*path.last().unwrap()), (0, dst / m));
        let a = ascent(m, levels, src, dst);
        prop_assert_eq!(path.len() as u32, 2 * a + 1, "up then down");
        // Levels form the tent profile 0,1,…,a,…,1,0 and every switch
        // sits at its level's positions.
        for (i, &sw) in path.iter().enumerate() {
            let level = (i as u32).min(2 * a - i as u32);
            prop_assert_eq!(fab.level_of(sw), level);
            let first = level as usize * width;
            prop_assert!((first..first + width).contains(&sw.index()));
        }
    }

    /// Paths are flow-stable: the same (src, dst) routes the same way
    /// through a second expansion of the same spec — the property
    /// per-flow ordering rests on.
    #[test]
    fn paths_are_deterministic(shape in shape_strategy(), pair in any::<u64>()) {
        let (radix, levels) = shape;
        let spec = TopologySpec::m_ary_fat_tree(radix, levels);
        let (fab, again) = (ExpandedFabric::expand(spec).unwrap(), ExpandedFabric::expand(spec).unwrap());
        let hosts = fab.hosts.len();
        let src = HostId::from_index((pair as usize) % hosts);
        let dst = HostId::from_index((pair as usize >> 16) % hosts);
        prop_assert_eq!(fab.path(src, dst), again.path(src, dst));
    }

    /// The §V two-level expansion agrees with its closed forms: hosts
    /// pack k/2 to a leaf, and a flow leaves its leaf for another through
    /// the up-port of the spine it hashes to.
    #[test]
    fn two_level_mapping_consistent(radix in prop::sample::select(vec![4usize, 8, 16]), h in any::<usize>()) {
        let spec = TopologySpec::two_level(radix);
        let fab = ExpandedFabric::expand(spec).unwrap();
        let (hosts, per_leaf, spines) = (spec.hosts() as usize, radix / 2, radix / 2);
        prop_assert_eq!((hosts, fab.switches.len()), (radix * per_leaf, radix + spines));
        let h = h % hosts;
        let (leaf, down_port) = fab.host_attach(HostId::from_index(h));
        prop_assert!(leaf.index() < radix, "hosts hang off leaves");
        prop_assert_eq!(leaf.index() * per_leaf + down_port as usize, h);
        let far = (h + per_leaf) % hosts;
        let (src, dst) = (HostId::from_index(h), HostId::from_index(far));
        let up_port = fab.route(leaf, down_port, src, dst) as usize;
        prop_assert_eq!(up_port, per_leaf + top_choice(h, far, spines));
        prop_assert!(up_port < radix);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary multilevel fabrics stay lossless and in order under
    /// arbitrary uniform loads.
    #[test]
    fn multilevel_sim_invariants(
        levels in 1u32..=3,
        load in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let spec = TopologySpec::m_ary_fat_tree(4, levels);
        let mut fab = CompiledFabric::new(spec);
        let mut tr = BernoulliUniform::new(spec.hosts() as usize, load, &SeedSequence::new(seed));
        // Losslessness is asserted inside the simulator.
        let r = fab.run(&mut tr, &EngineConfig::new(300, 2_000));
        prop_assert_eq!(r.reordered, 0);
        prop_assert!(r.max_queue_depth <= spec.buffer_cells());
        prop_assert!(r.throughput <= r.offered_load + 0.05);
    }
}
