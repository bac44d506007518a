//! Property-based tests of the topology compiler: for arbitrary specs of
//! all three families, the expanded graph honors the closed-form host
//! count, keeps minimal routes within the family's stage bound, wires
//! every cable consistently at both ends, and re-expands bit-identically.
#![expect(
    clippy::unwrap_used,
    reason = "a test helper fails its test by panicking"
)]

use osmosis::fabric::expand::{ExpandedFabric, Peer};
use osmosis::fabric::ids::{EntityId, HostId, PortId};
use osmosis::fabric::spec::{DragonflyShape, TopologySpec};
use proptest::prelude::*;

/// Specs of all three families, small enough to expand in microseconds
/// but covering every wiring branch (multi-plane and single-plane fat
/// trees of 1–4 levels, dragonflies from 1 group toward the
/// global-channel limit, meshes from a single switch to radix-many).
fn spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (
        0u32..4,
        prop::sample::select(vec![4usize, 6, 8, 16]),
        1u32..=8,
    )
        .prop_map(|(family, radix, size)| match family {
            0 => {
                let levels = if radix >= 8 { size.min(3) } else { size.min(4) };
                TopologySpec::fat_tree(radix, levels)
            }
            1 => TopologySpec::m_ary_fat_tree(radix, size.min(3)),
            2 => {
                let cap = DragonflyShape::for_radix(radix).unwrap().max_groups();
                TopologySpec::dragonfly(radix, size.min(cap))
            }
            _ => TopologySpec::full_mesh(radix, size.min(radix as u32)),
        })
}

proptest! {
    /// The expansion realizes exactly the closed-form host, switch, and
    /// stage counts the spec promises.
    #[test]
    fn expansion_matches_closed_forms(spec in spec_strategy()) {
        let fab = ExpandedFabric::expand(spec).unwrap();
        prop_assert_eq!(fab.hosts.len() as u64, spec.hosts(), "{}", spec);
        prop_assert_eq!(fab.switches.len() as u64, spec.switch_count(), "{}", spec);
        prop_assert_eq!(fab.port_count(), fab.switches.len() * spec.radix);
    }

    /// Minimal routes visit at most `stages()` switches — ≤ 2L−1 for an
    /// L-level fat tree, ≤ 4 for a dragonfly, ≤ 2 for a mesh — and both
    /// endpoints sit on the attachment switches.
    #[test]
    fn paths_stay_within_the_stage_bound(spec in spec_strategy(), pair in any::<u64>()) {
        let fab = ExpandedFabric::expand(spec).unwrap();
        let hosts = fab.hosts.len();
        let src = HostId::from_index(pair as usize % hosts);
        let dst = HostId::from_index((pair as usize >> 16) % hosts);
        let path = fab.path(src, dst);
        prop_assert!(!path.is_empty());
        prop_assert!(
            path.len() as u32 <= spec.stages(),
            "{}: {} switches > {} stages", spec, path.len(), spec.stages()
        );
        prop_assert_eq!(path[0], fab.host_attach(src).0);
        prop_assert_eq!(*path.last().unwrap(), fab.host_attach(dst).0);
    }

    /// Every cable is walked once and its two endpoints point back at
    /// each other, as many as the closed-form count; every host
    /// attachment is mutual too.
    #[test]
    fn links_are_mutual(spec in spec_strategy()) {
        let fab = ExpandedFabric::expand(spec).unwrap();
        for (a, b) in fab.links() {
            prop_assert_ne!(a, b);
            prop_assert_eq!(fab.peer(a), Peer::Port(b));
            prop_assert_eq!(fab.peer(b), Peer::Port(a));
        }
        // Each switch-to-switch peer pair appears as exactly one link.
        let cabled = (0..fab.port_count())
            .filter(|&p| matches!(fab.peer(PortId::from_index(p)), Peer::Port(_)))
            .count();
        prop_assert_eq!(cabled, 2 * fab.links().count());
        prop_assert_eq!(fab.link_count(), fab.links().count());
        for (h, &port) in fab.hosts.iter() {
            prop_assert_eq!(fab.peer(port), Peer::Host(h));
            prop_assert_eq!(fab.host_attach(h), (fab.port_switch(port), fab.port_local(port)));
        }
    }

    /// Expansion is a pure function of the spec: re-expanding yields a
    /// bit-identical structure.
    #[test]
    fn re_expansion_is_deterministic(spec in spec_strategy()) {
        let a = ExpandedFabric::expand(spec).unwrap();
        let b = ExpandedFabric::expand(spec).unwrap();
        prop_assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
        prop_assert_eq!(a.hosts.len(), b.hosts.len());
        prop_assert_eq!(a.link_count(), b.link_count());
    }

    /// Routing is total: walking `route()` from any source delivers to
    /// any destination (the path walk above terminates), and the chosen
    /// out-port always exists on the switch.
    #[test]
    fn routes_use_real_ports(spec in spec_strategy(), pair in any::<u64>()) {
        let fab = ExpandedFabric::expand(spec).unwrap();
        let hosts = fab.hosts.len();
        let src = HostId::from_index(pair as usize % hosts);
        let dst = HostId::from_index((pair as usize >> 24) % hosts);
        let (sw, in_port) = fab.host_attach(src);
        let out = fab.route(sw, in_port, src, dst);
        prop_assert!((out as usize) < spec.radix);
        if fab.host_attach(dst).0 == sw {
            // Same edge switch: the route must exit straight to the host.
            prop_assert_eq!(fab.peer(fab.port_id(sw, out)), Peer::Host(dst));
        }
    }
}
