//! Deterministic expansion of a [`TopologySpec`] into a typed fabric
//! graph.
//!
//! The compiler pass of the crate: a compact declarative spec goes in,
//! a complete [`ExpandedFabric`] comes out — dense typed arenas of
//! stages, switches, ports, links and hosts, every cable recorded once
//! with both endpoints, every port's peer resolved. Expansion is a pure
//! function of the spec: re-expanding yields an identical graph (the
//! property tests pin this), and a structural fingerprint makes "same
//! wiring" checkable in one `u64`.
//!
//! ## Fat tree (folded Clos)
//!
//! With m = radix/2, an L-level fat tree of `planes` ∈ {1, 2} wiring
//! planes has, for L ≥ 2, `planes·m^(L−1)` switches per lower level and
//! one merged top level of `m^(L−1)` switches. Within a plane, switches
//! are addressed by (L−1)-digit base-m numbers; the up-edge from a
//! level-l switch w via up-port m+p lands on the level-(l+1) switch
//! w[digit l := p] at input digit_l(w), and conversely down-port q of a
//! level-(l+1) switch y reaches y[digit l := q] at input m + digit_l(y).
//! At the top step the two planes merge: plane π switch w reaches top
//! switch w[digit L−2 := p] at input π·m + digit_{L−2}(w). With
//! planes = 2 and L = 2 this reproduces the hand-built §V leaf–spine
//! wiring bit for bit (leaf π·m+w ↔ spine p); with planes = 1 it is the
//! m-ary Clos whose paths [`crate::multilevel::MultiLevelClos`] gives in
//! closed form (the unit tests check both, port for port).
//!
//! ## Dragonfly
//!
//! The balanced configuration derived from the radix
//! ([`DragonflyShape`]): p = h hosts and h global channels per router,
//! a = 2h routers per group in a local full mesh. Global channel
//! c ∈ 0..a·h of group G reaches group (G + 1 + c mod (g−1)) mod g;
//! the pairing is an involution, so every global cable is created
//! exactly once, and channels beyond the pairable range stay
//! unconnected.
//!
//! ## Full mesh
//!
//! n ≤ radix switches, each with radix − n + 1 hosts and one cable to
//! every other switch — the flat alternative of the §VI.C scaling
//! argument.
//!
//! Routing is minimal and per-flow stable for all three families
//! ([`ExpandedFabric::route`]), using the shared flow hashes of
//! [`crate::spec`] so the expanded instances inherit the pinned
//! simulators' path choices exactly.
//!
//! ## Fat-tree routing in closed form
//!
//! Hosts are numbered so that the hosts below one level-l switch are a
//! block of m^(l+1) consecutive ids (m^l a block per down port, the
//! plane being the most significant digit), which makes the route
//! nearest-common-ancestor routing with no digit loop. At a level-l
//! switch below the top, a cell that arrived from below (input < m) goes
//! up iff `src / m^(l+1) != dst / m^(l+1)` — the switch is not yet a
//! common ancestor — through up-port m + the flow's hash choice;
//! otherwise it goes down port `(dst / m^l) % m`. A top switch sends
//! down port `dst / m^(L−1)`: the destination's plane and top digit. The
//! powers m^l and every switch's level are two small tables built at
//! expansion, and the arithmetic is 32-bit (a validated spec's host ids
//! fit in a `u32`).

use crate::ids::{EntityId, EntityVec, HostId, LinkId, PortId, StageId, SwitchId};
pub use crate::spec::TopologySpec;
use crate::spec::{top_choice, up_choice, DragonflyShape, TopologyError, TopologyFamily};

/// One level of switches in the expanded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInfo {
    /// Level, counted from the hosts (leaves/routers are level 0).
    pub level: u32,
    /// First switch of the stage; the stage owns a contiguous id range.
    pub first_switch: SwitchId,
    /// Number of switches in the stage.
    pub switches: u32,
}

/// One switch of the expanded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchInfo {
    /// Owning stage.
    pub stage: StageId,
    /// Position within the stage.
    pub pos: u32,
}

/// What a switch port is cabled to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// An end host NIC.
    Host(HostId),
    /// The far end of a switch-to-switch cable.
    Port(PortId),
    /// Nothing — the port exists on the switch but is not used by the
    /// topology (e.g. the up-side of a 1-plane top level).
    Unconnected,
}

/// One switch port of the expanded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortInfo {
    /// Owning switch.
    pub switch: SwitchId,
    /// Port index local to the switch (0..radix).
    pub local: u32,
    /// Far end.
    pub peer: Peer,
}

/// One switch-to-switch cable, recorded once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    /// Endpoint on the switch that initiated the wire-up (lower stage /
    /// lower switch id).
    pub a: PortId,
    /// The other endpoint.
    pub b: PortId,
}

/// One end host of the expanded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostInfo {
    /// The edge switch the host hangs off.
    pub switch: SwitchId,
    /// The switch port it is cabled to.
    pub port: PortId,
}

/// Family-specific expansion metadata the router needs.
#[derive(Debug, Clone)]
enum FamilyMeta {
    FatTree {
        /// Half-radix: down (= host) ports per switch.
        m: u32,
        levels: u32,
        planes: u32,
        /// m^l for l in 0..levels: the hosts below one down port of a
        /// level-l switch.
        pow: Vec<u32>,
        /// Each switch's level, indexed by switch id.
        level: Vec<u8>,
    },
    Dragonfly {
        shape: DragonflyShape,
        groups: u32,
        /// For each ordered group pair (G, D), G ≠ D: the G-side
        /// endpoints of every global cable between them, as (gateway
        /// router, local port), ordered by channel instance. Indexed
        /// `G * groups + D`.
        routes: Vec<Vec<(SwitchId, u32)>>,
    },
    FullMesh {
        hosts_per_switch: usize,
    },
}

/// A fully expanded, typed fabric graph.
#[derive(Debug, Clone)]
pub struct ExpandedFabric {
    spec: TopologySpec,
    /// Stage table.
    pub stages: EntityVec<StageId, StageInfo>,
    /// Switch table.
    pub switches: EntityVec<SwitchId, SwitchInfo>,
    /// Port table: `switch.index() * radix + local`.
    pub ports: EntityVec<PortId, PortInfo>,
    /// Cable table (switch-to-switch only; host attachments live in
    /// `hosts`).
    pub links: EntityVec<LinkId, LinkInfo>,
    /// Host table.
    pub hosts: EntityVec<HostId, HostInfo>,
    meta: FamilyMeta,
}

/// Base-m digit `pos` of `index`.
fn digit(index: usize, pos: u32, m: usize) -> usize {
    (index / m.pow(pos)) % m
}

/// Replace base-m digit `pos` of `index` with `value`.
fn with_digit(index: usize, pos: u32, value: usize, m: usize) -> usize {
    let p = m.pow(pos);
    index - digit(index, pos, m) * p + value * p
}

impl ExpandedFabric {
    /// Expand `spec` into a complete graph. Deterministic: equal specs
    /// produce identical arenas.
    pub fn expand(spec: TopologySpec) -> Result<Self, TopologyError> {
        spec.validate()?;
        let mut fab = ExpandedFabric {
            spec,
            stages: EntityVec::new(),
            switches: EntityVec::new(),
            ports: EntityVec::new(),
            links: EntityVec::new(),
            hosts: EntityVec::new(),
            meta: FamilyMeta::FullMesh {
                hosts_per_switch: 0,
            },
        };
        match spec.family {
            TopologyFamily::FatTree { levels, planes } => fab.expand_fat_tree(levels, planes),
            TopologyFamily::Dragonfly { groups } => fab.expand_dragonfly(groups),
            TopologyFamily::FullMesh { switches } => fab.expand_full_mesh(switches),
        }
        Ok(fab)
    }

    /// The spec this graph was expanded from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Switch radix (ports per switch, uniform per §IV.A).
    pub fn radix(&self) -> usize {
        self.spec.radix
    }

    /// The port id of `switch`'s local port `local`.
    pub fn port_id(&self, switch: SwitchId, local: u32) -> PortId {
        PortId::from_index(switch.index() * self.spec.radix + local as usize)
    }

    /// The (edge switch, local port) a host is attached to.
    pub fn host_attach(&self, host: HostId) -> (SwitchId, u32) {
        let info = self.hosts[host];
        (info.switch, self.ports[info.port].local)
    }

    /// The level of a switch (0 at the host edge).
    pub fn level_of(&self, switch: SwitchId) -> u32 {
        self.stages[self.switches[switch].stage].level
    }

    /// Append `count` switches of `radix` ports as a new stage at
    /// `level`; all ports start unconnected.
    fn push_stage(&mut self, level: u32, count: usize) -> StageId {
        let first = self.switches.next_id();
        let stage = self.stages.push(StageInfo {
            level,
            first_switch: first,
            switches: count as u32,
        });
        for pos in 0..count {
            let sw = self.switches.push(SwitchInfo {
                stage,
                pos: pos as u32,
            });
            for local in 0..self.spec.radix {
                self.ports.push(PortInfo {
                    switch: sw,
                    local: local as u32,
                    peer: Peer::Unconnected,
                });
            }
        }
        stage
    }

    /// The switch at `pos` within `stage`.
    fn stage_switch(&self, stage: StageId, pos: usize) -> SwitchId {
        SwitchId::from_index(self.stages[stage].first_switch.index() + pos)
    }

    /// Cable two ports together, recording the link once. Both ports
    /// must still be unconnected — a double wire-up is an expansion bug.
    fn connect(&mut self, a: PortId, b: PortId) {
        debug_assert_eq!(self.ports[a].peer, Peer::Unconnected);
        debug_assert_eq!(self.ports[b].peer, Peer::Unconnected);
        self.ports[a].peer = Peer::Port(b);
        self.ports[b].peer = Peer::Port(a);
        self.links.push(LinkInfo { a, b });
    }

    /// Attach the next host to `port`.
    fn attach_host(&mut self, port: PortId) -> HostId {
        debug_assert_eq!(self.ports[port].peer, Peer::Unconnected);
        let switch = self.ports[port].switch;
        let host = self.hosts.push(HostInfo { switch, port });
        self.ports[port].peer = Peer::Host(host);
        host
    }

    fn expand_fat_tree(&mut self, levels: u32, planes: u32) {
        let m = self.spec.radix / 2;
        self.wire_fat_tree(levels, planes, m);
        // validate() bounds the hosts, planes·m^L, by u32::MAX, so every
        // power below fits, and 16 levels fit a u8.
        self.meta = FamilyMeta::FatTree {
            m: m as u32,
            levels,
            planes,
            pow: (0..levels).map(|l| m.pow(l) as u32).collect(),
            level: (self.switches.values())
                .map(|s| self.stages[s.stage].level as u8)
                .collect(),
        };
    }

    /// The stages, hosts and cables of a fat tree.
    fn wire_fat_tree(&mut self, levels: u32, planes: u32, m: usize) {
        let width = m.pow(levels - 1);
        if levels == 1 {
            // A single switch; every used port faces a host.
            let stage = self.push_stage(0, 1);
            let sw = self.stage_switch(stage, 0);
            for p in 0..planes as usize * m {
                let port = self.port_id(sw, p as u32);
                self.attach_host(port);
            }
            return;
        }
        // Stages: levels 0..L−2 with planes·width switches (plane-major:
        // pos = π·width + w), then the merged top with `width` switches.
        let mut stage_ids = Vec::with_capacity(levels as usize);
        for level in 0..levels - 1 {
            stage_ids.push(self.push_stage(level, planes as usize * width));
        }
        stage_ids.push(self.push_stage(levels - 1, width));
        // Hosts hang off level 0: leaf pos·m + p.
        for leaf in 0..planes as usize * width {
            let sw = self.stage_switch(stage_ids[0], leaf);
            for p in 0..m {
                let port = self.port_id(sw, p as u32);
                self.attach_host(port);
            }
        }
        // Up edges, level by level.
        for l in 0..levels - 1 {
            for pi in 0..planes as usize {
                for w in 0..width {
                    let from = self.stage_switch(stage_ids[l as usize], pi * width + w);
                    for p in 0..m {
                        let from_port = self.port_id(from, (m + p) as u32);
                        let (to, to_local) = if l + 1 < levels - 1 {
                            // Within-plane edge: the digit rule.
                            let above = pi * width + with_digit(w, l, p, m);
                            (
                                self.stage_switch(stage_ids[l as usize + 1], above),
                                digit(w, l, m) as u32,
                            )
                        } else {
                            // Top step: planes merge; the top input index
                            // carries the plane.
                            let top = with_digit(w, levels - 2, p, m);
                            (
                                self.stage_switch(stage_ids[levels as usize - 1], top),
                                (pi * m + digit(w, levels - 2, m)) as u32,
                            )
                        };
                        let to_port = self.port_id(to, to_local);
                        self.connect(from_port, to_port);
                    }
                }
            }
        }
    }

    fn expand_dragonfly(&mut self, groups: u32) {
        // validate() ran in expand(); a bad radix cannot reach here, but
        // stay panic-free and expand the degenerate empty shape instead.
        let shape = DragonflyShape::for_radix(self.spec.radix).unwrap_or(DragonflyShape {
            hosts_per_router: 0,
            routers_per_group: 0,
            globals_per_router: 0,
        });
        let (p, a, h) = (
            shape.hosts_per_router,
            shape.routers_per_group,
            shape.globals_per_router,
        );
        let g = groups as usize;
        let mut routes = vec![Vec::new(); g * g];
        let stage = self.push_stage(0, g * a);
        // Port layout per router: 0..p hosts, p..p+a−1 local mesh,
        // p+a−1..p+a−1+h global, remainder unconnected.
        for router in 0..g * a {
            let sw = self.stage_switch(stage, router);
            for j in 0..p {
                let port = self.port_id(sw, j as u32);
                self.attach_host(port);
            }
        }
        // Local all-to-all within each group: router r's slot t reaches
        // router t (t < r) or t+1 (t ≥ r); wire from the lower id.
        for grp in 0..g {
            for r in 0..a {
                for u in r + 1..a {
                    let lo = self.stage_switch(stage, grp * a + r);
                    let hi = self.stage_switch(stage, grp * a + u);
                    let lo_port = self.port_id(lo, (p + u - 1) as u32);
                    let hi_port = self.port_id(hi, (p + r) as u32);
                    self.connect(lo_port, hi_port);
                }
            }
        }
        // Global channels: channel c of group G (router c/h, global slot
        // c%h) pairs with channel (g−1−d) + i·(g−1) of group (G+d) mod g,
        // d = 1 + c mod (g−1), i = c/(g−1). The pairing is an involution;
        // wire from the smaller group id. Channels whose partner instance
        // exceeds a·h stay unconnected.
        if g > 1 {
            for grp in 0..g {
                for c in 0..a * h {
                    let d = 1 + c % (g - 1);
                    let i = c / (g - 1);
                    let dest = (grp + d) % g;
                    let back = (g - 1 - d) + i * (g - 1);
                    if back >= a * h {
                        continue;
                    }
                    let from_sw = self.stage_switch(stage, grp * a + c / h);
                    let from_local = (p + a - 1 + c % h) as u32;
                    let to_sw = self.stage_switch(stage, dest * a + back / h);
                    let to_local = (p + a - 1 + back % h) as u32;
                    if dest > grp {
                        let from_port = self.port_id(from_sw, from_local);
                        let to_port = self.port_id(to_sw, to_local);
                        self.connect(from_port, to_port);
                    }
                    routes[grp * g + dest].push((from_sw, from_local));
                }
            }
        }
        self.meta = FamilyMeta::Dragonfly {
            shape,
            groups,
            routes,
        };
    }

    fn expand_full_mesh(&mut self, switches: u32) {
        let n = switches as usize;
        let hp = self.spec.radix - (n - 1);
        self.meta = FamilyMeta::FullMesh {
            hosts_per_switch: hp,
        };
        let stage = self.push_stage(0, n);
        for s in 0..n {
            let sw = self.stage_switch(stage, s);
            for j in 0..hp {
                let port = self.port_id(sw, j as u32);
                self.attach_host(port);
            }
        }
        // Mesh ports hp..radix: switch i's slot t reaches switch t
        // (t < i) or t+1 (t ≥ i); wire from the lower id.
        for i in 0..n {
            for j in i + 1..n {
                let lo = self.stage_switch(stage, i);
                let hi = self.stage_switch(stage, j);
                let lo_port = self.port_id(lo, (hp + j - 1) as u32);
                let hi_port = self.port_id(hi, (hp + i) as u32);
                self.connect(lo_port, hi_port);
            }
        }
    }

    /// The local output port a (src, dst) flow takes at `switch`, given
    /// the local input port it arrived on (host-side for fresh
    /// injections). Minimal and per-flow stable for every family; the
    /// input side disambiguates ascent from descent in fat trees, whose
    /// route is the closed form of the module docs.
    pub fn route(&self, switch: SwitchId, in_port: u32, src: HostId, dst: HostId) -> u32 {
        match &self.meta {
            FamilyMeta::FatTree {
                m,
                levels,
                planes,
                pow,
                level,
            } => {
                let (m, l) = (*m, level[switch.index()] as u32);
                let d = dst.raw();
                if l + 1 == *levels {
                    // Top: the down port carries the destination's plane
                    // and top digit.
                    return d / pow[l as usize];
                }
                let above = pow[l as usize + 1];
                if in_port < m && src.raw() / above != d / above {
                    // Ascending. The top step uses the two-operand spine
                    // hash of §V when the planes merge (bit-identical to
                    // the hand-built leaf–spine instance at L = 2); the
                    // within-plane steps use the per-level ascent hash.
                    let p = if *planes == 2 && l + 2 == *levels {
                        top_choice(src.index(), dst.index(), m as usize)
                    } else {
                        up_choice(src.index(), dst.index(), l, m as usize)
                    };
                    return m + p as u32;
                }
                d / pow[l as usize] % m
            }
            FamilyMeta::Dragonfly {
                shape,
                groups,
                routes,
            } => {
                let (p, a) = (shape.hosts_per_router, shape.routers_per_group);
                let g = *groups as usize;
                let _ = in_port;
                let router = self.switches[switch].pos as usize;
                let (grp, r) = (router / a, router % a);
                let dst_router = dst.index() / p;
                let (grp_d, r_d) = (dst_router / a, dst_router % a);
                if router == dst_router {
                    return (dst.index() % p) as u32;
                }
                let local_toward = |target: usize, from: usize| -> u32 {
                    let t = if target < from { target } else { target - 1 };
                    (p + t) as u32
                };
                if grp == grp_d {
                    return local_toward(r_d, r);
                }
                // Cross-group: per-flow stable pick among the g→g_d
                // channels, then reach the gateway router locally.
                let list = &routes[grp * g + grp_d];
                debug_assert!(!list.is_empty(), "validated group counts are connected");
                let (gw, gw_port) = list[top_choice(src.index(), dst.index(), list.len().max(1))];
                if gw == switch {
                    gw_port
                } else {
                    local_toward(self.switches[gw].pos as usize % a, r)
                }
            }
            FamilyMeta::FullMesh { hosts_per_switch } => {
                let hp = *hosts_per_switch;
                let _ = in_port;
                let s = self.switches[switch].pos as usize;
                let s_d = dst.index() / hp;
                if s == s_d {
                    (dst.index() % hp) as u32
                } else {
                    let t = if s_d < s { s_d } else { s_d - 1 };
                    (hp + t) as u32
                }
            }
        }
    }

    /// The switch path of a (src, dst) flow, found by walking the graph
    /// under [`route`](Self::route) — so the path is the wiring and the
    /// router in agreement, not a separate formula.
    pub fn path(&self, src: HostId, dst: HostId) -> Vec<SwitchId> {
        let (mut sw, mut in_port) = self.host_attach(src);
        let mut out = vec![sw];
        // A minimal route visits at most stages() switches; 2× that is a
        // hard bound on a correct walk.
        let limit = 2 * self.spec.stages() as usize + 2;
        loop {
            assert!(out.len() <= limit, "route failed to terminate");
            let out_port = self.route(sw, in_port, src, dst);
            match self.ports[self.port_id(sw, out_port)].peer {
                Peer::Host(h) => {
                    assert_eq!(h, dst, "route delivered to the wrong host");
                    return out;
                }
                Peer::Port(far) => {
                    sw = self.ports[far].switch;
                    in_port = self.ports[far].local;
                    out.push(sw);
                }
                Peer::Unconnected => {
                    // lint:allow(panic-free): expansion invariant — the
                    // minimal router never selects an unwired port on a
                    // validated spec; tests walk every family's paths
                    panic!("route chose unconnected {sw} port {out_port}")
                }
            }
        }
    }

    /// A structural digest of the whole graph: entity counts, every
    /// port's peer, every host attachment. Two fabrics with equal
    /// fingerprints are wired identically (up to hash collision); the
    /// determinism and hand-built-equivalence tests pin these.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        eat(self.spec.radix as u64);
        eat(self.stages.len() as u64);
        eat(self.switches.len() as u64);
        eat(self.links.len() as u64);
        eat(self.hosts.len() as u64);
        for (_, s) in self.stages.iter() {
            eat(s.level as u64);
            eat(s.switches as u64);
        }
        for (_, p) in self.ports.iter() {
            match p.peer {
                Peer::Unconnected => eat(u64::MAX),
                Peer::Host(host) => {
                    eat(1);
                    eat(host.raw() as u64);
                }
                Peer::Port(far) => {
                    eat(2);
                    eat(far.raw() as u64);
                }
            }
        }
        // SplitMix finalizer, as everywhere else in the workspace.
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    #[test]
    fn two_level_expansion_matches_hand_built_wiring() {
        // The §V instance: k leaves (pos π·m+w), k/2 spines; leaf l's up
        // port m+s reaches spine s at input l; hosts pack onto leaves.
        for radix in [4usize, 8, 64] {
            let fab = ExpandedFabric::expand(TopologySpec::two_level(radix)).unwrap();
            let m = radix / 2;
            let (hosts, leaves, spines) = (radix * m, radix, m);
            assert_eq!(fab.hosts.len(), hosts);
            assert_eq!(fab.switches.len(), leaves + spines);
            assert_eq!(fab.links.len(), leaves * spines);
            for leaf in 0..leaves {
                let sw = SwitchId::from_index(leaf);
                for s in 0..spines {
                    let up = fab.port_id(sw, (m + s) as u32);
                    let Peer::Port(far) = fab.ports[up].peer else {
                        panic!("unwired up port");
                    };
                    assert_eq!(fab.ports[far].switch.index(), leaves + s);
                    assert_eq!(fab.ports[far].local as usize, leaf);
                }
            }
            for h in 0..hosts {
                let (sw, local) = fab.host_attach(HostId::from_index(h));
                assert_eq!((sw.index(), local as usize), (h / m, h % m));
            }
        }
    }

    #[test]
    fn two_level_routing_matches_spine_hash() {
        // Hosts pack m to a leaf; a flow crosses the spine it hashes to.
        let (radix, m) = (8, 4);
        let fab = ExpandedFabric::expand(TopologySpec::two_level(radix)).unwrap();
        let hosts = radix * m;
        for src in 0..hosts {
            for dst in 0..hosts {
                let (s, d) = (HostId::from_index(src), HostId::from_index(dst));
                let path = fab.path(s, d);
                let hand = if src / m == dst / m {
                    vec![src / m]
                } else {
                    vec![src / m, radix + top_choice(src, dst, m), dst / m]
                };
                let got: Vec<usize> = path.iter().map(|s| s.index()).collect();
                assert_eq!(got, hand, "src {src} dst {dst}");
            }
        }
    }

    /// The digit-loop fat-tree router the closed form replaced, kept as
    /// its oracle: the ascent height is L − 1 across planes, else one
    /// above the highest leaf digit in which source and destination
    /// differ (0 under one leaf); a switch below it ascends, and a
    /// descent reads the destination's leaf digit of the level below.
    fn route_by_digits(
        fab: &ExpandedFabric,
        sw: SwitchId,
        in_port: u32,
        src: HostId,
        dst: HostId,
    ) -> u32 {
        let FamilyMeta::FatTree {
            m, levels, planes, ..
        } = fab.meta
        else {
            panic!("not a fat tree");
        };
        let (m, width) = (m as usize, (m as usize).pow(levels - 1));
        if levels == 1 {
            return (dst.index() % (planes as usize * m)) as u32;
        }
        let level = fab.level_of(sw);
        let (ls, ld) = (src.index() / m, dst.index() / m);
        let (pi_d, wd) = (ld / width, ld % width);
        if level == levels - 1 {
            return (pi_d * m + digit(wd, levels - 2, m)) as u32;
        }
        let ascent = if ls == ld {
            0
        } else if ls / width != pi_d {
            levels - 1
        } else {
            let ws = ls % width;
            let mut a = 1;
            for pos in 0..levels - 1 {
                if digit(ws, pos, m) != digit(wd, pos, m) {
                    a = pos + 1;
                }
            }
            a
        };
        if (in_port as usize) < m && level < ascent {
            let p = if planes == 2 && level == levels - 2 {
                top_choice(src.index(), dst.index(), m)
            } else {
                up_choice(src.index(), dst.index(), level, m)
            };
            return (m + p) as u32;
        }
        match level {
            0 => (dst.index() % m) as u32,
            _ => digit(wd, level - 1, m) as u32,
        }
    }

    #[test]
    fn closed_form_route_matches_the_digit_loop() {
        // 1–7 levels, both plane counts, odd and even m, and radix 66;
        // every switch and every input port, over flows that share a
        // subtree of every height as well as uniform ones.
        let shapes = [
            (4usize, 1u32, 1u32),
            (4, 1, 2),
            (8, 2, 2),
            (6, 2, 1),
            (8, 3, 1),
            (10, 3, 2),
            (6, 4, 2),
            (4, 5, 1),
            (6, 5, 2),
            (4, 6, 2),
            (4, 7, 1),
            (4, 7, 2),
            (66, 2, 2),
            (66, 3, 1),
        ];
        let mut rng = osmosis_sim::SimRng::seed_from_u64(0x0ca5);
        let mut checked = 0u64;
        for (radix, levels, planes) in shapes {
            let spec = match planes {
                1 => TopologySpec::m_ary_fat_tree(radix, levels),
                _ => TopologySpec::fat_tree(radix, levels),
            };
            let fab = ExpandedFabric::expand(spec).unwrap();
            let (m, hosts) = (radix / 2, fab.hosts.len());
            for (sw, _) in fab.switches.iter() {
                for _ in 0..12 {
                    let src = rng.index(hosts);
                    // The destination shares src's block of m^k hosts.
                    let block = m.pow(rng.index(levels as usize + 1) as u32).min(hosts);
                    let dst = match rng.index(3) {
                        0 => rng.index(hosts),
                        _ => src / block * block + rng.index(block),
                    };
                    let (s, d) = (HostId::from_index(src), HostId::from_index(dst));
                    for in_port in 0..radix as u32 {
                        assert_eq!(
                            fab.route(sw, in_port, s, d),
                            route_by_digits(&fab, sw, in_port, s, d),
                            "{spec}: {sw} in {in_port}, {src} -> {dst}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1_000_000, "{checked} tuples");
    }

    /// Closed-form peer of `port` on the m-ary Clos switch at (`level`,
    /// `pos`). Down-port q of a level-l switch selects digit l−1 of the
    /// switch below and lands on the up-port that switch ascended by;
    /// up-port m+p replaces digit l and lands on the down-port named by
    /// the old digit; the top level's up-side is unused.
    fn m_ary_peer(radix: usize, levels: u32, level: u32, pos: usize, port: usize) -> Peer {
        let m = radix / 2;
        let width = m.pow(levels - 1);
        let far = |level: u32, pos: usize, local: usize| {
            Peer::Port(PortId::from_index(
                (level as usize * width + pos) * radix + local,
            ))
        };
        if port < m {
            if level == 0 {
                Peer::Host(HostId::from_index(pos * m + port))
            } else {
                let below = with_digit(pos, level - 1, port, m);
                far(level - 1, below, m + digit(pos, level - 1, m))
            }
        } else if level == levels - 1 {
            Peer::Unconnected
        } else {
            let above = with_digit(pos, level, port - m, m);
            far(level + 1, above, digit(pos, level, m))
        }
    }

    #[test]
    fn expansion_tables_match_digit_formulas() {
        // The port table of a 1-plane expansion must equal the closed-form
        // digit rules — port for port, switch for switch. Cells follow
        // `peer` downstream and credits follow it back upstream, so this
        // one table is the whole wiring of the compiled simulator.
        for (radix, levels) in [(4usize, 1u32), (4, 3), (6, 2), (8, 2)] {
            let fab = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(radix, levels)).unwrap();
            let width = (radix / 2).pow(levels - 1);
            for level in 0..levels {
                for pos in 0..width {
                    let sw = SwitchId::from_index(level as usize * width + pos);
                    for port in 0..radix {
                        assert_eq!(
                            fab.ports[fab.port_id(sw, port as u32)].peer,
                            m_ary_peer(radix, levels, level, pos, port),
                            "r{radix} L{levels} ({level},{pos},{port})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_plane_expansion_matches_multilevel_paths() {
        // planes = 1 is the m-ary Clos of MultiLevelClos: same switch
        // counts, same paths (per level, per position).
        let (radix, levels) = (6usize, 3u32);
        let fab = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(radix, levels)).unwrap();
        let clos = crate::multilevel::MultiLevelClos::new(radix, levels);
        assert_eq!(fab.hosts.len(), clos.hosts());
        assert_eq!(
            fab.switches.len(),
            clos.switches_per_level() * levels as usize
        );
        let width = clos.switches_per_level();
        for src in 0..clos.hosts() {
            let dst = (src * 13 + 7) % clos.hosts();
            let expanded: Vec<(u32, usize)> = fab
                .path(HostId::from_index(src), HostId::from_index(dst))
                .into_iter()
                .map(|sw| {
                    let level = fab.level_of(sw);
                    (level, sw.index() - level as usize * width)
                })
                .collect();
            assert_eq!(expanded, clos.path(src, dst), "src {src} dst {dst}");
        }
    }

    #[test]
    fn every_port_peer_is_mutual() {
        for spec in [
            TopologySpec::fat_tree(4, 3),
            TopologySpec::two_level(8),
            TopologySpec::dragonfly(8, 4),
            TopologySpec::full_mesh(8, 5),
        ] {
            let fab = ExpandedFabric::expand(spec).unwrap();
            for (id, port) in fab.ports.iter() {
                match port.peer {
                    Peer::Unconnected => {}
                    Peer::Host(h) => assert_eq!(fab.hosts[h].port, id),
                    Peer::Port(far) => assert_eq!(fab.ports[far].peer, Peer::Port(id)),
                }
            }
            assert_eq!(fab.hosts.len() as u64, spec.hosts());
            assert_eq!(fab.switches.len() as u64, spec.switch_count());
        }
    }

    #[test]
    fn dragonfly_paths_are_minimal_and_stable() {
        let spec = TopologySpec::dragonfly(8, 4);
        let fab = ExpandedFabric::expand(spec).unwrap();
        // Radix 8 → h = p = 2, a = 4: 4 groups × 4 routers × 2 hosts.
        assert_eq!(fab.hosts.len(), 32);
        for src in 0..32 {
            for dst in 0..32 {
                let (s, d) = (HostId::from_index(src), HostId::from_index(dst));
                let path = fab.path(s, d);
                assert!(path.len() <= 4, "src {src} dst {dst}: {path:?}");
                assert_eq!(path, fab.path(s, d));
                assert_eq!(path[0], fab.host_attach(s).0);
                assert_eq!(*path.last().unwrap(), fab.host_attach(d).0);
            }
        }
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let fab = ExpandedFabric::expand(TopologySpec::full_mesh(8, 5)).unwrap();
        assert_eq!(fab.hosts.len(), 5 * 4);
        assert_eq!(fab.links.len(), 5 * 4 / 2);
        for src in 0..20 {
            for dst in 0..20 {
                let path = fab.path(HostId::from_index(src), HostId::from_index(dst));
                assert!(path.len() <= 2);
            }
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        for spec in [
            TopologySpec::fat_tree(8, 3),
            TopologySpec::dragonfly(16, 8),
            TopologySpec::full_mesh(16, 9),
        ] {
            let a = ExpandedFabric::expand(spec).unwrap();
            let b = ExpandedFabric::expand(spec).unwrap();
            assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
            assert_eq!(
                a.ports.iter().collect::<Vec<_>>(),
                b.ports.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn large_instances_expand() {
        // The ≥ 32768-port acceptance instances.
        let big = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(64, 3)).unwrap();
        assert_eq!(big.hosts.len(), 32_768);
        let df = ExpandedFabric::expand(TopologySpec::dragonfly(64, 64)).unwrap();
        assert_eq!(df.hosts.len(), 32_768);
        assert_eq!(df.switches.len(), 2_048);
    }
}
