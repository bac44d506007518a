//! Deterministic expansion of a [`TopologySpec`] into a typed fabric
//! graph.
//!
//! The compiler pass of the crate: a compact declarative spec goes in,
//! a complete [`ExpandedFabric`] comes out — dense typed tables of its
//! stages, switches and hosts, and the wiring as a closed form of the
//! port id: [`ExpandedFabric::peer`] names the far end of any port,
//! [`ExpandedFabric::links`] walks every cable once, and no port or
//! cable is stored. Expansion is a pure function of the spec:
//! re-expanding yields an identical graph (the property tests pin
//! this), and a structural fingerprint makes "same wiring" checkable in
//! one `u64`.
//!
//! A port id is `switch · radix + local`, so a port's switch and local
//! index are a division and a remainder by the radix. The tables are
//! sized from the spec's closed forms, so an expansion allocates as
//! often at 32K hosts as at 32, whatever the family. The tests keep the
//! wiring the expansion used to store, one cable at a time, as the
//! oracle every closed form below is checked against, port for port.
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
//! switch w[digit L−2 := p] at input π·m + digit_{L−2}(w), and top
//! down-port π·m + q reaches plane π's switch y[digit L−2 := q]. With
//! planes = 2 and L = 2 this reproduces the hand-built §V leaf–spine
//! wiring bit for bit (leaf π·m+w ↔ spine p); with planes = 1 it is the
//! m-ary Clos whose paths [`crate::multilevel::MultiLevelClos`] gives in
//! closed form (the unit tests check both, port for port). Level-0
//! down-port q of leaf w is host w·m + q; a one-level tree is one
//! switch whose first planes·m ports are the hosts.
//!
//! ## Dragonfly
//!
//! The balanced configuration derived from the radix
//! ([`DragonflyShape`]): p = h hosts and h global channels per router,
//! a = 2h routers per group in a local full mesh. Router ports are laid
//! out as 0..p hosts, p..p+a−1 local mesh (slot t reaches router t if
//! t is below the router's own index, else t + 1), then h global
//! channels. Global channel c ∈ 0..a·h of group G (router c/h, global
//! slot c mod h) reaches group (G + d) mod g, d = 1 + c mod (g−1), at
//! its channel (g−1−d) + i·(g−1), i = c/(g−1); the pairing is an
//! involution, and a channel whose partner lies beyond a·h stays
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
//!
//! ## Dragonfly routing in closed form
//!
//! A cross-group flow from group G to group D leaves through one of the
//! global channels between them, picked per flow by the spine hash. With
//! d = (D − G) mod g those are channels c = d − 1 + i·(g − 1) of G for
//! i = 0, 1, …: both c and its partner (g − 1 − d) + i·(g − 1) grow by
//! g − 1 with i, so the valid i are a prefix, as long as the larger of
//! the two first channels leaves room below a·h. The router reaches the
//! gateway router c/h over its local mesh and leaves it on global slot
//! c mod h.

use crate::ids::{EntityId, EntityVec, HostId, PortId, StageId, SwitchId};
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

/// Family-specific expansion metadata the wiring and the router need.
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
    /// Host table: the switch port each host is cabled to.
    pub hosts: EntityVec<HostId, PortId>,
    meta: FamilyMeta,
}

impl ExpandedFabric {
    /// Expand `spec` into a complete graph. Deterministic: equal specs
    /// produce identical tables.
    ///
    /// Every table is reserved once from the spec's closed forms, so
    /// none grows while it is filled, and nothing is stored per port or
    /// per cable.
    pub fn expand(spec: TopologySpec) -> Result<Self, TopologyError> {
        spec.validate()?;
        // validate() bounds the ports, and so the switches and hosts, by
        // u32::MAX.
        let (switches, hosts) = (spec.switch_count() as usize, spec.hosts() as usize);
        let radix = spec.radix;
        let stages = match spec.family {
            TopologyFamily::FatTree { levels, .. } => levels as usize,
            TopologyFamily::Dragonfly { .. } | TopologyFamily::FullMesh { .. } => 1,
        };
        let mut fab = ExpandedFabric {
            spec,
            stages: EntityVec::with_capacity(stages),
            switches: EntityVec::with_capacity(switches),
            hosts: EntityVec::with_capacity(hosts),
            meta: FamilyMeta::FullMesh {
                hosts_per_switch: 0,
            },
        };
        let (meta, per_edge) = match spec.family {
            TopologyFamily::FatTree { levels, planes } => fab.expand_fat_tree(levels, planes),
            TopologyFamily::Dragonfly { groups } => {
                // validate() ran above; a bad radix cannot reach here,
                // but stay panic-free and expand the degenerate empty
                // shape instead.
                let shape = DragonflyShape::for_radix(radix).unwrap_or(DragonflyShape {
                    hosts_per_router: 0,
                    routers_per_group: 0,
                    globals_per_router: 0,
                });
                fab.push_stage(0, groups as usize * shape.routers_per_group);
                (
                    FamilyMeta::Dragonfly { shape, groups },
                    shape.hosts_per_router,
                )
            }
            TopologyFamily::FullMesh { switches } => {
                fab.push_stage(0, switches as usize);
                let hosts_per_switch = radix - (switches as usize - 1);
                (FamilyMeta::FullMesh { hosts_per_switch }, hosts_per_switch)
            }
        };
        fab.meta = meta;
        // Every family packs its hosts `per_edge` to a switch onto the
        // lowest ports of its first switches.
        let ports = (0..hosts).map(|h| PortId::from_index(h / per_edge * radix + h % per_edge));
        fab.hosts.extend(ports);
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

    /// The number of switch ports, every switch's `radix` of them,
    /// cabled or not: port ids run over `0..port_count()`.
    pub fn port_count(&self) -> usize {
        self.switches.len() * self.spec.radix
    }

    /// The port id of `switch`'s local port `local`.
    pub fn port_id(&self, switch: SwitchId, local: u32) -> PortId {
        PortId::from_index(switch.index() * self.spec.radix + local as usize)
    }

    /// The switch that owns `port`.
    pub fn port_switch(&self, port: PortId) -> SwitchId {
        SwitchId::from_index(port.index() / self.spec.radix)
    }

    /// The index of `port` on its switch (0..radix).
    pub fn port_local(&self, port: PortId) -> u32 {
        (port.index() % self.spec.radix) as u32
    }

    /// The (edge switch, local port) a host is attached to.
    pub fn host_attach(&self, host: HostId) -> (SwitchId, u32) {
        let port = self.hosts[host];
        (self.port_switch(port), self.port_local(port))
    }

    /// The level of a switch (0 at the host edge).
    pub fn level_of(&self, switch: SwitchId) -> u32 {
        self.stages[self.switches[switch].stage].level
    }

    /// Append `count` switches as a new stage at `level`.
    fn push_stage(&mut self, level: u32, count: usize) {
        let first = self.switches.next_id();
        let stage = self.stages.push(StageInfo {
            level,
            first_switch: first,
            switches: count as u32,
        });
        self.switches
            .extend((0..count as u32).map(|pos| SwitchInfo { stage, pos }));
    }

    /// The stages of a fat tree, the router's two tables, and the hosts
    /// per leaf.
    fn expand_fat_tree(&mut self, levels: u32, planes: u32) -> (FamilyMeta, usize) {
        let m = self.spec.radix / 2;
        // validate() bounds the hosts, planes·m^L, by u32::MAX, so every
        // power below fits, and 16 levels fit a u8.
        let width = m.pow(levels - 1);
        if levels == 1 {
            // A single switch; its first planes·m ports face hosts.
            self.push_stage(0, 1);
        } else {
            // Levels 0..L−2 with planes·width switches (plane-major: pos
            // = π·width + w), then the merged top with `width`. Level l
            // is stage l, and its first switch is l·planes·width.
            for level in 0..levels - 1 {
                self.push_stage(level, planes as usize * width);
            }
            self.push_stage(levels - 1, width);
        }
        let mut level = Vec::with_capacity(self.switches.len());
        for stage in self.stages.values() {
            level.resize(level.len() + stage.switches as usize, stage.level as u8);
        }
        let meta = FamilyMeta::FatTree {
            m: m as u32,
            levels,
            planes,
            pow: (0..levels).map(|l| m.pow(l) as u32).collect(),
            level,
        };
        let per_leaf = if levels == 1 { planes as usize * m } else { m };
        (meta, per_leaf)
    }

    /// What `port` is cabled to: the wiring rules of the module docs,
    /// evaluated at one port.
    pub fn peer(&self, port: PortId) -> Peer {
        let radix = self.spec.radix;
        let (sw, q) = (port.index() / radix, port.index() % radix);
        let at = |sw: usize, local: usize| Peer::Port(PortId::from_index(sw * radix + local));
        let host = |h: usize| Peer::Host(HostId::from_index(h));
        match &self.meta {
            FamilyMeta::FatTree {
                m,
                levels,
                planes,
                pow,
                level,
            } => {
                let (m, top, planes) = (*m as usize, *levels as usize - 1, *planes as usize);
                if top == 0 {
                    return if q < planes * m {
                        host(q)
                    } else {
                        Peer::Unconnected
                    };
                }
                // Switches per level below the top, and per plane there.
                let width = pow[top] as usize;
                let stage = planes * width;
                let l = level[sw] as usize;
                // Rewrite base-m digit `k` of in-plane position `w` to
                // `to`; also return the digit it held.
                let rewrite = |w: usize, k: usize, to: usize| {
                    let step = pow[k] as usize;
                    let digit = w / step % m;
                    (w - digit * step + to * step, digit)
                };
                if l == top {
                    // Down-port π·m + q reaches plane π's level L−2
                    // switch y[digit L−2 := q], on the up-port that
                    // rewrote that digit to y's.
                    let y = sw - top * stage;
                    if q >= planes * m {
                        return Peer::Unconnected;
                    }
                    let (below, digit) = rewrite(y, top - 1, q % m);
                    return at((top - 1) * stage + q / m * width + below, m + digit);
                }
                let (plane, w) = ((sw - l * stage) / width, (sw - l * stage) % width);
                match (q < m, l) {
                    (true, 0) => host(sw * m + q),
                    (true, _) => {
                        let (below, digit) = rewrite(w, l - 1, q);
                        at((l - 1) * stage + plane * width + below, m + digit)
                    }
                    (false, _) => {
                        let (above, digit) = rewrite(w, l, q - m);
                        match l + 1 == top {
                            true => at(top * stage + above, plane * m + digit),
                            false => at((l + 1) * stage + plane * width + above, digit),
                        }
                    }
                }
            }
            FamilyMeta::Dragonfly { shape, groups } => {
                let (p, a, h) = (
                    shape.hosts_per_router,
                    shape.routers_per_group,
                    shape.globals_per_router,
                );
                let (g, grp, r) = (*groups as usize, sw / a, sw % a);
                if q < p {
                    return host(sw * p + q);
                }
                if q < p + a - 1 {
                    let u = mesh_neighbour(r, q - p);
                    return at(grp * a + u, p + mesh_slot(u, r));
                }
                if q >= p + a - 1 + h || g == 1 {
                    return Peer::Unconnected;
                }
                let c = r * h + (q - (p + a - 1));
                let (d, i) = (1 + c % (g - 1), c / (g - 1));
                let back = (g - 1 - d) + i * (g - 1);
                if back >= a * h {
                    return Peer::Unconnected;
                }
                at((grp + d) % g * a + back / h, p + a - 1 + back % h)
            }
            FamilyMeta::FullMesh { hosts_per_switch } => {
                let hp = *hosts_per_switch;
                if q < hp {
                    return host(sw * hp + q);
                }
                let u = mesh_neighbour(sw, q - hp);
                at(u, hp + mesh_slot(u, sw))
            }
        }
    }

    /// The number of switch-to-switch cables: as many as
    /// [`links`](Self::links) yields, in closed form.
    pub fn link_count(&self) -> usize {
        match &self.meta {
            FamilyMeta::FatTree {
                m,
                levels,
                planes,
                pow,
                ..
            } => {
                // Every up-port below the top level is cabled.
                let top = *levels as usize - 1;
                top * *planes as usize * pow[top] as usize * *m as usize
            }
            FamilyMeta::Dragonfly { shape, groups } => {
                let (a, g) = (shape.routers_per_group, *groups as usize);
                let globals: usize = (1..g).map(|d| global_channels(shape, g, d)).sum();
                g * a * (a - 1) / 2 + g * globals / 2
            }
            FamilyMeta::FullMesh { .. } => {
                let n = self.switches.len();
                n * (n - 1) / 2
            }
        }
    }

    /// Every switch-to-switch cable once, as (lower port, higher port),
    /// in order of the lower port.
    pub fn links(&self) -> impl Iterator<Item = (PortId, PortId)> + '_ {
        let ports = (0..self.port_count()).map(PortId::from_index);
        ports.filter_map(|a| match self.peer(a) {
            Peer::Port(b) if b > a => Some((a, b)),
            _ => None,
        })
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
            FamilyMeta::Dragonfly { shape, groups } => {
                let (p, a, h) = (
                    shape.hosts_per_router,
                    shape.routers_per_group,
                    shape.globals_per_router,
                );
                let g = *groups as usize;
                let _ = in_port;
                let router = switch.index();
                let (grp, r) = (router / a, router % a);
                let dst_router = dst.index() / p;
                let (grp_d, r_d) = (dst_router / a, dst_router % a);
                if router == dst_router {
                    return (dst.index() % p) as u32;
                }
                if grp == grp_d {
                    return (p + mesh_slot(r, r_d)) as u32;
                }
                // Cross-group: a per-flow stable pick among the channels
                // from grp to grp_d, then reach the gateway router
                // locally.
                let d = (grp_d + g - grp) % g;
                let channels = global_channels(shape, g, d);
                debug_assert!(channels > 0, "validated group counts are connected");
                let i = top_choice(src.index(), dst.index(), channels.max(1));
                let c = d - 1 + i * (g - 1);
                if c / h == r {
                    (p + a - 1 + c % h) as u32
                } else {
                    (p + mesh_slot(r, c / h)) as u32
                }
            }
            FamilyMeta::FullMesh { hosts_per_switch } => {
                let hp = *hosts_per_switch;
                let _ = in_port;
                let (s, s_d) = (switch.index(), dst.index() / hp);
                if s == s_d {
                    (dst.index() % hp) as u32
                } else {
                    (hp + mesh_slot(s, s_d)) as u32
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
            match self.peer(self.port_id(sw, out_port)) {
                Peer::Host(h) => {
                    assert_eq!(h, dst, "route delivered to the wrong host");
                    return out;
                }
                Peer::Port(far) => {
                    sw = self.port_switch(far);
                    in_port = self.port_local(far);
                    out.push(sw);
                }
                #[expect(
                    clippy::panic,
                    reason = "expansion invariant: the minimal router never selects an unwired port on a validated spec; tests walk every family's paths"
                )]
                Peer::Unconnected => {
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
        eat(self.link_count() as u64);
        eat(self.hosts.len() as u64);
        for (_, s) in self.stages.iter() {
            eat(s.level as u64);
            eat(s.switches as u64);
        }
        for port in (0..self.port_count()).map(PortId::from_index) {
            match self.peer(port) {
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

/// The member a mesh member `from` reaches on its mesh slot `slot`, in a
/// full mesh or a dragonfly group's local mesh: the slots skip `from`
/// itself.
fn mesh_neighbour(from: usize, slot: usize) -> usize {
    if slot < from {
        slot
    } else {
        slot + 1
    }
}

/// The mesh slot of member `from` that reaches member `to` ≠ `from`.
fn mesh_slot(from: usize, to: usize) -> usize {
    if to < from {
        to
    } else {
        to - 1
    }
}

/// How many global cables join a dragonfly group of `g` to the group
/// `d` ∈ 1..g ahead of it: the valid i of channel d − 1 + i·(g − 1),
/// whose partner is (g − 1 − d) + i·(g − 1). Both must lie below a·h.
fn global_channels(shape: &DragonflyShape, g: usize, d: usize) -> usize {
    let channels = shape.routers_per_group * shape.globals_per_router;
    let first = (d - 1).max(g - 1 - d);
    channels.saturating_sub(first).div_ceil(g - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    /// Base-m digit `pos` of `index`.
    fn digit(index: usize, pos: u32, m: usize) -> usize {
        (index / m.pow(pos)) % m
    }

    /// Replace base-m digit `pos` of `index` with `value`.
    fn with_digit(index: usize, pos: u32, value: usize, m: usize) -> usize {
        let p = m.pow(pos);
        index - digit(index, pos, m) * p + value * p
    }

    /// The wiring the expansion stored before its closed forms, kept as
    /// their oracle: every port's peer, every cable in wiring order and
    /// every host's port, wired one cable at a time, and a dragonfly's
    /// gateway table.
    struct Arena {
        peers: Vec<Peer>,
        links: Vec<(PortId, PortId)>,
        hosts: Vec<PortId>,
        /// Dragonfly: for each ordered group pair (G, D), G ≠ D, the
        /// G-side ends of every global cable between them, as (gateway
        /// router, local port), ordered by channel. Indexed
        /// `G * groups + D`.
        routes: Vec<Vec<(SwitchId, u32)>>,
    }

    impl Arena {
        fn wire(spec: TopologySpec) -> Arena {
            let ports = spec.switch_count() as usize * spec.radix;
            let mut arena = Arena {
                peers: vec![Peer::Unconnected; ports],
                links: Vec::new(),
                hosts: Vec::new(),
                routes: Vec::new(),
            };
            match spec.family {
                TopologyFamily::FatTree { levels, planes } => {
                    arena.wire_fat_tree(spec.radix, levels, planes as usize)
                }
                TopologyFamily::Dragonfly { groups } => {
                    arena.wire_dragonfly(spec.radix, groups as usize)
                }
                TopologyFamily::FullMesh { switches } => {
                    arena.wire_full_mesh(spec.radix, switches as usize)
                }
            }
            arena
        }

        /// Cable two ports together, recording the link once. Both ports
        /// must still be unconnected.
        fn connect(&mut self, a: usize, b: usize) {
            assert_eq!(self.peers[a], Peer::Unconnected);
            assert_eq!(self.peers[b], Peer::Unconnected);
            let (a, b) = (PortId::from_index(a), PortId::from_index(b));
            self.peers[a.index()] = Peer::Port(b);
            self.peers[b.index()] = Peer::Port(a);
            self.links.push((a, b));
        }

        /// Attach the next host to `port`.
        fn attach_host(&mut self, port: usize) {
            assert_eq!(self.peers[port], Peer::Unconnected);
            self.peers[port] = Peer::Host(HostId::from_index(self.hosts.len()));
            self.hosts.push(PortId::from_index(port));
        }

        /// Up edges, level by level, walking digit l of the level-l
        /// switches: with w = (hi·m + d)·m^l + lo, up-port m + p of w
        /// lands on w[digit l := p] = (hi·m + p)·m^l + lo above, at input
        /// d — or, at the top step, where the planes merge, at input
        /// π·m + d.
        fn wire_fat_tree(&mut self, radix: usize, levels: u32, planes: usize) {
            let m = radix / 2;
            let width = m.pow(levels - 1);
            if levels == 1 {
                for p in 0..planes * m {
                    self.attach_host(p);
                }
                return;
            }
            for leaf in 0..planes * width {
                for p in 0..m {
                    self.attach_host(leaf * radix + p);
                }
            }
            let mut step = 1; // m^l
            for l in 0..levels as usize - 1 {
                let top = l + 2 == levels as usize;
                let (below, above) = (l * planes * width, (l + 1) * planes * width);
                for pi in 0..planes {
                    let from_plane = below + pi * width;
                    let (to_plane, to_input) = match top {
                        true => (above, pi * m),
                        false => (above + pi * width, 0),
                    };
                    for hi in 0..width / (step * m) {
                        for d in 0..m {
                            for lo in 0..step {
                                let from = (from_plane + (hi * m + d) * step + lo) * radix + m;
                                for p in 0..m {
                                    let to = to_plane + (hi * m + p) * step + lo;
                                    self.connect(from + p, to * radix + to_input + d);
                                }
                            }
                        }
                    }
                }
                step *= m;
            }
        }

        fn wire_dragonfly(&mut self, radix: usize, g: usize) {
            let shape = DragonflyShape::for_radix(radix).unwrap();
            let (p, a, h) = (
                shape.hosts_per_router,
                shape.routers_per_group,
                shape.globals_per_router,
            );
            self.routes = vec![Vec::new(); g * g];
            for router in 0..g * a {
                for j in 0..p {
                    self.attach_host(router * radix + j);
                }
            }
            // Local all-to-all within each group: router r's slot t
            // reaches router t (t < r) or t+1 (t ≥ r); wire from the lower
            // id.
            for grp in 0..g {
                for r in 0..a {
                    for u in r + 1..a {
                        let (lo, hi) = (grp * a + r, grp * a + u);
                        self.connect(lo * radix + p + u - 1, hi * radix + p + r);
                    }
                }
            }
            // Global channels, wired from the smaller group id.
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
                        let from_sw = grp * a + c / h;
                        let from_local = p + a - 1 + c % h;
                        let to_sw = dest * a + back / h;
                        let to_local = p + a - 1 + back % h;
                        if dest > grp {
                            self.connect(from_sw * radix + from_local, to_sw * radix + to_local);
                        }
                        let gateway = (SwitchId::from_index(from_sw), from_local as u32);
                        self.routes[grp * g + dest].push(gateway);
                    }
                }
            }
        }

        fn wire_full_mesh(&mut self, radix: usize, n: usize) {
            let hp = radix - (n - 1);
            for s in 0..n {
                for j in 0..hp {
                    self.attach_host(s * radix + j);
                }
            }
            for i in 0..n {
                for j in i + 1..n {
                    self.connect(i * radix + hp + j - 1, j * radix + hp + i);
                }
            }
        }
    }

    /// A spec grid over all three families: every fat tree of radix
    /// 4–64, 1–5 levels and both plane counts up to 2¹⁷ ports, the 32K
    /// dragonfly and small ones from one group to the global-channel
    /// limit, and every full mesh up to radix 16.
    fn spec_grid() -> Vec<TopologySpec> {
        let mut specs = Vec::new();
        for radix in (4..=64).step_by(2) {
            for levels in 1..=5 {
                for spec in [
                    TopologySpec::m_ary_fat_tree(radix, levels),
                    TopologySpec::fat_tree(radix, levels),
                ] {
                    if spec.switch_count() * radix as u64 <= 1 << 17 {
                        specs.push(spec);
                    }
                }
            }
        }
        for radix in 3..=24 {
            let max = DragonflyShape::for_radix(radix).unwrap().max_groups();
            for groups in [1, 2, 3, max / 2, max - 1, max] {
                specs.push(TopologySpec::dragonfly(radix, groups.max(1)));
            }
        }
        specs.push(TopologySpec::dragonfly(64, 64));
        for radix in 1..=16 {
            for switches in 1..=radix as u32 {
                specs.push(TopologySpec::full_mesh(radix, switches));
            }
        }
        specs
    }

    #[test]
    fn closed_form_peer_matches_the_arena_oracle() {
        let mut checked = 0usize;
        for spec in spec_grid() {
            let fab = ExpandedFabric::expand(spec).unwrap();
            let arena = Arena::wire(spec);
            assert_eq!(fab.port_count(), arena.peers.len(), "{spec}");
            for (p, &want) in arena.peers.iter().enumerate() {
                assert_eq!(fab.peer(PortId::from_index(p)), want, "{spec}: port {p}");
            }
            assert_eq!(fab.hosts.values().copied().collect::<Vec<_>>(), arena.hosts);
            let mut cables = arena.links.clone();
            cables.sort();
            assert_eq!(fab.links().collect::<Vec<_>>(), cables, "{spec}");
            assert_eq!(fab.link_count(), arena.links.len(), "{spec}");
            checked += arena.peers.len();
        }
        assert!(checked > 2_800_000, "{checked} ports");
    }

    /// The dragonfly router of the gateway table, kept as the oracle of
    /// the closed-form channel pick.
    fn route_by_table(
        fab: &ExpandedFabric,
        routes: &[Vec<(SwitchId, u32)>],
        sw: SwitchId,
        src: HostId,
        dst: HostId,
    ) -> u32 {
        let FamilyMeta::Dragonfly { shape, groups } = fab.meta else {
            panic!("not a dragonfly");
        };
        let (p, a, g) = (
            shape.hosts_per_router,
            shape.routers_per_group,
            groups as usize,
        );
        let (grp, grp_d) = (sw.index() / a, dst.index() / p / a);
        if grp == grp_d {
            return fab.route(sw, 0, src, dst);
        }
        let list = &routes[grp * g + grp_d];
        let (gw, gw_port) = list[top_choice(src.index(), dst.index(), list.len())];
        if gw == sw {
            gw_port
        } else {
            (p + mesh_slot(sw.index() % a, gw.index() % a)) as u32
        }
    }

    #[test]
    fn closed_form_gateways_match_the_route_table() {
        let mut rng = osmosis_sim::SimRng::seed_from_u64(0xd4a6);
        for (radix, groups) in [
            (3, 3),
            (8, 4),
            (8, 9),
            (11, 7),
            (11, 19),
            (16, 8),
            (16, 33),
            (64, 64),
        ] {
            let spec = TopologySpec::dragonfly(radix, groups);
            let fab = ExpandedFabric::expand(spec).unwrap();
            let routes = Arena::wire(spec).routes;
            let shape = DragonflyShape::for_radix(radix).unwrap();
            let (p, a, h) = (
                shape.hosts_per_router,
                shape.routers_per_group,
                shape.globals_per_router,
            );
            let g = groups as usize;
            // Every (group, group) pair: the table's list is the closed
            // form's channels d − 1 + i·(g − 1), in order.
            for grp in 0..g {
                for dest in (0..g).filter(|&dest| dest != grp) {
                    let d = (dest + g - grp) % g;
                    let closed: Vec<(SwitchId, u32)> = (0..global_channels(&shape, g, d))
                        .map(|i| d - 1 + i * (g - 1))
                        .map(|c| {
                            (
                                SwitchId::from_index(grp * a + c / h),
                                (p + a - 1 + c % h) as u32,
                            )
                        })
                        .collect();
                    assert_eq!(closed, routes[grp * g + dest], "{spec}: {grp} -> {dest}");
                }
            }
            // And the router picks what the table's router picked, at
            // every switch.
            let hosts = fab.hosts.len();
            for sw in fab.switches.ids() {
                for _ in 0..8 {
                    let src = HostId::from_index(rng.index(hosts));
                    let dst = HostId::from_index(rng.index(hosts));
                    if fab.host_attach(dst).0 == sw {
                        continue;
                    }
                    let want = route_by_table(&fab, &routes, sw, src, dst);
                    assert_eq!(
                        fab.route(sw, 0, src, dst),
                        want,
                        "{spec}: {sw} {src} -> {dst}"
                    );
                }
            }
        }
    }

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
            assert_eq!(fab.link_count(), leaves * spines);
            for leaf in 0..leaves {
                let sw = SwitchId::from_index(leaf);
                for s in 0..spines {
                    let up = fab.port_id(sw, (m + s) as u32);
                    let Peer::Port(far) = fab.peer(up) else {
                        panic!("unwired up port");
                    };
                    assert_eq!(fab.port_switch(far).index(), leaves + s);
                    assert_eq!(fab.port_local(far) as usize, leaf);
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
                            fab.peer(fab.port_id(sw, port as u32)),
                            m_ary_peer(radix, levels, level, pos, port),
                            "r{radix} L{levels} ({level},{pos},{port})"
                        );
                    }
                }
            }
        }
    }

    /// The up-edge cables of a fat tree as the per-cable digit rule of
    /// the module docs states them, in wiring order: the oracle of the
    /// nested digit walk.
    fn cables_by_digits(radix: usize, levels: u32, planes: usize) -> Vec<(usize, usize)> {
        let (m, top) = (radix / 2, levels as usize - 1);
        let width = m.pow(top as u32);
        let first = |level: usize| level * planes * width;
        let mut cables = Vec::new();
        for l in 0..top {
            for pi in 0..planes {
                for w in 0..width {
                    for p in 0..m {
                        let (to, input) = match l + 1 < top {
                            true => (first(l + 1) + pi * width, digit(w, l as u32, m)),
                            false => (first(top), pi * m + digit(w, l as u32, m)),
                        };
                        let to = to + with_digit(w, l as u32, p, m);
                        let from = first(l) + pi * width + w;
                        cables.push((from * radix + m + p, to * radix + input));
                    }
                }
            }
        }
        cables
    }

    /// The oracle's digit walk wires exactly the cables the per-cable
    /// digit rule states, in its order.
    #[test]
    fn digit_walk_wires_what_the_digit_rule_states() {
        for (radix, levels, planes) in [
            (4usize, 2u32, 1usize),
            (4, 2, 2),
            (6, 3, 2),
            (8, 3, 1),
            (4, 5, 2),
            (6, 4, 1),
            (10, 3, 2),
        ] {
            let spec = match planes {
                1 => TopologySpec::m_ary_fat_tree(radix, levels),
                _ => TopologySpec::fat_tree(radix, levels),
            };
            let walked: Vec<(usize, usize)> = Arena::wire(spec)
                .links
                .iter()
                .map(|&(a, b)| (a.index(), b.index()))
                .collect();
            assert_eq!(walked, cables_by_digits(radix, levels, planes), "{spec}");
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
            for id in (0..fab.port_count()).map(PortId::from_index) {
                match fab.peer(id) {
                    Peer::Unconnected => {}
                    Peer::Host(h) => assert_eq!(fab.hosts[h], id),
                    Peer::Port(far) => assert_eq!(fab.peer(far), Peer::Port(id)),
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
        assert_eq!(fab.link_count(), 5 * 4 / 2);
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
            let peers = |fab: &ExpandedFabric| -> Vec<Peer> {
                (0..fab.port_count())
                    .map(|p| fab.peer(PortId::from_index(p)))
                    .collect()
            };
            assert_eq!(peers(&a), peers(&b));
        }
    }

    #[test]
    fn large_instances_expand() {
        // The ≥ 32768-port acceptance instances, and one of each family:
        // every table holds what the spec's closed forms promise, the
        // cables within their bound.
        let big = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(64, 3)).unwrap();
        assert_eq!(big.hosts.len(), 32_768);
        let df = ExpandedFabric::expand(TopologySpec::dragonfly(64, 64)).unwrap();
        assert_eq!(df.hosts.len(), 32_768);
        assert_eq!(df.switches.len(), 2_048);
        for fab in [
            big,
            df,
            ExpandedFabric::expand(TopologySpec::fat_tree(32, 3)).unwrap(),
            ExpandedFabric::expand(TopologySpec::fat_tree(8, 1)).unwrap(),
            ExpandedFabric::expand(TopologySpec::full_mesh(16, 9)).unwrap(),
        ] {
            let spec = *fab.spec();
            let switches = spec.switch_count() as usize;
            assert_eq!(fab.switches.len(), switches, "{spec}");
            assert_eq!(fab.port_count(), switches * spec.radix, "{spec}");
            assert_eq!(fab.hosts.len() as u64, spec.hosts(), "{spec}");
            let free_ports = fab.port_count() - fab.hosts.len();
            assert!(fab.link_count() <= free_ports / 2, "{spec}");
        }
    }
}
