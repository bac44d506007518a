//! Declarative topology specifications — the compiler's source language.
//!
//! A [`TopologySpec`] is a compact, serializable description of a fabric:
//! family (fat-tree / dragonfly / full-mesh), switch radix, scale knob
//! (levels / groups / switch count) and the link, buffer and scheduling
//! parameters every simulated instance needs. The expansion pass in
//! [`crate::expand`] turns a spec deterministically into a complete typed
//! fabric graph; the closed-form accessors here (host count, stage count)
//! agree with the expanded instance by construction and are checked by
//! property tests.
//!
//! Specs parse from a one-line grammar so a single CLI flag can select
//! topology family and scale:
//!
//! ```text
//! fat-tree:radix=64,levels=2            # the §V 2048-port instance
//! fat-tree:radix=64,levels=3,planes=1   # 32768-port m-ary variant
//! dragonfly:radix=64,groups=64          # 32768 hosts, 2048 routers
//! full-mesh:radix=64,switches=32        # §VI.C's flat alternative
//! ```
//!
//! The per-flow hash functions used by every router live here too, as the
//! single source of truth: [`top_choice`] is the two-level spine hash of
//! §V (per-flow stable, so Table 1's ordering requirement survives the
//! multipath) and [`up_choice`] the per-level ascent hash of deeper
//! folded Clos fabrics. The hand-built two-level simulator, the
//! closed-form path arithmetic and the compiled expansion share these bit
//! for bit — the pinned fingerprints rest on that.

use core::fmt;
use core::str::FromStr;

/// Where a stage keeps its buffers, and so where its credit check and
/// its request/grant path sit (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Option 1: buffers at inputs *and* outputs of every stage. A
    /// matched cell moves to an egress queue and the credit check is made
    /// there; simple flow control, but twice the OEO conversions.
    InputAndOutput,
    /// Option 2: output buffers only — the request/grant protocol crosses
    /// the long upstream cable, adding a round trip to every scheduling
    /// decision.
    OutputOnly,
    /// Option 3 (the paper's choice): input buffers only; request/grant
    /// stays inside the switch, the buffers absorb the upstream RTT.
    InputOnly,
}

impl Placement {
    /// The three options, in the paper's order.
    pub const ALL: [Placement; 3] = [
        Placement::InputAndOutput,
        Placement::OutputOnly,
        Placement::InputOnly,
    ];

    /// The paper's number for the option: the value of the spec key
    /// `placement=`.
    pub fn option(self) -> u64 {
        match self {
            Placement::InputAndOutput => 1,
            Placement::OutputOnly => 2,
            Placement::InputOnly => 3,
        }
    }

    /// OEO conversion points per stage (the §IV.A cost argument).
    pub fn oeo_per_stage(self) -> u32 {
        match self {
            Placement::InputAndOutput => 2,
            Placement::OutputOnly | Placement::InputOnly => 1,
        }
    }
}

/// The technology realizing each switch's input buffers — the fourth
/// axis the FDL study adds to the Fig. 2 placement argument. Not a spec
/// key: it is chosen where the fabric is built
/// ([`CompiledFabric::with_buffer_tech`](crate::CompiledFabric::with_buffer_tech)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferTech {
    /// Electronic virtual output queues (the paper's premise: every
    /// buffered stage pays an OEO conversion). Lossless by credit flow
    /// control.
    Electronic,
    /// Emulated optical fiber-delay-line queues (`osmosis-fdl`): cells
    /// stay in fiber, recirculating through a Tang-style delay-line
    /// bank per input. FIFO per input (head-of-line blocking across
    /// outputs), typed losses under delay-line faults. Needs
    /// [`Placement::InputOnly`] and a one-slot request/grant cycle.
    Fdl,
}

impl BufferTech {
    /// Short stable label (campaign axes, bench tables, JSON).
    pub fn name(self) -> &'static str {
        match self {
            BufferTech::Electronic => "electronic",
            BufferTech::Fdl => "fdl",
        }
    }
}

/// FNV-1a accumulation over `words`, finalized with one SplitMix64 round.
///
/// Raw FNV low bits are poorly mixed for tiny moduli (with m = 2 the raw
/// low bit concentrates 4× the average load on some links); the finalizer
/// fixes the distribution. Both flow hashes build on this.
pub fn flow_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in words {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The stable per-flow choice among `n` equivalent top-level paths
/// (spines, global channels): the §V spine hash.
pub fn top_choice(src: usize, dst: usize, n: usize) -> usize {
    debug_assert!(n > 0);
    ((flow_hash(&[src as u64, dst as u64]) >> 32) % n as u64) as usize
}

/// The stable per-flow up-port choice among `m` uplinks at ascent step
/// `level` of a folded Clos.
pub fn up_choice(src: usize, dst: usize, level: u32, m: usize) -> usize {
    debug_assert!(m > 0);
    ((flow_hash(&[src as u64, dst as u64, level as u64]) >> 32) % m as u64) as usize
}

/// Why a [`TopologySpec`] (or a topology constructor argument) was
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The switch radix is unusable for the requested family.
    InvalidRadix {
        /// The rejected radix.
        radix: usize,
        /// The smallest radix the family accepts.
        min: usize,
        /// Whether the family additionally needs an even radix.
        even: bool,
    },
    /// Fat trees need between 1 and 16 levels.
    InvalidLevels {
        /// The rejected level count.
        levels: u32,
    },
    /// Fat trees come in 1-plane (m-ary) or 2-plane (full folded-Clos)
    /// variants only.
    InvalidPlanes {
        /// The rejected plane count.
        planes: u32,
    },
    /// Dragonfly group count out of range for the radix.
    InvalidGroups {
        /// The rejected group count.
        groups: u32,
        /// The largest balanced group count the radix supports (a·h + 1).
        max: u32,
    },
    /// Full-mesh switch count out of range for the radix (each switch
    /// needs `switches − 1` mesh ports and ≥ 1 host port).
    InvalidMeshSize {
        /// The rejected switch count.
        switches: u32,
        /// The radix it was checked against.
        radix: usize,
    },
    /// No fat tree of this radix reaches the requested port count within
    /// the supported level range.
    UnreachablePortCount {
        /// The radix searched.
        radix: usize,
        /// The unreachable port target.
        ports: u64,
    },
    /// The expansion would overflow the dense `u32` id space, or its
    /// radix the 16-bit per-port pointers.
    TooLarge {
        /// Which entity table overflowed.
        entity: &'static str,
        /// The computed entity count.
        count: u64,
    },
    /// Links need at least one slot of flight time.
    ZeroLinkDelay,
    /// Input buffers need at least one cell of capacity.
    ZeroBuffer,
    /// Schedulers need at least one matching iteration.
    ZeroIterations,
    /// FDL input stages need input-only placement and `rg=1`: a bank's
    /// shortest delay line is the one-slot local request/grant cycle, and
    /// it has no egress stage and no per-cell control round trip.
    UnsupportedFdl {
        /// The spec's placement.
        placement: Placement,
        /// The spec's request/grant delay.
        request_grant: u64,
    },
    /// The spec string did not parse.
    Parse(
        /// What was wrong with it.
        String,
    ),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidRadix { radix, min, even } => {
                let parity = if *even { "an even number" } else { "a number" };
                write!(f, "switch radix {radix} is not {parity} >= {min}")
            }
            TopologyError::InvalidLevels { levels } => {
                write!(f, "fat-tree level count {levels} is outside 1..=16")
            }
            TopologyError::InvalidPlanes { planes } => {
                write!(f, "fat-tree plane count {planes} is not 1 or 2")
            }
            TopologyError::InvalidGroups { groups, max } => {
                write!(f, "dragonfly group count {groups} is outside 1..={max}")
            }
            TopologyError::InvalidMeshSize { switches, radix } => {
                write!(
                    f,
                    "full-mesh switch count {switches} is outside 1..={radix} \
                     for radix {radix}"
                )
            }
            TopologyError::UnreachablePortCount { radix, ports } => {
                write!(f, "no radix-{radix} fat tree reaches {ports} ports")
            }
            TopologyError::TooLarge {
                entity: "radix",
                count,
            } => {
                write!(f, "radix {count} overflows the 16-bit port pointers")
            }
            TopologyError::TooLarge { entity, count } => {
                write!(f, "{count} {entity} overflow the dense u32 id space")
            }
            TopologyError::ZeroLinkDelay => {
                write!(f, "links need at least one slot of flight time")
            }
            TopologyError::ZeroBuffer => {
                write!(f, "input buffers need at least one cell of capacity")
            }
            TopologyError::ZeroIterations => {
                write!(f, "schedulers need at least one matching iteration")
            }
            TopologyError::UnsupportedFdl {
                placement,
                request_grant,
            } => {
                write!(
                    f,
                    "FDL input stages need placement=3 and rg=1, \
                     not {placement:?} and rg={request_grant}"
                )
            }
            TopologyError::Parse(why) => write!(f, "bad topology spec: {why}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The topology family and its scale knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// A folded Clos of `levels` levels. With `planes == 2` this is the
    /// full fat tree (2·(k/2)^L hosts; at L = 2 exactly the §V
    /// leaf–spine instance); with `planes == 1` the m-ary variant
    /// ((k/2)^L hosts, the top level's up-side unused) whose closed-form
    /// arithmetic is [`crate::multilevel::MultiLevelClos`].
    FatTree {
        /// Switch levels (≥ 1).
        levels: u32,
        /// Wiring planes below the top level: 1 or 2.
        planes: u32,
    },
    /// A dragonfly of `groups` groups in the balanced a = 2p = 2h
    /// configuration derived from the radix.
    Dragonfly {
        /// Number of groups (1..= a·h + 1).
        groups: u32,
    },
    /// A single stage of `switches` fully interconnected switches — the
    /// flat alternative whose port count the paper's §VI.C scaling
    /// argument shows cannot reach fabric scale.
    FullMesh {
        /// Number of switches (1..= radix).
        switches: u32,
    },
}

/// Input-buffer sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferSizing {
    /// Size each input buffer for the credit-loop round trip:
    /// 2·link_delay + 2 cells (the Fig. 4 law — never throttles).
    RttSized,
    /// A fixed capacity in cells.
    Cells(usize),
}

/// The balanced dragonfly shape derived from a switch radix: p hosts,
/// a − 1 local ports and h global ports per router with a = 2h, p = h.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonflyShape {
    /// Hosts per router (p).
    pub hosts_per_router: usize,
    /// Routers per group (a).
    pub routers_per_group: usize,
    /// Global channels per router (h).
    pub globals_per_router: usize,
}

impl DragonflyShape {
    /// The balanced shape for `radix`: h = ⌊(radix + 1) / 4⌋, a = 2h,
    /// p = h, using p + (a − 1) + h = 4h − 1 ≤ radix ports per router.
    pub fn for_radix(radix: usize) -> Result<Self, TopologyError> {
        let h = (radix + 1) / 4;
        if h == 0 {
            return Err(TopologyError::InvalidRadix {
                radix,
                min: 3,
                even: false,
            });
        }
        Ok(DragonflyShape {
            hosts_per_router: h,
            routers_per_group: 2 * h,
            globals_per_router: h,
        })
    }

    /// The largest balanced group count: every router's h global channels
    /// reaching a distinct group → a·h + 1 groups.
    pub fn max_groups(&self) -> u32 {
        (self.routers_per_group * self.globals_per_router + 1) as u32
    }
}

/// A declarative fabric description, deterministically expandable into an
/// [`crate::expand::ExpandedFabric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Family and scale.
    pub family: TopologyFamily,
    /// Switch radix — identical in every stage (§IV.A).
    pub radix: usize,
    /// One-way link flight time in cell slots.
    pub link_delay: u64,
    /// Input-buffer sizing.
    pub buffer: BufferSizing,
    /// Matching iterations per switch per slot.
    pub iterations: usize,
    /// Buffer placement (Fig. 2 option): where the credit check sits,
    /// and whether requests cross the cable.
    pub placement: Placement,
    /// Slots of the local request/grant cycle: a cell that lands in a
    /// buffer in slot t is schedulable at t + `request_grant` (plus the
    /// control round trip 2·`link_delay` under option 2). The paper's
    /// §V timing is 1; 0 schedules a cell in the slot it lands.
    pub request_grant: u64,
}

impl TopologySpec {
    /// A full fat tree (2 planes) of `levels` levels: 2·(k/2)^L hosts.
    pub fn fat_tree(radix: usize, levels: u32) -> Self {
        TopologySpec {
            family: TopologyFamily::FatTree { levels, planes: 2 },
            radix,
            link_delay: 2,
            buffer: BufferSizing::RttSized,
            iterations: 3,
            placement: Placement::InputOnly,
            request_grant: 0,
        }
    }

    /// This family, radix and scale as its constructor builds them: every
    /// link, buffer and scheduling parameter at its default. What
    /// `Display` prints nothing for.
    pub fn shape(&self) -> Self {
        TopologySpec {
            family: self.family,
            ..Self::fat_tree(self.radix, 1)
        }
    }

    /// The two-level leaf–spine instance of §V (k²/2 hosts).
    pub fn two_level(radix: usize) -> Self {
        Self::fat_tree(radix, 2)
    }

    /// The 1-plane m-ary folded Clos: (k/2)^L hosts, m^(L−1) switches
    /// in every level.
    pub fn m_ary_fat_tree(radix: usize, levels: u32) -> Self {
        TopologySpec {
            family: TopologyFamily::FatTree { levels, planes: 1 },
            ..Self::fat_tree(radix, levels)
        }
    }

    /// A balanced dragonfly of `groups` groups.
    pub fn dragonfly(radix: usize, groups: u32) -> Self {
        TopologySpec {
            family: TopologyFamily::Dragonfly { groups },
            ..Self::fat_tree(radix, 1)
        }
    }

    /// A full mesh of `switches` switches.
    pub fn full_mesh(radix: usize, switches: u32) -> Self {
        TopologySpec {
            family: TopologyFamily::FullMesh { switches },
            ..Self::fat_tree(radix, 1)
        }
    }

    /// Replace the link flight time.
    pub fn with_link_delay(mut self, slots: u64) -> Self {
        self.link_delay = slots;
        self
    }

    /// Replace the buffer sizing with a fixed capacity.
    pub fn with_buffer_cells(mut self, cells: usize) -> Self {
        self.buffer = BufferSizing::Cells(cells);
        self
    }

    /// Replace the matching iteration count.
    pub fn with_iterations(mut self, iters: usize) -> Self {
        self.iterations = iters;
        self
    }

    /// Replace the buffer placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Replace the request/grant delay.
    pub fn with_request_grant(mut self, slots: u64) -> Self {
        self.request_grant = slots;
        self
    }

    /// Check every parameter, returning the first violation.
    pub fn validate(&self) -> Result<(), TopologyError> {
        match self.family {
            TopologyFamily::FatTree { levels, planes } => {
                if self.radix < 4 || !self.radix.is_multiple_of(2) {
                    return Err(TopologyError::InvalidRadix {
                        radix: self.radix,
                        min: 4,
                        even: true,
                    });
                }
                if !(1..=16).contains(&levels) {
                    return Err(TopologyError::InvalidLevels { levels });
                }
                if !(1..=2).contains(&planes) {
                    return Err(TopologyError::InvalidPlanes { planes });
                }
            }
            TopologyFamily::Dragonfly { groups } => {
                let shape = DragonflyShape::for_radix(self.radix)?;
                if groups < 1 || groups > shape.max_groups() {
                    return Err(TopologyError::InvalidGroups {
                        groups,
                        max: shape.max_groups(),
                    });
                }
            }
            TopologyFamily::FullMesh { switches } => {
                if self.radix < 1 {
                    return Err(TopologyError::InvalidRadix {
                        radix: self.radix,
                        min: 1,
                        even: false,
                    });
                }
                if switches < 1 || switches as u64 > self.radix as u64 {
                    return Err(TopologyError::InvalidMeshSize {
                        switches,
                        radix: self.radix,
                    });
                }
            }
        }
        // A switch's round-robin pointers are 16-bit.
        if self.radix > u16::MAX as usize {
            return Err(TopologyError::TooLarge {
                entity: "radix",
                count: self.radix as u64,
            });
        }
        let hosts = self.hosts();
        if hosts > u32::MAX as u64 {
            return Err(TopologyError::TooLarge {
                entity: "hosts",
                count: hosts,
            });
        }
        let ports = self.switch_count() * self.radix as u64;
        if ports > u32::MAX as u64 {
            return Err(TopologyError::TooLarge {
                entity: "ports",
                count: ports,
            });
        }
        if self.link_delay < 1 {
            return Err(TopologyError::ZeroLinkDelay);
        }
        if let BufferSizing::Cells(0) = self.buffer {
            return Err(TopologyError::ZeroBuffer);
        }
        if self.iterations < 1 {
            return Err(TopologyError::ZeroIterations);
        }
        Ok(())
    }

    /// Host count in closed form (for a valid spec; saturating on
    /// overflow so [`validate`](Self::validate) can report it).
    pub fn hosts(&self) -> u64 {
        let k = self.radix as u64;
        match self.family {
            TopologyFamily::FatTree { levels, planes } => (k / 2)
                .checked_pow(levels)
                .and_then(|n| n.checked_mul(planes as u64))
                .unwrap_or(u64::MAX),
            TopologyFamily::Dragonfly { groups } => match DragonflyShape::for_radix(self.radix) {
                Ok(s) => groups as u64 * s.routers_per_group as u64 * s.hosts_per_router as u64,
                Err(_) => 0,
            },
            TopologyFamily::FullMesh { switches } => {
                let n = switches as u64;
                n * (k + 1).saturating_sub(n)
            }
        }
    }

    /// Switch count in closed form (saturating on overflow).
    pub fn switch_count(&self) -> u64 {
        let m = (self.radix / 2) as u64;
        match self.family {
            TopologyFamily::FatTree { levels, planes } => {
                // (L−1) plane levels of planes·m^(L−1) switches plus one
                // merged top level of m^(L−1); L = 1 degenerates to one
                // switch.
                let per_level = m.checked_pow(levels.saturating_sub(1)).unwrap_or(u64::MAX);
                per_level.saturating_mul((levels.saturating_sub(1) as u64) * planes as u64 + 1)
            }
            TopologyFamily::Dragonfly { groups } => match DragonflyShape::for_radix(self.radix) {
                Ok(s) => groups as u64 * s.routers_per_group as u64,
                Err(_) => 0,
            },
            TopologyFamily::FullMesh { switches } => switches as u64,
        }
    }

    /// Switch stages on the longest minimal route (the §VI.C comparison
    /// quantity): 2L−1 for fat trees, up to 4 for a dragonfly
    /// (router → gateway → remote gateway → destination router), 2 for a
    /// mesh.
    pub fn stages(&self) -> u32 {
        match self.family {
            TopologyFamily::FatTree { levels, .. } => 2 * levels.max(1) - 1,
            TopologyFamily::Dragonfly { groups } => {
                if groups == 1 {
                    2
                } else {
                    4
                }
            }
            TopologyFamily::FullMesh { switches } => {
                if switches == 1 {
                    1
                } else {
                    2
                }
            }
        }
    }

    /// Wavelength planes a fault plan can take down: the groups of
    /// top-stage switches behind each up-port of the stage below them —
    /// `radix / 2` in a fat tree of two or more levels (at two levels,
    /// the §V spines), none elsewhere.
    pub fn wavelength_planes(&self) -> usize {
        match self.family {
            TopologyFamily::FatTree { levels, .. } if levels >= 2 => self.radix / 2,
            _ => 0,
        }
    }

    /// Concrete input-buffer capacity in cells.
    pub fn buffer_cells(&self) -> usize {
        match self.buffer {
            BufferSizing::RttSized => (2 * self.link_delay + 2) as usize,
            BufferSizing::Cells(n) => n,
        }
    }
}

impl fmt::Display for TopologySpec {
    /// The family and scale, then every key that differs from the
    /// family constructor's default ([`shape`](TopologySpec::shape)):
    /// the string parses back to this spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family {
            TopologyFamily::FatTree { levels, planes } => {
                write!(
                    f,
                    "fat-tree:radix={},levels={levels},planes={planes}",
                    self.radix
                )?;
            }
            TopologyFamily::Dragonfly { groups } => {
                write!(f, "dragonfly:radix={},groups={groups}", self.radix)?;
            }
            TopologyFamily::FullMesh { switches } => {
                write!(f, "full-mesh:radix={},switches={switches}", self.radix)?;
            }
        }
        let default = self.shape();
        if self.link_delay != default.link_delay {
            write!(f, ",delay={}", self.link_delay)?;
        }
        if let BufferSizing::Cells(cells) = self.buffer {
            write!(f, ",buffer={cells}")?;
        }
        if self.iterations != default.iterations {
            write!(f, ",iters={}", self.iterations)?;
        }
        if self.placement != default.placement {
            write!(f, ",placement={}", self.placement.option())?;
        }
        if self.request_grant != default.request_grant {
            write!(f, ",rg={}", self.request_grant)?;
        }
        Ok(())
    }
}

impl FromStr for TopologySpec {
    type Err = TopologyError;

    /// Parse `family:key=value,...`. Families: `fat-tree` (keys `radix`,
    /// `levels`, optional `planes`), `dragonfly` (`radix`, `groups`),
    /// `full-mesh` (`radix`, `switches`). Optional everywhere: `delay`,
    /// `buffer` (`rtt` or a cell count), `iters`, `placement` (the
    /// Fig. 2 option, 1 to 3), `rg`.
    fn from_str(s: &str) -> Result<Self, TopologyError> {
        let bad = |why: String| TopologyError::Parse(why);
        let (family, rest) = s
            .split_once(':')
            .ok_or_else(|| bad(format!("missing ':' in {s:?}")))?;
        let mut radix: Option<usize> = None;
        let mut levels: Option<u32> = None;
        let mut planes: Option<u32> = None;
        let mut groups: Option<u32> = None;
        let mut switches: Option<u32> = None;
        let mut delay: Option<u64> = None;
        let mut buffer: Option<BufferSizing> = None;
        let mut iters: Option<usize> = None;
        let mut placement: Option<Placement> = None;
        let mut rg: Option<u64> = None;
        for kv in rest.split(',').filter(|kv| !kv.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("missing '=' in {kv:?}")))?;
            let num = || -> Result<u64, TopologyError> {
                value
                    .parse::<u64>()
                    .map_err(|_| bad(format!("{key}={value:?} is not a number")))
            };
            match key {
                "radix" => radix = Some(num()? as usize),
                "levels" => levels = Some(num()? as u32),
                "planes" => planes = Some(num()? as u32),
                "groups" => groups = Some(num()? as u32),
                "switches" => switches = Some(num()? as u32),
                "delay" => delay = Some(num()?),
                "iters" => iters = Some(num()? as usize),
                "rg" => rg = Some(num()?),
                "placement" => {
                    let option = num()?;
                    let known = Placement::ALL.into_iter().find(|p| p.option() == option);
                    placement =
                        Some(known.ok_or_else(|| bad(format!("placement={value} is not 1..=3")))?)
                }
                "buffer" => {
                    buffer = Some(if value == "rtt" {
                        BufferSizing::RttSized
                    } else {
                        BufferSizing::Cells(num()? as usize)
                    })
                }
                _ => return Err(bad(format!("unknown key {key:?}"))),
            }
        }
        let radix = radix.ok_or_else(|| bad("missing radix=".into()))?;
        let mut spec = match family {
            "fat-tree" => {
                let levels = levels.ok_or_else(|| bad("fat-tree needs levels=".into()))?;
                match planes {
                    Some(1) => TopologySpec::m_ary_fat_tree(radix, levels),
                    None | Some(2) => TopologySpec::fat_tree(radix, levels),
                    Some(p) => return Err(TopologyError::InvalidPlanes { planes: p }),
                }
            }
            "dragonfly" => {
                let groups = groups.ok_or_else(|| bad("dragonfly needs groups=".into()))?;
                TopologySpec::dragonfly(radix, groups)
            }
            "full-mesh" => {
                let switches = switches.ok_or_else(|| bad("full-mesh needs switches=".into()))?;
                TopologySpec::full_mesh(radix, switches)
            }
            other => return Err(bad(format!("unknown family {other:?}"))),
        };
        if let Some(d) = delay {
            spec.link_delay = d;
        }
        if let Some(b) = buffer {
            spec.buffer = b;
        }
        if let Some(i) = iters {
            spec.iterations = i;
        }
        if let Some(p) = placement {
            spec.placement = p;
        }
        if let Some(slots) = rg {
            spec.request_grant = slots;
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A valid spec of any family with any combination of the optional
    /// keys at or away from its default.
    fn any_valid_spec() -> impl Strategy<Value = TopologySpec> {
        let family = (0usize..4, 2usize..=8, 1u32..=3, 0u32..40);
        let keys = (
            1u64..=6,
            0usize..=12,
            1usize..=4,
            0usize..3,
            prop::sample::select(vec![0u64, 0, 1, 2, 7]),
        );
        (family, keys).prop_map(|((kind, half, levels, scale), keys)| {
            let radix = 2 * half;
            let shape = match kind {
                0 => TopologySpec::fat_tree(radix, levels),
                1 => TopologySpec::m_ary_fat_tree(radix, levels),
                2 => {
                    let max = DragonflyShape::for_radix(radix).unwrap().max_groups();
                    TopologySpec::dragonfly(radix, 1 + scale % max)
                }
                _ => TopologySpec::full_mesh(radix, 1 + scale % radix as u32),
            };
            let (link_delay, buffer, iterations, placement, request_grant) = keys;
            let spec = TopologySpec {
                link_delay,
                iterations,
                placement: Placement::ALL[placement],
                request_grant,
                ..shape
            };
            match buffer {
                0 => spec,
                cells => spec.with_buffer_cells(cells),
            }
        })
    }

    proptest! {
        /// `Display` is the serialization campaigns key and checkpoint by:
        /// a key it dropped would run with its default in every worker,
        /// and make two different campaigns share checkpoints.
        #[test]
        fn a_spec_prints_to_a_string_that_parses_back_to_it(spec in any_valid_spec()) {
            prop_assert_eq!(spec.validate(), Ok(()));
            prop_assert_eq!(spec.to_string().parse(), Ok(spec), "{}", spec);
        }
    }

    #[test]
    fn default_specs_print_as_they_always_did() {
        // Every constructor's default, and with them the strings
        // campaigns and the benchmark's fabric workloads are keyed by.
        for (spec, text) in [
            (
                TopologySpec::two_level(64),
                "fat-tree:radix=64,levels=2,planes=2",
            ),
            (
                TopologySpec::fat_tree(32, 3),
                "fat-tree:radix=32,levels=3,planes=2",
            ),
            (
                TopologySpec::m_ary_fat_tree(8, 4),
                "fat-tree:radix=8,levels=4,planes=1",
            ),
            (
                TopologySpec::dragonfly(64, 16),
                "dragonfly:radix=64,groups=16",
            ),
            (
                TopologySpec::full_mesh(8, 5),
                "full-mesh:radix=8,switches=5",
            ),
        ] {
            assert_eq!(spec.to_string(), text);
            assert_eq!(text.parse(), Ok(spec));
            assert_eq!(spec.shape(), spec);
        }
        // Away from the defaults every key shows, in one order.
        let spec = TopologySpec::two_level(8)
            .with_link_delay(5)
            .with_buffer_cells(9)
            .with_iterations(2)
            .with_placement(Placement::OutputOnly)
            .with_request_grant(1);
        let text = "fat-tree:radix=8,levels=2,planes=2,delay=5,buffer=9,iters=2,placement=2,rg=1";
        assert_eq!(spec.to_string(), text);
        assert_eq!(spec.shape(), TopologySpec::two_level(8));
        assert!("fat-tree:radix=8,levels=2,placement=4"
            .parse::<TopologySpec>()
            .is_err());
    }

    #[test]
    fn flow_hashes_match_the_closed_form_clos() {
        // The ascent hash must equal MultiLevelClos::up_choice — the
        // pinned m-ary fingerprints rest on this.
        let c = crate::multilevel::MultiLevelClos::new(6, 3);
        for src in 0..c.hosts() {
            let dst = (src * 5 + 1) % c.hosts();
            for level in 0..2 {
                assert_eq!(
                    up_choice(src, dst, level, c.m()),
                    c.up_choice(src, dst, level)
                );
            }
        }
    }

    #[test]
    fn flows_spread_over_spines() {
        // The §V spine hash at radix 16: stable per flow, and all 128² of
        // them within 10 % of an even split over the 8 spines.
        let (hosts, spines) = (128, 8);
        let mut counts = vec![0u32; spines];
        for src in 0..hosts {
            for dst in 0..hosts {
                let s = top_choice(src, dst, spines);
                assert_eq!(s, top_choice(src, dst, spines), "stable per flow");
                counts[s] += 1;
            }
        }
        let expect = (hosts * hosts / spines) as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.1,
                "spine load skew: {counts:?}"
            );
        }
    }

    #[test]
    fn closed_forms_match_paper_instances() {
        assert_eq!(TopologySpec::two_level(64).hosts(), 2_048);
        assert_eq!(TopologySpec::two_level(64).switch_count(), 64 + 32);
        assert_eq!(TopologySpec::fat_tree(32, 3).hosts(), 8_192);
        assert_eq!(TopologySpec::m_ary_fat_tree(64, 3).hosts(), 32_768);
        assert_eq!(TopologySpec::fat_tree(8, 5).hosts(), 2_048);
        // Balanced dragonfly at radix 64: h = p = 16, a = 32.
        let s = DragonflyShape::for_radix(64).unwrap();
        assert_eq!((s.hosts_per_router, s.routers_per_group), (16, 32));
        assert_eq!(s.max_groups(), 513);
        assert_eq!(TopologySpec::dragonfly(64, 64).hosts(), 32_768);
        assert_eq!(TopologySpec::dragonfly(64, 16).hosts(), 8_192);
        assert_eq!(TopologySpec::full_mesh(64, 32).hosts(), 32 * 33);
    }

    #[test]
    fn stage_counts() {
        assert_eq!(TopologySpec::two_level(64).stages(), 3);
        assert_eq!(TopologySpec::fat_tree(8, 5).stages(), 9);
        assert_eq!(TopologySpec::dragonfly(64, 64).stages(), 4);
        assert_eq!(TopologySpec::dragonfly(64, 1).stages(), 2);
        assert_eq!(TopologySpec::full_mesh(64, 32).stages(), 2);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(
            TopologySpec::fat_tree(7, 2).validate(),
            Err(TopologyError::InvalidRadix { .. })
        ));
        assert!(matches!(
            TopologySpec::fat_tree(8, 0).validate(),
            Err(TopologyError::InvalidLevels { .. })
        ));
        assert!(matches!(
            TopologySpec::dragonfly(64, 514).validate(),
            Err(TopologyError::InvalidGroups { max: 513, .. })
        ));
        assert!(matches!(
            TopologySpec::full_mesh(8, 9).validate(),
            Err(TopologyError::InvalidMeshSize { .. })
        ));
        assert!(matches!(
            TopologySpec::two_level(8).with_link_delay(0).validate(),
            Err(TopologyError::ZeroLinkDelay)
        ));
        assert!(matches!(
            TopologySpec::two_level(8).with_buffer_cells(0).validate(),
            Err(TopologyError::ZeroBuffer)
        ));
        assert!(matches!(
            TopologySpec::fat_tree(1 << 20, 3).validate(),
            Err(TopologyError::TooLarge { .. })
        ));
        // The radix bound is its own: a two-switch mesh has few ports
        // and hosts, but 2¹⁶ of them on a switch overflow its pointers.
        for spec in [
            TopologySpec::full_mesh(1 << 16, 2),
            TopologySpec::fat_tree(1 << 16, 1),
        ] {
            assert_eq!(
                spec.validate(),
                Err(TopologyError::TooLarge {
                    entity: "radix",
                    count: 1 << 16
                }),
                "{spec}"
            );
        }
        assert!(TopologySpec::full_mesh(u16::MAX as usize, 2)
            .validate()
            .is_ok());
        assert!(TopologySpec::two_level(64).validate().is_ok());
    }

    #[test]
    fn spec_strings_round_trip() {
        for text in [
            "fat-tree:radix=64,levels=2,planes=2",
            "fat-tree:radix=64,levels=3,planes=1",
            "dragonfly:radix=64,groups=64",
            "full-mesh:radix=64,switches=32",
        ] {
            let spec: TopologySpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            let again: TopologySpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
        // Optional keys apply.
        let spec: TopologySpec = "fat-tree:radix=8,levels=2,delay=5,buffer=9,iters=2"
            .parse()
            .unwrap();
        assert_eq!(spec.link_delay, 5);
        assert_eq!(spec.buffer_cells(), 9);
        assert_eq!(spec.iterations, 2);
        // RTT sizing: 2d+2.
        let spec: TopologySpec = "fat-tree:radix=8,levels=2,delay=3,buffer=rtt"
            .parse()
            .unwrap();
        assert_eq!(spec.buffer_cells(), 8);
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "fat-tree",
            "ring:radix=8",
            "fat-tree:radix=8",
            "fat-tree:radix=8,levels=two",
            "fat-tree:radix=8,levels=2,color=red",
            "dragonfly:radix=64",
        ] {
            assert!(bad.parse::<TopologySpec>().is_err(), "{bad}");
        }
        assert!(matches!(
            "fat-tree:radix=8,levels=2,planes=3".parse::<TopologySpec>(),
            Err(TopologyError::InvalidPlanes { planes: 3 })
        ));
        // Validation runs at parse time.
        assert!(matches!(
            "full-mesh:radix=8,switches=20".parse::<TopologySpec>(),
            Err(TopologyError::InvalidMeshSize { .. })
        ));
    }
}
