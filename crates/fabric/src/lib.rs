//! # osmosis-fabric
//!
//! Multistage fabrics for the OSMOSIS reproduction:
//!
//! * [`spec`] — the declarative `family:key=value,...` topology grammar
//!   (fat tree, dragonfly, full mesh; link, buffer, placement and
//!   request/grant parameters) and the shared flow hashes;
//! * [`expand`] — the compiler pass: a spec into a typed graph of
//!   stages, switches, ports, links and hosts ([`ids`]) with minimal
//!   per-flow-stable routing;
//! * [`compiled`] — the fabric simulator: buffered crossbar stages behind
//!   credit loops over any expansion, covering the Fig. 2 placement
//!   options, FDL input stages, the fault reactions and the
//!   losslessness/ordering requirements of Table 1;
//! * [`loadmap`] — static link-load analysis of an expansion;
//! * [`topology`], [`multilevel`] — folded-Clos arithmetic and the
//!   closed forms the expansion is checked against;
//! * [`flow_control`] — the scheduler-relayed remote FC loop of
//!   Figs. 3–4, with its deterministic RTT and buffer-sizing law;
//! * [`baselines`] — the §VI.C comparison: 3 OSMOSIS stages vs. 5
//!   high-end electronic vs. 9 commodity stages at 2048 ports.
//!

//! ```
//! use osmosis_fabric::{expanded_uniform_load_map, stages_for_ports};
//! use osmosis_fabric::{ExpandedFabric, TopologySpec};
//!
//! // §VI.C: 2048 ports need 3 / 5 / 9 stages by switch radix.
//! assert_eq!(stages_for_ports(64, 2048), 3);
//! assert_eq!(stages_for_ports(32, 2048), 5);
//! assert_eq!(stages_for_ports(8, 2048), 9);
//!
//! // Static link-load analysis predicts a fabric's saturation ceiling.
//! let fab = ExpandedFabric::expand(TopologySpec::m_ary_fat_tree(8, 2)).unwrap();
//! let map = expanded_uniform_load_map(&fab, 1.0);
//! assert!(map.saturation_load(1.0) > 0.7);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baselines;
pub mod compiled;
pub mod expand;
pub mod flow_control;
pub mod ids;
pub mod loadmap;
pub mod multilevel;
pub mod spec;
pub mod topology;

pub use baselines::{compare, section_6c_table, FabricAlternative, FabricComparison};
pub use compiled::CompiledFabric;
pub use expand::{ExpandedFabric, Peer};
pub use flow_control::{required_buffer_cells, run_relay_loop, RelayConfig, RelayReport};
pub use ids::{EntityId, EntityVec, HostId, LinkId, PortId, StageId, SwitchId};
pub use loadmap::{expanded_uniform_load_map, ExpandedLoadMap};
pub use multilevel::MultiLevelClos;
pub use spec::{
    BufferSizing, BufferTech, DragonflyShape, Placement, TopologyError, TopologyFamily,
    TopologySpec,
};

// The engine types every consumer of this crate needs alongside the
// fabrics.
pub use osmosis_sim::engine::{EngineConfig, EngineReport};
pub use topology::{
    levels_for_ports, max_ports, stages_for_levels, stages_for_ports, try_levels_for_ports,
    try_max_ports,
};
