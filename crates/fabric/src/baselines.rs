//! Fabric alternatives compared in §VI.C: OSMOSIS 64-port optical switches
//! vs. high-end 32-port electronic switches vs. 8–12-port commodity parts,
//! all building the same 2048-port, 12 GByte/s-per-port fabric.
//!
//! "Each stage contributes to latency and power consumption. Compared with
//! the high-end electronic solution, OSMOSIS saves two layers of OEO
//! conversions in the fat tree."

use crate::spec::{TopologyError, TopologySpec};

/// The switch technology a fabric is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchTech {
    /// OSMOSIS hybrid opto-electronic switch (optical crossbar, electronic
    /// buffers/scheduler).
    OsmosisOptical,
    /// High-end electronic crossbar ASIC.
    HighEndElectronic,
    /// Commodity electronic switch chip.
    CommodityElectronic,
}

/// One §VI.C fabric alternative.
#[derive(Debug, Clone, Copy)]
pub struct FabricAlternative {
    /// Display name.
    pub name: &'static str,
    /// Technology.
    pub tech: SwitchTech,
    /// Switch radix at the target port rate.
    pub radix: usize,
    /// Per-stage traversal latency in nanoseconds (buffering + switching).
    pub stage_latency_ns: f64,
    /// Power per switch port in watts at the target rate.
    pub power_per_port_w: f64,
}

impl FabricAlternative {
    /// OSMOSIS: 64 ports per switch at 40 Gb/s; per-stage latency of a few
    /// hundred ns in ASIC form (§VI.B).
    pub fn osmosis() -> Self {
        FabricAlternative {
            name: "OSMOSIS 64-port optical",
            tech: SwitchTech::OsmosisOptical,
            radix: 64,
            stage_latency_ns: 150.0,
            power_per_port_w: 2.5,
        }
    }

    /// "We expect the highest possible electronic switch port count to be
    /// 32 ports for the IB 12x QDR rates."
    pub fn high_end_electronic() -> Self {
        FabricAlternative {
            name: "high-end electronic 32-port",
            tech: SwitchTech::HighEndElectronic,
            radix: 32,
            stage_latency_ns: 120.0,
            power_per_port_w: 4.0,
        }
    }

    /// "commodity parts will probably offer only 8 to 12 ports."
    pub fn commodity_electronic() -> Self {
        FabricAlternative {
            name: "commodity electronic 8-port",
            tech: SwitchTech::CommodityElectronic,
            radix: 8,
            stage_latency_ns: 100.0,
            power_per_port_w: 3.0,
        }
    }

    /// The three §VI.C contenders.
    pub fn contenders() -> [FabricAlternative; 3] {
        [
            Self::osmosis(),
            Self::high_end_electronic(),
            Self::commodity_electronic(),
        ]
    }
}

/// A fabric-level comparison for a given host count.
#[derive(Debug, Clone)]
pub struct FabricComparison {
    /// The alternative evaluated.
    pub alt: FabricAlternative,
    /// The fewest-level fat tree of its switches that reaches the hosts.
    pub spec: TopologySpec,
    /// Switch stages a packet traverses (2·levels − 1).
    pub stages: u32,
    /// Total switch chips/boxes in the fabric: (2L−1)·N/k.
    pub switch_count: u64,
    /// OEO conversion layers along a path (one per stage — the optical
    /// crossbar itself adds none).
    pub oeo_layers: u32,
    /// End-to-end switch-traversal latency, excluding cables (ns).
    pub path_latency_ns: f64,
    /// Total fabric power estimate (W): ports × switches × per-port power.
    pub fabric_power_w: f64,
}

/// Evaluate an alternative for `ports` hosts, in closed form: any host
/// count a fat tree of at most 16 levels reaches, past the expansion
/// limits too. Errs on an odd radix or an unreachable count.
pub fn compare(alt: FabricAlternative, ports: u64) -> Result<FabricComparison, TopologyError> {
    let spec = TopologySpec::fat_tree_for_hosts(alt.radix, ports)?;
    let stages = spec.stages();
    let switch_count = stages as u64 * ports / alt.radix as u64;
    Ok(FabricComparison {
        alt,
        spec,
        stages,
        switch_count,
        oeo_layers: stages,
        path_latency_ns: stages as f64 * alt.stage_latency_ns,
        fabric_power_w: switch_count as f64 * alt.radix as f64 * alt.power_per_port_w,
    })
}

/// The full §VI.C table for the paper's 2048-port target, one row per
/// contender in [`FabricAlternative::contenders`] order.
#[expect(
    clippy::expect_used,
    reason = "the contenders are constants whose even radixes reach 2048 hosts within 16 levels"
)]
pub fn section_6c_table() -> Vec<FabricComparison> {
    FabricAlternative::contenders()
        .into_iter()
        .map(|a| compare(a, 2048).expect("a §VI.C contender sizes 2048 hosts"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counts_match_paper() {
        let table = section_6c_table();
        assert_eq!(table[0].stages, 3, "OSMOSIS");
        assert_eq!(table[1].stages, 5, "high-end electronic");
        assert_eq!(table[2].stages, 9, "commodity");
    }

    #[test]
    fn oeo_savings_vs_high_end_is_two_layers() {
        let table = section_6c_table();
        assert_eq!(
            table[1].oeo_layers - table[0].oeo_layers,
            2,
            "OSMOSIS saves two layers of OEO conversions"
        );
    }

    #[test]
    fn switch_counts() {
        let table = section_6c_table();
        // OSMOSIS: 3 stages × 2048/64 = 96 switches (64 leaves + 32 spines).
        assert_eq!(table[0].switch_count, 96);
        // High-end: 5 × 2048/32 = 320.
        assert_eq!(table[1].switch_count, 320);
        // Commodity: 9 × 2048/8 = 2304.
        assert_eq!(table[2].switch_count, 2304);
    }

    #[test]
    fn latency_ordering_favors_fewer_stages() {
        let table = section_6c_table();
        assert!(table[0].path_latency_ns < table[1].path_latency_ns);
        assert!(table[1].path_latency_ns < table[2].path_latency_ns);
    }

    #[test]
    fn fabric_power_favors_osmosis() {
        // The §I power argument at the fabric level: more stages and more
        // per-port electronic power multiply out.
        let table = section_6c_table();
        assert!(
            table[0].fabric_power_w < table[1].fabric_power_w,
            "OSMOSIS {} W vs high-end {} W",
            table[0].fabric_power_w,
            table[1].fabric_power_w
        );
    }

    #[test]
    fn comparison_scales_with_ports() {
        let small = compare(FabricAlternative::osmosis(), 64).unwrap();
        assert_eq!(small.stages, 1, "one switch suffices for 64 hosts");
        assert_eq!(small.switch_count, 1);
        let big = compare(FabricAlternative::osmosis(), 8192).unwrap();
        assert_eq!(big.stages, 5);
        assert_eq!(big.spec, TopologySpec::fat_tree(64, 3));
        let huge = compare(FabricAlternative::osmosis(), 1 << 40).unwrap();
        assert_eq!(huge.stages, 15, "2·32^8 = 2^41 hosts, past the u32 ids");
    }
}
