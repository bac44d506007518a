//! Folded-Clos (fat-tree) topology arithmetic.
//!
//! The paper builds fabrics from identical radix-k switches (§IV.A "for
//! cost reasons, we assume that the fabric is built using identical
//! switches in each stage"). A two-level fat tree of 64-port switches
//! yields the 2048-port fabric of §V; §VI.C compares stage counts across
//! switch radixes: 3 OSMOSIS stages vs. 5 high-end-electronic vs. 9
//! commodity stages for 2048 ports.

use crate::spec::TopologyError;

/// Levels needed to reach at least `ports` hosts with radix-k switches.
/// Panics on an invalid radix or an unreachable port count; use
/// [`try_levels_for_ports`] where the inputs come from external input.
pub fn levels_for_ports(radix: usize, ports: u64) -> u32 {
    match try_levels_for_ports(radix, ports) {
        Ok(l) => l,
        // lint:allow(panic-free): documented panic contract of the
        // infallible form; `try_levels_for_ports` is the checked one
        Err(e) => panic!("{e}"),
    }
}

/// Levels needed to reach at least `ports` hosts with radix-k switches,
/// rejecting invalid inputs with a typed error.
pub fn try_levels_for_ports(radix: usize, ports: u64) -> Result<u32, TopologyError> {
    let mut l = 1;
    while try_max_ports(radix, l)? < ports {
        l += 1;
        if l >= 32 {
            return Err(TopologyError::UnreachablePortCount { radix, ports });
        }
    }
    Ok(l)
}

/// Maximum host count of an L-level fat tree of radix-k switches:
/// a single switch at L=1 (k ports), k·(k/2)/1... in general
/// 2·(k/2)^L. Panics on an odd or tiny radix; see [`try_max_ports`].
pub fn max_ports(radix: usize, levels: u32) -> u64 {
    match try_max_ports(radix, levels) {
        Ok(p) => p,
        // lint:allow(panic-free): documented panic contract of the
        // infallible form; `try_max_ports` is the checked one
        Err(e) => panic!("{e}"),
    }
}

/// Maximum host count of an L-level fat tree of radix-k switches,
/// rejecting invalid radixes with a typed error.
pub fn try_max_ports(radix: usize, levels: u32) -> Result<u64, TopologyError> {
    if radix < 2 || !radix.is_multiple_of(2) {
        return Err(TopologyError::InvalidRadix {
            radix,
            min: 2,
            even: true,
        });
    }
    let half = (radix / 2) as u64;
    Ok(half
        .checked_pow(levels)
        .and_then(|n| n.checked_mul(2))
        .unwrap_or(u64::MAX))
}

/// Switch *stages* a packet traverses end-to-end in an L-level fat tree:
/// up through L−1 levels, across the top, down again → 2L−1.
pub fn stages_for_levels(levels: u32) -> u32 {
    2 * levels - 1
}

/// Stage count to build `ports` hosts from radix-k switches (the §VI.C
/// comparison quantity).
pub fn stages_for_ports(radix: usize, ports: u64) -> u32 {
    stages_for_levels(levels_for_ports(radix, ports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_ports_values() {
        // 2·(k/2)^L: one 64-port switch L=1 → 64; two-level → 2048.
        assert_eq!(max_ports(64, 1), 64);
        assert_eq!(max_ports(64, 2), 2_048);
        assert_eq!(max_ports(32, 2), 512);
        assert_eq!(max_ports(32, 3), 8_192);
        assert_eq!(max_ports(8, 5), 2_048);
    }

    #[test]
    fn paper_claim_stage_counts_for_2048_ports() {
        // §VI.C: "A 2048-port fabric needs 3 OSMOSIS stages, 5 high-end
        // electronic switch stages and 9 stages of commodity switch chips."
        assert_eq!(stages_for_ports(64, 2048), 3, "OSMOSIS 64-port switches");
        assert_eq!(stages_for_ports(32, 2048), 5, "high-end electronic 32-port");
        assert_eq!(stages_for_ports(8, 2048), 9, "commodity 8-port");
        // The paper quotes the 8-port end of its "8 to 12 ports" range;
        // 12-port parts would need 2·6^4 = 2592 ≥ 2048 → 7 stages.
        assert_eq!(stages_for_ports(12, 2048), 7, "commodity 12-port");
    }

    #[test]
    fn levels_monotone_in_ports() {
        assert_eq!(levels_for_ports(64, 64), 1);
        assert_eq!(levels_for_ports(64, 65), 2);
        assert_eq!(levels_for_ports(64, 2048), 2);
        assert_eq!(levels_for_ports(64, 2049), 3);
    }
}
