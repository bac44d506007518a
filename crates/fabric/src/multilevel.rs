//! Closed-form arithmetic of the L-level m-ary folded Clos — the §VI.C
//! comparison's topology, as formulas.
//!
//! §VI.C argues by stage count: 2048 ports need 3 OSMOSIS stages but 5
//! high-end or 9 commodity electronic stages, and "each stage contributes
//! to latency and power consumption". A folded Clos of **any** depth
//! built from radix-k switches lets fabrics of different radix be
//! compared at the *same* host count, hop for hop.
//!
//! Construction (m = k/2): hosts = m^L, every level has m^(L−1) switches
//! of m down + m up ports (the top level uses only its down half).
//! Switch indices are (L−1)-digit base-m numbers; the up-edge from a
//! level-l switch X via up-port p leads to the level-(l+1) switch with
//! digit l of X replaced by p, whose down-port q = old digit l. A packet
//! ascends to the lowest common ancestor level (up-ports chosen by flow
//! hash, so per-flow order holds) and descends following the destination
//! digits.
//!
//! [`MultiLevelClos`] holds no graph and simulates nothing: the fabric
//! itself is `TopologySpec::m_ary_fat_tree` expanded by [`crate::expand`]
//! and run by [`crate::compiled::CompiledFabric`]. The descriptor is the
//! independent reference those are checked against — host and stage
//! counts, ascent heights and whole switch paths, derived from the digit
//! rule alone.

use crate::spec::TopologyError;

/// Topology descriptor for an L-level folded Clos of radix-k switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiLevelClos {
    /// Switch radix (even, ≥ 4).
    pub radix: usize,
    /// Levels of switches.
    pub levels: u32,
}

impl MultiLevelClos {
    /// Build a descriptor. `radix` must be even ≥ 4, `levels ≥ 1`;
    /// panics otherwise — use [`try_new`](Self::try_new) where the
    /// parameters come from external input.
    pub fn new(radix: usize, levels: u32) -> Self {
        match Self::try_new(radix, levels) {
            Ok(t) => t,
            #[expect(
                clippy::panic,
                reason = "documented panic contract of the infallible constructor; `try_new` is the checked form"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a descriptor, rejecting bad parameters with a typed error.
    pub fn try_new(radix: usize, levels: u32) -> Result<Self, TopologyError> {
        if radix < 4 || !radix.is_multiple_of(2) {
            return Err(TopologyError::InvalidRadix {
                radix,
                min: 4,
                even: true,
            });
        }
        if !(1..=16).contains(&levels) {
            return Err(TopologyError::InvalidLevels { levels });
        }
        Ok(MultiLevelClos { radix, levels })
    }

    /// Down/up ports per switch (m = k/2).
    pub fn m(&self) -> usize {
        self.radix / 2
    }

    /// Host count: m^L.
    pub fn hosts(&self) -> usize {
        self.m().pow(self.levels)
    }

    /// Switches per level: m^(L−1).
    pub fn switches_per_level(&self) -> usize {
        self.m().pow(self.levels - 1)
    }

    /// Stages a packet traverses end to end: 2L−1.
    pub fn stages(&self) -> u32 {
        2 * self.levels - 1
    }

    /// Digit `pos` (base m) of a switch/leaf index.
    fn digit(&self, index: usize, pos: u32) -> usize {
        (index / self.m().pow(pos)) % self.m()
    }

    /// Replace digit `pos` of `index` with `value`.
    fn with_digit(&self, index: usize, pos: u32, value: usize) -> usize {
        let p = self.m().pow(pos);
        index - self.digit(index, pos) * p + value * p
    }

    /// Leaf switch of a host.
    pub fn leaf_of(&self, host: usize) -> usize {
        host / self.m()
    }

    /// Ascent height for a src→dst route: the number of up-hops needed
    /// (0 when both hosts share a leaf).
    pub fn ascent(&self, src: usize, dst: usize) -> u32 {
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        if ls == ld {
            return 0;
        }
        let mut a = 0;
        for pos in 0..self.levels - 1 {
            if self.digit(ls, pos) != self.digit(ld, pos) {
                a = pos + 1;
            }
        }
        a
    }

    /// The full switch path a src→dst flow takes, as (level, switch
    /// index) pairs — pure topology, used by property tests and by
    /// anyone who wants to reason about link loads without running the
    /// simulator.
    pub fn path(&self, src: usize, dst: usize) -> Vec<(u32, usize)> {
        assert!(src < self.hosts() && dst < self.hosts());
        let a = self.ascent(src, dst);
        let mut sw = self.leaf_of(src);
        let mut out = vec![(0u32, sw)];
        for level in 0..a {
            let p = self.up_choice(src, dst, level);
            sw = self.with_digit(sw, level, p);
            out.push((level + 1, sw));
        }
        for level in (1..=a).rev() {
            let q = self.digit(self.leaf_of(dst), level - 1);
            sw = self.with_digit(sw, level - 1, q);
            out.push((level - 1, sw));
        }
        out
    }

    /// Deterministic per-flow up-port choice at ascent step `level` —
    /// the shared [`crate::spec::up_choice`] hash, single-sourced so the
    /// spec-expanded fabrics route identically.
    pub fn up_choice(&self, src: usize, dst: usize, level: u32) -> usize {
        crate::spec::up_choice(src, dst, level, self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_arithmetic() {
        let t = MultiLevelClos::new(8, 2);
        assert_eq!(t.hosts(), 16);
        assert_eq!(t.switches_per_level(), 4);
        assert_eq!(t.stages(), 3);
        let deep = MultiLevelClos::new(4, 4);
        assert_eq!(deep.hosts(), 16, "same host count, deeper tree");
        assert_eq!(deep.stages(), 7);
    }

    #[test]
    fn ascent_heights() {
        let t = MultiLevelClos::new(4, 3); // m=2, 8 hosts, leaves 0..3
        assert_eq!(t.ascent(0, 1), 0, "same leaf");
        assert_eq!(t.ascent(0, 2), 1, "adjacent leaves share level-1");
        assert_eq!(t.ascent(0, 7), 2, "opposite halves need the top");
    }
}
