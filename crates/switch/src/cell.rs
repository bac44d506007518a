//! The fixed-size cell — OSMOSIS's unit of switching (§V: 256-byte cells,
//! 51.2 ns cycle at 40 Gb/s).

/// One cell in flight through a switch or fabric simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Source port at the fabric edge.
    pub src: usize,
    /// Destination port at the fabric edge.
    pub dst: usize,
    /// Per-(src,dst) flow sequence number for ordering verification.
    pub seq: u64,
    /// Slot in which the cell entered the ingress VOQ.
    pub inject_slot: u64,
    /// Slot in which the central scheduler granted the cell (filled when
    /// it crosses the crossbar; u64::MAX until then).
    pub grant_slot: u64,
}

impl Cell {
    /// A new cell, not yet granted.
    pub fn new(src: usize, dst: usize, seq: u64, inject_slot: u64) -> Self {
        Cell {
            src,
            dst,
            seq,
            inject_slot,
            grant_slot: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_cell_is_ungranted() {
        let c = Cell::new(2, 3, 0, 10);
        assert_eq!(c.grant_slot, u64::MAX);
        assert_eq!(c.inject_slot, 10);
    }

    #[test]
    fn a_cell_is_five_words() {
        // Every VOQ slab slot and egress entry holds one.
        assert_eq!(std::mem::size_of::<Cell>(), 40);
    }
}
