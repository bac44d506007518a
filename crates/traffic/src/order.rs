//! Per-flow packet-ordering verification.
//!
//! Table 1 requires packet ordering "maintained between in- and output
//! pairs". Simulations stamp every injected cell with a per-(src,dst)
//! sequence number; the [`SequenceChecker`] at the egress verifies FIFO
//! delivery per flow and counts violations.

/// Per-(src, dst) counter table: open addressing with linear probing on
/// a fixed multiplicative hash of the packed flow id, doubling at three
/// quarters full. Memory follows the flows a run touches, not ports² —
/// a uniform run over 8192 ports touches one flow in two hundred, and a
/// dense table there is a gigabyte of zeros. Point lookups only: nothing
/// outside a rehash walks the slots, the hash is a fixed function, and a
/// counter's value never depends on where its slot landed, so no order
/// can leak into fingerprints. This sits on the per-cell hot path of
/// every simulator (one stamp at injection, one check at delivery); at
/// 64 ports the whole table stays cache-resident, and a lookup is a
/// multiply, a shift and on average under two adjacent probes.
#[derive(Debug, Default, Clone)]
struct FlowTable {
    /// `(flow id + 1, counter)`, 0 marking a free slot. The length is
    /// zero or a power of two, and at least a quarter of it is free.
    slots: Vec<(u64, u64)>,
    used: usize,
}

impl FlowTable {
    #[inline]
    fn slot(&mut self, src: usize, dst: usize) -> &mut u64 {
        debug_assert!(src < u32::MAX as usize && dst < u32::MAX as usize);
        if self.used * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let key = ((src as u64) << 32 | dst as u64) + 1;
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        while self.slots[i].0 != key {
            if self.slots[i].0 == 0 {
                self.slots[i].0 = key;
                self.used += 1;
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.slots[i].1
    }

    /// Fibonacci hashing: the top `log2(len)` bits of `key × 2⁶⁴/φ`.
    #[inline]
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
        for (key, count) in old {
            if key != 0 {
                let mut i = Self::home(key, len);
                while self.slots[i].0 != 0 {
                    i = (i + 1) & (len - 1);
                }
                self.slots[i] = (key, count);
            }
        }
    }
}

/// Tracks the next expected sequence number per (src, dst) flow.
#[derive(Debug, Default, Clone)]
pub struct SequenceChecker {
    expected: FlowTable,
    delivered: u64,
    reordered: u64,
}

impl SequenceChecker {
    /// Empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a delivery; returns true when in order for its flow.
    ///
    /// Out-of-order deliveries advance the expectation to `seq + 1` so a
    /// single early packet is counted once, not once per subsequent
    /// in-order packet.
    pub fn record(&mut self, src: usize, dst: usize, seq: u64) -> bool {
        self.delivered += 1;
        let e = self.expected.slot(src, dst);
        if seq == *e {
            *e += 1;
            true
        } else {
            self.reordered += 1;
            if seq > *e {
                // Early packet: resync so its successors count as in order.
                *e = seq + 1;
            }
            // Late packet: expectation unchanged; it was already counted
            // when its successor arrived early.
            false
        }
    }

    /// Total deliveries recorded.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of out-of-order deliveries.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// True when no reordering has been observed.
    pub fn all_in_order(&self) -> bool {
        self.reordered == 0
    }
}

/// Assigns per-flow sequence numbers at injection.
#[derive(Debug, Default, Clone)]
pub struct SequenceStamper {
    next: FlowTable,
}

impl SequenceStamper {
    /// Empty stamper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next sequence number for the (src, dst) flow.
    pub fn stamp(&mut self, src: usize, dst: usize) -> u64 {
        let e = self.next.slot(src, dst);
        let v = *e;
        *e += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_passes() {
        let mut c = SequenceChecker::new();
        for seq in 0..100 {
            assert!(c.record(1, 2, seq));
        }
        assert!(c.all_in_order());
        assert_eq!(c.delivered(), 100);
    }

    #[test]
    fn flows_are_independent() {
        let mut c = SequenceChecker::new();
        assert!(c.record(0, 1, 0));
        assert!(c.record(1, 0, 0));
        assert!(c.record(0, 1, 1));
        assert!(c.all_in_order());
    }

    #[test]
    fn swap_counts_one_violation() {
        let mut c = SequenceChecker::new();
        assert!(!c.record(0, 1, 1), "1 before 0");
        assert!(!c.record(0, 1, 0), "0 is now late");
        assert_eq!(c.reordered(), 2);
        // Stream continues in order afterwards.
        assert!(c.record(0, 1, 2));
    }

    #[test]
    fn early_packet_counted_once() {
        let mut c = SequenceChecker::new();
        c.record(0, 1, 0);
        assert!(!c.record(0, 1, 5), "jump ahead");
        assert!(c.record(0, 1, 6), "expectation resynced");
        assert_eq!(c.reordered(), 1);
    }

    #[test]
    fn stamper_is_per_flow() {
        let mut s = SequenceStamper::new();
        assert_eq!(s.stamp(0, 1), 0);
        assert_eq!(s.stamp(0, 1), 1);
        assert_eq!(s.stamp(0, 2), 0);
        assert_eq!(s.stamp(1, 1), 0);
        assert_eq!(s.stamp(0, 1), 2);
    }

    #[test]
    fn stamper_feeds_checker() {
        let mut s = SequenceStamper::new();
        let mut c = SequenceChecker::new();
        for _ in 0..10 {
            let seq = s.stamp(3, 4);
            assert!(c.record(3, 4, seq));
        }
        assert!(c.all_in_order());
    }

    #[test]
    fn table_memory_follows_touched_flows_not_ports_squared() {
        // 10 000 random flows over 32 768 ports: a dense table would hold
        // up to 2³⁰ counters.
        let mut rng = osmosis_sim::SimRng::seed_from_u64(1);
        let mut s = SequenceStamper::new();
        let mut c = SequenceChecker::new();
        let mut flows: Vec<(usize, usize)> = (0..10_000)
            .map(|_| (rng.index(32_768), rng.index(32_768)))
            .collect();
        for round in 0..3 {
            for &(src, dst) in &flows {
                let seq = s.stamp(src, dst);
                assert!(seq >= round, "a flow lost its counter in a rehash");
                assert!(c.record(src, dst, seq));
            }
        }
        assert!(c.all_in_order());
        flows.sort_unstable();
        flows.dedup();
        for table in [&s.next, &c.expected] {
            assert_eq!(table.used, flows.len());
            assert!(
                table.slots.len() < 64 * flows.len(),
                "{}",
                table.slots.len()
            );
            assert!(table.slots.len() * 3 >= table.used * 4, "over-full");
        }
    }
}
