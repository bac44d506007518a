//! Per-flow packet-ordering verification.
//!
//! Table 1 requires packet ordering "maintained between in- and output
//! pairs". The engine's [`Observer`](crate::engine::Observer) stamps every
//! admitted cell with a per-(src, dst) sequence number and checks it at
//! the egress; [`FlowOrder`] keeps both counters of a flow in one 16-byte
//! entry of one table, so a delivery lands on the cache line its stamp
//! touched a few slots earlier. The observer holds a fresh table for
//! each run.

/// One flow's entry, four to a cache line.
#[derive(Debug, Default, Clone, Copy)]
struct Flow {
    /// `(src << 32 | dst) + 1`, 0 marking a free slot.
    key: u64,
    /// The sequence number the flow's next injected cell takes.
    next: u32,
    /// The sequence number the flow's next in-order delivery carries.
    expected: u32,
}

/// Stamps cells per (src, dst) flow at injection and verifies FIFO
/// delivery per flow at the egress, counting violations.
///
/// Open addressing with linear probing on a fixed multiplicative hash of
/// the packed flow id, doubling at three quarters full. Memory follows
/// the flows a simulator touches, not ports² — a uniform run over 8192
/// ports touches one flow in two hundred, and a dense table there is a
/// gigabyte of zeros. Point lookups only: nothing outside a rehash walks
/// the slots, the hash is a fixed function, and a counter's value never
/// depends on where its slot landed, so no order can leak into
/// fingerprints. This sits on the per-cell hot path of every simulator
/// (one stamp at injection, one check at delivery); at 64 ports the
/// whole table stays cache-resident, and a lookup is a multiply, a shift
/// and on average under two adjacent probes.
#[derive(Debug, Default, Clone)]
pub(crate) struct FlowOrder {
    /// The length is zero or a power of two, and at least a quarter of
    /// it is free.
    slots: Vec<Flow>,
    used: usize,
    reordered: u64,
}

impl FlowOrder {
    /// No flow seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next sequence number for the (src, dst) flow.
    #[inline]
    pub fn stamp(&mut self, src: usize, dst: usize) -> u64 {
        let flow = self.flow(src, dst);
        let seq = flow.next;
        assert!(
            seq < u32::MAX,
            "flow {src}->{dst} ran out of sequence numbers"
        );
        flow.next = seq + 1;
        seq.into()
    }

    /// Record the delivery of a stamped cell; returns the sequence number
    /// its flow expected, so the delivery was in order exactly when the
    /// two are equal. Every earlier delivery of the flow carried a number
    /// below the expectation, and the highest of them is one below it.
    ///
    /// An early delivery advances the expectation past itself, so it is
    /// counted once and not once per in-order successor; a late one
    /// leaves it alone, having been counted when its successor was early.
    #[inline]
    pub fn record(&mut self, src: usize, dst: usize, seq: u64) -> u64 {
        let flow = self.flow(src, dst);
        let expected = u64::from(flow.expected);
        if seq >= expected {
            // Stamps stay below 2³², so this fits.
            flow.expected = seq as u32 + 1;
        }
        self.reordered += u64::from(seq != expected);
        expected
    }

    /// Out-of-order deliveries so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    #[inline]
    fn flow(&mut self, src: usize, dst: usize) -> &mut Flow {
        debug_assert!(src < u32::MAX as usize && dst < u32::MAX as usize);
        if self.used * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let key = ((src as u64) << 32 | dst as u64) + 1;
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        while self.slots[i].key != key {
            if self.slots[i].key == 0 {
                self.slots[i].key = key;
                self.used += 1;
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.slots[i]
    }

    /// Fibonacci hashing: the top `log2(len)` bits of `key × 2⁶⁴/φ`.
    #[inline]
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![Flow::default(); len]);
        for flow in old {
            if flow.key != 0 {
                let mut i = Self::home(flow.key, len);
                while self.slots[i].key != 0 {
                    i = (i + 1) & (len - 1);
                }
                self.slots[i] = flow;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The stamper/checker pair `FlowOrder` replaced — two tables of
    /// `(key, u64)` — kept as the reference the differential test runs
    /// against.
    mod oracle {
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
            reordered: u64,
        }

        impl SequenceChecker {
            /// Record a delivery; returns true when in order for its flow.
            ///
            /// Out-of-order deliveries advance the expectation to `seq + 1` so a
            /// single early packet is counted once, not once per subsequent
            /// in-order packet.
            pub fn record(&mut self, src: usize, dst: usize, seq: u64) -> bool {
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

            /// Number of out-of-order deliveries.
            pub fn reordered(&self) -> u64 {
                self.reordered
            }
        }

        /// Assigns per-flow sequence numbers at injection.
        #[derive(Debug, Default, Clone)]
        pub struct SequenceStamper {
            next: FlowTable,
        }

        impl SequenceStamper {
            /// Next sequence number for the (src, dst) flow.
            pub fn stamp(&mut self, src: usize, dst: usize) -> u64 {
                let e = self.next.slot(src, dst);
                let v = *e;
                *e += 1;
                v
            }
        }
    }

    /// Record a delivery; whether it was in order for its flow.
    fn in_order(order: &mut FlowOrder, src: usize, dst: usize, seq: u64) -> bool {
        order.record(src, dst, seq) == seq
    }

    #[test]
    fn in_order_stream_passes() {
        let mut c = FlowOrder::new();
        for seq in 0..100 {
            assert!(in_order(&mut c, 1, 2, seq));
        }
        assert_eq!(c.reordered(), 0);
    }

    #[test]
    fn flows_are_independent() {
        let mut c = FlowOrder::new();
        assert!(in_order(&mut c, 0, 1, 0));
        assert!(in_order(&mut c, 1, 0, 0));
        assert!(in_order(&mut c, 0, 1, 1));
        assert_eq!(c.reordered(), 0);
    }

    #[test]
    fn swap_counts_one_violation() {
        let mut c = FlowOrder::new();
        assert!(!in_order(&mut c, 0, 1, 1), "1 before 0");
        assert_eq!(c.record(0, 1, 0), 2, "0 is now late: 1 was the highest");
        assert_eq!(c.reordered(), 2);
        // Stream continues in order afterwards.
        assert!(in_order(&mut c, 0, 1, 2));
    }

    #[test]
    fn early_packet_counted_once() {
        let mut c = FlowOrder::new();
        c.record(0, 1, 0);
        assert!(!in_order(&mut c, 0, 1, 5), "jump ahead");
        assert!(in_order(&mut c, 0, 1, 6), "expectation resynced");
        assert_eq!(c.reordered(), 1);
    }

    #[test]
    fn stamps_are_per_flow() {
        let mut s = FlowOrder::new();
        assert_eq!(s.stamp(0, 1), 0);
        assert_eq!(s.stamp(0, 1), 1);
        assert_eq!(s.stamp(0, 2), 0);
        assert_eq!(s.stamp(1, 1), 0);
        assert_eq!(s.stamp(0, 1), 2);
    }

    #[test]
    fn stamps_feed_the_check() {
        let mut order = FlowOrder::new();
        for _ in 0..10 {
            let seq = order.stamp(3, 4);
            assert!(in_order(&mut order, 3, 4, seq));
        }
        assert_eq!(order.reordered(), 0);
    }

    #[test]
    fn entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Flow>(), 16);
    }

    #[test]
    #[should_panic(expected = "ran out of sequence numbers")]
    fn stamp_refuses_to_wrap() {
        let mut order = FlowOrder::new();
        order.stamp(7, 9);
        let flow = order.slots.iter_mut().find(|f| f.key != 0).unwrap();
        flow.next = u32::MAX;
        order.stamp(7, 9);
    }

    #[test]
    fn table_memory_follows_touched_flows_not_ports_squared() {
        // 10 000 random flows over 32 768 ports: a dense table would hold
        // up to 2³⁰ counters.
        let mut rng = SimRng::seed_from_u64(1);
        let mut order = FlowOrder::new();
        let mut flows: Vec<(usize, usize)> = (0..10_000)
            .map(|_| (rng.index(32_768), rng.index(32_768)))
            .collect();
        for round in 0..3 {
            for &(src, dst) in &flows {
                let seq = order.stamp(src, dst);
                assert!(seq >= round, "a flow lost its counter in a rehash");
                assert!(in_order(&mut order, src, dst, seq));
            }
        }
        assert_eq!(order.reordered(), 0);
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(order.used, flows.len());
        let len = order.slots.len();
        assert!(len < 64 * flows.len(), "{len}");
        assert!(len * 3 >= order.used * 4, "over-full");
    }

    /// Random scripts of stamps, in-order deliveries, cells that are
    /// stamped and never delivered (the deflection and OCS drop case),
    /// deliveries out of turn and jumps ahead: every sequence number,
    /// every verdict and the violation count after every step must be
    /// the old pair's.
    #[test]
    fn agrees_with_the_stamper_checker_pair_step_for_step() {
        for (ports, steps) in [(64usize, 20_000), (2_048, 20_000), (32_768, 20_000)] {
            let mut rng = SimRng::seed_from_u64(ports as u64);
            let mut order = FlowOrder::new();
            let (mut stamper, mut checker) = (
                oracle::SequenceStamper::default(),
                oracle::SequenceChecker::default(),
            );
            // Stamped and not yet delivered, oldest first.
            let mut flying: Vec<(usize, usize, u64)> = Vec::new();
            // Half the stamps revisit a known flow so flows grow long.
            let mut known: Vec<(usize, usize)> = Vec::new();
            for step in 0..steps {
                match rng.index(16) {
                    0..=7 => {
                        let (src, dst) = if !known.is_empty() && rng.coin(0.5) {
                            known[rng.index(known.len())]
                        } else {
                            (rng.index(ports), rng.index(ports))
                        };
                        known.push((src, dst));
                        let seq = order.stamp(src, dst);
                        assert_eq!(seq, stamper.stamp(src, dst), "step {step}");
                        flying.push((src, dst, seq));
                    }
                    8..=12 if !flying.is_empty() => {
                        let (src, dst, seq) = flying.remove(0);
                        let verdict = in_order(&mut order, src, dst, seq);
                        assert_eq!(verdict, checker.record(src, dst, seq), "step {step}");
                    }
                    13 if !flying.is_empty() => {
                        // Out of turn: early for its flow if an older
                        // cell of it is still flying, which then is late.
                        let (src, dst, seq) = flying.remove(rng.index(flying.len()));
                        let verdict = in_order(&mut order, src, dst, seq);
                        assert_eq!(verdict, checker.record(src, dst, seq), "step {step}");
                    }
                    14 if !flying.is_empty() => {
                        // Lost in the fabric: the flow's next delivery
                        // arrives over a gap.
                        flying.remove(rng.index(flying.len()));
                    }
                    15 if !known.is_empty() => {
                        let (src, dst) = known[rng.index(known.len())];
                        let seq = rng.below(1_000);
                        let verdict = in_order(&mut order, src, dst, seq);
                        assert_eq!(verdict, checker.record(src, dst, seq), "step {step}");
                    }
                    _ => {}
                }
                assert_eq!(order.reordered(), checker.reordered(), "step {step}");
            }
            assert!(
                order.slots.len() >= 64 << 4,
                "{ports} ports: only {} slots, fewer than four doublings",
                order.slots.len()
            );
            assert!(
                order.reordered() > 0,
                "{ports} ports: no violation scripted"
            );
        }
    }
}
