//! Per-flow packet-ordering verification.
//!
//! Table 1 requires packet ordering "maintained between in- and output
//! pairs". The engine's [`Observer`](crate::engine::Observer) stamps every
//! admitted cell with a per-(src, dst) sequence number and checks it at
//! the egress; [`FlowOrder`] keeps both counters of a flow in one 16-byte
//! entry of one table, so a delivery lands on the cache line its stamp
//! touched a few slots earlier. The observer holds a fresh table for
//! each run.
//!
//! Once the table is large, a delivery that drains its flow in order
//! deletes the flow's entry, so the table holds exactly the flows with a
//! cell in flight rather than every flow the run has touched: on a
//! 2048-host fat tree at load 0.6 that is about 15k flows in flight
//! against 676k touched.

/// `Flow::key`'s top bit, set by the flow's first out-of-order delivery
/// or delivery of a number it has not stamped, and never cleared.
/// Sources stay below 2³¹, so no packed flow id reaches it.
const DISORDERED: u64 = 1 << 63;

/// The table length from which a flow is forgotten the moment it drains
/// in order: 2¹⁴ entries, 256 KiB. A 64-port switch has 4 096 flows, so
/// its table stops at 2¹³ entries and keeps every flow: there flows
/// recur, and deleting each as it drains only to insert it again a few
/// slots later made stamping and recording 1.9× slower in a replay of
/// uniform arrivals at 64 ports and load 0.95 (on a 2-vCPU Xeon).
const FORGET_FROM: usize = 1 << 14;

/// One flow's entry, four to a cache line.
#[derive(Debug, Default, Clone, Copy)]
struct Flow {
    /// `(src << 32 | dst) + 1`, 0 marking a free slot, with
    /// [`DISORDERED`] or-ed in.
    key: u64,
    /// The sequence number the flow's next injected cell takes.
    next: u32,
    /// The sequence number the flow's next in-order delivery carries.
    expected: u32,
}

impl Flow {
    /// Every cell the flow stamped was delivered, each exactly in turn:
    /// no delivery of it was out of order or carried a number not yet
    /// stamped, so each carried the expectation and raised it by one,
    /// and the expectation has caught up with the stamps.
    fn drained(&self) -> bool {
        self.key & DISORDERED == 0 && self.next == self.expected
    }
}

/// Stamps cells per (src, dst) flow at injection and verifies FIFO
/// delivery per flow at the egress, counting violations.
///
/// Open addressing with linear probing on a fixed multiplicative hash of
/// the packed flow id. Point lookups only: nothing outside a rebuild
/// walks the slots, the hash is a fixed function, and a counter's value
/// never depends on where its slot landed, so no order can leak into
/// fingerprints. This sits on the per-cell hot path of every simulator
/// (one stamp at injection, one check at delivery); at 64 ports the
/// whole table stays cache-resident, and a lookup is a multiply, a shift
/// and on average under two adjacent probes.
///
/// Below [`FORGET_FROM`] entries the table keeps every flow it has
/// seen and doubles at three quarters full, and memory follows the flows
/// a simulator touches, not ports² — a uniform run over 8192 ports
/// touches one flow in two hundred, and a dense table there is a
/// gigabyte of zeros. From there on a delivery that drains its flow in
/// order deletes the flow's entry at once, by backward-shift deletion:
/// the entries behind it in its probe run move up into the hole, so no
/// tombstone is left and a lookup still ends at the first free slot. The
/// doubling that reaches the floor leaves out the flows that drained
/// before it. The table then holds exactly the flows with a cell in
/// flight, and its memory follows them; it doubles at five eighths full,
/// because every new flow is an insert and every drain a delete, and
/// both walk the probe runs, which grow long as a table fills.
///
/// Forgetting a drained flow is exact. Its entry `(n, n)` is a fresh
/// `(0, 0)` with every number shifted up by n: no cell of it is in
/// flight, so each later delivery carries a number stamped after the
/// entry was dropped, and every comparison [`record`](FlowOrder::record)
/// and its caller make is between two numbers of the same flow, both
/// shifted alike. Verdicts, the violation count and whether a delivery
/// regressed stay those of a table that never forgets; what changes is
/// the numbers themselves, which restart at 0. This holds as long as
/// each stamped cell is delivered at most once, as the engine's cell
/// conservation requires. A flow with an out-of-order delivery, or a
/// delivery of a number it had not stamped, is kept for the rest of the
/// run: either may leave it at `next == expected` with a cell of it
/// still in flight.
#[derive(Debug, Default, Clone)]
pub(crate) struct FlowOrder {
    /// The length is zero or a power of two.
    slots: Vec<Flow>,
    used: usize,
    /// The `used` at which the next lookup doubles the table: three
    /// quarters of its length below [`FORGET_FROM`], five eighths from
    /// there on.
    grow_at: usize,
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
        let i = self.find(src, dst);
        let flow = &mut self.slots[i];
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
        let i = self.find(src, dst);
        let forget = self.slots.len() >= FORGET_FROM;
        let flow = &mut self.slots[i];
        let expected = u64::from(flow.expected);
        if seq >= expected {
            // Stamps stay below 2³², so this fits.
            flow.expected = seq as u32 + 1;
        }
        let disorder = seq != expected;
        // A number the flow never stamped marks it too: if it landed in
        // turn, the stamp that later takes it would leave the flow
        // looking drained with that cell in flight.
        flow.key |= DISORDERED * u64::from(disorder || seq >= u64::from(flow.next));
        self.reordered += u64::from(disorder);
        if forget && flow.drained() {
            self.remove(i);
        }
        expected
    }

    /// Out-of-order deliveries so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// The slot of the (src, dst) flow; a flow not in the table takes the
    /// first free slot from its home on, at `(0, 0)`.
    #[inline]
    fn find(&mut self, src: usize, dst: usize) -> usize {
        debug_assert!(src < 1 << 31 && dst < u32::MAX as usize);
        if self.used >= self.grow_at {
            self.grow();
        }
        let key = ((src as u64) << 32 | dst as u64) + 1;
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        while self.slots[i].key & !DISORDERED != key {
            if self.slots[i].key == 0 {
                self.slots[i].key = key;
                self.used += 1;
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// Fibonacci hashing: the top `log2(len)` bits of `key × 2⁶⁴/φ`.
    #[inline]
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
    }

    /// Free slot `hole`. Each entry of the probe run behind it that may
    /// sit there — its home is not after the hole, counting from the
    /// hole round the end of the table — moves up, leaving its own slot
    /// as the hole, until the run ends at a free slot.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let flow = self.slots[i];
            if flow.key == 0 {
                break;
            }
            let home = Self::home(flow.key & !DISORDERED, self.slots.len());
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = flow;
                hole = i;
            }
        }
        self.slots[hole] = Flow::default();
        self.used -= 1;
    }

    /// Double the table; from [`FORGET_FROM`] entries on, without the
    /// flows that drained in order.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let forget = len >= FORGET_FROM;
        self.grow_at = if forget { len / 8 * 5 } else { len / 4 * 3 };
        let old = std::mem::replace(&mut self.slots, vec![Flow::default(); len]);
        self.used = 0;
        for flow in old {
            if flow.key != 0 && !(forget && flow.drained()) {
                let mut i = Self::home(flow.key & !DISORDERED, len);
                while self.slots[i].key != 0 {
                    i = (i + 1) & (len - 1);
                }
                self.slots[i] = flow;
                self.used += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

    /// A delivered number: its flow, `FlowOrder`'s number and, for a
    /// stamped cell, the oracle pair's.
    #[derive(Debug, Clone, Copy)]
    struct Cell {
        src: usize,
        dst: usize,
        seq: u64,
        want: Option<u64>,
    }

    /// One flow as the oracle pair numbers it.
    #[derive(Debug, Default)]
    struct Ledger {
        next: u64,
        expected: u64,
        /// A delivery of the flow was out of turn or carried a number
        /// the flow had not stamped.
        disordered: bool,
        /// The oracle's number of `FlowOrder`'s 0.
        base: u64,
    }

    impl Ledger {
        /// [`Flow::drained`] on the oracle's numbers.
        fn drained(&self) -> bool {
            !self.disordered && self.next == self.expected
        }
    }

    /// `FlowOrder` beside the stamper/checker pair, each flow's numbers
    /// shifted by its base: the oracle's number of `FlowOrder`'s 0.
    ///
    /// Before every stamp and delivery, a flow the table holds must have
    /// the oracle's counters and disorder, shifted by the base, and a
    /// flow it does not hold must have drained in turn — only then does
    /// the base move, to the oracle's next number. After it, the stamp,
    /// the verdict, the expectation and the violation count must be the
    /// oracle's, shifted alike. So only numbers of a forgotten flow may
    /// differ from the oracle's, and only by the flow's base.
    #[derive(Default)]
    struct Shifted {
        order: FlowOrder,
        stamper: oracle::SequenceStamper,
        checker: oracle::SequenceChecker,
        flows: BTreeMap<(usize, usize), Ledger>,
        /// Flows of `flows` not drained in turn.
        undrained: usize,
        /// Forgotten flows that came back, numbered from 0 again.
        renumbered: usize,
        ops: usize,
    }

    impl Shifted {
        /// The flow's entry, if the table holds it.
        fn held(&self, src: usize, dst: usize) -> Option<Flow> {
            let slots = &self.order.slots;
            if slots.is_empty() {
                return None;
            }
            let key = ((src as u64) << 32 | dst as u64) + 1;
            let mut i = FlowOrder::home(key, slots.len());
            while let Some(flow) = slots.get(i).filter(|flow| flow.key != 0) {
                if flow.key & !DISORDERED == key {
                    return Some(*flow);
                }
                i = (i + 1) & (slots.len() - 1);
            }
            None
        }

        /// Every entry is reachable: no free slot lies between its home
        /// and it, no flow is held twice, and `used` counts them.
        fn check_table(&self) {
            let slots = &self.order.slots;
            let mut keys = BTreeSet::new();
            for (i, flow) in slots.iter().enumerate().filter(|(_, f)| f.key != 0) {
                let key = flow.key & !DISORDERED;
                assert!(
                    keys.insert(key),
                    "op {}: flow {key:#x} held twice",
                    self.ops
                );
                let mut j = FlowOrder::home(key, slots.len());
                while j != i {
                    assert!(
                        slots[j].key != 0,
                        "op {}: slot {i} is out of reach of its home",
                        self.ops
                    );
                    j = (j + 1) & (slots.len() - 1);
                }
            }
            assert_eq!(keys.len(), self.order.used, "op {}", self.ops);
        }

        /// Check the flow against the oracle, and move its base if the
        /// table forgot it; whether it was drained in turn.
        fn sync(&mut self, src: usize, dst: usize) -> bool {
            self.ops += 1;
            let held = self.held(src, dst);
            let flow = self.flows.entry((src, dst)).or_default();
            match held {
                Some(entry) => assert_eq!(
                    (
                        u64::from(entry.next) + flow.base,
                        u64::from(entry.expected) + flow.base,
                        entry.key & DISORDERED != 0,
                    ),
                    (flow.next, flow.expected, flow.disordered),
                    "op {}: {src}->{dst} holds other numbers than the oracle's",
                    self.ops
                ),
                None => {
                    assert!(
                        flow.drained(),
                        "op {}: {src}->{dst} forgotten though not drained in turn: {flow:?}",
                        self.ops
                    );
                    if flow.base != flow.next {
                        flow.base = flow.next;
                        self.renumbered += 1;
                    }
                }
            }
            flow.drained()
        }

        /// Keep `undrained` and check the violation count after an
        /// action on the flow.
        fn settle(&mut self, src: usize, dst: usize, was_drained: bool) {
            match (was_drained, self.flows[&(src, dst)].drained()) {
                (true, false) => self.undrained += 1,
                (false, true) => self.undrained -= 1,
                _ => {}
            }
            assert_eq!(
                self.order.reordered(),
                self.checker.reordered(),
                "op {}",
                self.ops
            );
        }

        fn stamp(&mut self, src: usize, dst: usize) -> Cell {
            let was_drained = self.sync(src, dst);
            let want = self.stamper.stamp(src, dst);
            let seq = self.order.stamp(src, dst);
            let flow = self.flows.get_mut(&(src, dst)).unwrap();
            let op = self.ops;
            if seq + flow.base != want {
                // A rebuild inside `stamp` forgot the flow first.
                assert!(
                    seq == 0 && was_drained,
                    "op {op}: {src}->{dst} renumbered from {want} to {seq} though not \
                     drained in turn: {flow:?}"
                );
                flow.base = want;
                self.renumbered += 1;
            }
            assert_eq!(want, flow.next, "op {op}");
            flow.next += 1;
            self.settle(src, dst, was_drained);
            Cell {
                src,
                dst,
                seq,
                want: Some(want),
            }
        }

        /// Deliver `cell`; `FlowOrder`'s expectation.
        fn deliver(&mut self, cell: Cell) -> u64 {
            let Cell { src, dst, seq, .. } = cell;
            let was_drained = self.sync(src, dst);
            let expected = self.order.record(src, dst, seq);
            let held = self.held(src, dst);
            let flow = self.flows.get_mut(&(src, dst)).unwrap();
            let op = self.ops;
            match held {
                // A rebuild inside `record` forgot the flow first; only a
                // number it never stamped can be delivered to it.
                Some(entry) if u64::from(entry.next) + flow.base != flow.next => {
                    assert!(
                        entry.next == 0 && was_drained && cell.want.is_none(),
                        "op {op}: {src}->{dst} renumbered on delivery: {flow:?}"
                    );
                    flow.base = flow.next;
                    self.renumbered += 1;
                }
                _ => {}
            }
            let want = cell.want.unwrap_or(seq + flow.base);
            let verdict = self.checker.record(src, dst, want);
            assert_eq!(
                seq + flow.base,
                want,
                "op {op}: {src}->{dst} renumbered with a cell in flight"
            );
            assert_eq!(expected == seq, verdict, "op {op}: {src}->{dst} {seq}");
            assert_eq!(
                expected + flow.base,
                flow.expected,
                "op {op}: {src}->{dst}: the expectation is not the oracle's"
            );
            flow.expected = flow.expected.max(want + 1);
            flow.disordered |= !verdict || want >= flow.next;
            self.settle(src, dst, was_drained);
            expected
        }
    }

    /// Below the floor the table holds every flow touched, and past it
    /// only the flows in flight: 10 000 random flows over 32 768 ports,
    /// each drained as soon as it is stamped, fill it to the floor and
    /// no further. A dense table would hold up to 2³⁰ counters.
    #[test]
    fn table_memory_follows_touched_flows_not_ports_squared() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut pair = Shifted::default();
        let mut flows: Vec<(usize, usize)> = (0..10_000)
            .map(|_| (rng.index(32_768), rng.index(32_768)))
            .collect();
        for _ in 0..3 {
            for &(src, dst) in &flows {
                let cell = pair.stamp(src, dst);
                assert_eq!(pair.deliver(cell), cell.seq);
                let (used, len) = (pair.order.used, pair.order.slots.len());
                if len < FORGET_FROM {
                    assert_eq!(used, pair.flows.len(), "{len} slots");
                    assert!(len * 3 >= used * 4, "over-full");
                } else {
                    assert_eq!(used, pair.undrained, "{len} slots");
                }
            }
        }
        assert_eq!(pair.order.reordered(), 0);
        assert_eq!(pair.order.used, 0);
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(pair.flows.len(), flows.len());
        assert_eq!(pair.order.slots.len(), FORGET_FROM);
    }

    /// Below the floor the table keeps every flow it has seen; from the
    /// floor on it holds exactly the flows not drained in turn, after
    /// every stamp, delivery and loss. A 64-port table never reaches the
    /// floor.
    #[test]
    fn past_the_floor_the_table_holds_exactly_the_undrained_flows() {
        for ports in [64usize, 2_048, 32_768] {
            let mut rng = SimRng::seed_from_u64(ports as u64 + 1);
            let mut pair = Shifted::default();
            let mut flying: VecDeque<Cell> = VecDeque::new();
            let mut known: Vec<(usize, usize)> = Vec::new();
            let mut past = 0;
            for step in 0..60_000 {
                match rng.index(16) {
                    0..=7 => {
                        let (src, dst) = if !known.is_empty() && rng.coin(0.5) {
                            known[known.len() - 1 - rng.index(known.len().min(64))]
                        } else {
                            (rng.index(ports), rng.index(ports))
                        };
                        known.push((src, dst));
                        flying.push_back(pair.stamp(src, dst));
                    }
                    8..=12 if !flying.is_empty() => {
                        let cell = flying.pop_front().unwrap();
                        pair.deliver(cell);
                    }
                    13 if !flying.is_empty() => {
                        let cell = flying.remove(rng.index(flying.len())).unwrap();
                        pair.deliver(cell);
                    }
                    14 if !flying.is_empty() => {
                        flying.remove(rng.index(flying.len()));
                    }
                    _ => {}
                }
                if step % 2_000 == 0 {
                    pair.check_table();
                }
                let (used, len) = (pair.order.used, pair.order.slots.len());
                if len >= FORGET_FROM {
                    assert_eq!(used, pair.undrained, "{ports} ports, step {step}");
                    assert!(len * 5 >= used * 8, "{ports} ports, step {step}: over-full");
                    past += 1;
                } else {
                    assert_eq!(used, pair.flows.len(), "{ports} ports, step {step}");
                }
            }
            pair.check_table();
            assert_eq!(
                past > 0,
                ports > 64,
                "{ports} ports: {past} steps past the floor"
            );
        }
    }

    /// Random scripts of stamps, in-order deliveries, cells that are
    /// stamped and never delivered (the deflection and OCS drop case),
    /// deliveries out of turn and numbers drawn at random: every
    /// sequence number, every verdict and the violation count after
    /// every step must be the old pair's, shifted by the flow's base.
    #[test]
    fn agrees_with_the_stamper_checker_pair_step_for_step() {
        for (ports, steps) in [(64usize, 20_000), (2_048, 40_000), (32_768, 40_000)] {
            let mut rng = SimRng::seed_from_u64(ports as u64);
            let mut pair = Shifted::default();
            // Stamped and not yet delivered, oldest first.
            let mut flying: Vec<Cell> = Vec::new();
            // Half the stamps revisit a known flow so flows grow long.
            let mut known: Vec<(usize, usize)> = Vec::new();
            for _ in 0..steps {
                match rng.index(16) {
                    0..=7 => {
                        let (src, dst) = if !known.is_empty() && rng.coin(0.5) {
                            known[rng.index(known.len())]
                        } else {
                            (rng.index(ports), rng.index(ports))
                        };
                        known.push((src, dst));
                        flying.push(pair.stamp(src, dst));
                    }
                    8..=12 if !flying.is_empty() => {
                        pair.deliver(flying.remove(0));
                    }
                    13 if !flying.is_empty() => {
                        // Out of turn: early for its flow if an older
                        // cell of it is still flying, which then is late.
                        pair.deliver(flying.remove(rng.index(flying.len())));
                    }
                    14 if !flying.is_empty() => {
                        // Lost in the fabric: the flow's next delivery
                        // arrives over a gap.
                        flying.remove(rng.index(flying.len()));
                    }
                    15 if !known.is_empty() => {
                        // A number drawn at random: a cell of the flow
                        // still flying is delivered now; any other number
                        // is a duplicate or one the flow has not stamped.
                        let (src, dst) = known[rng.index(known.len())];
                        let seq = rng.below(1_000);
                        let cell = match (flying.iter())
                            .position(|c| (c.src, c.dst, c.seq) == (src, dst, seq))
                        {
                            Some(i) => flying.remove(i),
                            None => Cell {
                                src,
                                dst,
                                seq,
                                want: None,
                            },
                        };
                        pair.deliver(cell);
                    }
                    _ => {}
                }
            }
            pair.check_table();
            let len = pair.order.slots.len();
            assert!(
                len >= 64 << 4,
                "{ports} ports: only {len} slots, fewer than four doublings"
            );
            assert_eq!(len >= FORGET_FROM, ports > 64, "{ports} ports: {len} slots");
            assert!(
                pair.order.reordered() > 0,
                "{ports} ports: no violation scripted"
            );
        }
    }

    /// The differential test above, run far past [`FORGET_FROM`] with
    /// most flows forgotten and many coming back: a quarter of the stamps
    /// revisit one of the last 64 flows, so cells of a flow overtake each
    /// other, and a quarter any known flow, forgotten ones included.
    #[test]
    fn agrees_with_the_pair_past_the_floor() {
        let mut rng = SimRng::seed_from_u64(41);
        let mut pair = Shifted::default();
        let mut flying: VecDeque<Cell> = VecDeque::new();
        let mut known: Vec<(usize, usize)> = Vec::new();
        for step in 0..600_000 {
            if step % 20_000 == 0 {
                pair.check_table();
            }
            let delivery = match rng.index(32) {
                0..=15 => {
                    let (src, dst) = match rng.index(4) {
                        0 if !known.is_empty() => {
                            known[known.len() - 1 - rng.index(known.len().min(64))]
                        }
                        1 if !known.is_empty() => known[rng.index(known.len())],
                        _ => (rng.index(2_048), rng.index(2_048)),
                    };
                    known.push((src, dst));
                    flying.push_back(pair.stamp(src, dst));
                    None
                }
                16..=28 => flying.pop_front(),
                29 | 30 if !flying.is_empty() => flying.remove(rng.index(flying.len())),
                31 if !flying.is_empty() => {
                    // Lost: the flow never drains again.
                    flying.remove(rng.index(flying.len()));
                    None
                }
                _ => None,
            };
            if let Some(cell) = delivery {
                pair.deliver(cell);
            }
        }
        pair.check_table();
        assert!(pair.renumbered > 0, "no forgotten flow came back");
        assert!(pair.order.reordered() > 0, "no violation scripted");
        let (len, touched) = (pair.order.slots.len(), pair.flows.len());
        assert!(
            2 * len < touched,
            "{len} slots for {touched} flows: drained flows were kept"
        );
    }

    /// A flow whose early cell brought `next` and `expected` level while
    /// a late one was still in flight is not drained: it outlives every
    /// flow forgotten around it, and its late cell still counts.
    #[test]
    fn a_late_cell_counts_past_the_floor() {
        let mut pair = Shifted::default();
        let (first, second) = (pair.stamp(5, 6), pair.stamp(5, 6));
        assert_eq!(pair.deliver(second), 0, "early");
        for flow in 0..4 * FORGET_FROM {
            let (src, dst) = (1_000 + flow / 4_096, flow % 4_096);
            let cell = pair.stamp(src, dst);
            assert_eq!(pair.deliver(cell), cell.seq);
        }
        assert_eq!(
            pair.order.slots.len(),
            FORGET_FROM,
            "drained flows were kept"
        );
        assert_eq!(pair.deliver(first), 2, "late");
        assert_eq!(pair.order.reordered(), 2);
        assert_eq!(pair.stamp(5, 6).seq, 2, "the flow's numbering was kept");
    }
}
