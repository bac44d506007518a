//! Fixture hot path: analyzed as `crates/traffic/src/order.rs`. Both
//! per-cell entry points of the flow table allocate: `stamp` collects the
//! probe sequence before walking it, `record` copies the table to search
//! the copy. The `#[cold] grow` they fall into allocates too, and is not
//! a finding — it runs once per doubling, is not on the list, and the
//! check follows names, not calls.

pub struct FlowOrder {
    slots: Vec<(u64, u32, u32)>,
    used: usize,
}

impl FlowOrder {
    pub fn stamp(&mut self, src: usize, dst: usize) -> u64 {
        if self.used * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let key = pack(src, dst);
        let probes: Vec<usize> = (0..self.slots.len()).map(|k| self.probe(key, k)).collect();
        let i = self.first_match(key, &probes);
        self.slots[i].1 += 1;
        u64::from(self.slots[i].1 - 1)
    }

    pub fn record(&mut self, src: usize, dst: usize, seq: u64) -> bool {
        let key = pack(src, dst);
        let snapshot = self.slots.to_vec();
        let i = snapshot.iter().position(|s| s.0 == key).unwrap_or(0);
        let in_order = u64::from(self.slots[i].2) == seq;
        self.slots[i].2 += in_order as u32;
        in_order
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0); len]);
        self.reinsert(old);
    }
}
