//! Fixture hot path: analyzed as `crates/traffic/src/order.rs`. `stamp`
//! and `record` probe the table in place; the only allocation is the
//! doubling in `#[cold] grow`, which neither the list nor the rule
//! reaches.

pub struct FlowOrder {
    slots: Vec<(u64, u32, u32)>,
    used: usize,
}

impl FlowOrder {
    pub fn stamp(&mut self, src: usize, dst: usize) -> u64 {
        let i = self.find(pack(src, dst));
        self.slots[i].1 += 1;
        u64::from(self.slots[i].1 - 1)
    }

    pub fn record(&mut self, src: usize, dst: usize, seq: u64) -> bool {
        let i = self.find(pack(src, dst));
        let in_order = u64::from(self.slots[i].2) == seq;
        self.slots[i].2 += in_order as u32;
        in_order
    }

    fn find(&mut self, key: u64) -> usize {
        if self.used * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        while self.slots[i].0 != key && self.slots[i].0 != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0); len]);
        self.reinsert(old);
    }
}
