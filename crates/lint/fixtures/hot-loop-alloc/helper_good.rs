//! Fixture hot path: analyzed as `crates/fabric/src/mesh.rs`. The
//! per-switch helper matches into struct-level scratch that is cleared,
//! never rebuilt; the scheduler round clears its grant table in place
//! and harvests into the caller's buffer. The host edge walks a bitset
//! of the queued hosts, and the router divides by a table of powers.

pub struct Mesh {
    switches: usize,
    /// The last matching; reused across switches and slots.
    matched: Vec<(u32, u32)>,
    /// Request masks, one word per output.
    requests: Vec<u64>,
    /// Grant masks, one word per input.
    grants: Vec<u64>,
    /// One bit per host with a queued cell.
    queued: Vec<u64>,
    /// m^l per level.
    pow: Vec<u32>,
}

impl Mesh {
    fn arbitrate(&mut self, slot: u64) {
        for sw in 0..self.switches {
            self.match_switch(sw);
            self.send(sw, slot);
        }
    }

    fn match_switch(&mut self, sw: usize) {
        self.matched.clear();
        self.requests.fill(0);
        self.collect_requests(sw);
        self.grant_accept();
    }

    fn tick(&mut self, slot: u64, out: &mut Vec<(u32, u32)>) {
        self.iterate();
        self.take(out);
    }

    fn iterate(&mut self) {
        self.grants.fill(0);
        self.accept();
    }

    fn take(&mut self, out: &mut Vec<(u32, u32)>) {
        out.clear();
        out.extend(self.matched.drain(..));
    }

    fn deliver(&mut self, slot: u64) {
        for w in 0..self.queued.len() {
            let mut bits = self.queued[w];
            while bits != 0 {
                self.inject(w * 64 + bits.trailing_zeros() as usize, slot);
                bits &= bits - 1;
            }
        }
    }

    fn route(&self, level: u32, dst: u32) -> u32 {
        dst / self.pow[level as usize] % self.m
    }
}
