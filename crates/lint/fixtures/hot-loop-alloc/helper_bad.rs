//! Fixture hot path: analyzed as `crates/fabric/src/mesh.rs`. The phase
//! hook itself is clean; the per-switch helper it calls builds a map and
//! a vector on every call — the shape a rule scoped to `arbitrate` and
//! `tick` alone cannot see. So does the scheduler round a `tick`
//! delegates to: `iterate` rebuilds its grant table, `take` returns a
//! fresh vector. The host edge collects the queued hosts into a vector
//! every slot, and the per-hop router spells the destination out digit
//! by digit.

pub struct Mesh {
    switches: usize,
}

impl Mesh {
    fn arbitrate(&mut self, slot: u64) {
        for sw in 0..self.switches {
            let matched = self.match_switch(sw);
            self.send(sw, &matched, slot);
        }
    }

    fn match_switch(&mut self, sw: usize) -> Vec<(u32, u32)> {
        let mut matched = Vec::new();
        let mut requests = BTreeMap::new();
        self.collect_requests(sw, &mut requests);
        self.grant_accept(&requests, &mut matched);
        matched
    }

    fn tick(&mut self, slot: u64) -> usize {
        self.iterate();
        self.take().len()
    }

    fn iterate(&mut self) {
        let grants = vec![0u64; self.switches];
        self.accept(&grants);
    }

    fn take(&mut self) -> Vec<(u32, u32)> {
        self.pairs.drain(..).collect()
    }

    fn deliver(&mut self, slot: u64) {
        let queued: Vec<usize> = (0..self.hosts).filter(|&h| self.backlog(h) > 0).collect();
        for h in queued {
            self.inject(h, slot);
        }
    }

    fn route(&self, level: u32, dst: u32) -> u32 {
        let digits: Vec<u32> = (0..self.levels).map(|l| dst / self.m.pow(l) % self.m).collect();
        digits[level as usize]
    }
}
