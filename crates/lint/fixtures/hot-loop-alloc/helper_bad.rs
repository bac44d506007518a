//! Fixture hot path: analyzed as `crates/fabric/src/mesh.rs`. The phase
//! hook itself is clean; the per-switch helper it calls builds a map and
//! a vector on every call — the shape a rule scoped to `arbitrate` and
//! `tick` alone cannot see.

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
}
