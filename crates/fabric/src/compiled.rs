//! A slotted cell simulator for *any* expanded topology.
//!
//! [`CompiledFabric`] consumes an [`ExpandedFabric`] — fat tree,
//! dragonfly or full mesh — and runs it on the shared engine:
//! input-buffered crossbars (buffer-placement option 3), iterative
//! round-robin matching per switch per slot, credit flow control on
//! every switch-to-switch link with a deterministic RTT, per-flow stable
//! minimal routing ([`ExpandedFabric::route`]), and losslessness
//! asserted rather than measured. The stage and switch counts of the
//! simulated topology ride along as `extra("stages")` and
//! `extra("switches")`, so fabrics of different radix can be compared at
//! the same host count, hop for hop (the §VI.C argument in motion).
//!
//! VOQs are keyed sparsely by (input, output) — a dense ports² array of
//! queues per switch would be about a gigabyte of empty `VecDeque`s at
//! 32768 ports — and idle switches are skipped entirely, so the 32K-port
//! acceptance instances simulate in bounded memory. Switches are matched
//! in id order, outputs ascending within each grant/accept iteration; an
//! absent VOQ contributes no request, so the matchings are those of a
//! dense VOQ array.
//!
//! Dragonfly minimal routes traverse local→global→local hops whose
//! credit loops are cyclic; at the moderate loads used for latency
//! studies this is benign, but the compiled fabric makes no
//! deadlock-freedom claim for dragonflies driven to saturation.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId, HostId, SwitchId};
use crate::spec::{TopologyError, TopologySpec};
use osmosis_sched::arbiter::{BitSet, RoundRobinArbiter};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_switch::Cell;
use osmosis_traffic::{Arrival, SequenceChecker, SequenceStamper, TrafficGen};
use std::collections::{BTreeMap, VecDeque};

use crate::multistage::Placement;

/// Destination of a sent cell.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Host(u32),
    /// (switch, input port).
    Switch(u32, u32),
}

/// Destination of a returned credit.
#[derive(Debug, Clone, Copy)]
enum Credit {
    Host(u32),
    /// (switch, output port).
    Switch(u32, u32),
}

/// Per-switch simulation state. VOQs are keyed sparsely: a queue exists
/// only while it holds cells, so idle regions of a 32K-port fabric cost
/// nothing per slot.
struct CompiledNode {
    voq: BTreeMap<(u32, u32), VecDeque<Cell>>,
    input_occupancy: Vec<u32>,
    /// Cells resident in this switch (skip the matching loop at 0).
    total: u32,
    /// Send credits per output (usize::MAX for host sinks, 0 for
    /// unconnected ports — never granted).
    credits: Vec<usize>,
    grant_arb: Vec<RoundRobinArbiter>,
    accept_arb: Vec<RoundRobinArbiter>,
    downstream: Vec<Option<Hop>>,
    upstream: Vec<Option<Credit>>,
}

/// The compiled-topology fabric simulator.
pub struct CompiledFabric {
    spec: TopologySpec,
    fab: ExpandedFabric,
    buffer_cells: usize,
    nodes: Vec<CompiledNode>,
    host_queues: Vec<VecDeque<Cell>>,
    host_credits: Vec<usize>,
    cell_flights: VecDeque<(u64, Hop, Cell)>,
    credit_flights: VecDeque<(u64, Credit)>,
    stamper: SequenceStamper,
    checker: SequenceChecker,
    next_id: u64,
    requesters: BitSet,
    grants_to_input: Vec<BitSet>,
    in_matched: Vec<bool>,
    out_matched: Vec<bool>,
}

impl CompiledFabric {
    /// Expand `spec` and build the simulator. Panics on an invalid spec;
    /// use [`try_new`](Self::try_new) where the spec comes from external
    /// input (CLI flags, sweep grids).
    pub fn new(spec: TopologySpec) -> Self {
        match Self::try_new(spec) {
            Ok(fab) => fab,
            // lint:allow(panic-free): documented panic contract of the
            // infallible constructor; `try_new` is the checked form
            Err(e) => panic!("{e}"),
        }
    }

    /// Expand `spec` and build the simulator, rejecting invalid specs
    /// with a typed error.
    pub fn try_new(spec: TopologySpec) -> Result<Self, TopologyError> {
        if spec.placement != Placement::InputOnly {
            return Err(TopologyError::UnsupportedPlacement {
                placement: spec.placement,
            });
        }
        let fab = ExpandedFabric::expand(spec)?;
        Ok(Self::over(fab))
    }

    /// Build the simulator over an already-expanded graph.
    pub fn over(fab: ExpandedFabric) -> Self {
        let spec = *fab.spec();
        let radix = spec.radix;
        let buffer = spec.buffer_cells();
        let nodes = fab
            .switches
            .ids()
            .map(|sw| {
                let mut downstream = Vec::with_capacity(radix);
                let mut upstream = Vec::with_capacity(radix);
                let mut credits = Vec::with_capacity(radix);
                for local in 0..radix {
                    let peer = fab.ports[fab.port_id(sw, local as u32)].peer;
                    let (down, credit, up) = match peer {
                        Peer::Host(h) => (
                            Some(Hop::Host(h.raw())),
                            usize::MAX,
                            Some(Credit::Host(h.raw())),
                        ),
                        Peer::Port(far) => {
                            let far_sw = fab.ports[far].switch.raw();
                            let far_local = fab.ports[far].local;
                            (
                                Some(Hop::Switch(far_sw, far_local)),
                                buffer,
                                Some(Credit::Switch(far_sw, far_local)),
                            )
                        }
                        Peer::Unconnected => (None, 0, None),
                    };
                    downstream.push(down);
                    credits.push(credit);
                    upstream.push(up);
                }
                CompiledNode {
                    voq: BTreeMap::new(),
                    input_occupancy: vec![0; radix],
                    total: 0,
                    credits,
                    grant_arb: (0..radix).map(|_| RoundRobinArbiter::new(radix)).collect(),
                    accept_arb: (0..radix).map(|_| RoundRobinArbiter::new(radix)).collect(),
                    downstream,
                    upstream,
                }
            })
            .collect();
        let hosts = fab.hosts.len();
        CompiledFabric {
            spec,
            buffer_cells: buffer,
            nodes,
            host_queues: (0..hosts).map(|_| VecDeque::new()).collect(),
            host_credits: vec![buffer; hosts],
            cell_flights: VecDeque::new(),
            credit_flights: VecDeque::new(),
            stamper: SequenceStamper::new(),
            checker: SequenceChecker::new(),
            next_id: 0,
            requesters: BitSet::new(radix),
            grants_to_input: (0..radix).map(|_| BitSet::new(radix)).collect(),
            in_matched: vec![false; radix],
            out_matched: vec![false; radix],
            fab,
        }
    }

    /// The expanded graph under simulation.
    pub fn expanded(&self) -> &ExpandedFabric {
        &self.fab
    }

    /// Run traffic through the fabric on the shared engine. The stage
    /// and switch counts of the topology ride along as report extras.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }

    /// Match one switch for one slot: iterative round-robin grant/accept
    /// over the sparsely occupied VOQs, outputs ascending per iteration.
    fn match_switch(&mut self, sw: usize) -> Vec<(u32, u32)> {
        let radix = self.spec.radix;
        let iterations = self.spec.iterations;
        let node = &mut self.nodes[sw];
        let mut matched: Vec<(u32, u32)> = Vec::new();
        // Requesting inputs per output, from the occupied VOQs only.
        let mut out_reqs: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(i, o) in node.voq.keys() {
            out_reqs.entry(o).or_default().push(i);
        }
        self.in_matched[..radix].fill(false);
        self.out_matched[..radix].fill(false);
        for _ in 0..iterations {
            for g in self.grants_to_input.iter_mut() {
                g.clear_all();
            }
            let mut any = false;
            for (&o, ins) in out_reqs.iter() {
                if self.out_matched[o as usize] || node.credits[o as usize] == 0 {
                    continue;
                }
                self.requesters.clear_all();
                let mut have = false;
                for &i in ins {
                    if !self.in_matched[i as usize] {
                        self.requesters.set(i as usize);
                        have = true;
                    }
                }
                if !have {
                    continue;
                }
                if let Some(i) = node.grant_arb[o as usize].arbitrate(&self.requesters) {
                    self.grants_to_input[i].set(o as usize);
                    any = true;
                }
            }
            if !any {
                break;
            }
            for i in 0..radix {
                if self.in_matched[i] || self.grants_to_input[i].is_empty() {
                    continue;
                }
                if let Some(o) = node.accept_arb[i].arbitrate(&self.grants_to_input[i]) {
                    self.in_matched[i] = true;
                    self.out_matched[o] = true;
                    node.grant_arb[o].advance_past(i);
                    node.accept_arb[i].advance_past(o);
                    matched.push((i as u32, o as u32));
                }
            }
        }
        matched
    }
}

impl CellSwitch for CompiledFabric {
    fn ports(&self) -> usize {
        self.host_queues.len()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.checker = SequenceChecker::new();
        // Engine-level buffer override re-arms the credit loops (valid on
        // a fabric that has not run yet).
        if let Some(b) = cfg.buffer_cells {
            if b != self.buffer_cells {
                assert!(b >= 1);
                self.buffer_cells = b;
                for node in self.nodes.iter_mut() {
                    for (c, d) in node.credits.iter_mut().zip(node.downstream.iter()) {
                        if let Some(Hop::Switch(..)) = d {
                            *c = b;
                        }
                    }
                }
                self.host_credits.iter_mut().for_each(|c| *c = b);
            }
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let d = self.spec.link_delay;
        let buffer_cells = self.buffer_cells;

        // Cell arrivals from links.
        while self
            .cell_flights
            .front()
            .is_some_and(|&(at, _, _)| at == slot)
        {
            let Some((_, hop, cell)) = self.cell_flights.pop_front() else {
                break;
            };
            match hop {
                Hop::Host(h) => {
                    debug_assert_eq!(cell.dst, h as usize);
                    self.checker.record(cell.src, cell.dst, cell.seq);
                    obs.cell_delivered_flow(h as usize, cell.inject_slot, cell.src, cell.seq);
                }
                Hop::Switch(sw, in_port) => {
                    let out = self.fab.route(
                        SwitchId::new(sw),
                        in_port,
                        HostId::from_index(cell.src),
                        HostId::from_index(cell.dst),
                    );
                    let node = &mut self.nodes[sw as usize];
                    node.input_occupancy[in_port as usize] += 1;
                    assert!(
                        node.input_occupancy[in_port as usize] as usize <= buffer_cells,
                        "buffer overflow at switch {sw} port {in_port}"
                    );
                    node.total += 1;
                    obs.note_queue_depth(node.input_occupancy[in_port as usize] as usize);
                    node.voq.entry((in_port, out)).or_default().push_back(cell);
                }
            }
        }

        // Credit returns.
        while self
            .credit_flights
            .front()
            .is_some_and(|&(at, _)| at == slot)
        {
            let Some((_, credit)) = self.credit_flights.pop_front() else {
                break;
            };
            match credit {
                Credit::Host(h) => self.host_credits[h as usize] += 1,
                Credit::Switch(sw, port) => {
                    self.nodes[sw as usize].credits[port as usize] += 1;
                }
            }
        }

        // Matchings, switch by switch; idle switches cost nothing.
        for sw in 0..self.nodes.len() {
            if self.nodes[sw].total == 0 {
                continue;
            }
            let matched = self.match_switch(sw);
            for (i, o) in matched {
                let (cell, down, credit_to) = {
                    let node = &mut self.nodes[sw];
                    let Some(queue) = node.voq.get_mut(&(i, o)) else {
                        // lint:allow(panic-free): the matching only pairs
                        // ports with an occupied VOQ
                        panic!("matched pair without a queue");
                    };
                    let Some(mut cell) = queue.pop_front() else {
                        // lint:allow(panic-free): occupied-VOQ invariant,
                        // as above
                        panic!("matched pair with an empty queue");
                    };
                    if queue.is_empty() {
                        node.voq.remove(&(i, o));
                    }
                    cell.grant_slot = slot;
                    node.input_occupancy[i as usize] -= 1;
                    node.total -= 1;
                    // Host sinks drain a cell per slot and are not
                    // credit-controlled; only switch links consume.
                    if let Some(Hop::Switch(..)) = node.downstream[o as usize] {
                        node.credits[o as usize] -= 1;
                    }
                    (cell, node.downstream[o as usize], node.upstream[i as usize])
                };
                let Some(down) = down else {
                    // lint:allow(panic-free): routing never selects an
                    // unconnected output on a validated expansion
                    panic!("matched cell bound for an unconnected port");
                };
                if let Some(credit) = credit_to {
                    self.credit_flights.push_back((slot + d, credit));
                }
                self.cell_flights.push_back((slot + d, down, cell));
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let d = self.spec.link_delay;
        for h in 0..self.host_queues.len() {
            if self.host_credits[h] > 0 {
                if let Some(cell) = self.host_queues[h].pop_front() {
                    self.host_credits[h] -= 1;
                    let (sw, local) = self.fab.host_attach(HostId::from_index(h));
                    self.cell_flights
                        .push_back((slot + d, Hop::Switch(sw.raw(), local), cell));
                }
            } else if !self.host_queues[h].is_empty() {
                let (sw, local) = self.fab.host_attach(HostId::from_index(h));
                obs.credit_stall(sw.index(), local as usize);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        for a in arrivals {
            let seq = self.stamper.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            obs.cell_injected(a.src, a.dst);
            self.host_queues[a.src].push_back(cell);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.checker.reordered();
        report.set_extra("stages", self.spec.stages() as f64);
        report.set_extra("switches", self.nodes.len() as f64);
    }

    fn resident_cells(&self) -> Option<u64> {
        let mut n = self.cell_flights.len() as u64;
        n += self.host_queues.iter().map(|q| q.len() as u64).sum::<u64>();
        n += self.nodes.iter().map(|node| node.total as u64).sum::<u64>();
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    fn run_spec(spec: TopologySpec, load: f64, seed: u64) -> EngineReport {
        let mut fab = CompiledFabric::new(spec);
        let hosts = fab.ports();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
        fab.run(&mut tr, &EngineConfig::new(300, 3_000))
    }

    /// The m-ary folded Clos of `levels` radix-`radix` switch levels.
    fn run_clos(radix: usize, levels: u32, load: f64, seed: u64) -> EngineReport {
        let spec = TopologySpec::m_ary_fat_tree(radix, levels);
        let mut fab = CompiledFabric::new(spec);
        let mut tr = BernoulliUniform::new(fab.ports(), load, &SeedSequence::new(seed));
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    fn stages(r: &EngineReport) -> u32 {
        r.extra("stages").unwrap() as u32
    }

    #[test]
    fn single_level_is_one_switch() {
        let r = run_clos(8, 1, 0.5, 1);
        assert_eq!(stages(&r), 1);
        assert!((r.throughput - 0.5).abs() < 0.03);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn two_level_carries_load_lossless_in_order() {
        let r = run_clos(8, 2, 0.5, 2);
        assert!((r.throughput - 0.5).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn four_level_radix4_works_too() {
        // 16 hosts through a 7-stage fabric of radix-4 switches.
        let r = run_clos(4, 4, 0.3, 3);
        assert_eq!(stages(&r), 7);
        assert!((r.throughput - 0.3).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn section_6c_in_motion_fewer_stages_less_latency() {
        // Same 16 hosts, same load, same links: the 3-stage radix-8
        // fabric beats the 7-stage radix-4 fabric on latency — §VI.C's
        // "each stage contributes to latency", simulated.
        let big_radix = run_clos(8, 2, 0.2, 4);
        let small_radix = run_clos(4, 4, 0.2, 4);
        assert!(
            small_radix.mean_delay > big_radix.mean_delay + 4.0,
            "7-stage {} vs 3-stage {}",
            small_radix.mean_delay,
            big_radix.mean_delay
        );
    }

    #[test]
    fn compiled_fat_trees_are_lossless_and_in_order() {
        // Lossless, in order, throughput tracks offered load.
        for spec in [
            TopologySpec::two_level(8),
            TopologySpec::m_ary_fat_tree(8, 2),
            TopologySpec::fat_tree(4, 3),
        ] {
            let r = run_spec(spec, 0.3, 7);
            assert_eq!(r.reordered, 0, "{spec}");
            assert!(r.throughput > 0.2, "{spec}: {}", r.throughput);
            assert_eq!(r.extra("stages"), Some(spec.stages() as f64));
        }
    }

    #[test]
    fn compiled_dragonfly_and_mesh_run_clean() {
        for spec in [TopologySpec::dragonfly(8, 4), TopologySpec::full_mesh(8, 5)] {
            let r = run_spec(spec, 0.2, 11);
            assert_eq!(r.reordered, 0, "{spec}");
            assert!(r.throughput > 0.1, "{spec}: {}", r.throughput);
        }
    }

    #[test]
    fn compiled_rejects_unsupported_placement() {
        let mut spec = TopologySpec::two_level(8);
        spec.placement = Placement::OutputOnly;
        assert!(matches!(
            CompiledFabric::try_new(spec),
            Err(TopologyError::UnsupportedPlacement { .. })
        ));
    }

    #[test]
    fn compiled_runs_are_deterministic() {
        for spec in [
            TopologySpec::dragonfly(8, 4),
            TopologySpec::m_ary_fat_tree(8, 2),
        ] {
            let a = run_spec(spec, 0.25, 42);
            let b = run_spec(spec, 0.25, 42);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{spec}");
        }
    }
}
