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
//! All switch state lives in flat tables indexed by the expansion's
//! global port number, `switch * radix + local`: credits outstanding,
//! round-robin pointers, the far end of the port's cable, and one
//! arrival-ordered input buffer of `buffer_cells` flits — a `Flit` being
//! the 20 bytes of a cell this simulator reads plus a word for where it
//! is headed. The credit loop bounds every buffer, so a switch costs
//! `radix × buffer_cells` flits; `configure` sizes the tables once, where
//! the run's buffer depth is known, and construction keeps only the
//! graph and the host queues. Every link has the spec's one delay d, so
//! cells and credits on links sit in wheels of d + 1 buckets indexed
//! `slot % (d + 1)`: a slot drains its own bucket in the order it was
//! filled and appends to the bucket d ahead, the one drained the slot
//! before. The ordering check ([`FlowOrder`]) is the one table a run
//! does not keep in cache, so `admit` and `arbitrate` each make its
//! lookups in a loop of their own, where the misses overlap.
//!
//! The VOQs are virtual: VOQ (i, o) is the entries of input i's buffer
//! tagged o, in arrival order, and its "non-empty" signal is bit i of
//! output o's request mask. Matching is the hardware scheduler's:
//! request bit-vectors into programmable priority encoders, the
//! word-parallel kernel of [`osmosis_sched::matching`] that
//! `FatTreeFabric` and the CIOQ and burst switches share. Switches
//! holding no cell are skipped; the others are matched
//! in id order, outputs ascending in each grant pass and inputs
//! ascending in each accept pass, so the matchings are those of a dense
//! VOQ array scanned in index order.
//!
//! Dragonfly minimal routes traverse local→global→local hops whose
//! credit loops are cyclic; at the moderate loads used for latency
//! studies this is benign, but the compiled fabric makes no
//! deadlock-freedom claim for dragonflies driven to saturation.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId, HostId, PortId};
use crate::spec::{TopologyError, TopologySpec};
use osmosis_sched::matching::Matcher;
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_traffic::{Arrival, FlowOrder, TrafficGen};
use std::collections::VecDeque;

use crate::multistage::Placement;

/// Set in a flit's `at` or a `peer` entry that names a host, not a port.
const HOST: u32 = 1 << 31;
/// The `peer` entry of a port nothing is cabled to.
const UNCONNECTED: u32 = u32::MAX;

/// What this simulator reads of a cell, and where the cell is headed.
#[derive(Default, Clone, Copy)]
struct Flit {
    inject: u64,
    src: u32,
    dst: u32,
    seq: u32,
    /// The routed output while buffered; on a link, the port it lands
    /// on, or `HOST | host`.
    at: u32,
}

/// The compiled-topology fabric simulator.
pub struct CompiledFabric {
    spec: TopologySpec,
    fab: ExpandedFabric,
    buffer_cells: usize,
    /// Words per port mask, `radix.div_ceil(64)`.
    words: usize,
    // Per global port, `switch * radix + local` (sized by `configure`):
    /// Credits out per output: cells sent over the link whose credit has
    /// not come back. The output is grantable below `buffer_cells`; host
    /// sinks drain a cell per slot and never take one.
    owed: Vec<u32>,
    grant_ptr: Vec<u32>,
    accept_ptr: Vec<u32>,
    /// Input buffers, `buffer_cells` entries per port, the first
    /// `depth[port]` of them live, oldest first.
    buffers: Vec<Flit>,
    depth: Vec<u32>,
    /// Per output port, `words` words: the inputs holding a cell for it.
    requests: Vec<u64>,
    /// The far end of the port's cable (a port, `HOST | host`, or
    /// [`UNCONNECTED`]): its cells fly there and its credits return there.
    peer: Vec<u32>,
    // Per switch (sized by `configure`):
    /// Cells resident in the switch (it is skipped at 0).
    resident: Vec<u32>,
    /// `words` words: the outputs with any request.
    requested: Vec<u64>,
    host_queues: Vec<VecDeque<Flit>>,
    /// Credits out per host NIC, as `owed`.
    host_owed: Vec<u32>,
    /// Cells on links: what lands in slot t sits in bucket
    /// `t % (link_delay + 1)`, in the order it was sent.
    cell_wheel: Vec<Vec<Flit>>,
    /// Credits on links, likewise: the sender each returns to.
    credit_wheel: Vec<Vec<u32>>,
    order: FlowOrder,
    matcher: Matcher,
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
        let hosts = fab.hosts.len();
        // The per-port and per-switch tables are sized by `configure`.
        CompiledFabric {
            spec,
            buffer_cells: spec.buffer_cells(),
            words: spec.radix.div_ceil(64),
            owed: Vec::new(),
            grant_ptr: Vec::new(),
            accept_ptr: Vec::new(),
            buffers: Vec::new(),
            depth: Vec::new(),
            requests: Vec::new(),
            peer: Vec::new(),
            resident: Vec::new(),
            requested: Vec::new(),
            host_queues: (0..hosts).map(|_| VecDeque::new()).collect(),
            host_owed: vec![0; hosts],
            cell_wheel: Vec::new(),
            credit_wheel: Vec::new(),
            order: FlowOrder::new(),
            matcher: Matcher::new(spec.radix),
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

    /// Append `flit`, routed to output `out`, to the buffer of input
    /// `in_port` at `sw` and raise its request bit; returns the new
    /// buffer depth.
    fn enqueue(&mut self, sw: usize, in_port: usize, out: usize, mut flit: Flit) -> usize {
        let (radix, words) = (self.spec.radix, self.words);
        let p = sw * radix + in_port;
        let depth = self.depth[p] as usize + 1;
        assert!(
            depth <= self.buffer_cells,
            "buffer overflow at switch {sw} port {in_port}"
        );
        flit.at = out as u32;
        self.buffers[p * self.buffer_cells + depth - 1] = flit;
        self.depth[p] = depth as u32;
        self.resident[sw] += 1;
        self.requests[(sw * radix + out) * words + in_port / 64] |= 1 << (in_port % 64);
        self.requested[sw * words + out / 64] |= 1 << (out % 64);
        depth
    }

    /// Remove the oldest cell input `i` holds for output `o` at `sw`,
    /// and drop the request bit if it was the last one.
    fn dequeue(&mut self, sw: usize, i: usize, o: usize) -> Flit {
        let (radix, words) = (self.spec.radix, self.words);
        let p = sw * radix + i;
        let start = p * self.buffer_cells;
        let buf = &mut self.buffers[start..start + self.depth[p] as usize];
        let Some(k) = buf.iter().position(|f| f.at == o as u32) else {
            // lint:allow(panic-free): the matching only pairs ports
            // whose request bit is set, and the bit tracks the buffer
            panic!("matched pair without a queued cell");
        };
        let flit = buf[k];
        buf.copy_within(k + 1.., k);
        let left = buf.len() - 1;
        self.depth[p] = left as u32;
        self.resident[sw] -= 1;
        if !buf[k..left].iter().any(|f| f.at == o as u32) {
            let col = (sw * radix + o) * words;
            self.requests[col + i / 64] &= !(1 << (i % 64));
            if self.requests[col..col + words].iter().all(|&w| w == 0) {
                self.requested[sw * words + o / 64] &= !(1 << (o % 64));
            }
        }
        flit
    }

    /// Match switch `sw` for one slot into `self.matcher.matched`; an
    /// output grants while its credit loop has room.
    fn match_switch(&mut self, sw: usize) {
        let (radix, words) = (self.spec.radix, self.words);
        let ports = sw * radix..(sw + 1) * radix;
        let (owed, limit) = (&self.owed[ports.clone()], self.buffer_cells);
        self.matcher.match_switch(
            self.spec.iterations,
            &self.requests[ports.start * words..ports.end * words],
            &self.requested[sw * words..(sw + 1) * words],
            &mut self.grant_ptr[ports.clone()],
            &mut self.accept_ptr[ports],
            |o| (owed[o] as usize) < limit,
        );
    }
}

impl CellSwitch for CompiledFabric {
    fn ports(&self) -> usize {
        self.host_queues.len()
    }

    /// A fabric may be run again once the run before has drained: the
    /// engine restarts at slot 0, so cells and credits still inside one
    /// that has not would land in slots of the new run they were never
    /// sent for. Nothing here detects or repairs that.
    fn configure(&mut self, cfg: &EngineConfig) {
        self.order.begin_run();
        // An engine-level override re-arms the credit loops and the input
        // buffers they bound. The buffers are laid out at a stride of
        // `buffer_cells`, so a new depth cannot be applied under live cells.
        if let Some(b) = cfg.buffer_cells.filter(|&b| b != self.buffer_cells) {
            assert!(b >= 1);
            assert!(
                self.resident_cells() == Some(0) && self.credit_wheel.iter().all(Vec::is_empty),
                "a buffer_cells override is valid only on a fabric that has not run: \
                 cells or credits are still inside this one"
            );
            self.buffer_cells = b;
        }
        // The switch tables are sized here, where the run's buffer depth
        // is known: zeroed on a new fabric, untouched on one that has run.
        let (ports, switches, words) = (self.fab.ports.len(), self.fab.switches.len(), self.words);
        for table in [
            &mut self.owed,
            &mut self.grant_ptr,
            &mut self.accept_ptr,
            &mut self.depth,
        ] {
            table.resize(ports, 0);
        }
        self.requests.resize(ports * words, 0);
        self.resident.resize(switches, 0);
        self.requested.resize(switches * words, 0);
        self.buffers
            .resize(ports * self.buffer_cells, Flit::default());
        let buckets = self.spec.link_delay as usize + 1;
        self.cell_wheel.resize_with(buckets, Vec::new);
        self.credit_wheel.resize_with(buckets, Vec::new);
        if self.peer.is_empty() {
            assert!(ports.max(self.host_queues.len()) < HOST as usize);
            self.peer = (self.fab.ports.values())
                .map(|port| match port.peer {
                    Peer::Host(h) => HOST | h.index() as u32,
                    Peer::Port(p) => p.index() as u32,
                    Peer::Unconnected => UNCONNECTED,
                })
                .collect();
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let (radix, d) = (self.spec.radix, self.spec.link_delay);
        // What is sent now lands d slots on: of d + 1, the bucket behind.
        let now = (slot % (d + 1)) as usize;
        let next = ((slot + d) % (d + 1)) as usize;

        // Cell arrivals from links, in the order they were sent. The
        // ordering checks go first: each is a likely cache miss, and back
        // to back they overlap instead of queueing behind the observer.
        let mut landed = std::mem::take(&mut self.cell_wheel[now]);
        for flit in landed.iter().filter(|flit| flit.at & HOST != 0) {
            self.order
                .record(flit.src as usize, flit.dst as usize, flit.seq.into());
        }
        for &flit in &landed {
            let (src, dst) = (flit.src as usize, flit.dst as usize);
            if flit.at & HOST != 0 {
                debug_assert_eq!(flit.at, HOST | flit.dst);
                obs.cell_delivered_flow(dst, flit.inject, src, flit.seq.into());
            } else {
                let at = self.fab.ports[PortId::from_index(flit.at as usize)];
                let out = self.fab.route(
                    at.switch,
                    at.local,
                    HostId::from_index(src),
                    HostId::from_index(dst),
                );
                let depth = self.enqueue(at.switch.index(), at.local as usize, out as usize, flit);
                obs.note_queue_depth(depth);
            }
        }
        landed.clear();
        self.cell_wheel[now] = landed;

        // Credit returns.
        for to in self.credit_wheel[now].drain(..) {
            if to & HOST != 0 {
                self.host_owed[(to ^ HOST) as usize] -= 1;
            } else {
                self.owed[to as usize] -= 1;
            }
        }

        // Matchings, switch by switch; idle switches cost nothing.
        for sw in 0..self.resident.len() {
            if self.resident[sw] == 0 {
                continue;
            }
            self.match_switch(sw);
            for k in 0..self.matcher.matched.len() {
                let (i, o) = self.matcher.matched[k];
                let (p_in, p_out) = (sw * radix + i as usize, sw * radix + o as usize);
                let mut flit = self.dequeue(sw, i as usize, o as usize);
                flit.at = self.peer[p_out];
                assert!(flit.at != UNCONNECTED, "matched to an unconnected port");
                // Host sinks drain a cell per slot and are not
                // credit-controlled; only switch links consume.
                if flit.at & HOST == 0 {
                    self.owed[p_out] += 1;
                }
                self.credit_wheel[next].push(self.peer[p_in]);
                self.cell_wheel[next].push(flit);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let d = self.spec.link_delay;
        let next = ((slot + d) % (d + 1)) as usize;
        for h in 0..self.host_queues.len() {
            let host = HostId::from_index(h);
            if (self.host_owed[h] as usize) < self.buffer_cells {
                if let Some(mut flit) = self.host_queues[h].pop_front() {
                    self.host_owed[h] += 1;
                    flit.at = self.fab.hosts[host].port.index() as u32;
                    self.cell_wheel[next].push(flit);
                }
            } else if !self.host_queues[h].is_empty() {
                let (sw, local) = self.fab.host_attach(host);
                obs.credit_stall(sw.index(), local as usize);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        // Stamps first, as `arbitrate`'s checks are: the misses overlap.
        for a in arrivals {
            self.host_queues[a.src].push_back(Flit {
                inject: slot,
                src: a.src as u32,
                dst: a.dst as u32,
                seq: self.order.stamp(a.src, a.dst) as u32,
                at: 0,
            });
        }
        for a in arrivals {
            obs.cell_injected(a.src, a.dst);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.order.reordered();
        report.set_extra("stages", self.spec.stages() as f64);
        report.set_extra("switches", self.fab.switches.len() as f64);
    }

    fn resident_cells(&self) -> Option<u64> {
        let mut n = self.cell_wheel.iter().map(|b| b.len() as u64).sum::<u64>();
        n += self.host_queues.iter().map(|q| q.len() as u64).sum::<u64>();
        n += self.resident.iter().map(|&c| c as u64).sum::<u64>();
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::{SeedSequence, SimRng};
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

    #[test]
    fn a_drained_fabric_run_again_reports_no_reordering() {
        // A finite all-to-all schedule, so the first run ends drained (the
        // contract of `configure`); the second run continues every flow.
        use osmosis_traffic::Replay;
        for spec in [TopologySpec::two_level(8), TopologySpec::dragonfly(8, 4)] {
            let mut fab = CompiledFabric::new(spec);
            let hosts = fab.ports();
            let all_to_all = || Replay::new((0..hosts).map(|_| (0..hosts).collect()).collect());
            let cells = (hosts * hosts) as u64;
            for run in 0..2 {
                let r = fab.run(&mut all_to_all(), &EngineConfig::new(0, 40 * hosts as u64));
                assert_eq!(
                    (r.injected, r.delivered),
                    (cells, cells),
                    "{spec} run {run}"
                );
                assert_eq!(fab.resident_cells(), Some(0), "{spec} run {run} drains");
                assert_eq!(r.reordered, 0, "{spec} run {run}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "valid only on a fabric that has not run")]
    fn buffer_override_on_a_fabric_holding_cells_is_refused() {
        // The input buffers are strided by depth: re-striding them under
        // live cells would hand one port's cells to another.
        let mut fab = CompiledFabric::new(TopologySpec::two_level(8));
        let mut tr = BernoulliUniform::new(fab.ports(), 0.6, &SeedSequence::new(6));
        fab.run(&mut tr, &EngineConfig::new(0, 200));
        fab.run(&mut tr, &EngineConfig::new(0, 200).with_buffer_cells(3));
    }

    fn flit(seq: u32) -> Flit {
        Flit {
            seq,
            ..Flit::default()
        }
    }

    #[test]
    fn a_flit_is_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 24);
    }

    /// Every request bit is set exactly when its VOQ holds a cell, every
    /// output-summary bit exactly when its column has a bit, and the
    /// per-switch counts are the buffer depths.
    fn assert_masks_track_buffers(fab: &CompiledFabric) {
        let (radix, words) = (fab.spec.radix, fab.words);
        for (sw, &resident) in fab.resident.iter().enumerate() {
            let ports = sw * radix..(sw + 1) * radix;
            assert_eq!(resident, fab.depth[ports].iter().sum::<u32>());
            for o in 0..radix {
                let mut any = false;
                for i in 0..radix {
                    let p = sw * radix + i;
                    let live = &fab.buffers[p * fab.buffer_cells..][..fab.depth[p] as usize];
                    let queued = live.iter().any(|f| f.at == o as u32);
                    let bit = fab.requests[(sw * radix + o) * words + i / 64] >> (i % 64) & 1;
                    assert_eq!(bit == 1, queued, "switch {sw} voq ({i}, {o})");
                    any |= queued;
                }
                let bit = fab.requested[sw * words + o / 64] >> (o % 64) & 1;
                assert_eq!(bit == 1, any, "switch {sw} output {o}");
            }
        }
    }

    #[test]
    fn masks_track_buffers_through_random_matchings() {
        const BUFFER: usize = 4;
        for radix in [5usize, 64, 65, 130] {
            let mut rng = SimRng::seed_from_u64(radix as u64);
            let mut rnd = |n| rng.index(n);
            let mut fab = CompiledFabric::new(TopologySpec::full_mesh(radix, 1));
            fab.configure(&EngineConfig::new(0, 1).with_buffer_cells(BUFFER));
            let mut matches = 0;
            for slot in 0..40 {
                // Arrivals: dense in early slots, a trickle later, so
                // both crowded and nearly empty masks are matched.
                let eagerness = if slot < 20 { 4 } else { 40 };
                for i in 0..radix {
                    while (fab.depth[i] as usize) < BUFFER && rnd(eagerness) < 3 {
                        fab.enqueue(0, i, rnd(radix), flit(0));
                    }
                }
                // Credits: none out, some out, all out.
                for o in 0..radix {
                    fab.owed[o] = [0, 1, BUFFER as u32][rnd(3)];
                }
                fab.match_switch(0);
                for k in 0..fab.matcher.matched.len() {
                    let (i, o) = fab.matcher.matched[k];
                    assert!((fab.owed[o as usize] as usize) < BUFFER, "uncredited grant");
                    // Panics on a pair whose request bit outlived its cell.
                    fab.dequeue(0, i as usize, o as usize);
                    matches += 1;
                }
                assert_masks_track_buffers(&fab);
            }
            assert!(
                matches > 10 * radix,
                "radix {radix}: only {matches} matches"
            );
        }
    }

    #[test]
    fn interleaved_buffer_keeps_per_voq_fifo_and_request_bits() {
        let mut fab = CompiledFabric::new(TopologySpec::full_mesh(8, 1));
        fab.configure(&EngineConfig::new(0, 1));
        // Input 2 holds cells 0..6 for outputs 5, 6, 5, 7, 6, 5.
        for (seq, out) in [5, 6, 5, 7, 6, 5].into_iter().enumerate() {
            assert_eq!(fab.enqueue(0, 2, out, flit(seq as u32)), seq + 1);
        }
        let requests = |fab: &CompiledFabric| -> Vec<usize> {
            (0..8).filter(|&o| fab.requests[o] == 1 << 2).collect()
        };
        assert_eq!(requests(&fab), [5, 6, 7]);
        assert_eq!(fab.requested[0], 0b1110_0000);
        // (output asked for, cell it must yield, outputs still requested)
        let script: [(usize, u32, &[usize]); 6] = [
            (5, 0, &[5, 6, 7]),
            (6, 1, &[5, 6, 7]),
            (5, 2, &[5, 6, 7]),
            (7, 3, &[5, 6]),
            (6, 4, &[5]),
            (5, 5, &[]),
        ];
        for (out, seq, left) in script {
            assert_eq!(fab.dequeue(0, 2, out).seq, seq);
            assert_eq!(requests(&fab), left);
            assert_masks_track_buffers(&fab);
        }
        assert_eq!((fab.depth[2], fab.resident[0], fab.requested[0]), (0, 0, 0));
    }

    #[test]
    fn resident_cells_is_buffers_queues_and_wheel_after_saturation() {
        // The dragonfly wedges at this load (every cell parked in a buffer
        // or a host queue); the fat tree keeps cells on its links.
        let mut in_flight = 0;
        for spec in [TopologySpec::dragonfly(8, 4), TopologySpec::two_level(8)] {
            let mut fab = CompiledFabric::new(spec);
            let mut tr = BernoulliUniform::new(fab.ports(), 1.0, &SeedSequence::new(5));
            fab.run(&mut tr, &EngineConfig::new(0, 400));
            let buffered: u64 = fab.depth.iter().map(|&d| d as u64).sum();
            let queued: u64 = fab.host_queues.iter().map(|q| q.len() as u64).sum();
            assert!(buffered > 0 && queued > 0, "a saturated fabric holds cells");
            let flying: u64 = fab.cell_wheel.iter().map(|b| b.len() as u64).sum();
            in_flight += flying;
            assert_eq!(fab.resident_cells(), Some(buffered + queued + flying));
            assert_masks_track_buffers(&fab);
        }
        assert!(in_flight > 0, "no run ended with a cell on a link");
    }
}
