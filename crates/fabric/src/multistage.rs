//! Slotted simulation of a two-level fat-tree fabric built from
//! input-buffered switches with credit flow control — the architecture of
//! §IV with buffer-placement option 3 (and options 1 and 2 for the Fig. 2
//! comparison).
//!
//! Every switch is an input-buffered crossbar with its own independent
//! round-robin iterative scheduler (the multistage-scalability argument of
//! §IV: per-stage buffers let the schedulers run independently). The
//! inter-switch links carry fixed-size cells with a configurable flight
//! time; the downstream input buffers are finite and protected by a
//! credit loop with a deterministic RTT — the paper's scheduler-relayed
//! remote flow control (Fig. 4) travels on existing channels, so its
//! timing is exactly this credit loop. Losslessness is asserted, not just
//! measured: a cell arriving at a full buffer panics the simulation.
//!
//! The simulator stands on the same substrate as
//! [`CompiledFabric`](crate::CompiledFabric). The wiring is the
//! expansion's own: a port's [`Peer`] is where its cells fly to and where
//! the credits for what it received return, so flights are addressed by
//! `Peer` and nothing is copied out of the graph. Switches live in one
//! arena indexed by [`SwitchId::index`](crate::ids::EntityId::index)
//! (stage-major: leaves, then spines — the fault and audit planes' node
//! keying); credits out, egress queues and round-robin pointers live in
//! flat tables indexed by global port, `switch * radix + local`. Each
//! slot a switch's [`BufferPlane`] fills the request masks in one call and
//! they are matched by the shared kernel of [`osmosis_sched::matching`]. It stays a
//! separate model because it models what `CompiledFabric` does not: the
//! request/grant cycle that makes an arrival schedulable at t+1 rather
//! than t, placements 1 and 2, the fault reactions, and the buffer-plane
//! seam.
//!
//! The fabric runs on the shared engine through the `CellSwitch` hooks
//! (link/credit arrivals and switch matchings in `arbitrate`, host
//! injection in `deliver`, new traffic in `admit`) and reports the
//! unified [`EngineReport`]: end-to-end latency lands in
//! `mean_delay`/`delay_hist`, peak input-buffer occupancy in
//! `max_queue_depth`. Host credit stalls are emitted as
//! `TraceEvent::CreditStall` for trace consumers.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId, HostId, PortId};
use crate::spec::{top_choice, TopologyError, TopologyFamily, TopologySpec};
use crate::topology::TwoLevelFatTree;
use osmosis_fdl::FdlBufferPlane;
use osmosis_sched::matching::Matcher;
use osmosis_sim::audit::{CreditLedger, DropReason};
use osmosis_sim::buffer::{BufferLossReason, BufferPlane, BufferStats, ElectronicVoq};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_switch::Cell;
use osmosis_traffic::{Arrival, FlowOrder, TrafficGen};
use std::collections::VecDeque;

pub use crate::spec::{BufferTech, Placement};

/// Fabric configuration.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Switch radix (two-level fat tree: k²/2 hosts).
    pub radix: usize,
    /// One-way link flight time in cell slots (host↔leaf and leaf↔spine).
    pub link_delay: u64,
    /// Input-buffer capacity per switch input port, in cells. The credit
    /// loop RTT is 2·link_delay(+1); smaller buffers throttle, but can
    /// never lose a cell.
    pub buffer_cells: usize,
    /// Matching iterations per switch per slot.
    pub iterations: usize,
    /// Buffer placement (Fig. 2 option).
    pub placement: Placement,
    /// Input-buffer technology: electronic VOQs (default) or emulated
    /// optical fiber-delay-line queues.
    pub buffer_tech: BufferTech,
}

impl FabricConfig {
    /// A small OSMOSIS-style fabric: radix-8 (32 hosts), 2-slot links,
    /// buffers sized for the credit RTT, option 3, electronic buffers.
    pub fn small(radix: usize, link_delay: u64) -> Self {
        FabricConfig {
            radix,
            link_delay,
            buffer_cells: (2 * link_delay + 2) as usize,
            iterations: 3,
            placement: Placement::InputOnly,
            buffer_tech: BufferTech::Electronic,
        }
    }
}

/// The one spec → config conversion: a valid two-level, two-plane
/// fat-tree spec declares this fabric, with electronic buffers.
impl TryFrom<&TopologySpec> for FabricConfig {
    type Error = TopologyError;

    fn try_from(spec: &TopologySpec) -> Result<Self, TopologyError> {
        spec.validate()?;
        let two_level = TopologyFamily::FatTree {
            levels: 2,
            planes: 2,
        };
        if spec.family != two_level {
            return Err(TopologyError::NotTwoLevelFatTree);
        }
        Ok(FabricConfig {
            radix: spec.radix,
            link_delay: spec.link_delay,
            buffer_cells: spec.buffer_cells(),
            iterations: spec.iterations,
            placement: spec.placement,
            buffer_tech: BufferTech::Electronic,
        })
    }
}

/// The fabric simulator.
pub struct FatTreeFabric {
    cfg: FabricConfig,
    /// The expanded graph under simulation (stage 0 = leaves, stage 1 =
    /// spines, in id order).
    graph: ExpandedFabric,
    /// Per switch: its input buffering behind the pluggable plane seam —
    /// electronic VOQs (the pre-seam semantics, bit-identical) or an
    /// emulated optical FDL queue per input. Each stored entry carries
    /// the slot at which the cell becomes schedulable (later than its
    /// arrival only under placement option 2, where requests cross the
    /// long cable to reach the scheduler).
    buffers: Vec<Box<dyn BufferPlane<Cell>>>,
    // Per global port, `switch * radix + local`:
    /// Credits out per output: cells sent over the link whose credit has
    /// not come back. The output may send below `buffer_cells`; host
    /// sinks drain a cell per slot and never take one.
    owed: Vec<u32>,
    /// Option-1 egress buffers.
    egress: Vec<VecDeque<Cell>>,
    grant_ptr: Vec<u32>,
    accept_ptr: Vec<u32>,
    /// Host injection queues (the source VOQs; unbounded).
    host_queues: Vec<VecDeque<Cell>>,
    /// Credits out per host NIC toward its leaf input buffer, as `owed`.
    host_owed: Vec<u32>,
    /// (arrival slot, far end of the link, cell), in arrival order.
    cell_flights: VecDeque<(u64, Peer, Cell)>,
    /// (arrival slot, the sender the credit returns to).
    credit_flights: VecDeque<(u64, Peer)>,
    /// Per-spine health under an attached fault plane (all true without
    /// one). A dead spine is a dead wavelength plane: leaves stop
    /// granting toward it and new flows re-hash onto the survivors.
    spine_ok: Vec<bool>,
    /// Cells corrupted on a link, re-arriving after the hop-by-hop NACK +
    /// resend round trip (constant 2·link_delay, so this queue stays
    /// FIFO-by-due like `cell_flights`).
    retransmit_flights: VecDeque<(u64, Peer, Cell)>,
    /// Credits whose return was lost, recovered by the periodic credit
    /// audit (constant link_delay + resync period; FIFO-by-due).
    resync_credit_flights: VecDeque<(u64, Peer)>,
    /// Per-link go-back-N stall: until this slot, every arrival on the
    /// link is discarded and resent behind the corrupted cell, keeping
    /// per-link (hence per-flow) delivery order across retransmissions.
    link_stall: Vec<u64>,
    order: FlowOrder,
    next_id: u64,
    // Scratch for the switch being matched, refilled from its plane:
    /// Per local output, `words` words: the inputs with a ready cell.
    requests: Vec<u64>,
    /// `words` words: the outputs with any request.
    requested: Vec<u64>,
    matcher: Matcher,
    /// Audit scratch, per global port: cells and credits in flight on
    /// the credit loop protecting that input.
    in_flight: Vec<u64>,
    /// [`plane_stats`](Self::plane_stats) as the current run began.
    stats_base: BufferStats,
}

impl FatTreeFabric {
    /// Build the fabric. Panics on an invalid configuration; use
    /// [`try_new`](Self::try_new) where the configuration comes from
    /// external input (sweep grids, checkpoints, CLI flags).
    pub fn new(cfg: FabricConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(fab) => fab,
            // lint:allow(panic-free): documented panic contract of the
            // infallible constructor; `try_new` is the checked form
            Err(e) => panic!("{e}"),
        }
    }

    /// Build the fabric, rejecting invalid configurations with a typed
    /// error instead of a panic. The simulator runs on the compiled
    /// expansion of the equivalent [`TopologySpec::two_level`] spec —
    /// exactly the graph the topology compiler produces.
    pub fn try_new(cfg: FabricConfig) -> Result<Self, TopologyError> {
        // FDL buffering models the paper's option 3 only: the delay-line
        // bank quantizes schedulability to its shortest (one-slot) line,
        // which matches the local request/grant cycle of input-only
        // placement but cannot represent option 2's per-cell control RTT
        // or option 1's egress stage.
        if cfg.buffer_tech == BufferTech::Fdl && cfg.placement != Placement::InputOnly {
            return Err(TopologyError::UnsupportedPlacement {
                placement: cfg.placement,
            });
        }
        let spec = TopologySpec {
            placement: cfg.placement,
            iterations: cfg.iterations,
            ..TopologySpec::two_level(cfg.radix)
                .with_link_delay(cfg.link_delay)
                .with_buffer_cells(cfg.buffer_cells)
        };
        let graph = ExpandedFabric::expand(spec)?;
        let k = cfg.radix;
        let (switches, ports, hosts) = (graph.switches.len(), graph.ports.len(), graph.hosts.len());
        let plane = || -> Box<dyn BufferPlane<Cell>> {
            match cfg.buffer_tech {
                BufferTech::Electronic => Box::new(ElectronicVoq::new(k)),
                // A balanced bank of `buffer_cells` delay lines per input
                // emulates a queue of exactly `buffer_cells` cells — the
                // same capacity the credit loop protects.
                BufferTech::Fdl => Box::new(FdlBufferPlane::new(k, cfg.buffer_cells)),
            }
        };
        Ok(FatTreeFabric {
            cfg,
            buffers: (0..switches).map(|_| plane()).collect(),
            owed: vec![0; ports],
            egress: (0..ports).map(|_| VecDeque::new()).collect(),
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            host_queues: (0..hosts).map(|_| VecDeque::new()).collect(),
            host_owed: vec![0; hosts],
            cell_flights: VecDeque::new(),
            credit_flights: VecDeque::new(),
            spine_ok: vec![true; k / 2],
            retransmit_flights: VecDeque::new(),
            resync_credit_flights: VecDeque::new(),
            link_stall: vec![0; switches + hosts],
            order: FlowOrder::new(),
            next_id: 0,
            requests: vec![0; k * k.div_ceil(64)],
            requested: vec![0; k.div_ceil(64)],
            matcher: Matcher::new(k),
            in_flight: vec![0; ports],
            stats_base: BufferStats::default(),
            graph,
        })
    }

    /// Topology descriptor.
    pub fn topology(&self) -> TwoLevelFatTree {
        TwoLevelFatTree {
            radix: self.cfg.radix,
        }
    }

    /// The expanded graph the simulator runs on.
    pub fn expanded(&self) -> &ExpandedFabric {
        &self.graph
    }

    /// What local port `local` of switch `sw` is cabled to: where its
    /// cells fly, and where the credits for cells it received return.
    fn peer(&self, sw: usize, local: usize) -> Peer {
        self.graph.ports[PortId::from_index(sw * self.cfg.radix + local)].peer
    }

    /// Output port a cell takes at switch `sw`: the expanded graph's
    /// host attachment drives every descent; the ascent picks a spine
    /// through [`pick_spine`](Self::pick_spine) so a dead plane re-hashes
    /// flows (the healthy case agrees with [`ExpandedFabric::route`],
    /// which the tests pin).
    fn route(&self, sw: usize, cell: &Cell) -> usize {
        let (dst_sw, dst_port) = self.graph.host_attach(HostId::from_index(cell.dst));
        if sw >= self.cfg.radix {
            // Spine port l is cabled to leaf l: descend to the
            // destination's edge switch.
            dst_sw.index()
        } else if dst_sw.index() == sw {
            dst_port as usize
        } else {
            self.cfg.radix / 2 + self.pick_spine(cell.src, cell.dst)
        }
    }

    /// The spine carrying (src, dst): the stable flow hash, re-hashed
    /// across the surviving planes when the hashed one is down. The
    /// second-level hash uses a different key ordering so a dead plane's
    /// flows spread over all survivors instead of piling onto one
    /// neighbour. With every plane dead the cell stalls (losslessly)
    /// toward its nominal spine until one heals.
    fn pick_spine(&self, src: usize, dst: usize) -> usize {
        let spines = self.spine_ok.len();
        let s0 = top_choice(src, dst, spines);
        if self.spine_ok[s0] {
            return s0;
        }
        let healthy = self.spine_ok.iter().filter(|&&ok| ok).count();
        if healthy == 0 {
            return s0;
        }
        let pick = top_choice(dst + self.host_queues.len(), src, spines) % healthy;
        self.spine_ok
            .iter()
            .enumerate()
            .filter(|&(_, &ok)| ok)
            .nth(pick)
            .map(|(s, _)| s)
            // pick < healthy by construction; fall back to the nominal
            // spine (lossless stall) rather than panic if that ever
            // stops holding.
            .unwrap_or(s0)
    }

    /// Snapshot every credit-controlled link's ledger for the audit
    /// plane. Taken at the top of `arbitrate`, where the conservation
    /// sum is quiescent: every state transition (credit consumed ↔ cell
    /// in flight ↔ buffer occupancy ↔ credit in flight) happens
    /// atomically inside the arbitrate/deliver phases.
    fn report_credit_ledgers<T: TraceSink>(&mut self, obs: &mut Observer<'_, T>) {
        let graph = &self.graph;
        // One pass over the flight queues, binned by the input port whose
        // loop they belong to: a cell flies to that port, a credit to the
        // port's peer.
        self.in_flight.fill(0);
        let cells = self.cell_flights.iter().chain(&self.retransmit_flights);
        let credits = self
            .credit_flights
            .iter()
            .chain(&self.resync_credit_flights);
        let inputs = cells
            .map(|&(_, to, _)| to)
            .chain(credits.map(|&(_, to)| match to {
                Peer::Port(sender) => graph.ports[sender].peer,
                Peer::Host(h) => Peer::Port(graph.hosts[h].port),
                Peer::Unconnected => to,
            }));
        for input in inputs {
            if let Peer::Port(p) = input {
                self.in_flight[p.index()] += 1;
            }
        }
        let capacity = self.cfg.buffer_cells as u64;
        for (p, port) in graph.ports.iter() {
            let owed = match port.peer {
                Peer::Host(h) => self.host_owed[h.index()],
                Peer::Port(sender) => self.owed[sender.index()],
                Peer::Unconnected => continue,
            };
            let (sw, input) = (port.switch.index(), port.local as usize);
            obs.audit_credit_link(
                sw,
                input,
                CreditLedger {
                    held: capacity - owed as u64,
                    in_flight: self.in_flight[p.index()],
                    occupancy: self.buffers[sw].occupancy(input) as u64,
                    capacity,
                },
            );
        }
    }

    /// Snapshot every FDL queue's cell-conservation ledger for the audit
    /// plane (`pushed == popped + dropped + resident` per input queue).
    /// Queue keying is `switch · radix + input`. Electronic planes keep
    /// no per-queue ledgers and report nothing here, so audited
    /// electronic runs stay bit-identical to the pre-seam code.
    fn report_fdl_ledgers<T: TraceSink>(&self, obs: &mut Observer<'_, T>) {
        let radix = self.cfg.radix;
        for (sw, plane) in self.buffers.iter().enumerate() {
            for p in 0..radix {
                if let Some((pushed, popped, dropped, resident)) = plane.queue_ledger(p) {
                    obs.audit_fdl_ledger(sw * radix + p, pushed, popped, dropped, resident);
                }
            }
        }
    }

    /// The link index a cell traverses to reach `to` — the receiving
    /// endpoint's global index (switches, then hosts) — used as the
    /// `FaultView::cell_corrupted` key.
    fn link_of(&self, to: Peer) -> usize {
        match to {
            Peer::Port(p) => self.graph.ports[p].switch.index(),
            Peer::Host(h) => self.buffers.len() + h.index(),
            // lint:allow(panic-free): a 2-plane 2-level expansion uses
            // every port, so no flight is ever bound for an unwired one
            Peer::Unconnected => panic!("flight bound for an unwired port"),
        }
    }

    /// Input `input` of switch `sw` freed a buffer slot in slot `t`:
    /// credit back to whoever feeds that port. Under a credit-drop fault
    /// the return is lost on the wire and recovered by the periodic
    /// credit audit — after the downstream's next occupancy audit (a few
    /// credit RTTs), not instantly, so the degraded mode throttles but
    /// never deadlocks.
    fn return_credit<T: TraceSink>(
        &mut self,
        t: u64,
        sw: usize,
        input: usize,
        obs: &mut Observer<'_, T>,
    ) {
        let d = self.cfg.link_delay;
        let sender = self.peer(sw, input);
        if obs.faults_attached() && obs.fault_credit_dropped(sw, input) {
            let resync = 4 * (2 * d + 1);
            self.resync_credit_flights
                .push_back((t + d + resync, sender));
        } else {
            self.credit_flights.push_back((t + d, sender));
        }
    }

    /// Put `cell` on the cable out of local port `o` of switch `sw` in
    /// slot `t`. A switch link takes a credit; a host sink (which drains
    /// a cell per slot by construction) does not.
    fn send(&mut self, t: u64, sw: usize, o: usize, cell: Cell) {
        let to = self.peer(sw, o);
        if let Peer::Port(_) = to {
            self.owed[sw * self.cfg.radix + o] += 1;
        }
        self.cell_flights
            .push_back((t + self.cfg.link_delay, to, cell));
    }

    /// Cells currently inside the fabric (host queues, switch buffers,
    /// links, retransmission round trips). With `injected == delivered +
    /// resident_cells()` after a faulted run, no cell was lost.
    pub fn resident_cells(&self) -> u64 {
        let mut n = self.cell_flights.len() + self.retransmit_flights.len();
        n += self.buffers.iter().map(|b| b.total()).sum::<usize>();
        let queues = self.host_queues.iter().chain(&self.egress);
        n += queues.map(|q| q.len()).sum::<usize>();
        n as u64
    }

    /// The loss and recirculation counters of every switch's buffer
    /// plane, summed; cumulative since construction.
    fn plane_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for plane in &self.buffers {
            let s = plane.stats();
            total.dropped += s.dropped;
            total.dropped_admission += s.dropped_admission;
            total.dropped_dead_line += s.dropped_dead_line;
            total.recirculations += s.recirculations;
            total.underflow_stalls += s.underflow_stalls;
        }
        total
    }

    /// Run traffic through the fabric on the shared engine.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }

    /// Run traffic under a fault plane. A vacuous view (empty plan)
    /// leaves the run bit-identical to [`run`](Self::run).
    pub fn run_faulted(
        &mut self,
        traffic: &mut dyn TrafficGen,
        cfg: &EngineConfig,
        faults: &mut dyn osmosis_sim::FaultView,
    ) -> EngineReport {
        osmosis_switch::run_switch_faulted(self, traffic, cfg, faults)
    }
}

impl CellSwitch for FatTreeFabric {
    fn ports(&self) -> usize {
        self.host_queues.len()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        // An engine-level buffer override re-arms every credit loop. The
        // loops count cells out against the depth, so a new depth cannot
        // be applied while any is still out.
        if let Some(b) = cfg.buffer_cells.filter(|&b| b != self.cfg.buffer_cells) {
            assert!(b >= 1);
            let credits = self.credit_flights.len() + self.resync_credit_flights.len();
            assert!(
                self.resident_cells() == 0 && credits == 0,
                "a buffer_cells override is valid only on a fabric that has not run: \
                 cells or credits are still inside this one"
            );
            self.cfg.buffer_cells = b;
            for plane in &mut self.buffers {
                plane.reconfigure(b);
            }
        }
        // A run starts with every delay line alive (the fault plane, if
        // one is attached, kills what its plan says) and reports the
        // buffer-plane counters of its own slots only.
        let radix = self.cfg.radix;
        for plane in &mut self.buffers {
            for line in 0..radix * plane.lines_per_queue() {
                plane.set_line_dead(line, false);
            }
        }
        self.stats_base = self.plane_stats();
        self.order.begin_run();
        self.spine_ok.fill(true);
        self.retransmit_flights.clear();
        self.resync_credit_flights.clear();
        self.link_stall.fill(0);
    }

    fn arbitrate<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        let d = self.cfg.link_delay;
        let radix = self.cfg.radix;
        let (leaves, half) = (radix, radix / 2);
        let buffer_cells = self.cfg.buffer_cells;
        let to_egress = self.cfg.placement == Placement::InputAndOutput;
        let option2_extra = if self.cfg.placement == Placement::OutputOnly {
            2 * d
        } else {
            0
        };
        let faults_on = obs.faults_attached();
        // The invariant auditor sees every credit loop's ledger here, at
        // the top of the slot, where the conservation sum is quiescent.
        if obs.audit_attached() {
            self.report_credit_ledgers(obs);
            if self.cfg.buffer_tech == BufferTech::Fdl {
                self.report_fdl_ledgers(obs);
            }
        }
        if faults_on {
            for s in 0..half {
                self.spine_ok[s] = !obs.fault_plane_down(s);
            }
            // Delay-line health, re-read only in a slot where the fault
            // plane injected or healed something. The fault plane keys
            // lines globally as (switch · radix + input) ·
            // lines_per_queue + local; the plane itself uses the
            // switch-local index. A dead line accepts no new cells (its
            // contents still emerge), so the affected input runs at
            // reduced guaranteed capacity.
            if self.cfg.buffer_tech == BufferTech::Fdl && obs.fault_state_changed() {
                for (sw, plane) in self.buffers.iter_mut().enumerate() {
                    let lpq = plane.lines_per_queue();
                    for line in 0..radix * lpq {
                        let dead = obs.fault_delay_line_dead(sw * radix * lpq + line);
                        plane.set_line_dead(line, dead);
                    }
                }
            }
        }
        // Start-of-slot buffer tick: delay-line emergences become visible
        // before this slot's arrivals and matching (no-op for electronic
        // planes).
        for plane in &mut self.buffers {
            plane.tick(t);
        }

        // --- Cell arrivals from links. The retransmission path drains
        // first: a resent cell is older than anything still in the
        // primary flight queue for the same link, and go-back-N order
        // requires it to be accepted first.
        for resent in [true, false] {
            loop {
                let flights = if resent {
                    &mut self.retransmit_flights
                } else {
                    &mut self.cell_flights
                };
                if flights.front().is_none_or(|&(at, _, _)| at != t) {
                    break;
                }
                let Some((_, to, cell)) = flights.pop_front() else {
                    break;
                };
                if faults_on {
                    let link = self.link_of(to);
                    // Go-back-N: while a predecessor on this link is mid
                    // retransmission the cell is out of sequence at the
                    // receiver; otherwise it may itself arrive detected-
                    // uncorrectable. Either way: NACK upstream and resend
                    // — one extra link RTT, no loss — extending the stall
                    // so cells behind it queue up in order too. The
                    // sender's credit stays consumed, so buffer accounting
                    // holds across the round trip.
                    if t < self.link_stall[link] || obs.fault_cell_corrupted(link) {
                        obs.cell_retransmitted(link);
                        self.link_stall[link] = t + 2 * d;
                        self.retransmit_flights.push_back((t + 2 * d, to, cell));
                        continue;
                    }
                }
                match to {
                    Peer::Host(h) => {
                        debug_assert_eq!(cell.dst, h.index());
                        self.order.record(cell.src, cell.dst, cell.seq);
                        obs.cell_delivered_flow(h.index(), cell.inject_slot, cell.src, cell.seq);
                    }
                    Peer::Port(p) => {
                        let at = self.graph.ports[p];
                        let (sw, input) = (at.switch.index(), at.local as usize);
                        let out = self.route(sw, &cell);
                        let plane = &mut self.buffers[sw];
                        // A cell arriving in slot t is schedulable at t+1
                        // (the local request/grant cycle); option 2 adds a
                        // control RTT on top.
                        plane.push(t, input, out, t + 1 + option2_extra, cell);
                        let occ = plane.occupancy(input);
                        assert!(
                            occ <= buffer_cells,
                            "input buffer overflow at {} port {input}: \
                             credit flow control violated",
                            at.switch
                        );
                        obs.note_queue_depth(occ);
                    }
                    // Never sent: a 2-plane 2-level expansion wires every port.
                    Peer::Unconnected => {}
                }
            }
        }

        // --- Credit returns (normal loop, then audit-recovered credits).
        for flights in [&mut self.credit_flights, &mut self.resync_credit_flights] {
            while flights.front().is_some_and(|&(at, _)| at == t) {
                match flights.pop_front() {
                    Some((_, Peer::Host(h))) => self.host_owed[h.index()] -= 1,
                    Some((_, Peer::Port(p))) => self.owed[p.index()] -= 1,
                    _ => {}
                }
            }
        }

        // --- Each switch computes a matching and forwards cells.
        for sw in 0..self.buffers.len() {
            let base = sw * radix;
            // A dead wavelength plane switches nothing: its buffered
            // cells stall (losslessly — upstream credits stay consumed)
            // until the plane heals. Leaves stop feeding it below.
            if faults_on && sw >= leaves && !self.spine_ok[sw - leaves] {
                continue;
            }
            // Option 1: egress buffers transmit first (a cell matched in
            // slot t departs the stage in slot t+1), gated by downstream
            // credits.
            if to_egress {
                for o in 0..radix {
                    if self.owed[base + o] as usize >= buffer_cells {
                        continue;
                    }
                    if let Some(cell) = self.egress[base + o].pop_front() {
                        self.send(t, sw, o, cell);
                    }
                }
            }

            // The plane's ready cells as request masks; they hold until
            // the pops below.
            self.buffers[sw].fill_requests(t, &mut self.requests, &mut self.requested);
            // An output grants while its credit loop has room (option 1
            // checks that at the egress buffer instead), and never toward
            // a dead spine: queued cells wait for repair, new flows were
            // already re-hashed at routing.
            let (owed, spine_ok) = (&self.owed[base..base + radix], &self.spine_ok);
            self.matcher.match_switch(
                self.cfg.iterations,
                &self.requests,
                &self.requested,
                &mut self.grant_ptr[base..base + radix],
                &mut self.accept_ptr[base..base + radix],
                |o| {
                    let dead = faults_on && sw < leaves && o >= half && !spine_ok[o - half];
                    !dead && (to_egress || (owed[o] as usize) < buffer_cells)
                },
            );

            // Execute the matching: move cells out of the input buffers,
            // return credits upstream.
            for m in 0..self.matcher.matched.len() {
                let (i, o) = self.matcher.matched[m];
                let (i, o) = (i as usize, o as usize);
                let Some(mut cell) = self.buffers[sw].pop(t, i, o) else {
                    // lint:allow(panic-free): the matching only pairs
                    // ports the plane reported ready this slot
                    panic!("matched pair without a cell");
                };
                cell.grant_slot = t;
                self.return_credit(t, sw, i, obs);
                if to_egress {
                    self.egress[base + o].push_back(cell);
                } else {
                    self.send(t, sw, o, cell);
                }
            }
        }

        // --- End of slot: each plane commits unserved emerged cells and
        // new arrivals back into storage (recirculation; no-op for
        // electronic planes) and surfaces what it could not keep. A lost
        // cell consumed its upstream credit at admission, so the credit
        // returns exactly as a served cell's would — subject to the same
        // credit-drop fault and audit resync.
        for sw in 0..self.buffers.len() {
            self.buffers[sw].settle(t);
            for loss in self.buffers[sw].take_losses() {
                self.return_credit(t, sw, loss.input, obs);
                let reason = match loss.reason {
                    BufferLossReason::AdmissionFull => DropReason::BufferFull,
                    BufferLossReason::DeadLine => DropReason::FaultLoss,
                    BufferLossReason::NoFeasibleLine => DropReason::Other,
                };
                obs.cell_dropped_for(sw * radix + loss.input, reason);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        // --- Hosts inject one cell per slot when they hold a credit.
        let d = self.cfg.link_delay;
        for h in 0..self.host_queues.len() {
            let host = HostId::from_index(h);
            if (self.host_owed[h] as usize) < self.cfg.buffer_cells {
                if let Some(cell) = self.host_queues[h].pop_front() {
                    self.host_owed[h] += 1;
                    let to = Peer::Port(self.graph.hosts[host].port);
                    self.cell_flights.push_back((t + d, to, cell));
                }
            } else if !self.host_queues[h].is_empty() {
                let (leaf, port) = self.graph.host_attach(host);
                obs.credit_stall(leaf.index(), port as usize);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        for a in arrivals {
            let seq = self.order.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            obs.cell_injected(a.src, a.dst);
            self.host_queues[a.src].push_back(cell);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.order.reordered();
        // FDL-only buffer-plane extras: electronic runs stay extra-free
        // so the pinned fingerprints are untouched by the plane seam.
        if self.cfg.buffer_tech == BufferTech::Fdl {
            let (total, base) = (self.plane_stats(), self.stats_base);
            let since = |now: u64, then: u64| (now - then) as f64;
            report.set_extra("fdl_drops_total", since(total.dropped, base.dropped));
            report.set_extra(
                "fdl_drops_admission",
                since(total.dropped_admission, base.dropped_admission),
            );
            report.set_extra(
                "fdl_drops_dead_line",
                since(total.dropped_dead_line, base.dropped_dead_line),
            );
            report.set_extra(
                "fdl_recirculations",
                since(total.recirculations, base.recirculations),
            );
            report.set_extra(
                "fdl_underflow_stalls",
                since(total.underflow_stalls, base.underflow_stalls),
            );
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        Some(FatTreeFabric::resident_cells(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::{BernoulliUniform, Hotspot};

    fn run_fabric(cfg: FabricConfig, load: f64, seed: u64) -> EngineReport {
        let mut fab = FatTreeFabric::new(cfg);
        let mut tr = BernoulliUniform::new(fab.topology().hosts(), load, &SeedSequence::new(seed));
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    #[test]
    fn expansion_wiring_matches_hand_built_rule() {
        // The peers and routes the simulator reads off the expanded
        // graph must equal the §V closed forms: leaf l port p < k/2 faces
        // host l·(k/2)+p; up port k/2+s reaches spine s at input l; spine
        // port l mirrors leaf l's up port.
        let fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let t = fab.topology();
        let at = |sw: usize, local: usize| Peer::Port(PortId::from_index(sw * t.radix + local));
        for l in 0..t.leaves() {
            for p in 0..t.hosts_per_leaf() {
                let host = HostId::from_index(l * t.hosts_per_leaf() + p);
                assert_eq!(fab.peer(l, p), Peer::Host(host), "leaf {l} port {p}");
            }
            for s in 0..t.spines() {
                let spine = t.leaves() + s;
                assert_eq!(fab.peer(l, t.up_port(s)), at(spine, l), "leaf {l} up {s}");
                assert_eq!(
                    fab.peer(spine, l),
                    at(l, t.up_port(s)),
                    "spine {s} port {l}"
                );
            }
        }
        // Healthy routing is the expansion's own.
        for (src, dst) in [(0, 1), (0, 31), (13, 2), (31, 30), (7, 20)] {
            let cell = Cell::new(0, src, dst, osmosis_traffic::Class::Data, 0, 0);
            let (src, dst) = (HostId::from_index(src), HostId::from_index(dst));
            let (mut sw, mut input) = fab.graph.host_attach(src);
            loop {
                let out = fab.route(sw.index(), &cell);
                assert_eq!(out as u32, fab.graph.route(sw, input, src, dst));
                match fab.peer(sw.index(), out) {
                    Peer::Port(p) => {
                        (sw, input) = (fab.graph.ports[p].switch, fab.graph.ports[p].local)
                    }
                    to => break assert_eq!(to, Peer::Host(dst)),
                }
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        use crate::spec::TopologyError;
        let mut odd = FabricConfig::small(8, 2);
        odd.radix = 7;
        assert!(matches!(
            FatTreeFabric::try_new(odd),
            Err(TopologyError::InvalidRadix { .. })
        ));
        let mut frozen = FabricConfig::small(8, 2);
        frozen.link_delay = 0;
        assert!(matches!(
            FatTreeFabric::try_new(frozen),
            Err(TopologyError::ZeroLinkDelay)
        ));
        let mut bufferless = FabricConfig::small(8, 2);
        bufferless.buffer_cells = 0;
        assert!(matches!(
            FatTreeFabric::try_new(bufferless),
            Err(TopologyError::ZeroBuffer)
        ));
    }

    #[test]
    fn only_a_valid_two_level_fat_tree_spec_converts() {
        let spec = TopologySpec {
            placement: Placement::OutputOnly,
            iterations: 2,
            ..TopologySpec::two_level(16)
                .with_link_delay(3)
                .with_buffer_cells(9)
        };
        let cfg = FabricConfig::try_from(&spec).unwrap();
        assert_eq!((cfg.radix, cfg.link_delay, cfg.buffer_cells), (16, 3, 9));
        assert_eq!((cfg.iterations, cfg.placement), (2, Placement::OutputOnly));
        assert_eq!(cfg.buffer_tech, BufferTech::Electronic);
        // The fabric built from it runs on that very spec.
        assert_eq!(*FatTreeFabric::new(cfg).expanded().spec(), spec);

        for other in [
            TopologySpec::m_ary_fat_tree(8, 2),
            TopologySpec::fat_tree(8, 3),
            TopologySpec::full_mesh(8, 4),
        ] {
            assert!(matches!(
                FabricConfig::try_from(&other),
                Err(TopologyError::NotTwoLevelFatTree)
            ));
        }
        assert!(matches!(
            FabricConfig::try_from(&TopologySpec::two_level(7)),
            Err(TopologyError::InvalidRadix { .. })
        ));
    }

    #[test]
    fn idle_fabric_stays_idle() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.0, 1);
        assert_eq!(r.injected, 0);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn light_load_flows_lossless_in_order() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.2, 2);
        assert!((r.throughput - 0.2).abs() < 0.02, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0, "per-flow order via stable spine hashing");
        assert!(r.max_queue_depth <= 6, "occ {}", r.max_queue_depth);
    }

    #[test]
    fn unloaded_latency_decomposes_into_hops() {
        // Inter-leaf: 1 (inject) + 4 links + 3 scheduling cycles = 4d+4;
        // intra-leaf (prob = (k/2−1)/(k²/2)·…≈1/8 incl. self): 2d+2.
        // At radix 8 the destination is under the same leaf with
        // probability 4/32, so the mix is 0.875·(4d+4) + 0.125·(2d+2).
        let d = 3u64;
        let r = run_fabric(FabricConfig::small(8, d), 0.02, 3);
        let inter = (4 * d + 4) as f64;
        let intra = (2 * d + 2) as f64;
        let expect = 0.875 * inter + 0.125 * intra;
        assert!(
            (r.mean_delay - expect).abs() < 1.5,
            "latency {} vs ≈{expect}",
            r.mean_delay
        );
    }

    #[test]
    fn moderate_load_sustains_throughput() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.7, 4);
        assert!(
            (r.throughput - 0.7).abs() < 0.04,
            "thr {} vs 0.7",
            r.throughput
        );
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn hotspot_overload_is_lossless() {
        // Every host sends half its traffic to host 0: output 0 is
        // overloaded, backpressure propagates, nothing is ever dropped
        // (the assertion inside the sim would panic on overflow).
        let cfg = FabricConfig::small(8, 2);
        let mut fab = FatTreeFabric::new(cfg);
        let hosts = fab.topology().hosts();
        let mut tr = Hotspot::new(hosts, 0.5, 0, 0.5, &SeedSequence::new(5));
        let r = fab.run(&mut tr, &EngineConfig::new(1_000, 8_000));
        assert_eq!(r.reordered, 0);
        assert!(
            r.max_queue_depth <= cfg.buffer_cells,
            "credits bound the buffers"
        );
        // The hot egress drains at its full line rate (1/hosts of the
        // aggregate); port-level backpressure lets congestion spread into
        // the shared buffers (tree saturation), so aggregate throughput
        // sits well below offered load — but strictly above the hot
        // port's own rate, and nothing is ever lost.
        let hot_rate = 1.0 / fab.topology().hosts() as f64;
        assert!(r.throughput > hot_rate, "throughput {}", r.throughput);
    }

    #[test]
    fn tiny_buffers_throttle_but_never_drop() {
        // Buffer below the credit RTT: goodput drops, losslessness holds.
        let mut cfg = FabricConfig::small(8, 4);
        cfg.buffer_cells = 2; // RTT is 2·4 = 8 slots
        let r = run_fabric(cfg, 0.9, 6);
        assert!(r.throughput < 0.6, "throttled: {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn rtt_sized_buffers_sustain_full_rate() {
        // Load chosen below the static-flow-hash imbalance point: with
        // k/2 = 4 uplinks per leaf and random per-flow spine hashing, the
        // worst uplink carries noticeably more than the average, so the
        // fabric saturates before the hosts do (cf. the ECMP-imbalance
        // literature). 0.72 keeps every link under 1.0 with margin.
        let mut cfg = FabricConfig::small(8, 4);
        cfg.buffer_cells = (2 * cfg.link_delay + 2) as usize;
        let r = run_fabric(cfg, 0.72, 7);
        assert!(
            (r.throughput - 0.72).abs() < 0.04,
            "thr {} at RTT-sized buffers",
            r.throughput
        );
    }

    #[test]
    fn engine_buffer_override_rearms_the_credit_loop() {
        // EngineConfig::with_buffer_cells reaches the fabric's credit
        // loops: a 2-cell override on an RTT=8 fabric throttles exactly
        // like building it with tiny buffers.
        let cfg = FabricConfig::small(8, 4);
        let mut fab = FatTreeFabric::new(cfg);
        let mut tr = BernoulliUniform::new(fab.topology().hosts(), 0.9, &SeedSequence::new(6));
        let r = fab.run(
            &mut tr,
            &EngineConfig::new(1_000, 8_000).with_buffer_cells(2),
        );
        assert!(r.throughput < 0.6, "throttled: {}", r.throughput);
        assert!(r.max_queue_depth <= 2, "occ {}", r.max_queue_depth);
    }

    #[test]
    #[should_panic(expected = "valid only on a fabric that has not run")]
    fn buffer_override_on_a_fabric_holding_cells_is_refused() {
        // Credits out are counted against the depth: re-arming them with
        // cells still outstanding would overflow a buffer much later.
        let mut fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let mut tr = BernoulliUniform::new(fab.topology().hosts(), 0.6, &SeedSequence::new(6));
        fab.run(&mut tr, &EngineConfig::new(0, 200));
        fab.run(&mut tr, &EngineConfig::new(0, 200).with_buffer_cells(3));
    }

    #[test]
    fn placement_option1_adds_a_stage_of_latency() {
        let mut cfg3 = FabricConfig::small(8, 2);
        cfg3.placement = Placement::InputOnly;
        let mut cfg1 = cfg3;
        cfg1.placement = Placement::InputAndOutput;
        let r3 = run_fabric(cfg3, 0.1, 8);
        let r1 = run_fabric(cfg1, 0.1, 8);
        assert!(
            r1.mean_delay > r3.mean_delay + 2.0,
            "option 1 {} vs option 3 {}",
            r1.mean_delay,
            r3.mean_delay
        );
        assert_eq!(Placement::InputAndOutput.oeo_per_stage(), 2);
        assert_eq!(Placement::InputOnly.oeo_per_stage(), 1);
    }

    #[test]
    fn placement_option2_pays_control_rtt_per_stage() {
        let mut cfg3 = FabricConfig::small(8, 3);
        cfg3.placement = Placement::InputOnly;
        let mut cfg2 = cfg3;
        cfg2.placement = Placement::OutputOnly;
        let r3 = run_fabric(cfg3, 0.1, 9);
        let r2 = run_fabric(cfg2, 0.1, 9);
        // Each of the 3 stages adds ≈ 2·d of request/grant flight.
        assert!(
            r2.mean_delay > r3.mean_delay + 4.0,
            "option 2 {} vs option 3 {}",
            r2.mean_delay,
            r3.mean_delay
        );
    }

    #[test]
    fn fdl_buffers_carry_load_losslessly() {
        // Clean FDL run: the credit loop bounds every input queue at the
        // plane's guaranteed capacity, so admission never refuses a cell
        // and the only behavioural difference from electronic VOQs is
        // head-of-line blocking (one FIFO per input, not per pair) plus
        // recirculation bookkeeping.
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        let r = run_fabric(cfg, 0.4, 31);
        assert_eq!(r.dropped, 0, "clean FDL runs are lossless");
        assert_eq!(r.reordered, 0);
        assert!((r.throughput - 0.4).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.extra("fdl_drops_total"), Some(0.0));
        assert_eq!(r.extra("fdl_underflow_stalls"), Some(0.0));
        assert!(
            r.extra("fdl_recirculations").unwrap() > 0.0,
            "unserved emerged cells re-enter the delay lines"
        );
    }

    #[test]
    fn fdl_mode_is_deterministic_and_distinct_from_electronic() {
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        let a = run_fabric(cfg, 0.5, 11);
        let b = run_fabric(cfg, 0.5, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let e = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        assert_ne!(
            a.fingerprint(),
            e.fingerprint(),
            "per-input FIFO semantics differ from per-pair VOQs"
        );
    }

    #[test]
    fn fdl_requires_input_only_placement() {
        use crate::spec::TopologyError;
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        cfg.placement = Placement::OutputOnly;
        assert!(matches!(
            FatTreeFabric::try_new(cfg),
            Err(TopologyError::UnsupportedPlacement { .. })
        ));
        assert_eq!(BufferTech::Fdl.name(), "fdl");
        assert_eq!(BufferTech::Electronic.name(), "electronic");
    }

    /// A wavelength plane and the short half of every delay line of
    /// leaf 0, dead from slot 0.
    fn plane_and_short_lines_dead(cfg: &FabricConfig) -> osmosis_faults::FaultPlan {
        use osmosis_faults::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new().permanent(FaultKind::WavelengthLoss { plane: 1 }, 0);
        for input in 0..cfg.radix {
            for local in 0..cfg.buffer_cells / 2 {
                let line = input * cfg.buffer_cells + local;
                plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
            }
        }
        plan
    }

    #[test]
    fn a_reused_fabric_runs_like_a_fresh_one() {
        // A run under faults leaves nothing behind but cells: this one
        // carries no traffic, so the fault-free run after it has to
        // reproduce a fresh fabric bit for bit.
        for tech in [BufferTech::Electronic, BufferTech::Fdl] {
            let cfg = FabricConfig {
                buffer_tech: tech,
                ..FabricConfig::small(8, 2)
            };
            let loaded = |fab: &mut FatTreeFabric| {
                let hosts = fab.topology().hosts();
                let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(9));
                fab.run(&mut tr, &EngineConfig::new(0, 3_000))
            };
            let fresh = loaded(&mut FatTreeFabric::new(cfg));
            let mut fab = FatTreeFabric::new(cfg);
            let hosts = fab.topology().hosts();
            let mut idle = BernoulliUniform::new(hosts, 0.0, &SeedSequence::new(9));
            let mut inj = osmosis_faults::FaultInjector::new(plane_and_short_lines_dead(&cfg));
            fab.run_faulted(&mut idle, &EngineConfig::new(0, 10), &mut inj);
            let second = loaded(&mut fab);
            assert_eq!(second.dropped, 0, "{tech:?}: dead lines outlived their run");
            assert_eq!(second.fingerprint(), fresh.fingerprint(), "{tech:?}");
        }
    }

    #[test]
    fn a_run_reports_its_own_buffer_plane_counters() {
        // A finite schedule loses cells to dead lines and drains; the
        // idle run after it has nothing to count.
        let cfg = FabricConfig {
            buffer_tech: BufferTech::Fdl,
            ..FabricConfig::small(8, 2)
        };
        let mut fab = FatTreeFabric::new(cfg);
        let hosts = fab.topology().hosts();
        let sends = |src: usize| (0..20).map(|k| (src * 7 + k * 3) % hosts).collect();
        let mut tr = osmosis_traffic::Replay::new((0..hosts).map(sends).collect());
        let mut inj = osmosis_faults::FaultInjector::new(plane_and_short_lines_dead(&cfg));
        let faulted = fab.run_faulted(&mut tr, &EngineConfig::new(0, 600), &mut inj);
        assert!(tr.is_done() && fab.resident_cells() == 0, "drained");
        assert!(faulted.dropped > 20, "dead lines lose cells");
        let drops = faulted.extra("fdl_drops_total");
        assert_eq!(drops, Some(faulted.dropped as f64));
        assert!(faulted.extra("fdl_recirculations").unwrap() > 100.0);
        let mut idle = BernoulliUniform::new(hosts, 0.0, &SeedSequence::new(9));
        let after = fab.run(&mut idle, &EngineConfig::new(0, 50));
        for key in [
            "fdl_drops_total",
            "fdl_drops_dead_line",
            "fdl_recirculations",
        ] {
            assert_eq!(after.extra(key), Some(0.0), "{key}");
        }
    }

    #[test]
    fn fabric_is_deterministic() {
        let a = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        let b = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        use osmosis_faults::{FaultInjector, FaultPlan};
        let plain = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        let mut fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let hosts = fab.topology().hosts();
        let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(11));
        let mut inj = FaultInjector::new(FaultPlan::new());
        let faulted = fab.run_faulted(&mut tr, &EngineConfig::new(1_000, 8_000), &mut inj);
        assert_eq!(plain.fingerprint(), faulted.fingerprint());
    }

    #[test]
    fn dead_wavelength_plane_reroutes_and_recovers() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        // Kill one of the four spines for a window mid-run. Re-hashing
        // spreads its flows over the survivors; at 0.6 load the three
        // remaining uplinks per leaf (0.8 each) still carry everything.
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 10_000).with_seed(21);
        let run = |plan: FaultPlan| {
            let mut fab = FatTreeFabric::new(cfg);
            let hosts = fab.topology().hosts();
            let mut tr = BernoulliUniform::new(hosts, 0.6, &SeedSequence::new(e.seed));
            let mut inj = FaultInjector::new(plan);
            let r = fab.run_faulted(&mut tr, &e, &mut inj);
            (r, fab.resident_cells())
        };
        let (nominal, _) = run(FaultPlan::new());
        let (degraded, resident) = run(FaultPlan::new().one_shot(
            FaultKind::WavelengthLoss { plane: 1 },
            2_000,
            Some(3_000),
        ));
        assert_eq!(degraded.dropped, 0, "re-routing is lossless");
        assert_eq!(
            degraded.injected,
            degraded.delivered + resident,
            "every cell delivered or still resident"
        );
        assert!(
            degraded.throughput > 0.9 * nominal.throughput,
            "one dead plane out of four barely dents 0.6 load: {} vs {}",
            degraded.throughput,
            nominal.throughput
        );
        assert_eq!(degraded.extra("faults_injected"), Some(1.0));
        assert_eq!(degraded.extra("faults_healed"), Some(1.0));
    }

    #[test]
    fn link_ber_burst_retransmits_hop_by_hop() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 8_000).with_seed(23);
        let mut fab = FatTreeFabric::new(cfg);
        let hosts = fab.topology().hosts();
        let mut tr = BernoulliUniform::new(hosts, 0.4, &SeedSequence::new(e.seed));
        let plan = FaultPlan::new().permanent(
            FaultKind::LinkBerBurst {
                link: LINK_ANY,
                cell_error_prob: 0.05,
            },
            0,
        );
        let mut inj = FaultInjector::new(plan);
        let r = fab.run_faulted(&mut tr, &e, &mut inj);
        assert!(
            r.extra("fault_retransmits").unwrap() > 100.0,
            "corrupted hops were re-sent"
        );
        assert_eq!(r.dropped, 0);
        assert_eq!(
            r.reordered, 0,
            "go-back-N link stall preserves per-flow order"
        );
        assert_eq!(
            r.injected,
            r.delivered + fab.resident_cells(),
            "retransmission loses nothing"
        );
    }

    #[test]
    fn dropped_credits_throttle_but_recover_via_resync() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 10_000).with_seed(25);
        let run = |plan: FaultPlan| {
            let mut fab = FatTreeFabric::new(cfg);
            let hosts = fab.topology().hosts();
            let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(e.seed));
            let mut inj = FaultInjector::new(plan);
            let r = fab.run_faulted(&mut tr, &e, &mut inj);
            (r, fab.resident_cells())
        };
        let (faulted, resident) =
            run(FaultPlan::new().one_shot(FaultKind::CreditDrop { prob: 0.3 }, 1_000, Some(4_000)));
        assert!(faulted.extra("fault_credits_dropped").unwrap() > 100.0);
        assert_eq!(faulted.dropped, 0, "lost credits never lose cells");
        assert_eq!(
            faulted.injected,
            faulted.delivered + resident,
            "credit resync keeps the fabric flowing"
        );
        assert!(
            faulted.throughput > 0.4,
            "audit recovery bounds the throttling: {}",
            faulted.throughput
        );
    }
}
