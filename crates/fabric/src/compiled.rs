//! The fabric simulator: a slotted cell simulator for *any* expanded
//! topology.
//!
//! [`CompiledFabric`] consumes an [`ExpandedFabric`] — fat tree,
//! dragonfly or full mesh — and runs it on the shared engine. The paper
//! has one switch-stage mechanism (§IV): a buffered crossbar behind a
//! credit loop, matched by iterative round-robin arbitration each slot.
//! The three placements of Fig. 2 are that stage with the buffer — and so
//! the credit check and the request/grant path — put somewhere else
//! ([`TopologySpec::placement`]):
//!
//! * option 3, input buffers only: an output grants while its credit
//!   loop has room, and a cell that lands in slot t may be granted at
//!   t + `rg` ([`TopologySpec::request_grant`], the local request/grant
//!   cycle);
//! * option 2, the same with the requests crossing the upstream cable:
//!   t + `rg` + 2·`link_delay`;
//! * option 1, an egress queue per output as well: grants are not
//!   credit-checked, a matched cell waits in the egress queue and leaves
//!   it, one per slot, while the loop has room.
//!
//! Links have a deterministic flight time, per-flow routing is stable and
//! minimal ([`ExpandedFabric::route`]), and losslessness is asserted
//! rather than measured: a cell landing on a full buffer panics.
//!
//! All switch state lives in flat tables indexed by the expansion's
//! global port number, `switch * radix + local`: credits outstanding and
//! round-robin pointers (16 bits each: `configure` refuses a buffer of
//! 2¹⁶ cells, the spec a radix above 2¹⁶ − 1), the far end of the
//! port's cable (copied from [`ExpandedFabric::peer`] once per fabric),
//! and one arrival-ordered input buffer — a `Flit` being the 16 bytes of
//! a cell this simulator reads plus a word for where it is headed, 20
//! bytes in all. The buffers are the queues of one [`Voqs`] store, the one the
//! N×N switch simulators keep their VOQs in: a queue record per port and
//! a slab that grows to the most flits ever resident at once, so a
//! lightly loaded fabric costs the cells in it, not `buffer_cells` slots
//! per port. The credit loop bounds every queue at `buffer_cells`, which
//! the run may override. `configure` sizes the tables once, the host
//! queues among them, and construction keeps only the graph, so building
//! a fabric costs nothing per port, switch or host. Every link has the
//! spec's one delay d, so cells and credits on links sit in wheels of
//! d + 1 buckets indexed `slot % (d + 1)`: a slot drains its
//! own bucket in the order it was filled and appends to the bucket d
//! ahead, the one drained the slot before. A hop reads no graph table:
//! the port a cell lands on is `switch * radix + local` by construction,
//! so both come out of its `at` word by a division, and
//! [`ExpandedFabric::route`] is closed-form arithmetic.
//!
//! The host edge is one FIFO per host plus one bit per host, set by
//! `admit` when it queues a cell and cleared by `deliver` when it takes
//! the last one. `deliver` walks the set bits only, in ascending host
//! order — the order a scan of every host would visit the queued ones
//! in — so a light load costs the hosts that have something to send,
//! and the wheel, the credit-stall reports and the trace are those of
//! the full scan.
//!
//! The VOQs are virtual: VOQ (i, o) is the entries of input i's buffer
//! tagged o, in arrival order. The first `ripe[i]` entries have waited
//! out the request/grant delay c, and the VOQ's "non-empty" signal — bit
//! i of output o's request mask — is up exactly when one of them is
//! tagged o. With c = 0 every entry is ripe as it lands; otherwise the
//! port goes on a third wheel, of c + 1 buckets, and ripens its oldest
//! unripe entry c slots on. Matching is the hardware scheduler's:
//! request bit-vectors into programmable priority encoders, the
//! word-parallel kernel of [`osmosis_sched::matching`] that the CIOQ and
//! burst switches share. Switches holding no cell are skipped; the
//! others are matched in id order, outputs ascending in each grant pass
//! and inputs ascending in each accept pass, so the matchings are those
//! of a dense VOQ array scanned in index order.
//!
//! Behind the [`BufferPlane`] seam the input stages can instead be
//! emulated fiber delay lines ([`BufferTech::Fdl`]): one plane per
//! switch holds the cells, fills one switch's worth of request masks
//! each slot, and surfaces the cells it could not keep as typed losses.
//!
//! Under an attached fault plane the reactions are written against the
//! expansion. In a fat tree of two or more levels the top-stage switches
//! reached through up-port p of the stage below form wavelength plane p:
//! while it is down they switch nothing, the up-links into it are masked
//! out of the grant eligibility, and flows that hash onto it are
//! re-hashed over the surviving planes. A cell corrupted on a link — or
//! landing behind one that was — is resent a link round trip later
//! (go-back-N per receiving link, so per-flow order holds), and a
//! dropped credit comes back through a resync `4·(2d + 1)` slots later.
//! An attached auditor is shown every credit loop's and every delay-line
//! queue's ledger at the top of each slot.
//!
//! Dragonfly minimal routes traverse local→global→local hops whose
//! credit loops are cyclic; at the moderate loads used for latency
//! studies this is benign, but the compiled fabric makes no
//! deadlock-freedom claim for dragonflies driven to saturation.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId, HostId, PortId, StageId, SwitchId};
use crate::spec::{top_choice, BufferTech, Placement, TopologyError, TopologySpec};
use osmosis_fdl::FdlBufferPlane;
use osmosis_sched::matching::Matcher;
use osmosis_sim::audit::{CreditLedger, DropReason};
use osmosis_sim::buffer::{BufferLossReason, BufferPlane, BufferStats};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_sim::Extra;
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_switch::Voqs;
use osmosis_traffic::{Arrival, TrafficGen};
use std::collections::VecDeque;
use std::ops::Range;

/// Set in a flit's `at` or a `peer` entry that names a host, not a port.
const HOST: u32 = 1 << 31;
/// The `peer` entry of a port nothing is cabled to.
const UNCONNECTED: u32 = u32::MAX;

/// What this simulator reads of a cell, and where the cell is headed: 20
/// bytes, and 24 in a slab slot of the input buffers with its link.
#[derive(Default, Clone, Copy)]
struct Flit {
    /// The injection slot: `configure` refuses a run of 2³² slots or
    /// more.
    inject: u32,
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
    /// Slots between a cell landing in a buffer and its request bit: the
    /// spec's `rg`, plus the control round trip under option 2.
    ripen_after: u64,
    /// Option 1: matched cells go to an egress queue, where the credit
    /// check is made.
    to_egress: bool,
    /// The input stages are delay-line planes, built by `configure`.
    fdl: bool,
    // Per global port, `switch * radix + local` (sized by `configure`):
    /// Credits out per output: cells sent over the link whose credit has
    /// not come back. The output may send below `buffer_cells`, which
    /// `configure` holds below 2¹⁶; host sinks drain a cell per slot and
    /// never take one.
    owed: Vec<u16>,
    grant_ptr: Vec<u16>,
    accept_ptr: Vec<u16>,
    /// Input buffers, one queue per port, oldest first, the first
    /// `ripe[port]` entries of each requesting (all of them, and no
    /// `ripe` table kept, without a request/grant delay).
    buffers: Voqs<Flit>,
    ripe: Vec<u32>,
    /// Per output port, `words` words: the inputs holding a ripe cell for
    /// it. (Under FDL: one switch's worth, refilled by its plane.)
    requests: Vec<u64>,
    /// The far end of the port's cable (a port, `HOST | host`, or
    /// [`UNCONNECTED`]): its cells fly there and its credits return there.
    peer: Vec<u32>,
    /// Option 1's egress queues.
    egress: Vec<VecDeque<Flit>>,
    // Per switch (sized by `configure`):
    /// Cells resident in the switch's buffers and egress queues (an
    /// electronic switch is skipped at 0).
    resident: Vec<u32>,
    /// `words` words: the outputs with any request.
    requested: Vec<u64>,
    /// The FDL input stages, one plane per switch.
    planes: Vec<Box<dyn BufferPlane<Flit>>>,
    host_queues: Vec<VecDeque<Flit>>,
    /// One bit per host, set exactly while its queue holds a cell: the
    /// hosts `deliver` visits.
    queued: Vec<u64>,
    /// Credits out per host NIC, as `owed`.
    host_owed: Vec<u32>,
    /// Cells on links: what lands in slot t sits in bucket
    /// `t % (link_delay + 1)`, in the order it was sent.
    cell_wheel: Vec<Vec<Flit>>,
    /// Credits on links, likewise: the sender each returns to.
    credit_wheel: Vec<Vec<u32>>,
    /// Ports with a cell waiting out the request/grant delay: what ripens
    /// in slot t sits in bucket `t % (ripen_after + 1)`.
    ripening: Vec<Vec<u32>>,
    // Fault reactions (idle, and their tables empty, without a fault plane):
    /// The switches of the stage below the top one (none outside a fat
    /// tree of two or more levels); the top stage follows them in id
    /// order, `top_per_plane` switches to a wavelength plane.
    feeders: Range<usize>,
    top_per_plane: usize,
    /// Per wavelength plane: up this slot?
    plane_ok: Vec<bool>,
    /// Cells corrupted on a link, landing again a link round trip later
    /// (a constant, so the queue stays in landing order).
    retransmit: VecDeque<(u64, Flit)>,
    /// Credits whose return was lost, recovered by the periodic credit
    /// audit (a constant later, likewise).
    resync: VecDeque<(u64, u32)>,
    /// Per receiving link (switches, then hosts): until this slot every
    /// arrival is discarded and resent behind the corrupted cell.
    link_stall: Vec<u64>,
    /// Audit scratch, per global port: cells and credits in flight on
    /// the credit loop protecting that input.
    in_flight: Vec<u32>,
    matcher: Matcher,
}

impl CompiledFabric {
    /// Expand `spec` and build the simulator. Panics on an invalid spec;
    /// use [`try_new`](Self::try_new) where the spec comes from external
    /// input (CLI flags, sweep grids).
    pub fn new(spec: TopologySpec) -> Self {
        match Self::try_new(spec) {
            Ok(fab) => fab,
            #[expect(
                clippy::panic,
                reason = "documented panic contract of the infallible constructor; `try_new` is the checked form"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Expand `spec` and build the simulator, rejecting invalid specs
    /// with a typed error.
    pub fn try_new(spec: TopologySpec) -> Result<Self, TopologyError> {
        Ok(Self::over(ExpandedFabric::expand(spec)?))
    }

    /// Build the simulator over an already-expanded graph. Nothing is
    /// sized per port, switch or host here: `configure` does that.
    pub fn over(fab: ExpandedFabric) -> Self {
        let spec = *fab.spec();
        let (feeders, top_per_plane) = match spec.wavelength_planes() {
            0 => (0..0, 1),
            planes => {
                let below = fab.stages[StageId::from_index(fab.stages.len() - 2)];
                let first = below.first_switch.index();
                let feeders = first..first + below.switches as usize;
                let tops = fab.switches.len() - feeders.end;
                (feeders, tops / planes)
            }
        };
        let control_rtt = match spec.placement {
            Placement::OutputOnly => 2 * spec.link_delay,
            Placement::InputAndOutput | Placement::InputOnly => 0,
        };
        // The per-port, per-switch and per-host tables are sized by
        // `configure`.
        CompiledFabric {
            spec,
            buffer_cells: spec.buffer_cells(),
            words: spec.radix.div_ceil(64),
            ripen_after: spec.request_grant + control_rtt,
            to_egress: spec.placement == Placement::InputAndOutput,
            fdl: false,
            owed: Vec::new(),
            grant_ptr: Vec::new(),
            accept_ptr: Vec::new(),
            buffers: Voqs::new(0),
            ripe: Vec::new(),
            requests: Vec::new(),
            peer: Vec::new(),
            egress: Vec::new(),
            resident: Vec::new(),
            requested: Vec::new(),
            planes: Vec::new(),
            host_queues: Vec::new(),
            queued: Vec::new(),
            host_owed: Vec::new(),
            cell_wheel: Vec::new(),
            credit_wheel: Vec::new(),
            ripening: Vec::new(),
            feeders,
            top_per_plane,
            plane_ok: Vec::new(),
            retransmit: VecDeque::new(),
            resync: VecDeque::new(),
            link_stall: Vec::new(),
            in_flight: Vec::new(),
            matcher: Matcher::new(spec.radix),
            fab,
        }
    }

    /// Choose the technology of the input stages (electronic unless
    /// told otherwise). A bank of `buffer_cells` delay lines per input
    /// emulates a queue of exactly the capacity the credit loop
    /// protects; its shortest line is the one-slot local request/grant
    /// cycle, so FDL stages need input-only placement and `rg=1`.
    pub fn with_buffer_tech(mut self, tech: BufferTech) -> Result<Self, TopologyError> {
        let (placement, request_grant) = (self.spec.placement, self.spec.request_grant);
        self.fdl = tech == BufferTech::Fdl;
        if self.fdl && (placement != Placement::InputOnly || request_grant != 1) {
            return Err(TopologyError::UnsupportedFdl {
                placement,
                request_grant,
            });
        }
        Ok(self)
    }

    /// The expanded graph under simulation.
    pub fn expanded(&self) -> &ExpandedFabric {
        &self.fab
    }

    /// Run traffic through the fabric on the shared engine.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }

    /// Append `flit`, landing in `slot` and routed to output `out`, to
    /// the buffer of input `in_port` at `sw`; its request bit goes up
    /// `ripen_after` slots on. Returns the new buffer depth.
    #[inline]
    fn enqueue(
        &mut self,
        slot: u64,
        sw: usize,
        in_port: usize,
        out: usize,
        mut flit: Flit,
    ) -> usize {
        flit.at = out as u32;
        let p = sw * self.spec.radix + in_port;
        let depth = match self.planes.get_mut(sw) {
            Some(plane) => {
                plane.push(slot, in_port, out, slot + 1, flit);
                plane.occupancy(in_port)
            }
            None => self.buffers.len(p) + 1,
        };
        assert!(
            depth <= self.buffer_cells,
            "buffer overflow at switch {sw} port {in_port}: credit flow control violated"
        );
        if self.fdl {
            return depth;
        }
        self.buffers.push(p, flit);
        self.resident[sw] += 1;
        match self.ripen_after {
            0 => self.request(sw, in_port, out),
            c => self.ripening[((slot + c) % (c + 1)) as usize].push(p as u32),
        }
        depth
    }

    /// Raise the request bit of VOQ (`i`, `o`) at `sw`.
    #[inline]
    fn request(&mut self, sw: usize, i: usize, o: usize) {
        let (radix, words) = (self.spec.radix, self.words);
        self.requests[(sw * radix + o) * words + i / 64] |= 1 << (i % 64);
        self.requested[sw * words + o / 64] |= 1 << (o % 64);
    }

    /// The oldest cell of input `i` at `sw` still waiting out the
    /// request/grant delay starts requesting.
    fn ripen(&mut self, sw: usize, i: usize) {
        let p = sw * self.spec.radix + i;
        #[expect(
            clippy::panic,
            reason = "a port goes on the ripening wheel once per cell it buffers, and only ripe cells leave"
        )]
        let Some(&Flit { at: o, .. }) = self.buffers.nth(p, self.ripe[p] as usize) else {
            panic!("a port ripened past its buffered cells")
        };
        self.ripe[p] += 1;
        self.request(sw, i, o as usize);
    }

    /// Remove the oldest cell input `i` holds for output `o` at `sw`,
    /// and drop the request bit if no other ripe cell shares it.
    #[inline]
    fn dequeue(&mut self, slot: u64, sw: usize, i: usize, o: usize) -> Flit {
        #[expect(
            clippy::panic,
            reason = "the matching only pairs ports whose request bit is set, and the bit tracks the buffer"
        )]
        let unqueued = || -> ! { panic!("matched pair without a queued cell") };
        if let Some(plane) = self.planes.get_mut(sw) {
            return plane.pop(slot, i, o).unwrap_or_else(|| unqueued());
        }
        let (radix, words) = (self.spec.radix, self.words);
        let p = sw * radix + i;
        let delayed = self.ripen_after > 0;
        let ripe = if delayed {
            self.ripe[p] as usize
        } else {
            self.buffers.len(p)
        };
        let tagged = |f: &Flit| f.at == o as u32;
        let Some((flit, another)) = self.buffers.remove_first(p, ripe, tagged) else {
            unqueued()
        };
        if delayed {
            self.ripe[p] -= 1;
        }
        self.resident[sw] -= 1;
        if !another {
            let col = (sw * radix + o) * words;
            self.requests[col + i / 64] &= !(1 << (i % 64));
            if self.requests[col..col + words].iter().all(|&w| w == 0) {
                self.requested[sw * words + o / 64] &= !(1 << (o % 64));
            }
        }
        flit
    }

    /// Match switch `sw` for one slot into `self.matcher.matched`. An
    /// output grants while its credit loop has room (option 1 checks
    /// that at the egress queue instead), and never into a dead
    /// wavelength plane: cells queued for it wait for the repair.
    #[inline]
    fn match_switch(&mut self, sw: usize, faults_on: bool) {
        let (radix, words) = (self.spec.radix, self.words);
        let ports = sw * radix..(sw + 1) * radix;
        // An FDL switch's masks are the one row its plane just filled.
        let row = if self.fdl { 0 } else { sw };
        let (owed, limit, to_egress) =
            (&self.owed[ports.clone()], self.buffer_cells, self.to_egress);
        let (plane_ok, up) = (&self.plane_ok, radix / 2);
        let feeds_planes = faults_on && self.feeders.contains(&sw);
        self.matcher.match_switch(
            self.spec.iterations,
            &self.requests[row * radix * words..(row + 1) * radix * words],
            &self.requested[row * words..(row + 1) * words],
            &mut self.grant_ptr[ports.clone()],
            &mut self.accept_ptr[ports],
            |o| {
                (to_egress || (owed[o] as usize) < limit)
                    && !(feeds_planes && o >= up && !plane_ok[o - up])
            },
        );
    }

    /// The plane a flow ascends through when `nominal`, the one it hashes
    /// onto, is down: re-hashed across the survivors with the key turned
    /// around, so a dead plane's flows spread over all of them instead
    /// of piling onto a neighbour. With every plane down the cell stalls
    /// (losslessly) toward its nominal plane until one heals.
    fn surviving_plane(&self, nominal: usize, src: usize, dst: usize) -> usize {
        let planes = self.plane_ok.len();
        let healthy = self.plane_ok.iter().filter(|&&ok| ok).count();
        if healthy == 0 {
            return nominal;
        }
        let pick = top_choice(dst + self.fab.hosts.len(), src, planes) % healthy;
        let mut alive = (0..planes).filter(|&p| self.plane_ok[p]);
        alive.nth(pick).unwrap_or(nominal)
    }

    /// A cell comes off its link in `slot`: it is delivered to its host,
    /// or routed and buffered at the port it lands on. Under a fault
    /// plane it may instead go back — while a predecessor on this link
    /// is mid retransmission the cell is out of sequence at the receiver,
    /// and otherwise it may itself arrive corrupted; either way it is
    /// NACKed and resent one link round trip later, extending the stall
    /// so the cells behind it queue up in order too. The sender's credit
    /// stays consumed, so buffer accounting holds across the round trip.
    #[inline]
    fn land<T: TraceSink>(
        &mut self,
        slot: u64,
        flit: Flit,
        faults_on: bool,
        obs: &mut Observer<'_, T>,
    ) {
        let (src, dst) = (flit.src as usize, flit.dst as usize);
        let to_host = flit.at & HOST != 0;
        if faults_on {
            let link = if to_host {
                self.fab.switches.len() + dst
            } else {
                flit.at as usize / self.spec.radix
            };
            if slot < self.link_stall[link] || obs.fault_cell_corrupted(link) {
                let back = slot + 2 * self.spec.link_delay;
                obs.cell_retransmitted(link);
                self.link_stall[link] = back;
                self.retransmit.push_back((back, flit));
                return;
            }
        }
        if to_host {
            debug_assert_eq!(flit.at, HOST | flit.dst);
            obs.cell_delivered_flow(dst, flit.inject.into(), src, flit.seq.into());
            return;
        }
        let (radix, at) = (self.spec.radix, flit.at as usize);
        let (sw, local, up) = (at / radix, at % radix, radix / 2);
        let (from, to) = (HostId::from_index(src), HostId::from_index(dst));
        let mut out = self
            .fab
            .route(SwitchId::from_index(sw), local as u32, from, to) as usize;
        if faults_on && self.feeders.contains(&sw) && out >= up && !self.plane_ok[out - up] {
            out = up + self.surviving_plane(out - up, src, dst);
        }
        let depth = self.enqueue(slot, sw, local, out, flit);
        obs.note_queue_depth(depth);
    }

    /// Put `flit` on the cable out of global port `p_out`, to land in
    /// the slot of wheel bucket `next`. A switch link takes a credit; a
    /// host sink (which drains a cell per slot) does not.
    #[inline]
    fn send(&mut self, next: usize, p_out: usize, mut flit: Flit) {
        flit.at = self.peer[p_out];
        assert!(flit.at != UNCONNECTED, "matched to an unconnected port");
        if flit.at & HOST == 0 {
            self.owed[p_out] += 1;
        }
        self.cell_wheel[next].push(flit);
    }

    /// Input `input` of switch `sw` freed a buffer slot in `slot`: the
    /// credit goes back to whoever feeds that port, through wheel bucket
    /// `next`. Under a credit-drop fault the return is lost on the wire
    /// and recovered by the periodic credit audit a few credit round
    /// trips later, so the degraded mode throttles but never deadlocks.
    #[inline]
    fn return_credit<T: TraceSink>(
        &mut self,
        (slot, next): (u64, usize),
        sw: usize,
        input: usize,
        obs: &mut Observer<'_, T>,
    ) {
        let sender = self.peer[sw * self.spec.radix + input];
        if obs.faults_attached() && obs.fault_credit_dropped(sw, input) {
            let d = self.spec.link_delay;
            self.resync.push_back((slot + d + 4 * (2 * d + 1), sender));
        } else {
            self.credit_wheel[next].push(sender);
        }
    }

    /// Is `sw` a top-stage switch of a wavelength plane that is down?
    fn in_dead_plane(&self, sw: usize) -> bool {
        let top = sw.checked_sub(self.feeders.end);
        let plane = top.map(|t| t / self.top_per_plane);
        plane.is_some_and(|p| self.plane_ok.get(p) == Some(&false))
    }

    /// Show an attached auditor every credit loop's ledger — `held +
    /// in_flight + occupancy == capacity` per connected input — and every
    /// delay-line queue's (`pushed == popped + dropped + resident`,
    /// keyed `switch · radix + input`). Taken at the top of `arbitrate`,
    /// where the sums are quiescent: every transition (credit consumed ↔
    /// cell in flight ↔ buffered ↔ credit in flight) happens inside one
    /// phase.
    fn report_ledgers<T: TraceSink>(&mut self, obs: &mut Observer<'_, T>) {
        let radix = self.spec.radix;
        // A cell flies to the input whose loop it is on; a credit, to
        // that input's feeder.
        self.in_flight.clear();
        self.in_flight.resize(self.peer.len(), 0);
        let resent = self.retransmit.iter().map(|&(_, flit)| flit.at);
        let cells = self.cell_wheel.iter().flatten().map(|flit| flit.at);
        let resynced = self.resync.iter().map(|&(_, to)| to);
        let credits = self.credit_wheel.iter().flatten().copied().chain(resynced);
        let fed = credits.map(|to| match to & HOST {
            0 => self.peer[to as usize],
            _ => self.fab.hosts[HostId::from_index((to ^ HOST) as usize)].index() as u32,
        });
        for input in cells.chain(resent).chain(fed).filter(|at| at & HOST == 0) {
            self.in_flight[input as usize] += 1;
        }
        let capacity = self.buffer_cells as u64;
        for (p, &feeder) in self.peer.iter().enumerate() {
            let owed = match feeder {
                UNCONNECTED => continue,
                host if host & HOST != 0 => self.host_owed[(host ^ HOST) as usize],
                port => self.owed[port as usize].into(),
            };
            let (sw, input) = (p / radix, p % radix);
            let occupancy = match self.planes.get(sw) {
                Some(plane) => plane.occupancy(input) as u64,
                None => self.buffers.len(p) as u64,
            };
            let ledger = CreditLedger {
                held: capacity - owed as u64,
                in_flight: self.in_flight[p].into(),
                occupancy,
                capacity,
            };
            obs.audit_credit_link(sw, input, ledger);
        }
        for (sw, plane) in self.planes.iter().enumerate() {
            for input in 0..radix {
                if let Some((pushed, popped, dropped, resident)) = plane.queue_ledger(input) {
                    obs.audit_fdl_ledger(sw * radix + input, pushed, popped, dropped, resident);
                }
            }
        }
    }
}

impl CellSwitch for CompiledFabric {
    fn ports(&self) -> usize {
        self.fab.hosts.len()
    }

    /// A fabric is run again only once the run before has drained. The
    /// engine refuses one still holding cells; credits still on their
    /// way back would land in slots of the new run they were never sent
    /// for, and under a `buffer_cells` override be counted against a
    /// depth they were not sent under, so they are refused here.
    fn configure(&mut self, cfg: &EngineConfig) {
        let credits = self.credit_wheel.iter().all(Vec::is_empty) && self.resync.is_empty();
        assert!(
            credits,
            "a fabric is run again, or given a buffer_cells override, only once it has \
             drained: credits are still inside this one"
        );
        let slots = cfg.warmup_slots.saturating_add(cfg.measure_slots);
        assert!(
            slots <= u32::MAX.into(),
            "a fabric run of {slots} slots: a flit keeps its injection slot in 32 bits, so a \
             run must be shorter than 2^32 slots"
        );
        self.link_stall.clear();
        self.plane_ok.clear();
        if let Some(b) = cfg.buffer_cells {
            assert!(b >= 1);
            self.buffer_cells = b;
        }
        assert!(
            self.buffer_cells < 1 << 16,
            "a fabric buffer of {} cells: an output counts its credits out in 16 bits, so a \
             buffer must hold fewer than 2^16 cells",
            self.buffer_cells
        );
        // The switch and host tables are sized here: zeroed on a new
        // fabric, and as the drained run before left them — empty,
        // pointers where they stopped — on a used one.
        let (ports, switches) = (self.fab.port_count(), self.fab.switches.len());
        let (radix, words, hosts) = (self.spec.radix, self.words, self.fab.hosts.len());
        for table in [&mut self.owed, &mut self.grant_ptr, &mut self.accept_ptr] {
            table.resize(ports, 0);
        }
        let delayed_ports = if self.ripen_after > 0 { ports } else { 0 };
        self.ripe.resize(delayed_ports, 0);
        let mask_rows = if self.fdl { 1 } else { switches };
        self.requests.resize(mask_rows * radix * words, 0);
        self.requested.resize(mask_rows * words, 0);
        self.resident.resize(switches, 0);
        let egress_queues = if self.to_egress { ports } else { 0 };
        self.egress.resize_with(egress_queues, VecDeque::new);
        self.host_queues.resize_with(hosts, VecDeque::new);
        self.queued.resize(hosts.div_ceil(64), 0);
        self.host_owed.resize(hosts, 0);
        // Fresh planes: every delay line alive (a fault plane, if one is
        // attached, kills what its plan says), every counter at zero.
        let plane = |_| -> Box<dyn BufferPlane<Flit>> {
            Box::new(FdlBufferPlane::new(radix, self.buffer_cells))
        };
        self.planes = (0..if self.fdl { switches } else { 0 })
            .map(plane)
            .collect();
        let buckets = self.spec.link_delay as usize + 1;
        self.cell_wheel.resize_with(buckets, Vec::new);
        self.credit_wheel.resize_with(buckets, Vec::new);
        let ripening = (self.ripen_after + 1) as usize;
        self.ripening.resize_with(ripening, Vec::new);
        // The cabling and the buffers' queue table, once per fabric: a
        // drained run leaves every queue empty and its slab slots on the
        // free list for the next run.
        if self.peer.is_empty() {
            self.buffers = Voqs::new(ports);
            assert!(ports.max(hosts) < HOST as usize);
            self.peer = (0..ports)
                .map(|p| match self.fab.peer(PortId::from_index(p)) {
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
        let faults_on = obs.faults_attached();
        if obs.audit_attached() {
            self.report_ledgers(obs);
        }
        if faults_on {
            let planes = 0..self.spec.wavelength_planes();
            self.plane_ok.clear();
            self.plane_ok
                .extend(planes.map(|p| !obs.fault_plane_down(p)));
            self.link_stall
                .resize(self.fab.switches.len() + self.fab.hosts.len(), 0);
            // Delay-line health, re-read only in a slot where the fault
            // plane injected or healed something. It keys lines globally,
            // `(switch · radix + input) · lines_per_queue + local`; a dead
            // line accepts no new cells (its contents still emerge).
            if obs.fault_state_changed() {
                for (sw, plane) in self.planes.iter_mut().enumerate() {
                    let lines = radix * plane.lines_per_queue();
                    for line in 0..lines {
                        plane.set_line_dead(line, obs.fault_delay_line_dead(sw * lines + line));
                    }
                }
            }
        }
        // Delay-line emergences become visible before the slot's arrivals.
        for plane in &mut self.planes {
            plane.tick(slot);
        }
        // Cells that have waited out the request/grant delay.
        if self.ripen_after > 0 {
            let due = (slot % (self.ripen_after + 1)) as usize;
            let mut ripened = std::mem::take(&mut self.ripening[due]);
            for p in ripened.drain(..) {
                self.ripen(p as usize / radix, p as usize % radix);
            }
            self.ripening[due] = ripened;
        }

        // Cell arrivals from links, in the order they were sent — resent
        // cells first: each is older than anything still in flight on
        // its link.
        let mut landed = std::mem::take(&mut self.cell_wheel[now]);
        let due = self.retransmit.iter().take_while(|&&(at, _)| at == slot);
        let due = due.count();
        landed.splice(0..0, self.retransmit.drain(..due).map(|(_, flit)| flit));
        for &flit in &landed {
            self.land(slot, flit, faults_on, obs);
        }
        landed.clear();
        self.cell_wheel[now] = landed;

        // Credit returns, and those the credit audit recovered.
        let resynced = self
            .resync
            .iter()
            .take_while(|&&(at, _)| at == slot)
            .count();
        let resynced = self.resync.drain(..resynced).map(|(_, to)| to);
        for to in self.credit_wheel[now].drain(..).chain(resynced) {
            if to & HOST != 0 {
                self.host_owed[(to ^ HOST) as usize] -= 1;
            } else {
                self.owed[to as usize] -= 1;
            }
        }

        // Matchings, switch by switch. Idle electronic switches cost
        // nothing, and a dead wavelength plane switches nothing: its
        // cells stall, losslessly — the credits for them stay consumed.
        for sw in 0..self.resident.len() {
            let idle = !self.fdl && self.resident[sw] == 0;
            if idle || (faults_on && self.in_dead_plane(sw)) {
                continue;
            }
            // Option 1: the egress queues transmit first (a cell matched
            // in slot t leaves the stage in t + 1 at the earliest), one
            // cell each while the credit loop has room.
            if self.to_egress {
                for p in sw * radix..(sw + 1) * radix {
                    if (self.owed[p] as usize) < self.buffer_cells {
                        if let Some(flit) = self.egress[p].pop_front() {
                            self.resident[sw] -= 1;
                            self.send(next, p, flit);
                        }
                    }
                }
            }
            if let Some(plane) = self.planes.get(sw) {
                plane.fill_requests(slot, &mut self.requests, &mut self.requested);
            }
            self.match_switch(sw, faults_on);
            for k in 0..self.matcher.matched.len() {
                let (i, o) = self.matcher.matched[k];
                let flit = self.dequeue(slot, sw, i as usize, o as usize);
                self.return_credit((slot, next), sw, i as usize, obs);
                let p_out = sw * radix + o as usize;
                if self.to_egress {
                    self.resident[sw] += 1;
                    self.egress[p_out].push_back(flit);
                } else {
                    self.send(next, p_out, flit);
                }
            }
        }

        // End of slot: each plane commits unserved emerged cells and new
        // arrivals back into its delay lines and surfaces what it could
        // not keep. A lost cell consumed its upstream credit when it was
        // admitted, so the credit returns as a served cell's would.
        for sw in 0..self.planes.len() {
            self.planes[sw].settle(slot);
            for loss in self.planes[sw].take_losses() {
                self.return_credit((slot, next), sw, loss.input, obs);
                let reason = match loss.reason {
                    BufferLossReason::AdmissionFull => DropReason::BufferFull,
                    BufferLossReason::DeadLine => DropReason::FaultLoss,
                    BufferLossReason::NoFeasibleLine => DropReason::Other,
                };
                obs.cell_dropped_for(sw * radix + loss.input, reason);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let (d, radix) = (self.spec.link_delay, self.spec.radix);
        let next = ((slot + d) % (d + 1)) as usize;
        // Only hosts with a queued cell, in ascending order.
        for w in 0..self.queued.len() {
            let mut bits = self.queued[w];
            while bits != 0 {
                let h = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.fab.hosts[HostId::from_index(h)].index();
                if (self.host_owed[h] as usize) >= self.buffer_cells {
                    obs.credit_stall(at / radix, at % radix);
                    continue;
                }
                let queue = &mut self.host_queues[h];
                if let Some(mut flit) = queue.pop_front() {
                    if queue.is_empty() {
                        self.queued[w] &= !(1 << (h % 64));
                    }
                    self.host_owed[h] += 1;
                    flit.at = at as u32;
                    self.cell_wheel[next].push(flit);
                }
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        for a in arrivals {
            self.host_queues[a.src].push_back(Flit {
                inject: slot as u32,
                src: a.src as u32,
                dst: a.dst as u32,
                seq: obs.stamp(a.src, a.dst) as u32,
                at: 0,
            });
            self.queued[a.src / 64] |= 1 << (a.src % 64);
            obs.cell_injected(a.src, a.dst);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        // Pin compatibility, to be dropped at the parked `benchmark/`
        // re-freeze: its pins hold these two extras on the `rg=0` fabric
        // workloads and their absence from the campaign's `rg=1` points.
        if self.spec.request_grant == 0 {
            report.set_extra(Extra::Stages, self.spec.stages() as f64);
            report.set_extra(Extra::Switches, self.fab.switches.len() as f64);
        }
        if self.fdl {
            let mut total = BufferStats::default();
            for stats in self.planes.iter().map(|plane| plane.stats()) {
                total.dropped += stats.dropped;
                total.dropped_admission += stats.dropped_admission;
                total.dropped_dead_line += stats.dropped_dead_line;
                total.recirculations += stats.recirculations;
                total.underflow_stalls += stats.underflow_stalls;
            }
            report.set_extra(Extra::FdlDropsTotal, total.dropped as f64);
            report.set_extra(Extra::FdlDropsAdmission, total.dropped_admission as f64);
            report.set_extra(Extra::FdlDropsDeadLine, total.dropped_dead_line as f64);
            report.set_extra(Extra::FdlRecirculations, total.recirculations as f64);
            report.set_extra(Extra::FdlUnderflowStalls, total.underflow_stalls as f64);
        }
    }

    /// Cells inside the fabric: host queues, buffers, egress queues,
    /// links and retransmission round trips. With `injected == delivered
    /// + dropped + resident` after a run, no cell was lost unaccounted.
    fn resident_cells(&self) -> Option<u64> {
        let mut n = self.cell_wheel.iter().map(Vec::len).sum::<usize>() + self.retransmit.len();
        n += self.host_queues.iter().map(VecDeque::len).sum::<usize>();
        n += self.resident.iter().map(|&c| c as usize).sum::<usize>();
        n += self.planes.iter().map(|plane| plane.total()).sum::<usize>();
        Some(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
    use osmosis_sim::engine::SlottedModel;
    use osmosis_sim::{SeedSequence, SimRng};
    use osmosis_switch::run_switch_instrumented;
    use osmosis_traffic::{BernoulliUniform, Hotspot, Replay};

    fn uniform(fab: &CompiledFabric, load: f64, seed: u64) -> BernoulliUniform {
        BernoulliUniform::new(fab.ports(), load, &SeedSequence::new(seed))
    }

    fn run_spec(spec: TopologySpec, load: f64, seed: u64) -> EngineReport {
        let mut fab = CompiledFabric::new(spec);
        let mut tr = uniform(&fab, load, seed);
        fab.run(&mut tr, &EngineConfig::new(300, 3_000))
    }

    /// The m-ary folded Clos of `levels` radix-`radix` switch levels.
    fn run_clos(radix: usize, levels: u32, load: f64, seed: u64) -> EngineReport {
        let spec = TopologySpec::m_ary_fat_tree(radix, levels);
        let mut fab = CompiledFabric::new(spec);
        let mut tr = uniform(&fab, load, seed);
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    /// The §V tree at radix 8 with the paper's timing: a cell is
    /// schedulable the slot after it lands.
    fn paper_tree(link_delay: u64) -> TopologySpec {
        TopologySpec::two_level(8)
            .with_link_delay(link_delay)
            .with_request_grant(1)
    }

    fn run_tree(spec: TopologySpec, tech: BufferTech, load: f64, seed: u64) -> EngineReport {
        let mut fab = CompiledFabric::new(spec).with_buffer_tech(tech).unwrap();
        let mut tr = uniform(&fab, load, seed);
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    fn run_electronic(spec: TopologySpec, load: f64, seed: u64) -> EngineReport {
        run_tree(spec, BufferTech::Electronic, load, seed)
    }

    fn stages(r: &EngineReport) -> u32 {
        r.extra(Extra::Stages).unwrap() as u32
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
            assert_eq!(r.extra(Extra::Stages), Some(spec.stages() as f64));
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
    fn the_shape_extras_are_an_rg0_pin_artifact() {
        // `benchmark/pins.json` holds them on the rg=0 workloads and
        // their absence from the campaign's rg=1 points.
        let r = run_spec(TopologySpec::two_level(8).with_request_grant(1), 0.3, 7);
        assert_eq!(
            (r.extra(Extra::Stages), r.extra(Extra::Switches)),
            (None, None)
        );
    }

    #[test]
    fn compiled_runs_are_deterministic() {
        for spec in [
            TopologySpec::dragonfly(8, 4),
            TopologySpec::m_ary_fat_tree(8, 2),
            paper_tree(2),
        ] {
            let a = run_spec(spec, 0.25, 42);
            let b = run_spec(spec, 0.25, 42);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{spec}");
        }
    }

    #[test]
    fn idle_fabric_stays_idle() {
        let r = run_electronic(paper_tree(2), 0.0, 1);
        assert_eq!((r.injected, r.delivered), (0, 0));
    }

    #[test]
    fn light_load_flows_lossless_in_order() {
        let r = run_electronic(paper_tree(2), 0.2, 2);
        assert!((r.throughput - 0.2).abs() < 0.02, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0, "per-flow order via stable spine hashing");
        assert!(r.max_queue_depth <= 6, "occ {}", r.max_queue_depth);
    }

    #[test]
    fn unloaded_latency_decomposes_into_hops() {
        // Inter-leaf: 1 (inject) + 4 links + 3 scheduling cycles = 4d+4;
        // intra-leaf: 2d+2. At radix 8 the destination is under the same
        // leaf with probability 4/32, so the mix is
        // 0.875·(4d+4) + 0.125·(2d+2) — and one slot less per stage
        // without the request/grant cycle.
        let d = 3u64;
        let expect = |per_stage: f64| {
            let (inter, intra) = ((4 * d + 1) as f64, (2 * d + 1) as f64);
            0.875 * (inter + 3.0 * per_stage) + 0.125 * (intra + per_stage)
        };
        for (rg, per_stage) in [(1, 1.0), (0, 0.0)] {
            let spec = paper_tree(d).with_request_grant(rg);
            let r = run_electronic(spec, 0.02, 3);
            let expect = expect(per_stage);
            assert!(
                (r.mean_delay - expect).abs() < 0.75,
                "rg={rg}: latency {} vs ≈{expect}",
                r.mean_delay
            );
        }
    }

    #[test]
    fn moderate_load_sustains_throughput() {
        let r = run_electronic(paper_tree(2), 0.7, 4);
        assert!((r.throughput - 0.7).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn hotspot_overload_is_lossless() {
        // Every host sends half its traffic to host 0: output 0 is
        // overloaded, backpressure propagates, nothing is ever dropped
        // (the assertion inside the sim would panic on overflow).
        let mut fab = CompiledFabric::new(paper_tree(2));
        let hosts = fab.ports();
        let mut tr = Hotspot::new(hosts, 0.5, 0, 0.5, &SeedSequence::new(5));
        let r = fab.run(&mut tr, &EngineConfig::new(1_000, 8_000));
        assert_eq!(r.reordered, 0);
        assert!(r.max_queue_depth <= 6, "credits bound the buffers");
        // The hot egress drains at its full line rate (1/hosts of the
        // aggregate); port-level backpressure lets congestion spread into
        // the shared buffers (tree saturation), so aggregate throughput
        // sits well below offered load — but strictly above the hot
        // port's own rate, and nothing is ever lost.
        assert!(r.throughput > 1.0 / hosts as f64, "thr {}", r.throughput);
    }

    #[test]
    fn tiny_buffers_throttle_but_never_drop() {
        // Buffer below the credit RTT (2·4 = 8 slots): goodput drops,
        // losslessness holds.
        let r = run_electronic(paper_tree(4).with_buffer_cells(2), 0.9, 6);
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
        let r = run_electronic(paper_tree(4), 0.72, 7);
        assert!((r.throughput - 0.72).abs() < 0.04, "thr {}", r.throughput);
    }

    #[test]
    fn engine_buffer_override_rearms_the_credit_loop() {
        // EngineConfig::with_buffer_cells reaches the fabric's credit
        // loops: a 2-cell override on an RTT=8 fabric throttles exactly
        // like building it with tiny buffers.
        let mut fab = CompiledFabric::new(paper_tree(4));
        let mut tr = uniform(&fab, 0.9, 6);
        let cfg = EngineConfig::new(1_000, 8_000).with_buffer_cells(2);
        let r = fab.run(&mut tr, &cfg);
        assert!(r.throughput < 0.6, "throttled: {}", r.throughput);
        assert!(r.max_queue_depth <= 2, "occ {}", r.max_queue_depth);
        let built = run_electronic(paper_tree(4).with_buffer_cells(2), 0.9, 6);
        assert_eq!(r.fingerprint(), built.fingerprint());
    }

    #[test]
    fn placement_option1_adds_a_stage_of_latency() {
        let r3 = run_electronic(paper_tree(2), 0.1, 8);
        let option1 = paper_tree(2).with_placement(Placement::InputAndOutput);
        let r1 = run_electronic(option1, 0.1, 8);
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
        let r3 = run_electronic(paper_tree(3), 0.1, 9);
        let option2 = paper_tree(3).with_placement(Placement::OutputOnly);
        let r2 = run_electronic(option2, 0.1, 9);
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
        let r = run_tree(paper_tree(2), BufferTech::Fdl, 0.4, 31);
        assert_eq!(r.dropped, 0, "clean FDL runs are lossless");
        assert_eq!(r.reordered, 0);
        assert!((r.throughput - 0.4).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.extra(Extra::FdlDropsTotal), Some(0.0));
        assert_eq!(r.extra(Extra::FdlUnderflowStalls), Some(0.0));
        assert!(
            r.extra(Extra::FdlRecirculations).unwrap() > 0.0,
            "unserved emerged cells re-enter the delay lines"
        );
    }

    #[test]
    fn fdl_mode_is_deterministic_and_distinct_from_electronic() {
        let a = run_tree(paper_tree(2), BufferTech::Fdl, 0.5, 11);
        let b = run_tree(paper_tree(2), BufferTech::Fdl, 0.5, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let e = run_electronic(paper_tree(2), 0.5, 11);
        assert_ne!(
            a.fingerprint(),
            e.fingerprint(),
            "per-input FIFO semantics differ from per-pair VOQs"
        );
    }

    #[test]
    fn fdl_requires_input_only_placement_and_the_one_slot_cycle() {
        for spec in [
            paper_tree(2).with_placement(Placement::OutputOnly),
            paper_tree(2).with_placement(Placement::InputAndOutput),
            paper_tree(2).with_request_grant(0),
            paper_tree(2).with_request_grant(2),
        ] {
            let refused = CompiledFabric::new(spec).with_buffer_tech(BufferTech::Fdl);
            assert!(
                matches!(refused, Err(TopologyError::UnsupportedFdl { .. })),
                "{spec}"
            );
            // Electronic stages take every placement and delay.
            assert!(CompiledFabric::new(spec)
                .with_buffer_tech(BufferTech::Electronic)
                .is_ok());
        }
        assert_eq!(BufferTech::Fdl.name(), "fdl");
        assert_eq!(BufferTech::Electronic.name(), "electronic");
    }

    /// Wavelength plane 1 and the short half of every delay line of
    /// leaf 0, dead from slot 0.
    fn plane_and_short_lines_dead() -> FaultPlan {
        let lines = paper_tree(2).buffer_cells();
        let mut plan = FaultPlan::new().permanent(FaultKind::WavelengthLoss { plane: 1 }, 0);
        for input in 0..8 {
            for local in 0..lines / 2 {
                let line = input * lines + local;
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
            let build = || {
                CompiledFabric::new(paper_tree(2))
                    .with_buffer_tech(tech)
                    .unwrap()
            };
            let loaded = |fab: &mut CompiledFabric| {
                let mut tr = uniform(fab, 0.5, 9);
                fab.run(&mut tr, &EngineConfig::new(0, 3_000))
            };
            let fresh = loaded(&mut build());
            let mut fab = build();
            let mut idle = uniform(&fab, 0.0, 9);
            let mut inj = FaultInjector::new(plane_and_short_lines_dead());
            run_switch_instrumented(
                &mut fab,
                &mut idle,
                &EngineConfig::new(0, 10),
                Some(&mut inj),
                None,
            );
            let second = loaded(&mut fab);
            assert_eq!(second.dropped, 0, "{tech:?}: dead lines outlived their run");
            assert_eq!(second.fingerprint(), fresh.fingerprint(), "{tech:?}");
        }
    }

    #[test]
    fn a_fabric_that_has_never_run_reads_its_hosts_off_the_graph() {
        // Construction sizes no host table; the graph alone answers.
        for spec in [
            TopologySpec::two_level(8),
            TopologySpec::fat_tree(4, 3),
            TopologySpec::dragonfly(8, 4),
            TopologySpec::full_mesh(8, 5),
        ] {
            let fab = CompiledFabric::new(spec);
            assert_eq!(fab.ports() as u64, spec.hosts(), "{spec}");
            assert_eq!(fab.resident_cells(), Some(0), "{spec}");
            let tables = (fab.host_queues.len(), fab.queued.len(), fab.host_owed.len());
            assert_eq!(tables, (0, 0, 0), "{spec}");
        }
    }

    #[test]
    fn a_drained_fabric_takes_a_buffer_override_like_a_fresh_one() {
        // One switch, every cell of the first run bound for host 7 and
        // host 7 sending the most of them: the last grant of that run is
        // input 7's for output 7, so every round-robin pointer wraps back
        // to 0, and the input buffers' slab, its slots now on the free
        // list in the order the run freed them, is all that is left of
        // the run. The second run, at a buffer depth of its own, has to
        // reproduce a fresh fabric bit for bit.
        for rg in [0, 1] {
            let spec = TopologySpec::fat_tree(8, 1).with_request_grant(rg);
            let mut fab = CompiledFabric::new(spec);
            let hosts = fab.ports();
            let sends = |src: usize| vec![hosts - 1; if src == hosts - 1 { 40 } else { 20 }];
            let mut hot = Replay::new((0..hosts).map(|src| sends(src).into()).collect());
            let first = fab.run(&mut hot, &EngineConfig::new(0, 400));
            assert_eq!(first.delivered, 20 * (hosts as u64 - 1) + 40, "rg={rg}");
            assert!(first.max_queue_depth >= 4, "rg={rg}: the cells queued");
            assert_eq!((fab.resident_cells(), fab.buffers.total()), (Some(0), 0));
            let wrapped = fab.grant_ptr.iter().chain(&fab.accept_ptr);
            assert!(wrapped.into_iter().all(|&p| p == 0), "rg={rg}");
            // The first run's `configure` sized the host tables; the
            // second finds them sized and reuses them as they are.
            let host_tables = |fab: &CompiledFabric| {
                let lens = [fab.host_queues.len(), fab.queued.len(), fab.host_owed.len()];
                let addrs = [
                    fab.host_queues.as_ptr() as usize,
                    fab.queued.as_ptr() as usize,
                    fab.host_owed.as_ptr() as usize,
                ];
                (lens, addrs)
            };
            let sized = host_tables(&fab);
            assert_eq!(sized.0, [hosts, 1, hosts], "rg={rg}");
            let cfg = EngineConfig::new(0, 3_000).with_buffer_cells(3);
            let second = fab.run(&mut uniform(&fab, 0.5, 9), &cfg);
            assert_eq!(
                host_tables(&fab),
                sized,
                "rg={rg}: the host tables were resized"
            );
            let mut fresh = CompiledFabric::new(spec);
            let fresh = fresh.run(&mut uniform(&fresh, 0.5, 9), &cfg);
            assert!(second.max_queue_depth <= 3, "rg={rg}");
            assert_eq!(second.fingerprint(), fresh.fingerprint(), "rg={rg}");
        }
    }

    #[test]
    fn a_run_reports_its_own_buffer_plane_counters() {
        // A finite schedule loses cells to dead lines and drains; the
        // idle run after it has nothing to count.
        let mut fab = CompiledFabric::new(paper_tree(2))
            .with_buffer_tech(BufferTech::Fdl)
            .unwrap();
        let hosts = fab.ports();
        let sends = |src: usize| (0..20).map(|k| (src * 7 + k * 3) % hosts).collect();
        let mut tr = Replay::new((0..hosts).map(sends).collect());
        let mut inj = FaultInjector::new(plane_and_short_lines_dead());
        let faulted = run_switch_instrumented(
            &mut fab,
            &mut tr,
            &EngineConfig::new(0, 600),
            Some(&mut inj),
            None,
        );
        assert!(tr.is_done() && fab.resident_cells() == Some(0), "drained");
        assert!(faulted.dropped > 20, "dead lines lose cells");
        let drops = faulted.extra(Extra::FdlDropsTotal);
        assert_eq!(drops, Some(faulted.dropped as f64));
        assert!(faulted.extra(Extra::FdlRecirculations).unwrap() > 100.0);
        let mut idle = uniform(&fab, 0.0, 9);
        let after = fab.run(&mut idle, &EngineConfig::new(0, 50));
        for key in [
            Extra::FdlDropsTotal,
            Extra::FdlDropsDeadLine,
            Extra::FdlRecirculations,
        ] {
            assert_eq!(after.extra(key), Some(0.0), "{key:?}");
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let plain = run_electronic(paper_tree(2), 0.5, 11);
        let mut fab = CompiledFabric::new(paper_tree(2));
        let mut tr = uniform(&fab, 0.5, 11);
        let mut inj = FaultInjector::new(FaultPlan::new());
        let cfg = EngineConfig::new(1_000, 8_000);
        let faulted = run_switch_instrumented(&mut fab, &mut tr, &cfg, Some(&mut inj), None);
        assert_eq!(plain.fingerprint(), faulted.fingerprint());
    }

    /// Run `spec` under `plan` at `load`; the report and what the fabric
    /// still holds.
    fn run_under_faults(
        spec: TopologySpec,
        load: f64,
        e: &EngineConfig,
        plan: FaultPlan,
    ) -> (EngineReport, u64) {
        let mut fab = CompiledFabric::new(spec);
        let mut tr = uniform(&fab, load, e.seed);
        let r = run_switch_instrumented(
            &mut fab,
            &mut tr,
            e,
            Some(&mut FaultInjector::new(plan)),
            None,
        );
        (r, fab.resident_cells().unwrap())
    }

    #[test]
    fn dead_wavelength_plane_reroutes_and_recovers() {
        // Kill one of the four spines for a window mid-run. Re-hashing
        // spreads its flows over the survivors; at 0.6 load the three
        // remaining uplinks per leaf (0.8 each) still carry everything.
        let e = EngineConfig::new(0, 10_000).with_seed(21);
        let (nominal, _) = run_under_faults(paper_tree(2), 0.6, &e, FaultPlan::new());
        let loss = FaultKind::WavelengthLoss { plane: 1 };
        let plan = FaultPlan::new().one_shot(loss, 2_000, Some(3_000));
        let (degraded, resident) = run_under_faults(paper_tree(2), 0.6, &e, plan);
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
        assert_eq!(degraded.extra(Extra::FaultsInjected), Some(1.0));
        assert_eq!(degraded.extra(Extra::FaultsHealed), Some(1.0));
    }

    #[test]
    fn link_ber_burst_retransmits_hop_by_hop() {
        let e = EngineConfig::new(0, 8_000).with_seed(23);
        let ber = FaultKind::LinkBerBurst {
            link: LINK_ANY,
            cell_error_prob: 0.05,
        };
        let plan = FaultPlan::new().permanent(ber, 0);
        let (r, resident) = run_under_faults(paper_tree(2), 0.4, &e, plan);
        assert!(
            r.extra(Extra::FaultRetransmits).unwrap() > 100.0,
            "corrupted hops were re-sent"
        );
        assert_eq!(r.dropped, 0);
        assert_eq!(
            r.reordered, 0,
            "go-back-N link stall preserves per-flow order"
        );
        assert_eq!(
            r.injected,
            r.delivered + resident,
            "retransmission loses nothing"
        );
    }

    #[test]
    fn dropped_credits_throttle_but_recover_via_resync() {
        let e = EngineConfig::new(0, 10_000).with_seed(25);
        let drop = FaultKind::CreditDrop { prob: 0.3 };
        let plan = FaultPlan::new().one_shot(drop, 1_000, Some(4_000));
        let (faulted, resident) = run_under_faults(paper_tree(2), 0.5, &e, plan);
        assert!(faulted.extra(Extra::FaultCreditsDropped).unwrap() > 100.0);
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

    #[test]
    fn a_dead_plane_of_a_three_level_tree_is_a_group_of_top_switches() {
        // fat-tree:radix=4,levels=3: 8 + 8 + 4 switches, two planes of two
        // top switches each, fed by up-ports 2 and 3 of the middle stage.
        let fab = CompiledFabric::new(TopologySpec::fat_tree(4, 3));
        assert_eq!((fab.feeders.clone(), fab.top_per_plane), (8..16, 2));
        for sw in fab.feeders.clone() {
            for up in 0..2 {
                let port = fab
                    .fab
                    .port_id(crate::ids::SwitchId::from_index(sw), 2 + up);
                let Peer::Port(far) = fab.fab.peer(port) else {
                    panic!("a middle-stage up-port is cabled to the top stage");
                };
                let top = fab.fab.port_switch(far).index() - fab.feeders.end;
                assert_eq!(top / fab.top_per_plane, up as usize, "switch {sw} up {up}");
            }
        }
        // No planes outside a fat tree of two or more levels.
        for spec in [TopologySpec::dragonfly(8, 4), TopologySpec::fat_tree(8, 1)] {
            assert!(CompiledFabric::new(spec).feeders.is_empty(), "{spec}");
        }
    }

    #[test]
    fn a_drained_fabric_run_again_reports_no_reordering() {
        // A finite all-to-all schedule, so the first run ends drained (the
        // contract of `configure`); the second run continues every flow.
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
    #[should_panic(expected = "only once it has drained")]
    fn a_fabric_still_holding_cells_is_not_run_again() {
        // The engine restarts at slot 0: cells stamped with the earlier
        // run's slots would be delivered "before" they were injected (the
        // delay underflows) or wedge behind a stamp that never comes.
        let mut fab = CompiledFabric::new(TopologySpec::two_level(8));
        let mut tr = uniform(&fab, 0.6, 6);
        fab.run(&mut tr, &EngineConfig::new(0, 200));
        fab.run(&mut tr, &EngineConfig::new(0, 200));
    }

    #[test]
    #[should_panic(expected = "only once it has drained")]
    fn buffer_override_on_a_fabric_holding_cells_is_refused() {
        // Credits still in flight would come back into the new run's
        // credit loops, which never sent them and count them against a
        // depth of their own.
        let mut fab = CompiledFabric::new(paper_tree(2));
        let mut tr = uniform(&fab, 0.6, 6);
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
    fn a_flit_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 20);
    }

    /// The engine configures a model before its first slot, so a run
    /// too long for a flit's injection slot is refused before it starts.
    #[test]
    #[should_panic(expected = "a flit keeps its injection slot in 32 bits")]
    fn a_run_of_two_to_the_thirty_two_slots_is_refused() {
        let mut fab = CompiledFabric::new(paper_tree(2));
        fab.configure(&EngineConfig::new(1 << 31, 1 << 31));
    }

    /// An output counts its credits out in 16 bits, so a buffer of 2¹⁶
    /// cells is refused before slot 0, whether the spec or the run asks
    /// for it; one cell fewer is taken.
    #[test]
    #[should_panic(expected = "a buffer must hold fewer than 2^16 cells")]
    fn a_buffer_of_two_to_the_sixteen_cells_is_refused() {
        let largest = EngineConfig::new(0, 1).with_buffer_cells((1 << 16) - 1);
        CompiledFabric::new(paper_tree(2)).configure(&largest);
        let spec = paper_tree(2).with_buffer_cells(1 << 16);
        CompiledFabric::new(spec).configure(&EngineConfig::new(0, 1));
    }

    /// Input `p`'s buffer, walked head to tail through the store.
    fn buffered(fab: &CompiledFabric, p: usize) -> Vec<Flit> {
        let live: Vec<Flit> = (0..)
            .map_while(|k| fab.buffers.nth(p, k).copied())
            .collect();
        assert_eq!(live.len(), fab.buffers.len(p), "port {p}");
        live
    }

    /// Every request bit is set exactly when a *ripe* entry of its VOQ
    /// holds a cell, every output-summary bit exactly when its column has
    /// a bit, the ripe entries are a prefix of the live ones, and the
    /// per-switch counts are the buffer depths plus the egress queues.
    fn assert_masks_track_buffers(fab: &CompiledFabric) {
        let (radix, words) = (fab.spec.radix, fab.words);
        let live: Vec<Vec<Flit>> = (0..fab.peer.len()).map(|p| buffered(fab, p)).collect();
        for (sw, &resident) in fab.resident.iter().enumerate() {
            let ports = sw * radix..(sw + 1) * radix;
            let egress = fab.egress.get(ports.clone()).unwrap_or_default();
            let queued: usize = egress.iter().map(VecDeque::len).sum();
            let depths: usize = live[ports].iter().map(Vec::len).sum();
            assert_eq!(resident as usize, depths + queued, "switch {sw}");
            for o in 0..radix {
                let mut any = false;
                for i in 0..radix {
                    let p = sw * radix + i;
                    let depth = live[p].len();
                    let ripe = fab.ripe.get(p).map_or(depth, |&r| r as usize);
                    assert!(ripe <= depth, "switch {sw} input {i}");
                    let queued = live[p][..ripe].iter().any(|f| f.at == o as u32);
                    let bit = fab.requests[(sw * radix + o) * words + i / 64] >> (i % 64) & 1;
                    assert_eq!(bit == 1, queued, "switch {sw} voq ({i}, {o})");
                    any |= queued;
                }
                let bit = fab.requested[sw * words + o / 64] >> (o % 64) & 1;
                assert_eq!(bit == 1, any, "switch {sw} output {o}");
            }
        }
    }

    /// One slot of `arbitrate`'s ripening step.
    fn ripen_due(fab: &mut CompiledFabric, slot: u64) {
        if fab.ripen_after > 0 {
            let due = (slot % (fab.ripen_after + 1)) as usize;
            for p in std::mem::take(&mut fab.ripening[due]) {
                fab.ripen(0, p as usize);
            }
        }
    }

    #[test]
    fn masks_track_buffers_through_random_matchings() {
        const BUFFER: usize = 4;
        // One switch, at c = 0, c = rg and c = rg + 2d.
        let mesh = |radix| TopologySpec::full_mesh(radix, 1).with_link_delay(3);
        let option2 = |radix| mesh(radix).with_placement(Placement::OutputOnly);
        for (radix, spec, c) in [
            (5usize, mesh(5), 0),
            (64, mesh(64).with_request_grant(1), 1),
            (65, option2(65).with_request_grant(1), 7),
            (130, mesh(130), 0),
            (9, option2(9), 6),
        ] {
            let mut rng = SimRng::seed_from_u64(radix as u64);
            let mut rnd = |n| rng.index(n);
            let mut fab = CompiledFabric::new(spec);
            assert_eq!(fab.ripen_after, c, "{spec}");
            fab.configure(&EngineConfig::new(0, 1).with_buffer_cells(BUFFER));
            let (mut matches, mut waited) = (0, 0);
            for slot in 0..60 {
                ripen_due(&mut fab, slot);
                // Arrivals: dense in early slots, a trickle later, so
                // both crowded and nearly empty masks are matched.
                let eagerness = if slot < 30 { 4 } else { 40 };
                for i in 0..radix {
                    while fab.buffers.len(i) < BUFFER && rnd(eagerness) < 3 {
                        fab.enqueue(slot, 0, i, rnd(radix), flit(0));
                    }
                }
                waited += (0..radix)
                    .filter(|&i| {
                        fab.ripe
                            .get(i)
                            .is_some_and(|&r| (r as usize) < fab.buffers.len(i))
                    })
                    .count();
                // Credits: none out, some out, all out.
                for o in 0..radix {
                    fab.owed[o] = [0, 1, BUFFER as u16][rnd(3)];
                }
                fab.match_switch(0, false);
                for k in 0..fab.matcher.matched.len() {
                    let (i, o) = fab.matcher.matched[k];
                    assert!((fab.owed[o as usize] as usize) < BUFFER, "uncredited grant");
                    // Panics on a pair whose request bit outlived its cell.
                    fab.dequeue(slot, 0, i as usize, o as usize);
                    matches += 1;
                }
                assert_masks_track_buffers(&fab);
            }
            assert!(matches > 10 * radix, "{spec}: only {matches} matches");
            assert_eq!(waited > 0, c > 0, "{spec}: cells wait exactly when c > 0");
        }
    }

    #[test]
    fn a_cell_requests_exactly_c_slots_after_it_lands() {
        for (rg, placement, c) in [
            (0, Placement::InputOnly, 0u64),
            (1, Placement::InputOnly, 1),
            (2, Placement::InputAndOutput, 2),
            (1, Placement::OutputOnly, 5),
        ] {
            let spec = TopologySpec::full_mesh(8, 1)
                .with_placement(placement)
                .with_request_grant(rg);
            let mut fab = CompiledFabric::new(spec);
            fab.configure(&EngineConfig::new(0, 1));
            let landed = 10;
            fab.enqueue(landed, 0, 2, 5, flit(0));
            for slot in landed..landed + c + 1 {
                ripen_due(&mut fab, slot);
                let requesting = fab.requests[5] == 1 << 2;
                assert_eq!(requesting, slot == landed + c, "{spec} slot {slot}");
                assert_masks_track_buffers(&fab);
            }
        }
    }

    #[test]
    fn interleaved_buffer_keeps_per_voq_fifo_and_request_bits() {
        let mut fab = CompiledFabric::new(TopologySpec::full_mesh(8, 1));
        fab.configure(&EngineConfig::new(0, 1));
        // Input 2 holds cells 0..6 for outputs 5, 6, 5, 7, 6, 5.
        for (seq, out) in [5, 6, 5, 7, 6, 5].into_iter().enumerate() {
            assert_eq!(fab.enqueue(0, 0, 2, out, flit(seq as u32)), seq + 1);
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
            assert_eq!(fab.dequeue(0, 0, 2, out).seq, seq);
            assert_eq!(requests(&fab), left);
            assert_masks_track_buffers(&fab);
        }
        let left = (fab.buffers.len(2), fab.resident[0], fab.requested[0]);
        assert_eq!(left, (0, 0, 0));
    }

    #[test]
    fn resident_cells_is_buffers_queues_and_wheel_after_saturation() {
        // The dragonfly wedges at this load (every cell parked in a buffer
        // or a host queue); the fat tree keeps cells on its links, and
        // under option 1 in its egress queues as well.
        let mut in_flight = 0;
        for spec in [
            TopologySpec::dragonfly(8, 4),
            TopologySpec::two_level(8),
            paper_tree(2).with_placement(Placement::InputAndOutput),
        ] {
            let mut fab = CompiledFabric::new(spec);
            let mut tr = uniform(&fab, 1.0, 5);
            fab.run(&mut tr, &EngineConfig::new(0, 400));
            let buffered = fab.buffers.total() as u64;
            let queued: u64 = fab.host_queues.iter().map(|q| q.len() as u64).sum();
            assert!(buffered > 0 && queued > 0, "a saturated fabric holds cells");
            let egress: u64 = fab.egress.iter().map(|q| q.len() as u64).sum();
            assert_eq!(egress > 0, fab.to_egress, "{spec}");
            let flying: u64 = fab.cell_wheel.iter().map(|b| b.len() as u64).sum();
            in_flight += flying;
            let all = buffered + queued + egress + flying;
            assert_eq!(fab.resident_cells(), Some(all), "{spec}");
            assert_masks_track_buffers(&fab);
        }
        assert!(in_flight > 0, "no run ended with a cell on a link");
    }

    /// A fabric and its traffic, run on the engine with the host mask
    /// checked against the host queues after every slot.
    struct MaskChecked<'a> {
        fab: CompiledFabric,
        traffic: &'a mut dyn TrafficGen,
        arrivals: Vec<Arrival>,
        /// Each host's queue was non-empty at the end of the last slot.
        was_queued: Vec<bool>,
        /// Host-slots that ended queued and out of credits.
        stalls: u64,
        /// Host-slots whose queue emptied.
        drains: u64,
    }

    impl SlottedModel for MaskChecked<'_> {
        fn ports(&self) -> usize {
            self.fab.ports()
        }

        fn configure(&mut self, cfg: &EngineConfig) {
            self.fab.configure(cfg);
        }

        fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
            self.fab.arbitrate(slot, obs);
        }

        fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
            self.fab.deliver(slot, obs);
        }

        fn inject<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
            self.arrivals.clear();
            self.traffic.arrivals(slot, &mut self.arrivals);
            self.fab.admit(&self.arrivals, slot, obs);
            let fab = &self.fab;
            for (h, queue) in fab.host_queues.iter().enumerate() {
                let bit = fab.queued[h / 64] >> (h % 64) & 1 == 1;
                assert_eq!(bit, !queue.is_empty(), "slot {slot} host {h}");
                self.stalls += u64::from(bit && fab.host_owed[h] as usize >= fab.buffer_cells);
                self.drains += u64::from(self.was_queued[h] && !bit);
                self.was_queued[h] = bit;
            }
        }
    }

    #[test]
    fn the_host_mask_tracks_the_host_queues() {
        // Bursts into one-cell buffers, past what their credit loops
        // carry: hosts stall on credits with cells queued, and queues
        // fill and empty as bursts come and go.
        let spec = TopologySpec::fat_tree(8, 3).with_buffer_cells(1);
        let fab = CompiledFabric::new(spec);
        let hosts = fab.ports();
        let mut traffic = osmosis_traffic::Bursty::new(hosts, 0.2, 8.0, &SeedSequence::new(3));
        let mut model = MaskChecked {
            fab,
            traffic: &mut traffic,
            arrivals: Vec::new(),
            was_queued: vec![false; hosts],
            stalls: 0,
            drains: 0,
        };
        let r = osmosis_sim::Engine::new(&EngineConfig::new(0, 600)).run(&mut model);
        let (stalls, drains) = (model.stalls, model.drains);
        assert!(
            r.delivered > 0 && stalls > 10_000 && drains > 50,
            "{stalls} stalls, {drains} drains"
        );
    }
}
