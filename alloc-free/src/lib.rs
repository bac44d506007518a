//! The allocation battery: how many heap allocations each simulator
//! makes per steady-state slot, measured.
//!
//! The engine's slot loop is the paper's 51.2 ns cell cycle, and a model
//! of it should not touch the allocator once it has warmed up. The
//! battery states that per simulator, as a number a counting
//! `#[global_allocator]` reads off a real run.
//!
//! **Method.** Each row runs twice with the same seed and the same
//! warm-up: once with `w` measured slots and once with `2w`. Whatever a
//! run allocates once (construction, `configure`, tables sized to the
//! port count, the report) cancels in the difference. The difference
//! divided by `w` is the row's steady-state allocations per slot (per
//! epoch, per injected cell or per whole window for the rows budgeted
//! that way). It must stay within the row's budget plus `GROWTH_EPSILON`
//! (`WINDOW_GROWTH` for a row counted per window).
//!
//! One check counts construction instead of slots: expanding and
//! compiling a fabric, and building its generator, must cost the same
//! number of allocations at 2K hosts as at 8K (and a dragonfly or a
//! full mesh as many small as large), so none is per port, host, cable
//! or group pair.
//!
//! Every budget above 0 is a named constant below with its source.
//! `CellScheduler` and `CellSwitch` implementors, every
//! `SlottedModel` and the buffer planes (`FdlBufferPlane` behind
//! `BufferTech::Fdl`) each have a row; `tests/repo_contracts.rs` fails
//! an implementor whose type this file does not name.
//!
//! The counter is per thread, so the test harness's parallel test
//! threads do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations
/// (`alloc`, `alloc_zeroed` and `realloc`; `dealloc` is free).
struct Counting;

fn count() {
    // `try_with`: a thread being torn down still frees its buffers.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. Counting touches only a
// const-initialised thread-local `Cell<u64>`, which has no destructor
// and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return what it returned with the number of heap
/// allocations the calling thread made meanwhile.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

#[cfg(test)]
mod battery {
    use super::allocations;
    use osmosis_audit::{AuditMode, AuditSet};
    use osmosis_fabric::spec::TopologySpec;
    use osmosis_fabric::{BufferTech, CompiledFabric, ExpandedFabric};
    use osmosis_faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
    use osmosis_ocs::{EpochConfig, OcsScheduler, OcsSwitch};
    use osmosis_sched::{CellScheduler, Flppr, Islip, MaxSizeScheduler, Pim, PipelinedArbiter};
    use osmosis_sim::{Engine, EngineConfig, EngineReport, NullCircuits, SeedSequence};
    use osmosis_switch::driven::{CellSwitch, Driven};
    use osmosis_switch::{
        BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, FifoSwitch, MulticastWorkload,
        OqSwitch, RemoteSchedulerSwitch, VoqSwitch,
    };
    use osmosis_telemetry::TelemetrySink;
    use osmosis_traffic::BernoulliUniform;

    /// `CellScheduler::tick` returns an owned `Matching`, built with
    /// `Matching::with_capacity` in every scheduler's `tick` (e.g.
    /// `flppr.rs`). That return type is part of the interface the
    /// benchmark links against, so every switch that runs a
    /// `CellScheduler` allocates once per slot until it changes.
    const TICK_MATCHING: f64 = 1.0;

    /// The reference maximum-size matcher (`max_matching`) builds its
    /// graph afresh in every `tick`: an adjacency `Vec` per input, grown
    /// by `collect`, the two match arrays, the search's distance array
    /// and queue, and the returned matching. That measured 30.8 per slot
    /// on 16 ports at load 0.9. It is the oracle the heuristic schedulers
    /// are checked against, not a model of hardware.
    const MAX_SIZE_REBUILD: f64 = 31.0;

    /// The OCS scheduler plans once per 64-slot epoch, as PULSE does:
    /// `bvn::decompose` builds its terms and `plan_frame` its frame. This
    /// measured 44.8 per epoch on 16 ports at load 0.5; the slots between
    /// epoch boundaries allocate nothing.
    const OCS_EPOCH_PLAN: f64 = 47.0;

    /// The amortised growth every row may add on top of its budget, in
    /// the row's unit: capacity doublings of the engine's flow table and
    /// of queues that reach a new high-water mark after warm-up. The
    /// largest measured is 0.008 per slot (`VoqSwitch` ×
    /// `Flppr::osmosis(64, 2)` + `TelemetrySink`; a fabric row under link
    /// BER read 0.014 at w = 2 048). One allocation more per slot, per
    /// switch or per cell is far above it.
    const GROWTH_EPSILON: f64 = 0.03;

    /// The same allowance for a row counted per window, where 0.03 would
    /// forbid a single allocation: the 512 host queues of
    /// `two_level(32)` at load 0.6 grew once in its 1 024-slot window.
    /// A flow table that allocated at each of the window's 310k
    /// deletions would be far above it.
    const WINDOW_GROWTH: f64 = 2.0;

    /// `ExpandedFabric::expand` of a fat tree reserves its three tables
    /// (stages, switches, hosts) once from the spec's closed forms and
    /// builds the router's two (the powers of m and each switch's
    /// level): five at any size. The wiring is a closed form of the port
    /// id, so nothing is stored per port or cable; the port and cable
    /// arenas it replaced made this seven.
    const FAT_TREE_EXPAND: u64 = 5;

    /// A dragonfly's or a full mesh's expansion reserves the same three
    /// tables and no router table. A dragonfly kept a gateway list per
    /// ordered group pair before its router took the channel in closed
    /// form: 8 070 allocations for `dragonfly:radix=64,groups=64`.
    const FLAT_EXPAND: u64 = 3;

    /// `CompiledFabric::over` builds only the matcher's five scratch
    /// vectors, sized by the radix; `configure` sizes every per-port,
    /// per-switch and per-host table.
    const FABRIC_OVER: u64 = 5;

    /// `BernoulliUniform::new` collects its per-port generators into one
    /// vector.
    const BERNOULLI_NEW: u64 = 1;

    const SEED: u64 = 1234;
    const WARMUP: u64 = 2_000;
    const SWITCH_WINDOW: u64 = 4_096;
    const FABRIC_WINDOW: u64 = 1_024;
    const EPOCH_SLOTS: u64 = 64;

    /// What a row's budget counts allocations against.
    #[derive(Clone, Copy)]
    enum Per {
        Slot,
        Epoch,
        InjectedCell,
        /// The whole window, for a row whose allocations would come
        /// too seldom to show per slot.
        Window,
    }

    struct Row {
        name: &'static str,
        budget: f64,
        per: Per,
        window: u64,
        run: fn(&EngineConfig) -> EngineReport,
    }

    impl Row {
        fn switch(name: &'static str, budget: f64, run: fn(&EngineConfig) -> EngineReport) -> Self {
            Row {
                name,
                budget,
                per: Per::Slot,
                window: SWITCH_WINDOW,
                run,
            }
        }

        fn fabric(name: &'static str, run: fn(&EngineConfig) -> EngineReport) -> Self {
            Row {
                name,
                budget: 0.0,
                per: Per::Slot,
                window: FABRIC_WINDOW,
                run,
            }
        }

        /// The allocations of the `w`-slot run subtracted from those of
        /// the `2w`-slot run, with the `2w` run's excess injected cells.
        fn extra_allocations(&self) -> (u64, u64) {
            let run = |w| {
                let cfg = EngineConfig::new(WARMUP, w).with_seed(SEED);
                allocations(|| (self.run)(&cfg))
            };
            let (short, r1) = run(self.window);
            let (long, r2) = run(2 * self.window);
            (long.saturating_sub(short), r2.injected - r1.injected)
        }

        /// Steady-state allocations per unit of the row's budget.
        fn measure(&self) -> f64 {
            let (extra, cells) = self.extra_allocations();
            let units = match self.per {
                Per::Slot => self.window,
                Per::Epoch => self.window / EPOCH_SLOTS,
                Per::InjectedCell => cells,
                Per::Window => 1,
            };
            extra as f64 / units.max(1) as f64
        }
    }

    /// Run every row; print the table; fail on the rows over budget.
    fn check(rows: &[Row]) {
        let mut over = Vec::new();
        for row in rows {
            let measured = row.measure();
            let unit = match row.per {
                Per::Slot => "slot",
                Per::Epoch => "epoch",
                Per::InjectedCell => "injected cell",
                Per::Window => "window",
            };
            let line = format!(
                "{:<58} {measured:>8.4} per {unit} (budget {})",
                row.name, row.budget
            );
            println!("{line}");
            let epsilon = match row.per {
                Per::Window => WINDOW_GROWTH,
                Per::Slot | Per::Epoch | Per::InjectedCell => GROWTH_EPSILON,
            };
            if measured > row.budget + epsilon {
                over.push(line);
            }
        }
        assert!(
            over.is_empty(),
            "rows over budget + ε ({GROWTH_EPSILON}, {WINDOW_GROWTH} per window):\n{}",
            over.join("\n")
        );
    }

    fn uniform(hosts: usize, load: f64, cfg: &EngineConfig) -> BernoulliUniform {
        BernoulliUniform::new(hosts, load, &SeedSequence::new(cfg.seed))
    }

    /// A bare run of `sw` under uniform Bernoulli traffic.
    fn driven<S: CellSwitch>(mut sw: S, load: f64, cfg: &EngineConfig) -> EngineReport {
        let mut tr = uniform(sw.ports(), load, cfg);
        Engine::new(cfg).run(&mut Driven::new(&mut sw, &mut tr))
    }

    fn voq(sched: impl CellScheduler + 'static) -> VoqSwitch {
        VoqSwitch::new(Box::new(sched))
    }

    /// A 16-port `VoqSwitch` under FLPPR with the disabled planes
    /// attached, or none.
    fn voq16(cfg: &EngineConfig, null_planes: bool) -> EngineReport {
        let mut sw = voq(Flppr::osmosis(16, 2));
        let mut tr = uniform(16, 0.8, cfg);
        let mut faults = FaultInjector::new(FaultPlan::new());
        let mut circuits = NullCircuits;
        let engine = Engine::new(cfg);
        let engine = match null_planes {
            true => engine
                .faults(Some(&mut faults))
                .circuits(Some(&mut circuits)),
            false => engine,
        };
        engine.run(&mut Driven::new(&mut sw, &mut tr))
    }

    #[test]
    fn scheduled_switches_allocate_only_their_matching() {
        check(&[
            Row::switch(
                "VoqSwitch × Flppr::osmosis(64, 2), load 0.95",
                TICK_MATCHING,
                |cfg| driven(voq(Flppr::osmosis(64, 2)), 0.95, cfg),
            ),
            Row::switch(
                "VoqSwitch × Flppr::osmosis(64, 2), load 0.10",
                TICK_MATCHING,
                |cfg| driven(voq(Flppr::osmosis(64, 2)), 0.10, cfg),
            ),
            Row::switch(
                "VoqSwitch × Islip(16, 4 iterations)",
                TICK_MATCHING,
                |cfg| driven(voq(Islip::new(16, 4, 1)), 0.9, cfg),
            ),
            Row::switch("VoqSwitch × Pim(16, 4 iterations)", TICK_MATCHING, |cfg| {
                driven(voq(Pim::new(16, 4, 1, cfg.seed)), 0.9, cfg)
            }),
            Row::switch(
                "VoqSwitch × PipelinedArbiter(16, depth 4)",
                TICK_MATCHING,
                |cfg| driven(voq(PipelinedArbiter::new(16, 4, 2)), 0.9, cfg),
            ),
            Row::switch(
                "RemoteSchedulerSwitch × Flppr(16), half RTT 4",
                TICK_MATCHING,
                |cfg| {
                    driven(
                        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(16, 1)), 4),
                        0.8,
                        cfg,
                    )
                },
            ),
            Row::switch("VoqSwitch(16) + AuditSet::standard", TICK_MATCHING, |cfg| {
                let mut sw = voq(Flppr::osmosis(16, 2));
                let mut tr = uniform(16, 0.8, cfg);
                let mut audit = AuditSet::standard(AuditMode::FailFast);
                Engine::new(cfg)
                    .audit(Some(&mut audit))
                    .run(&mut Driven::new(&mut sw, &mut tr))
            }),
            Row::switch(
                "VoqSwitch × Flppr::osmosis(64, 2) + TelemetrySink",
                TICK_MATCHING,
                |cfg| {
                    let mut sw = voq(Flppr::osmosis(64, 2));
                    let mut tr = uniform(64, 0.95, cfg);
                    let mut sink = TelemetrySink::new();
                    Engine::new(cfg)
                        .trace(&mut sink)
                        .run(&mut Driven::new(&mut sw, &mut tr))
                },
            ),
            Row::switch(
                "VoqSwitch × MaxSizeScheduler(16)",
                MAX_SIZE_REBUILD,
                |cfg| driven(voq(MaxSizeScheduler::new(16, 1)), 0.9, cfg),
            ),
        ]);
    }

    #[test]
    fn unscheduled_switches_do_not_allocate() {
        check(&[
            Row::switch("FifoSwitch(16), load 0.5", 0.0, |cfg| {
                driven(FifoSwitch::new(16), 0.5, cfg)
            }),
            Row::switch("OqSwitch(16), load 0.9", 0.0, |cfg| {
                driven(OqSwitch::new(16), 0.9, cfg)
            }),
            Row::switch("CioqSwitch(16, speed-up 2, 8 egress cells)", 0.0, |cfg| {
                driven(CioqSwitch::new(16, 2, 8), 0.8, cfg)
            }),
            Row::switch("BurstSwitch(16, burst 8, timeout 8)", 0.0, |cfg| {
                driven(BurstSwitch::new(16, 8, 8), 0.8, cfg)
            }),
            Row::switch("DeflectionSwitch(16, loop 4)", 0.0, |cfg| {
                driven(DeflectionSwitch::new(16, 4, cfg.seed), 0.6, cfg)
            }),
            Row::switch("BvnSwitch(16), load 0.6", 0.0, |cfg| {
                driven(BvnSwitch::new(16), 0.6, cfg)
            }),
        ]);
    }

    #[test]
    fn multicast_and_circuit_models_stay_within_their_budgets() {
        check(&[
            Row {
                name: "MulticastWorkload(16, fanout 3, rate 0.2)",
                budget: 0.0,
                per: Per::InjectedCell,
                window: SWITCH_WINDOW,
                run: |cfg| Engine::new(cfg).run(&mut MulticastWorkload::new(16, 3, 0.2)),
            },
            Row {
                name: "OcsSwitch(16) + OcsScheduler, load 0.5",
                budget: OCS_EPOCH_PLAN,
                per: Per::Epoch,
                window: SWITCH_WINDOW,
                run: |cfg| {
                    let mut sw = OcsSwitch::new(16);
                    let mut tr = uniform(16, 0.5, cfg);
                    let mut sched = OcsScheduler::new(EpochConfig::osmosis_default());
                    Engine::new(cfg)
                        .circuits(Some(&mut sched))
                        .run(&mut Driven::new(&mut sw, &mut tr))
                },
            },
        ]);
    }

    fn tree(spec: TopologySpec) -> CompiledFabric {
        CompiledFabric::new(spec)
    }

    /// The 32-host two-level tree on a one-slot request/grant cycle
    /// under `plan`.
    fn faulted_tree(plan: FaultPlan, cfg: &EngineConfig) -> EngineReport {
        let mut fab = tree(TopologySpec::two_level(8).with_request_grant(1));
        let mut tr = uniform(32, 0.5, cfg);
        let mut faults = FaultInjector::new(plan);
        Engine::new(cfg)
            .faults(Some(&mut faults))
            .run(&mut Driven::new(&mut fab, &mut tr))
    }

    #[test]
    fn compiled_fabrics_do_not_allocate() {
        check(&[
            Row::fabric("CompiledFabric two_level(8), load 0.6", |cfg| {
                driven(tree(TopologySpec::two_level(8)), 0.6, cfg)
            }),
            Row::fabric("CompiledFabric m_ary_fat_tree(4, 3), load 0.5", |cfg| {
                driven(tree(TopologySpec::m_ary_fat_tree(4, 3)), 0.5, cfg)
            }),
            Row::fabric("CompiledFabric two_level(8), rg = 1", |cfg| {
                driven(
                    tree(TopologySpec::two_level(8).with_request_grant(1)),
                    0.6,
                    cfg,
                )
            }),
            Row::fabric(
                "CompiledFabric two_level(8), FdlBufferPlane stages",
                |cfg| {
                    let spec = TopologySpec::two_level(8).with_request_grant(1);
                    let fab = tree(spec).with_buffer_tech(BufferTech::Fdl);
                    driven(fab.expect("input-only placement at rg = 1"), 0.5, cfg)
                },
            ),
            Row::fabric(
                "CompiledFabric two_level(8), link BER (wire faults)",
                |cfg| {
                    let ber = FaultKind::LinkBerBurst {
                        link: LINK_ANY,
                        cell_error_prob: 0.01,
                    };
                    faulted_tree(FaultPlan::new().permanent(ber, 0), cfg)
                },
            ),
            Row::fabric("CompiledFabric two_level(8), plane 1 lost", |cfg| {
                let plane = FaultKind::WavelengthLoss { plane: 1 };
                faulted_tree(FaultPlan::new().permanent(plane, 0), cfg)
            }),
            // 512 hosts at load 0.6 touch 300 flows a slot, so the flow
            // table reaches its 2¹⁴-entry floor some 20 slots into the
            // warm-up and grows no further; from then on each delivery
            // that drains its flow deletes the entry in place, 300 a
            // slot. Counted per window, a deletion or a rebuild that
            // allocated even once a window would show.
            Row {
                name: "CompiledFabric two_level(32), flow table past its floor",
                budget: 0.0,
                per: Per::Window,
                window: FABRIC_WINDOW,
                run: |cfg| driven(tree(TopologySpec::two_level(32)), 0.6, cfg),
            },
            Row::fabric("CompiledFabric two_level(8) + TelemetrySink", |cfg| {
                let mut fab = tree(TopologySpec::two_level(8));
                let mut tr = uniform(32, 0.6, cfg);
                let mut sink = TelemetrySink::new();
                Engine::new(cfg)
                    .trace(&mut sink)
                    .run(&mut Driven::new(&mut fab, &mut tr))
            }),
            Row::fabric("CompiledFabric two_level(8) + AuditSet::standard", |cfg| {
                let mut fab = tree(TopologySpec::two_level(8));
                let mut tr = uniform(32, 0.6, cfg);
                let mut audit = AuditSet::standard(AuditMode::FailFast);
                Engine::new(cfg)
                    .audit(Some(&mut audit))
                    .run(&mut Driven::new(&mut fab, &mut tr))
            }),
        ]);
    }

    /// Building a fabric costs a fixed number of allocations: the 2K and
    /// 8K fat trees of the benchmark (6 144 and 40 960 ports), the 32K
    /// dragonfly of `bench_topology` and a small one, and two full
    /// meshes expand, compile and get their generator with the same
    /// counts per family. These are construction counts, not per-slot
    /// rates, so no ε applies.
    #[test]
    fn fabric_construction_allocates_nothing_per_port_host_or_cable() {
        for (text, expand) in [
            ("fat-tree:radix=64,levels=2,planes=2", FAT_TREE_EXPAND),
            ("fat-tree:radix=32,levels=3,planes=2", FAT_TREE_EXPAND),
            ("dragonfly:radix=8,groups=4", FLAT_EXPAND),
            ("dragonfly:radix=64,groups=64", FLAT_EXPAND),
            ("full-mesh:radix=8,switches=5", FLAT_EXPAND),
            ("full-mesh:radix=64,switches=32", FLAT_EXPAND),
        ] {
            let spec: TopologySpec = text.parse().expect("a valid spec");
            let (expanded, fab) = allocations(|| ExpandedFabric::expand(spec));
            let fab = fab.expect("a valid spec expands");
            let hosts = fab.hosts.len();
            let (built, _fabric) = allocations(|| CompiledFabric::over(fab));
            let seeds = SeedSequence::new(SEED);
            let (traffic, _gen) = allocations(|| BernoulliUniform::new(hosts, 0.1, &seeds));
            assert_eq!(
                (expanded, built, traffic),
                (expand, FABRIC_OVER, BERNOULLI_NEW),
                "{text}: expand, over, BernoulliUniform::new"
            );
        }
    }

    /// The disabled planes cost nothing: a run with an empty fault plan
    /// and `NullCircuits` attached (and the default `NullTrace` sink)
    /// allocates exactly what the bare run does.
    #[test]
    fn null_planes_allocate_exactly_what_the_bare_run_does() {
        let bare = Row::switch("", TICK_MATCHING, |cfg| voq16(cfg, false));
        let null = Row::switch("", TICK_MATCHING, |cfg| voq16(cfg, true));
        let (bare, null) = (bare.extra_allocations().0, null.extra_allocations().0);
        assert_eq!(null, bare, "null planes {null} vs bare {bare} allocations");
        let per_slot = bare as f64 / SWITCH_WINDOW as f64;
        assert!(
            per_slot <= TICK_MATCHING + GROWTH_EPSILON,
            "{per_slot} per slot"
        );
    }
}
