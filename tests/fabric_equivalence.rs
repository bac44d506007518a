//! `FatTreeFabric` against `CompiledFabric` at `rg=1`, while both exist:
//! the commit after this one deletes `multistage.rs` and this file with
//! it. Over random radix, link delay, buffer depth, iterations,
//! placement, buffer technology, load, burstiness, fault plan and audit
//! attachment the two must produce the same report (the compiled
//! fabric's `stages`/`switches` extras aside, which it emits at `rg=0`
//! only), the same trace event stream, hold the same number of cells at
//! the horizon, and — but for the reordering a healed wavelength plane
//! may cause, in both alike — audit clean.

use osmosis::fabric::multistage::{BufferTech, FabricConfig, FatTreeFabric, Placement};
use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::sim::{EngineConfig, SeedSequence, TraceEvent, VecTrace};
use osmosis::switch::{run_switch_instrumented_traced, CellSwitch};
use osmosis::traffic::{BernoulliUniform, Bursty, TrafficGen};
use osmosis_audit::{AuditMode, AuditSet};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    radix: usize,
    link_delay: u64,
    buffer_cells: usize,
    iterations: usize,
    placement: Placement,
    fdl: bool,
    load: f64,
    burst: f64,
    faults: u8,
    audit: bool,
    seed: u64,
}

fn plan(case: &Case) -> Option<FaultPlan> {
    if case.faults == 0 {
        return None;
    }
    let mut plan = FaultPlan::new();
    if case.faults & 1 != 0 {
        plan = plan.one_shot(FaultKind::WavelengthLoss { plane: 1 }, 60, Some(90));
    }
    if case.faults & 2 != 0 {
        let ber = FaultKind::LinkBerBurst {
            link: LINK_ANY,
            cell_error_prob: 0.02,
        };
        plan = plan.one_shot(ber, 100, Some(80));
    }
    if case.faults & 4 != 0 {
        plan = plan.one_shot(FaultKind::CreditDrop { prob: 0.25 }, 30, Some(200));
    }
    if case.faults & 8 != 0 {
        plan = plan.stochastic(FaultKind::WavelengthLoss { plane: 0 }, 120.0, 40.0);
    }
    if case.fdl && case.faults & 16 != 0 {
        // The short half of leaf 1's delay lines, from slot 40 on.
        for input in 0..case.radix {
            for local in 0..case.buffer_cells / 2 {
                let line = (case.radix + input) * case.buffer_cells + local;
                plan = plan.permanent(FaultKind::DelayLineDead { line }, 40);
            }
        }
    }
    Some(plan)
}

fn digest(events: &[(u64, TraceEvent)]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &(slot, event) in events {
        fold(slot);
        match event {
            TraceEvent::Inject { src, dst } => [1, src as u64, dst as u64],
            TraceEvent::Deliver {
                output,
                delay_slots,
            } => [2, output as u64, delay_slots],
            TraceEvent::CreditStall { node, port } => [3, node as u64, port as u64],
            TraceEvent::Drop { port } => [4, port as u64, 0],
            TraceEvent::Retransmit { port } => [5, port as u64, 0],
            other => panic!("a fabric emitted {other:?}"),
        }
        .into_iter()
        .for_each(&mut fold);
    }
    digest
}

/// (report fingerprint, trace digest, events, resident cells, violations)
fn drive<S: CellSwitch>(fab: &mut S, case: &Case) -> (u64, u64, usize, Option<u64>, u64) {
    let hosts = fab.ports();
    let seeds = SeedSequence::new(case.seed);
    let mut tr: Box<dyn TrafficGen> = if case.burst > 1.0 {
        Box::new(Bursty::new(hosts, case.load, case.burst, &seeds))
    } else {
        Box::new(BernoulliUniform::new(hosts, case.load, &seeds))
    };
    let mut inj = plan(case).map(FaultInjector::new);
    let mut set = case
        .audit
        .then(|| AuditSet::standard(AuditMode::Accumulate));
    let mut sink = VecTrace::default();
    let cfg = EngineConfig::new(40, 260).with_seed(case.seed);
    let mut r = run_switch_instrumented_traced(
        fab,
        tr.as_mut(),
        &cfg,
        &mut sink,
        inj.as_mut().map(|i| i as _),
        set.as_mut().map(|s| s as _),
    );
    r.extra
        .retain(|(key, _)| !["stages", "switches"].contains(key));
    (
        r.fingerprint(),
        digest(&sink.events),
        sink.events.len(),
        fab.resident_cells(),
        set.map_or(0, |s| s.total_violations()),
    )
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let buffer_tech = if case.fdl {
        BufferTech::Fdl
    } else {
        BufferTech::Electronic
    };
    let mut old = FatTreeFabric::new(FabricConfig {
        radix: case.radix,
        link_delay: case.link_delay,
        buffer_cells: case.buffer_cells,
        iterations: case.iterations,
        placement: case.placement,
        buffer_tech,
    });
    let spec = TopologySpec::two_level(case.radix)
        .with_link_delay(case.link_delay)
        .with_buffer_cells(case.buffer_cells)
        .with_iterations(case.iterations)
        .with_placement(case.placement)
        .with_request_grant(1);
    let mut new = CompiledFabric::new(spec)
        .with_buffer_tech(buffer_tech)
        .expect("FDL cases are input-only at rg=1");
    let (was, is) = (drive(&mut old, case), drive(&mut new, case));
    prop_assert_eq!(was, is, "{:?}", case);
    // A plane that heals hands its flows back to their nominal path while
    // older cells still queue on the detour: the one reaction that may
    // reorder (the studies audit those legs with `AuditSet::unordered`).
    if case.faults & 9 == 0 {
        prop_assert_eq!(is.4, 0, "audit violations in {:?}", case);
    }
    Ok(())
}

fn case() -> impl Strategy<Value = Case> {
    (
        (
            prop::sample::select(vec![4usize, 6, 8, 10, 16]),
            1u64..=5,
            1usize..=14,
            1usize..=3,
            0usize..3,
            any::<bool>(),
        ),
        (
            0.05f64..1.0,
            prop::sample::select(vec![1.0f64, 3.0, 8.0]),
            (any::<bool>(), 1u8..32),
            any::<bool>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (radix, link_delay, buffer_cells, iterations, placement, fdl),
                (load, burst, (faulted, faults), audit, seed),
            )| {
                let placement = Placement::ALL[placement];
                Case {
                    radix,
                    link_delay,
                    buffer_cells,
                    iterations,
                    placement,
                    fdl: fdl && placement == Placement::InputOnly,
                    load,
                    burst,
                    // Half the cases run without a fault plane.
                    faults: if faulted { faults } else { 0 },
                    audit,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_fabric_at_rg1_is_fat_tree_fabric(case in case()) {
        check(&case)?;
    }
}

/// The widths and corners the sampled radices leave out: request masks
/// wider than one word, a one-cell buffer, every fault at once on each
/// placement and on FDL stages, saturation.
#[test]
fn compiled_fabric_at_rg1_is_fat_tree_fabric_at_the_corners() {
    let base = Case {
        radix: 8,
        link_delay: 2,
        buffer_cells: 6,
        iterations: 3,
        placement: Placement::InputOnly,
        fdl: false,
        load: 0.6,
        burst: 1.0,
        faults: 0,
        audit: true,
        seed: 7,
    };
    let mut cases = vec![
        Case {
            radix: 66,
            load: 0.4,
            audit: false,
            ..base.clone()
        },
        Case {
            radix: 66,
            placement: Placement::InputAndOutput,
            faults: 7,
            audit: false,
            ..base.clone()
        },
        Case {
            buffer_cells: 1,
            link_delay: 5,
            load: 1.0,
            ..base.clone()
        },
        Case {
            radix: 4,
            link_delay: 1,
            load: 1.0,
            burst: 8.0,
            placement: Placement::OutputOnly,
            ..base.clone()
        },
    ];
    for placement in Placement::ALL {
        cases.push(Case {
            placement,
            faults: 15,
            load: 0.3,
            ..base.clone()
        });
        cases.push(Case {
            placement,
            buffer_cells: 20,
            link_delay: 4,
            load: 1.0,
            burst: 3.0,
            ..base.clone()
        });
    }
    for faults in [0, 7, 16, 31] {
        cases.push(Case {
            fdl: true,
            faults,
            load: 0.4,
            ..base.clone()
        });
    }
    for case in &cases {
        check(case).unwrap_or_else(|e| panic!("{e}"));
    }
}
