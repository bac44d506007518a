//! The report extras are alive: every [`Extra`] variant is non-zero in
//! at least one run of this file's battery, and each scenario checks a
//! semantic property of the values it produces.
//!
//! A metric that merely exists can still report garbage, and one whose
//! every reader expects 0 may have lost its incrementer without anyone
//! noticing. [`every_extra_is_live_in_the_battery`] walks `Extra::ALL`
//! against every run below. A variant that is always zero fails the law
//! unless [`ALWAYS_ZERO`] names it with the reason; an excused variant
//! that turns non-zero fails too, so the exception leaves the list with
//! the fix.
#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]
#![expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::{BufferTech, CompiledFabric};
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::fec::{run_reliable_link, LinkConfig};
use osmosis::ocs::{EpochConfig, OcsScheduler, OcsSwitch};
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, EngineReport, Extra, SeedSequence};
use osmosis::switch::{
    run_multicast, run_switch_circuit, run_switch_instrumented, CellSwitch, CioqSwitch,
    DeflectionSwitch, VoqSwitch,
};
use osmosis::traffic::BernoulliUniform;
use osmosis_audit::{AuditMode, AuditSet};

const SEED: u64 = 1234;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000).with_seed(SEED)
}

fn uniform(n: usize, load: f64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(SEED))
}

/// `extra` lookup that names the missing key on failure, so a dropped
/// metric fails with the key in the message.
fn extra(r: &EngineReport, key: Extra) -> f64 {
    match r.extra(key) {
        Some(v) => v,
        None => panic!("report is missing extras key {key:?}: {:?}", r.extra),
    }
}

// --- The liveness law ----------------------------------------------------

/// Variants that are zero in every run of the battery, each with the
/// reason. Anything listed here is a finding, not a choice of scenario.
const ALWAYS_ZERO: &[(Extra, &str)] = &[
    (
        Extra::FaultCellsLost,
        "dead since its one incrementer was deleted; ROADMAP item 5(a) either \
         counts DropReason::FaultLoss into it or deletes it",
    ),
    (
        Extra::FdlDropsAdmission,
        "credit flow control never offers a cell to a full delay-line bank: \
         zero at every point of BENCH_fdl.json as well; only the fdl crate's \
         unit tests, which drive a bank directly, reach it",
    ),
    (
        Extra::FdlUnderflowStalls,
        "no fabric run has granted a cell still in the fiber: zero at every \
         point of BENCH_fdl.json as well; only the fdl crate's unit tests, \
         which force long placements after line deaths, reach it",
    ),
    (
        Extra::LinkUndetectedCorruptions,
        "an integrity counter whose claim is zero: a corrupted cell must never \
         pass both the FEC and the CRC",
    ),
];

/// Every scenario below.
fn battery() -> Vec<EngineReport> {
    vec![
        fabric_shape_run(),
        fdl_dead_lines_run(),
        outages_run(),
        wire_faults_run(),
        grant_loss_run(),
        starved_output_run(),
        reliable_link_run(),
        ocs_run("hotspot_skew", cfg()),
        ocs_run("incast", cfg().with_buffer_cells(8)),
        deflection_run(),
        cioq_run(),
        run_multicast(16, 3, 0.2, 3_000, SEED),
    ]
}

#[test]
fn every_extra_is_live_in_the_battery() {
    let runs = battery();
    let mut findings = Vec::new();
    for &key in Extra::ALL {
        let live = runs.iter().any(|r| r.extra(key).is_some_and(|v| v != 0.0));
        match (live, ALWAYS_ZERO.iter().find(|(k, _)| *k == key)) {
            (false, None) => findings.push(format!("{key:?} is zero in every run")),
            (true, Some(_)) => {
                findings.push(format!("{key:?} is live: take it off ALWAYS_ZERO"));
            }
            _ => {}
        }
    }
    assert!(findings.is_empty(), "{findings:#?}");
}

// --- Topology compiler ---------------------------------------------------

fn fabric_shape_run() -> EngineReport {
    let mut fab = CompiledFabric::new(TopologySpec::two_level(8));
    let hosts = fab.ports();
    fab.run(&mut uniform(hosts, 0.3), &cfg())
}

#[test]
fn compiled_fabric_reports_its_expanded_shape() {
    let r = fabric_shape_run();
    // A radix-8 two-level fat tree: 8 leaves + 4 spines, and the §VI.C
    // stage count is switch hops on the longest minimal route (2L−1).
    assert_eq!(extra(&r, Extra::Stages), 3.0);
    assert_eq!(extra(&r, Extra::Switches), 12.0, "8 leaves + 4 spines");
}

// --- FDL buffering plane -------------------------------------------------

/// Kill the short half of every input queue's delay lines on leaf 0 —
/// the same shape `fdl_pins.rs` pins — so the run takes typed
/// `dead_line` losses on top of ordinary recirculation traffic.
fn dead_line_plan(radix: usize, lines_per_queue: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for input in 0..radix {
        for local in 0..lines_per_queue / 2 {
            let line = input * lines_per_queue + local;
            plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
        }
    }
    plan
}

fn fdl_dead_lines_run() -> EngineReport {
    const RADIX: usize = 8;
    let spec = TopologySpec::two_level(RADIX).with_request_grant(1);
    let lines_per_queue = spec.buffer_cells();
    let mut fab = CompiledFabric::new(spec)
        .with_buffer_tech(BufferTech::Fdl)
        .expect("input-only at rg=1");
    let hosts = fab.ports();
    let mut inj = FaultInjector::new(dead_line_plan(RADIX, lines_per_queue));
    run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    )
}

#[test]
fn fdl_fabric_reports_buffer_plane_counters() {
    let r = fdl_dead_lines_run();
    // Emulated fiber loops recirculate cells that cannot depart on
    // their first pass; at 50% load there are always some.
    assert!(extra(&r, Extra::FdlRecirculations) > 0.0);
    // The drop taxonomy is complete: every dropped cell carries exactly
    // one reason.
    let total = extra(&r, Extra::FdlDropsTotal);
    let admission = extra(&r, Extra::FdlDropsAdmission);
    let dead_line = extra(&r, Extra::FdlDropsDeadLine);
    assert!(dead_line > 0.0, "dead-line plan must cause typed losses");
    assert!(admission >= 0.0);
    assert!(total >= admission + dead_line);
    // Underflow stalls (cell still in the fiber when granted) are
    // counted, never negative.
    assert!(extra(&r, Extra::FdlUnderflowStalls) >= 0.0);
}

// --- Fault plane ---------------------------------------------------------

fn outages_run() -> EngineReport {
    // Two overlapping hard outages in the fat tree: an SOA gate stuck
    // off 400–700 and spine 1 dark 600–1400 (`WavelengthLoss` re-routes
    // ascending cells around the dead plane).
    let plan = FaultPlan::new()
        .one_shot(FaultKind::SoaStuckOff { output: 1 }, 400, Some(300))
        .one_shot(FaultKind::WavelengthLoss { plane: 1 }, 600, Some(800));
    let mut fab = CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1));
    let hosts = fab.ports();
    let mut inj = FaultInjector::new(plan);
    run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    )
}

#[test]
fn deterministic_outages_report_injection_accounting() {
    let r = outages_run();
    assert_eq!(extra(&r, Extra::FaultsInjected), 2.0);
    assert_eq!(extra(&r, Extra::FaultsHealed), 2.0);
    // Active slots count the union of the outage windows (400–1400);
    // repair slots sum per fault (300 + 800).
    assert_eq!(extra(&r, Extra::FaultActiveSlots), 1_000.0);
    assert_eq!(extra(&r, Extra::FaultRepairSlotsTotal), 1_100.0);
    // Hard outages stall and re-route — they never corrupt or lose
    // cells, so the wire-level tallies must stay exactly zero.
    assert_eq!(extra(&r, Extra::FaultCellsCorrupted), 0.0);
    assert_eq!(extra(&r, Extra::FaultRetransmits), 0.0);
    assert_eq!(extra(&r, Extra::FaultCellsLost), 0.0);
}

fn wire_faults_run() -> EngineReport {
    // A credit-drop window with a BER burst inside it: the fabric loses
    // credit returns (recovered by the periodic audit) and corrupted
    // cells take the hop-by-hop retransmission path.
    let plan = FaultPlan::new()
        .one_shot(FaultKind::CreditDrop { prob: 0.3 }, 500, Some(1_000))
        .one_shot(
            FaultKind::LinkBerBurst {
                link: LINK_ANY,
                cell_error_prob: 0.05,
            },
            600,
            Some(900),
        );
    let mut fab = CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1));
    let hosts = fab.ports();
    let mut inj = FaultInjector::new(plan);
    run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    )
}

#[test]
fn probabilistic_wire_faults_report_event_tallies() {
    let r = wire_faults_run();
    assert!(extra(&r, Extra::FaultCreditsDropped) > 0.0);
    let corrupted = extra(&r, Extra::FaultCellsCorrupted);
    assert!(corrupted > 0.0);
    assert!(
        extra(&r, Extra::FaultRetransmits) >= corrupted,
        "every corrupted cell is resent at least once"
    );
    // Retransmission + credit resync deliver everything eventually.
    assert_eq!(extra(&r, Extra::FaultCellsLost), 0.0);
}

fn grant_loss_run() -> EngineReport {
    // Only the request/grant models consult `GrantLoss`; drive the VOQ
    // crossbar through three periodic loss windows.
    let plan = FaultPlan::new().periodic(FaultKind::GrantLoss { prob: 0.2 }, 200, 900, 250);
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut inj = FaultInjector::new(plan);
    run_switch_instrumented(&mut sw, &mut uniform(16, 0.7), &cfg(), Some(&mut inj), None)
}

#[test]
fn grant_loss_reports_lost_grant_tally() {
    let r = grant_loss_run();
    assert!(
        extra(&r, Extra::FaultsInjected) >= 3.0,
        "one per periodic window"
    );
    assert!(extra(&r, Extra::FaultGrantsLost) > 0.0);
    // Lost grants delay cells; they never destroy them.
    assert_eq!(extra(&r, Extra::FaultCellsLost), 0.0);
}

// --- Audit plane ---------------------------------------------------------

fn starved_output_run() -> EngineReport {
    // An SOA gate stuck off for 800 slots starves the VOQs behind it,
    // and the audit battery's 100-slot wait bound reports it.
    let plan = FaultPlan::new().one_shot(FaultKind::SoaStuckOff { output: 3 }, 300, Some(800));
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut inj = FaultInjector::new(plan);
    let mut set = AuditSet::standard(AuditMode::Accumulate).with_liveness(100);
    run_switch_instrumented(
        &mut sw,
        &mut uniform(16, 0.6),
        &cfg(),
        Some(&mut inj),
        Some(&mut set),
    )
}

#[test]
fn audited_starvation_reports_its_violation_count() {
    let r = starved_output_run();
    assert!(extra(&r, Extra::AuditViolations) > 0.0);
    // A clean run carries no audit extra at all.
    assert_eq!(fabric_shape_run().extra(Extra::AuditViolations), None);
}

// --- Reliable link (FEC + go-back-N) -------------------------------------

fn reliable_link_run() -> EngineReport {
    // A BER high enough that both tiers do real work: the FEC corrects
    // most blocks, go-back-N mops up detected-uncorrectable cells.
    run_reliable_link(&LinkConfig::osmosis(4, 2e-4, SEED), 4_000).to_engine_report()
}

#[test]
fn reliable_link_reports_protocol_counters() {
    let r = reliable_link_run();
    assert_eq!(extra(&r, Extra::LinkOffered), 4_000.0);
    assert!(extra(&r, Extra::LinkFecCorrectedCells) > 0.0);
    let corrupted = extra(&r, Extra::LinkCorruptedArrivals);
    let retx = extra(&r, Extra::LinkRetransmissions);
    assert!(
        corrupted > 0.0,
        "2e-4 raw BER must defeat the FEC sometimes"
    );
    assert!(
        retx >= corrupted,
        "go-back-N resends at least one cell per detected corruption"
    );
    // The end-to-end integrity claim: nothing slips through.
    assert_eq!(extra(&r, Extra::LinkUndetectedCorruptions), 0.0);
}

// --- Circuit-switched mode -----------------------------------------------

fn ocs_run(workload: &str, cfg: EngineConfig) -> EngineReport {
    use osmosis::core::experiments::ocs_study::workload as ml_workload;
    let mut tr = ml_workload(workload, 16, 3_000, SEED).expect("known workload");
    run_switch_circuit(
        &mut OcsSwitch::new(tr.ports()),
        tr.as_mut(),
        &cfg,
        &mut OcsScheduler::new(EpochConfig::osmosis_default()),
        None,
        None,
    )
}

#[test]
fn ocs_run_reports_scheduler_counters() {
    let r = ocs_run("hotspot_skew", cfg());
    let epochs = extra(&r, Extra::OcsEpochs);
    assert!(epochs >= 50.0, "3300 slots / 64-slot epochs");
    // Every reconfiguration changes at least one circuit and pays the
    // guard time on each changed input.
    let reconfs = extra(&r, Extra::OcsReconfigurations);
    let changed = extra(&r, Extra::OcsChangedCircuits);
    assert!(reconfs > 0.0 && reconfs <= epochs);
    assert!(changed >= reconfs);
    // Guard time is paid once per reconfiguration epoch.
    assert!(extra(&r, Extra::OcsGuardSlotsPaid) >= reconfs);
    // The BvN path actually decomposed demand into permutations.
    assert!(extra(&r, Extra::OcsDecompositions) > 0.0);
    assert!(extra(&r, Extra::OcsBvnTerms) >= extra(&r, Extra::OcsDecompositions));
    // Round-robin frames barely tick when the BvN scheduler drives.
    assert!(extra(&r, Extra::OcsRotorFrames) <= epochs);
    let transfers = extra(&r, Extra::OcsTransfers);
    assert!(transfers > 0.0);
    let util = extra(&r, Extra::OcsMeanUtilization);
    assert!(
        (0.0..=1.0).contains(&util),
        "utilization is a fraction: {util}"
    );
}

// --- Typed drop attribution ----------------------------------------------

fn deflection_run() -> EngineReport {
    // Overloaded deflection routing runs out of alternate ports and
    // rejects admissions; the engine attributes each one.
    DeflectionSwitch::new(16, 4, SEED).run(&mut uniform(16, 0.95), &cfg())
}

#[test]
fn deflection_switch_attributes_rejected_drops() {
    let r = deflection_run();
    let rejected = extra(&r, Extra::DropsRejected);
    assert!(rejected > 0.0);
    // Rejections happen at admission, so nothing rejected was counted
    // injected: everything injected is eventually delivered or resident.
    assert!(r.delivered <= r.injected);
}

#[test]
fn ocs_incast_attributes_buffer_full_drops() {
    // Incast into finite 8-cell ingress VOQs: queues toward the one hot
    // sink overflow and every discarded cell is attributed.
    let r = ocs_run("incast", cfg().with_buffer_cells(8));
    assert!(extra(&r, Extra::DropsBufferFull) > 0.0);
}

// --- Per-model scalar extras ---------------------------------------------

fn cioq_run() -> EngineReport {
    // Speedup 2 at 80% uniform load.
    CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8), &cfg())
}

#[test]
fn cioq_reports_its_speedup_violation_fraction() {
    // The CIOQ emulation contract says violations (output idles while
    // work exists) stay a small fraction of busy slots.
    let r = cioq_run();
    let fraction = extra(&r, Extra::ViolationFraction);
    assert!((0.0..=1.0).contains(&fraction));
    assert!(
        fraction < 0.1,
        "speedup-2 CIOQ must rarely idle: {fraction}"
    );
}

#[test]
fn multicast_reports_copy_and_transmission_counters() {
    let r = run_multicast(16, 3, 0.2, 3_000, SEED);
    let copies = extra(&r, Extra::CopiesDelivered);
    // Fanout 3: three copies per completion, plus the partial fanouts of
    // cells still in flight when the measure window closed.
    assert!(copies >= 3.0 * r.delivered as f64);
    assert!(copies <= 3.0 * r.injected as f64);
    // Per-output queueing means a cell needs at least one transmission
    // per copy on average, and tree-assisted forwarding keeps the mean
    // bounded.
    let mean_tx = extra(&r, Extra::MeanTransmissions);
    assert!(
        (1.0..=3.0).contains(&mean_tx),
        "mean transmissions {mean_tx}"
    );
}
