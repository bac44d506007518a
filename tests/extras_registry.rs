//! Every model-specific `set_extra` key has at least one integration
//! test that asserts its value — the contract the `extras-registry`
//! deep lint rule enforces (`cargo run -p osmosis-lint -- --deep`).
//!
//! Each test here runs a real scenario that produces the metric and
//! checks a semantic property of the value, not just its presence: a
//! key that merely *exists* can still silently report garbage. The
//! string literals double as the registry the lint rule greps for, so
//! renaming a key in a model without updating its test breaks both this
//! file and the lint gate.
#![expect(clippy::panic, reason = "a test helper fails its test by panicking")]
#![expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::{BufferTech, CompiledFabric};
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::fec::{run_reliable_link, LinkConfig};
use osmosis::ocs::{EpochConfig, OcsScheduler, OcsSwitch};
use osmosis::sim::{EngineConfig, EngineReport, SeedSequence};
use osmosis::switch::{
    run_multicast, run_switch_circuit, run_switch_instrumented, CellSwitch, CioqSwitch,
    DeflectionSwitch,
};
use osmosis::traffic::BernoulliUniform;

const SEED: u64 = 1234;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000).with_seed(SEED)
}

fn uniform(n: usize, load: f64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(SEED))
}

/// `extra` lookup that names the missing key on failure, so a renamed
/// or dropped metric fails with the key in the message.
fn extra(r: &EngineReport, key: &str) -> f64 {
    match r.extra(key) {
        Some(v) => v,
        None => panic!("report is missing extras key {key:?}: {:?}", r.extra),
    }
}

// --- Topology compiler ---------------------------------------------------

#[test]
fn compiled_fabric_reports_its_expanded_shape() {
    let mut fab = CompiledFabric::new(TopologySpec::two_level(8));
    let hosts = fab.ports();
    let r = fab.run(&mut uniform(hosts, 0.3), &cfg());
    // A radix-8 two-level fat tree: 8 leaves + 4 spines, and the §VI.C
    // stage count is switch hops on the longest minimal route (2L−1).
    assert_eq!(extra(&r, "stages"), 3.0);
    assert_eq!(extra(&r, "switches"), 12.0, "8 leaves + 4 spines");
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

#[test]
fn fdl_fabric_reports_buffer_plane_counters() {
    const RADIX: usize = 8;
    let spec = TopologySpec::two_level(RADIX).with_request_grant(1);
    let lines_per_queue = spec.buffer_cells();
    let mut fab = CompiledFabric::new(spec)
        .with_buffer_tech(BufferTech::Fdl)
        .expect("input-only at rg=1");
    let hosts = fab.ports();
    let mut inj = FaultInjector::new(dead_line_plan(RADIX, lines_per_queue));
    let r = run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    );

    // Emulated fiber loops recirculate cells that cannot depart on
    // their first pass; at 50% load there are always some.
    assert!(extra(&r, "fdl_recirculations") > 0.0);
    // The drop taxonomy is complete: every dropped cell carries exactly
    // one reason.
    let total = extra(&r, "fdl_drops_total");
    let admission = extra(&r, "fdl_drops_admission");
    let dead_line = extra(&r, "fdl_drops_dead_line");
    assert!(dead_line > 0.0, "dead-line plan must cause typed losses");
    assert!(admission >= 0.0);
    assert!(total >= admission + dead_line);
    // Underflow stalls (cell still in the fiber when granted) are
    // counted, never negative.
    assert!(extra(&r, "fdl_underflow_stalls") >= 0.0);
}

// --- Fault plane ---------------------------------------------------------

#[test]
fn deterministic_outages_report_injection_accounting() {
    // Two overlapping hard outages in the fat tree: an SOA gate stuck
    // off 400–700 and spine 1 dark 600–1400 (`WavelengthLoss` re-routes
    // ascending cells around the dead plane).
    let plan = FaultPlan::new()
        .one_shot(FaultKind::SoaStuckOff { output: 1 }, 400, Some(300))
        .one_shot(FaultKind::WavelengthLoss { plane: 1 }, 600, Some(800));
    let mut fab = CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1));
    let hosts = fab.ports();
    let mut inj = FaultInjector::new(plan);
    let r = run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    );

    assert_eq!(extra(&r, "faults_injected"), 2.0);
    assert_eq!(extra(&r, "faults_healed"), 2.0);
    // Active slots count the union of the outage windows (400–1400);
    // repair slots sum per fault (300 + 800).
    assert_eq!(extra(&r, "fault_active_slots"), 1_000.0);
    assert_eq!(extra(&r, "fault_repair_slots_total"), 1_100.0);
    // Hard outages stall and re-route — they never corrupt or lose
    // cells, so the wire-level tallies must stay exactly zero.
    assert_eq!(extra(&r, "fault_cells_corrupted"), 0.0);
    assert_eq!(extra(&r, "fault_retransmits"), 0.0);
    assert_eq!(extra(&r, "fault_cells_lost"), 0.0);
}

#[test]
fn probabilistic_wire_faults_report_event_tallies() {
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
    let r = run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    );

    assert!(extra(&r, "fault_credits_dropped") > 0.0);
    let corrupted = extra(&r, "fault_cells_corrupted");
    assert!(corrupted > 0.0);
    assert!(
        extra(&r, "fault_retransmits") >= corrupted,
        "every corrupted cell is resent at least once"
    );
    // Retransmission + credit resync deliver everything eventually.
    assert_eq!(extra(&r, "fault_cells_lost"), 0.0);
}

#[test]
fn grant_loss_reports_lost_grant_tally() {
    use osmosis::sched::Flppr;
    use osmosis::switch::VoqSwitch;
    // Only the request/grant models consult `GrantLoss`; drive the VOQ
    // crossbar through three periodic loss windows.
    let plan = FaultPlan::new().periodic(FaultKind::GrantLoss { prob: 0.2 }, 200, 900, 250);
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut inj = FaultInjector::new(plan);
    let r = run_switch_instrumented(&mut sw, &mut uniform(16, 0.7), &cfg(), Some(&mut inj), None);
    assert!(
        extra(&r, "faults_injected") >= 3.0,
        "one per periodic window"
    );
    assert!(extra(&r, "fault_grants_lost") > 0.0);
    // Lost grants delay cells; they never destroy them.
    assert_eq!(extra(&r, "fault_cells_lost"), 0.0);
}

// --- Reliable link (FEC + go-back-N) -------------------------------------

#[test]
fn reliable_link_reports_protocol_counters() {
    // A BER high enough that both tiers do real work: the FEC corrects
    // most blocks, go-back-N mops up detected-uncorrectable cells.
    let report = run_reliable_link(&LinkConfig::osmosis(4, 2e-4, SEED), 4_000);
    let r = report.to_engine_report();
    assert_eq!(extra(&r, "link_offered"), 4_000.0);
    assert!(extra(&r, "link_fec_corrected_cells") > 0.0);
    let corrupted = extra(&r, "link_corrupted_arrivals");
    let retx = extra(&r, "link_retransmissions");
    assert!(
        corrupted > 0.0,
        "2e-4 raw BER must defeat the FEC sometimes"
    );
    assert!(
        retx >= corrupted,
        "go-back-N resends at least one cell per detected corruption"
    );
    // The end-to-end integrity claim of PR 3: nothing slips through.
    assert_eq!(extra(&r, "link_undetected_corruptions"), 0.0);
}

// --- Circuit-switched mode -----------------------------------------------

#[test]
fn ocs_run_reports_scheduler_counters() {
    use osmosis::core::experiments::ocs_study::workload;
    let mut tr = workload("hotspot_skew", 16, 3_000, SEED).expect("known workload");
    let r = run_switch_circuit(
        &mut OcsSwitch::new(tr.ports()),
        tr.as_mut(),
        &cfg(),
        &mut OcsScheduler::new(EpochConfig::osmosis_default()),
        None,
        None,
    );

    let epochs = extra(&r, "ocs_epochs");
    assert!(epochs >= 50.0, "3300 slots / 64-slot epochs");
    // Every reconfiguration changes at least one circuit and pays the
    // guard time on each changed input.
    let reconfs = extra(&r, "ocs_reconfigurations");
    let changed = extra(&r, "ocs_changed_circuits");
    assert!(reconfs > 0.0 && reconfs <= epochs);
    assert!(changed >= reconfs);
    // Guard time is paid once per reconfiguration epoch.
    assert!(extra(&r, "ocs_guard_slots_paid") >= reconfs);
    // The BvN path actually decomposed demand into permutations.
    assert!(extra(&r, "ocs_decompositions") > 0.0);
    assert!(extra(&r, "ocs_bvn_terms") >= extra(&r, "ocs_decompositions"));
    // Round-robin frames barely tick when the BvN scheduler drives.
    assert!(extra(&r, "ocs_rotor_frames") <= epochs);
    let transfers = extra(&r, "ocs_transfers");
    assert!(transfers > 0.0);
    let util = extra(&r, "ocs_mean_utilization");
    assert!(
        (0.0..=1.0).contains(&util),
        "utilization is a fraction: {util}"
    );
}

// --- Typed drop attribution ----------------------------------------------

#[test]
fn deflection_switch_attributes_rejected_drops() {
    // Overloaded deflection routing runs out of alternate ports and
    // rejects admissions; the engine attributes each one.
    let r = DeflectionSwitch::new(16, 4, SEED).run(&mut uniform(16, 0.95), &cfg());
    let rejected = extra(&r, "drops_rejected");
    assert!(rejected > 0.0);
    // Rejections happen at admission, so nothing rejected was counted
    // injected: everything injected is eventually delivered or resident.
    assert!(r.delivered <= r.injected);
}

#[test]
fn ocs_incast_attributes_buffer_full_drops() {
    use osmosis::core::experiments::ocs_study::workload;
    // Incast into finite 8-cell ingress VOQs: queues toward the one hot
    // sink overflow and every discarded cell is attributed.
    let mut tr = workload("incast", 16, 3_000, SEED).expect("known workload");
    let r = run_switch_circuit(
        &mut OcsSwitch::new(tr.ports()),
        tr.as_mut(),
        &cfg().with_buffer_cells(8),
        &mut OcsScheduler::new(EpochConfig::osmosis_default()),
        None,
        None,
    );
    assert!(extra(&r, "drops_buffer_full") > 0.0);
}

// --- Per-model scalar extras ---------------------------------------------

#[test]
fn cioq_reports_its_speedup_violation_fraction() {
    // Speedup 2 at 80% uniform load: the CIOQ emulation contract says
    // violations (output idles while work exists) stay a small fraction
    // of busy slots.
    let r = CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8), &cfg());
    let fraction = extra(&r, "violation_fraction");
    assert!((0.0..=1.0).contains(&fraction));
    assert!(
        fraction < 0.1,
        "speedup-2 CIOQ must rarely idle: {fraction}"
    );
}

#[test]
fn multicast_reports_copy_and_transmission_counters() {
    let r = run_multicast(16, 3, 0.2, 3_000, SEED);
    let copies = extra(&r, "copies_delivered");
    // Fanout 3: three copies per completion, plus the partial fanouts of
    // cells still in flight when the measure window closed.
    assert!(copies >= 3.0 * r.delivered as f64);
    assert!(copies <= 3.0 * r.injected as f64);
    // Per-output queueing means a cell needs at least one transmission
    // per copy on average, and tree-assisted forwarding keeps the mean
    // bounded.
    let mean_tx = extra(&r, "mean_transmissions");
    assert!(
        (1.0..=3.0).contains(&mean_tx),
        "mean transmissions {mean_tx}"
    );
}
