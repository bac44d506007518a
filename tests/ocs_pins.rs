//! Pinned fingerprints for the circuit-switched mode.
//!
//! Same-seed OCS runs must be bit-exactly reproducible — per workload,
//! and under an injected stuck-circuit fault schedule. The literals
//! were captured when the OCS subsystem landed (PR 7); any change that
//! perturbs one must consciously update the pin and say why in the
//! commit message.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use osmosis::core::experiments::ocs_study::workload;
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis::ocs::{EpochConfig, OcsScheduler, OcsSwitch};
use osmosis::sim::EngineConfig;
use osmosis::switch::run_switch_circuit;

const SEED: u64 = 1234;
const MEASURE: u64 = 3_000;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, MEASURE).with_seed(SEED)
}

/// The ML workloads, in [`osmosis::core::experiments::ocs_study::WORKLOADS`]
/// order, each run once through the OCS mode at 16 ports.
fn capture() -> Vec<String> {
    osmosis::core::experiments::ocs_study::WORKLOADS
        .iter()
        .map(|&name| {
            let mut tr = workload(name, 16, MEASURE, SEED).expect("known workload");
            let r = run_switch_circuit(
                &mut OcsSwitch::new(tr.ports()),
                tr.as_mut(),
                &cfg(),
                &mut OcsScheduler::new(EpochConfig::osmosis_default()),
                None,
                None,
            );
            format!("{name}:{:016x}", r.fingerprint())
        })
        .collect()
}

fn capture_faulted() -> String {
    let plan = FaultPlan::new()
        .one_shot(FaultKind::CircuitStuck { input: 3 }, 700, Some(500))
        .one_shot(FaultKind::CircuitStuck { input: 9 }, 1_800, None);
    let mut inj = FaultInjector::new(plan);
    let mut tr = workload("hotspot_skew", 16, MEASURE, SEED).expect("skew");
    let r = run_switch_circuit(
        &mut OcsSwitch::new(tr.ports()),
        tr.as_mut(),
        &cfg(),
        &mut OcsScheduler::new(EpochConfig::osmosis_default()),
        Some(&mut inj),
        None,
    );
    format!("hotspot_skew+faults:{:016x}", r.fingerprint())
}

/// Fingerprints captured at 16 ports, seed 1234, 300 + 3000 slots, the
/// default 64-slot epoch with 1 guard slot.
const OCS_PINS: &[&str] = &[
    "uniform:2ca4daf8e7aada56",
    "allreduce_ring:6a4a214906af275a",
    "allreduce_tree:fabf47cb07a9f199",
    "incast:a32225dc2c2c091c",
    "hotspot_skew:e3efd9da682502b4",
    "diurnal:ba5b88c2f11204ae",
];

/// The same skew workload with two stuck-circuit faults injected.
const OCS_FAULTED_PIN: &str = "hotspot_skew+faults:0fe1d53ab4cd1697";

#[test]
fn ocs_fingerprints_match_pins() {
    let got = capture();
    assert_eq!(
        got.iter().map(String::as_str).collect::<Vec<_>>(),
        OCS_PINS,
        "OCS per-workload fingerprints drifted"
    );
}

#[test]
fn ocs_same_seed_runs_are_bit_identical() {
    assert_eq!(capture(), capture());
}

#[test]
fn ocs_faulted_run_matches_pin_and_reproduces() {
    let a = capture_faulted();
    assert_eq!(a, OCS_FAULTED_PIN, "faulted OCS fingerprint drifted");
    assert_eq!(a, capture_faulted());
}

#[test]
fn faults_actually_perturb_the_run() {
    // The stuck-circuit plan must change behaviour — otherwise the
    // faulted pin proves nothing.
    let clean = &capture()[4];
    let (_, clean_fp) = clean.split_once(':').expect("name:fp");
    let (_, faulted_fp) = OCS_FAULTED_PIN.split_once(':').expect("name:fp");
    assert_ne!(clean_fp, faulted_fp);
}
