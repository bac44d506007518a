//! Pinned fingerprints for the FDL-buffered fabric.
//!
//! Same-seed runs of the fat tree with emulated fiber-delay-line input
//! buffers must be bit-exactly reproducible — clean, and under a
//! permanent dead-delay-line fault plan. The literals were captured
//! when the optical buffering plane landed (PR 9); any change that
//! perturbs one must consciously update the pin and say why in the
//! commit message.
//!
//! The electronic pin here is the same `multistage` literal pinned in
//! `fingerprint_pins.rs`: re-asserting it next to the FDL pins makes
//! the zero-cost claim local — the buffer technology is the ONLY
//! thing that separates the first two captures.
//!
//! The literals were captured from `FatTreeFabric` (`multistage.rs`);
//! since PR 24 `CompiledFabric` at `rg=1` produces them.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

mod common;

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::{BufferTech, CompiledFabric};
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis::sim::{EngineConfig, Extra, SeedSequence};
use osmosis::switch::{run_switch_instrumented, CellSwitch};
use osmosis::traffic::{BernoulliUniform, Bursty, TrafficGen};

const SEED: u64 = 1234;
const RADIX: usize = 8;
const LINK_DELAY: u64 = 2;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000)
}

/// The §V tree on the paper's request/grant cycle, RTT-sized buffers.
fn paper_tree(radix: usize) -> TopologySpec {
    TopologySpec::two_level(radix)
        .with_link_delay(LINK_DELAY)
        .with_request_grant(1)
}

fn fabric_over(spec: TopologySpec, tech: BufferTech) -> CompiledFabric {
    CompiledFabric::new(spec)
        .with_buffer_tech(tech)
        .expect("input-only placement at rg=1")
}

fn fabric(tech: BufferTech) -> CompiledFabric {
    fabric_over(paper_tree(RADIX), tech)
}

fn uniform(n: usize, load: f64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(SEED))
}

/// Kill the short half of leaf 0's delay lines from slot 0 — the same
/// shape `fdl_study`'s `DelayLinesDead` plan uses. Line indices follow
/// the global formula `(node·radix + input)·lines_per_queue + local`
/// with node 0, where `lines_per_queue == buffer_cells`.
fn dead_line_plan(lines_per_queue: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for input in 0..RADIX {
        for local in 0..lines_per_queue / 2 {
            let line = input * lines_per_queue + local;
            plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
        }
    }
    plan
}

fn capture(tech: BufferTech) -> u64 {
    let mut fab = fabric(tech);
    let hosts = fab.ports();
    fab.run(&mut uniform(hosts, 0.5), &cfg()).fingerprint()
}

fn capture_faulted() -> u64 {
    let mut fab = fabric(BufferTech::Fdl);
    let hosts = fab.ports();
    let lines_per_queue = paper_tree(RADIX).buffer_cells();
    let mut inj = FaultInjector::new(dead_line_plan(lines_per_queue));
    run_switch_instrumented(
        &mut fab,
        &mut uniform(hosts, 0.5),
        &cfg(),
        Some(&mut inj),
        None,
    )
    .fingerprint()
}

/// Radix-8 fat tree, 2-slot links, seed 1234, 300 + 3000 slots, 50%
/// uniform Bernoulli load.
const ELECTRONIC_PIN: u64 = 0x7cdd_391d_75c3_0074;
const FDL_PIN: u64 = 0x06ed_5ef1_a1c8_5de3;
const FDL_FAULTED_PIN: u64 = 0xe85e_0082_de6e_3aa9;

#[test]
fn electronic_default_still_matches_the_multistage_pin() {
    // The buffer-plane seam is zero-cost: the fabric told to buffer
    // electronically reproduces the pre-seam pin.
    assert_eq!(
        capture(BufferTech::Electronic),
        ELECTRONIC_PIN,
        "electronic multistage fingerprint drifted"
    );
}

#[test]
fn fdl_fingerprint_matches_pin() {
    assert_eq!(
        capture(BufferTech::Fdl),
        FDL_PIN,
        "FDL-buffered multistage fingerprint drifted"
    );
}

#[test]
fn fdl_faulted_fingerprint_matches_pin() {
    assert_eq!(
        capture_faulted(),
        FDL_FAULTED_PIN,
        "faulted FDL multistage fingerprint drifted"
    );
}

#[test]
fn fdl_same_seed_runs_are_bit_identical() {
    assert_eq!(capture(BufferTech::Fdl), capture(BufferTech::Fdl));
    assert_eq!(capture_faulted(), capture_faulted());
}

#[test]
fn the_technologies_and_faults_actually_separate() {
    // The FDL pin proves nothing if it coincides with the electronic
    // run, and the faulted pin proves nothing if dead lines are inert.
    assert_ne!(FDL_PIN, ELECTRONIC_PIN);
    assert_ne!(FDL_FAULTED_PIN, FDL_PIN);
}

/// The FDL runs the first three pins leave out: the campaign's own
/// fabric points (`two_level(16)` under a permanent and under a
/// stochastic `WavelengthLoss`, the latter with bursty traffic — no
/// delay line ever dies, but the fault plane is attached every slot),
/// and delay lines that die mid-run and heal. Captured on the commit
/// before the queues moved onto flat storage and line health was
/// applied on change.
fn fdl_corner_fingerprints() -> Vec<(&'static str, u64)> {
    let run = |spec: TopologySpec, tr: &mut dyn TrafficGen, plan: FaultPlan| {
        let mut fab = fabric_over(spec, BufferTech::Fdl);
        run_switch_instrumented(
            &mut fab,
            tr,
            &cfg(),
            Some(&mut FaultInjector::new(plan)),
            None,
        )
        .fingerprint()
    };
    let campaign = paper_tree(16);
    let campaign_hosts = 16 * 16 / 2;
    let small = paper_tree(RADIX);
    let small_hosts = RADIX * RADIX / 2;
    let small_lines = small.buffer_cells();
    let plane0 = FaultKind::WavelengthLoss { plane: 0 };
    // The short half of leaf 0's lines, as `dead_line_plan`, but dying
    // at slot 800 and healing 900 slots later; a second group on leaf 1
    // dies while the first is down and never heals.
    let mut transient = FaultPlan::new();
    for input in 0..RADIX {
        for local in 0..small_lines / 2 {
            let line = input * small_lines + local;
            transient = transient.one_shot(FaultKind::DelayLineDead { line }, 800, Some(900));
        }
    }
    let leaf1 = RADIX * small_lines;
    for line in [leaf1, leaf1 + 1, leaf1 + small_lines + 2] {
        transient = transient.permanent(FaultKind::DelayLineDead { line }, 1_200);
    }
    vec![
        (
            "radix16_plane_loss",
            run(
                campaign,
                &mut uniform(campaign_hosts, 0.7),
                FaultPlan::new().permanent(plane0, 0),
            ),
        ),
        (
            "radix16_stochastic_plane_loss_bursty",
            run(
                campaign,
                &mut Bursty::new(campaign_hosts, 0.7, 4.0, &SeedSequence::new(SEED)),
                FaultPlan::new().stochastic(plane0, 400.0, 100.0),
            ),
        ),
        (
            "lines_die_and_heal",
            run(small, &mut uniform(small_hosts, 0.6), transient.clone()),
        ),
        (
            "lines_die_and_heal_bursty",
            run(
                small,
                &mut Bursty::new(small_hosts, 0.7, 4.0, &SeedSequence::new(SEED)),
                transient,
            ),
        ),
    ]
}

const FDL_CORNER_PINS: &[(&str, u64)] = &[
    ("radix16_plane_loss", 0xf970_00a9_3937_03a1),
    (
        "radix16_stochastic_plane_loss_bursty",
        0xe04d_af86_9b7a_f48b,
    ),
    ("lines_die_and_heal", 0xa96f_0bec_6ae2_6350),
    ("lines_die_and_heal_bursty", 0x358b_b1c1_4c2a_27c8),
];

#[test]
fn fdl_corner_fingerprints_match_pins() {
    let got = fdl_corner_fingerprints();
    assert_eq!(got.len(), FDL_CORNER_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(FDL_CORNER_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// A wavelength plane that fails and is repaired, a window of link bit
/// errors and a window of dropped credits, with the short half of leaf
/// 0's delay lines dead throughout: every fault reaction of the fabric
/// and of the FDL plane in one run.
fn every_reaction_plan() -> FaultPlan {
    use osmosis::faults::LINK_ANY;
    let ber = FaultKind::LinkBerBurst {
        link: LINK_ANY,
        cell_error_prob: 0.03,
    };
    dead_line_plan(paper_tree(RADIX).buffer_cells())
        .one_shot(FaultKind::WavelengthLoss { plane: 1 }, 600, Some(700))
        .one_shot(ber, 900, Some(200))
        .one_shot(FaultKind::CreditDrop { prob: 0.2 }, 400, Some(1_500))
}

/// The FDL fabric under the fabric's own fault reactions (plane loss,
/// go-back-N, credit resync — the pins above only kill delay lines or
/// planes), the dead-line run of `FDL_FAULTED_PIN` under the full audit
/// battery, and the order of the observer calls of a faulted run as a
/// `RingTrace` window. Captured from `FatTreeFabric` on the commit
/// before it was folded into `CompiledFabric`.
const FDL_EVERY_REACTION_PIN: u64 = 0x596b_ae73_f19b_3271;
const FDL_TRACE_PIN: (u64, usize, u64, u64) =
    (73_494, 20_000, 0x8b40_66fc_93d0_0418, 0x6a3b_addb_07ea_bf9d);

#[test]
fn fdl_under_every_fault_reaction_matches_pin() {
    let mut fab = fabric(BufferTech::Fdl);
    let mut tr = uniform(fab.ports(), 0.3);
    let mut inj = FaultInjector::new(every_reaction_plan());
    let r = run_switch_instrumented(&mut fab, &mut tr, &cfg(), Some(&mut inj), None);
    for key in [
        Extra::FaultRetransmits,
        Extra::FaultCreditsDropped,
        Extra::FdlDropsDeadLine,
    ] {
        assert!(r.extra(key).unwrap_or(0.0) > 20.0, "{key:?}: {:?}", r.extra);
    }
    assert_eq!(
        r.fingerprint(),
        FDL_EVERY_REACTION_PIN,
        "fingerprint {:#018x}",
        r.fingerprint()
    );
}

#[test]
fn audited_dead_line_run_balances_and_reproduces_the_pin() {
    use osmosis_audit::{AuditMode, AuditSet};

    let mut fab = fabric(BufferTech::Fdl);
    let mut tr = uniform(fab.ports(), 0.5);
    let lines_per_queue = paper_tree(RADIX).buffer_cells();
    let mut inj = FaultInjector::new(dead_line_plan(lines_per_queue));
    let mut set = AuditSet::standard(AuditMode::FailFast);
    let r = run_switch_instrumented(&mut fab, &mut tr, &cfg(), Some(&mut inj), Some(&mut set));
    assert_eq!(set.total_violations(), 0, "{}", set.report());
    assert!(r.dropped > 0, "dead lines lose cells");
    assert_eq!(r.fingerprint(), FDL_FAULTED_PIN);
}

#[test]
fn fdl_trace_event_order_matches_pin() {
    use osmosis::sim::Engine;
    use osmosis::sim::RingTrace;
    use osmosis::switch::Driven;

    let mut fab = fabric(BufferTech::Fdl);
    let mut tr = uniform(fab.ports(), 0.3);
    let mut inj = FaultInjector::new(every_reaction_plan());
    let mut sink = RingTrace::new(20_000);
    let cfg = EngineConfig::new(300, 1_200);
    let r = Engine::new(&cfg)
        .trace(&mut sink)
        .faults(Some(&mut inj))
        .run(&mut Driven::new(&mut fab, &mut tr));
    let got = (
        sink.seen(),
        sink.len(),
        common::trace_digest(sink.events()),
        r.fingerprint(),
    );
    assert_eq!(
        got, FDL_TRACE_PIN,
        "seen {}, kept {}, event-order digest {:#018x}, report fingerprint {:#018x}",
        got.0, got.1, got.2, got.3
    );
}
