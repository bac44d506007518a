//! Pinned engine fingerprints for all ten simulators.
//!
//! These literal values were captured before the HashMap→BTreeMap and
//! unwrap burn-down refactor (PR 5) and prove that the refactor left
//! every simulator's report bit-identical. Any future change that
//! perturbs a fingerprint must consciously update the pin and explain
//! why in the commit message.

mod common;

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::{BufferTech, CompiledFabric, Placement};
use osmosis::sched::{Flppr, Islip};
use osmosis::sim::{EngineConfig, EngineReport, Extra, SeedSequence};
use osmosis::switch::{
    run_multicast, run_uniform, BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, FifoSwitch,
    OqSwitch, RemoteSchedulerSwitch,
};
use osmosis::traffic::BernoulliUniform;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000)
}

fn uniform(n: usize, load: f64, seed: u64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(seed))
}

/// The §V two-level tree on the paper's one-slot request/grant cycle,
/// with RTT-sized buffers (2d + 2 cells) and three matching iterations:
/// what `FatTreeFabric` (`multistage.rs`) simulated when the `multistage`
/// row and the fat-tree tables below were captured, and what
/// `CompiledFabric` at `rg=1` has reproduced since PR 24.
fn paper_tree(radix: usize, link_delay: u64) -> TopologySpec {
    TopologySpec::two_level(radix)
        .with_link_delay(link_delay)
        .with_request_grant(1)
}

/// The m-ary folded Clos (radix × levels, link delay 2, seed 1234) on
/// `CompiledFabric`. The `multilevel*` pins were captured from a dense
/// L-level simulator that `CompiledFabric` has since replaced bit for
/// bit; that simulator never set the `"switches"` extra, so it is
/// dropped before fingerprinting and the literals stay comparable.
fn run_m_ary(radix: usize, levels: u32, load: f64) -> EngineReport {
    let spec = TopologySpec::m_ary_fat_tree(radix, levels).with_link_delay(2);
    let mut fab = CompiledFabric::new(spec);
    let mut r = fab.run(&mut uniform(spec.hosts() as usize, load, 1234), &cfg());
    r.extra.retain(|(key, _)| *key != Extra::Switches);
    r
}

fn capture() -> Vec<(&'static str, u64)> {
    let s = 1234u64;
    let mut out: Vec<(&'static str, EngineReport)> = Vec::new();
    out.push((
        "voq",
        run_uniform(|| Box::new(Flppr::osmosis(16, 2)), 0.7, &cfg().with_seed(s)),
    ));
    out.push((
        "fifo",
        FifoSwitch::new(16).run(&mut uniform(16, 0.5, s), &cfg()),
    ));
    out.push((
        "oq",
        OqSwitch::new(16).run(&mut uniform(16, 0.7, s), &cfg()),
    ));
    out.push((
        "bvn",
        BvnSwitch::new(16).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "burst",
        BurstSwitch::new(16, 8, 8).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "deflection",
        DeflectionSwitch::new(16, 4, s).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "cioq",
        CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8, s), &cfg()),
    ));
    out.push((
        "remote_sched",
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
            .run(&mut uniform(8, 0.5, s), &cfg()),
    ));
    out.push(("multicast", run_multicast(16, 3, 0.2, 3_000, s)));
    out.push(("multistage", {
        let mut fab = CompiledFabric::new(paper_tree(8, 2));
        fab.run(&mut uniform(32, 0.5, s), &cfg())
    }));
    out.push(("multilevel", run_m_ary(4, 3, 0.4)));
    out.push(("multilevel_8x2", run_m_ary(8, 2, 0.6)));
    out.push(("multilevel_4x4", run_m_ary(4, 4, 0.3)));
    out.push(("multilevel_6x3", run_m_ary(6, 3, 0.5)));
    out.push(("multilevel_8x1", run_m_ary(8, 1, 0.5)));
    out.push(("multilevel_16x2_saturated", run_m_ary(16, 2, 0.9)));
    out.into_iter().map(|(n, r)| (n, r.fingerprint())).collect()
}

/// Fingerprints captured on the commit preceding the static-analysis
/// refactor. The HashMap→BTreeMap conversions and the unwrap burn-down
/// must not perturb a single bit of any report. The five
/// `multilevel_<radix>x<levels>` rows were captured from the dense
/// multilevel simulator on the commit before it was deleted (single
/// switch up to a saturated radix-16 fabric).
const PINS: &[(&str, u64)] = &[
    ("voq", 0xbcfe_ba06_2d0e_ba76),
    ("fifo", 0xda3c_b239_af7b_f740),
    ("oq", 0x8d41_1187_2c49_8762),
    ("bvn", 0x316f_0339_2850_4561),
    ("burst", 0x0426_93ee_8fda_1e8d),
    ("deflection", 0x7c6a_2fd4_bd22_a98c),
    ("cioq", 0x8b8d_a37f_b734_d1f3),
    ("remote_sched", 0x8b25_4860_27ab_953e),
    ("multicast", 0x9cbd_4359_dfb6_1abf),
    ("multistage", 0x7cdd_391d_75c3_0074),
    ("multilevel", 0x18ca_f1b3_5fc3_e739),
    ("multilevel_8x2", 0xb179_7b39_98ae_7b41),
    ("multilevel_4x4", 0x6492_29da_e548_f01e),
    ("multilevel_6x3", 0xa6f7_e72f_ece7_4f71),
    ("multilevel_8x1", 0xb28a_8e52_b4fd_779c),
    ("multilevel_16x2_saturated", 0x1189_2ea4_8b6a_dd04),
];

#[test]
fn fingerprints_match_pre_refactor_pins() {
    let got = capture();
    assert_eq!(got.len(), PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// Structural fingerprints of the topology compiler's expansions,
/// captured when the compiler landed (PR 6). The §V two-level pin was
/// first taken from the hand-built 2048-port fabric: the declarative
/// spec reproduces it exactly.
const EXPANSION_PINS: &[(&str, u64)] = &[
    ("fat-tree:radix=64,levels=2,planes=2", 0xbe1a_8a40_048e_3cf4),
    ("dragonfly:radix=8,groups=4", 0xe28a_f9f4_81c0_596d),
    ("full-mesh:radix=8,switches=5", 0x649e_aa38_4a0c_285c),
];

#[test]
fn expansion_fingerprints_match_pins() {
    use osmosis::fabric::expand::ExpandedFabric;
    use osmosis::fabric::spec::TopologySpec;

    for (text, pin) in EXPANSION_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let fp = ExpandedFabric::expand(spec)
            .unwrap()
            .structural_fingerprint();
        assert_eq!(
            fp, *pin,
            "{text}: structural fingerprint {fp:#018x} drifted from {pin:#018x}"
        );
    }
    // The request/grant delay is timing, not wiring: the simulator at
    // `rg=1` runs on the pinned 2048-port expansion, bit for bit.
    let fab = CompiledFabric::new(paper_tree(64, 2));
    assert_eq!(
        fab.expanded().structural_fingerprint(),
        EXPANSION_PINS[0].1,
        "the §V fabric's expansion drifted from its pin"
    );
}

/// The OCS mode hook is zero-cost: running packet simulators through
/// the circuit-switched entry point with the null circuit plane must
/// reproduce the pre-OCS pins bit for bit — the plane is dropped before
/// the slot loop ever sees it.
#[test]
fn null_circuit_plane_reproduces_pins() {
    use osmosis::sched::CellScheduler;
    use osmosis::sim::NullCircuits;
    use osmosis::switch::{run_switch_circuit, VoqSwitch};

    let s = 1234u64;
    let pin = |name: &str| {
        PINS.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, fp)| fp)
            .expect("pinned simulator")
    };
    {
        let sched: Box<dyn CellScheduler> = Box::new(Flppr::osmosis(16, 2));
        let mut sw = VoqSwitch::new(sched);
        let cfg = cfg().with_seed(s);
        let mut tr = uniform(16, 0.7, cfg.seed);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg, &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("voq"), "voq drifted under the hook");
    }
    {
        let mut sw = FifoSwitch::new(16);
        let mut tr = uniform(16, 0.5, s);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("fifo"), "fifo drifted under the hook");
    }
    {
        let mut sw = BvnSwitch::new(16);
        let mut tr = uniform(16, 0.6, s);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("bvn"), "bvn drifted under the hook");
    }
}

/// Engine-report fingerprints of the compiled simulator over the two
/// non-fat-tree families, pinning routing and flow control end to end.
const COMPILED_PINS: &[(&str, u64)] = &[
    ("dragonfly:radix=8,groups=4", 0x30d9_f2a1_3616_bb8b),
    ("full-mesh:radix=8,switches=5", 0x4209_01b9_e65a_9686),
];

#[test]
fn compiled_family_fingerprints_match_pins() {
    use osmosis::fabric::expand::ExpandedFabric;
    use osmosis::fabric::spec::TopologySpec;
    use osmosis::fabric::CompiledFabric;

    for (text, pin) in COMPILED_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let fab = ExpandedFabric::expand(spec).unwrap();
        let hosts = fab.hosts.len();
        let mut sim = CompiledFabric::over(fab);
        let r = sim.run(&mut uniform(hosts, 0.4, 1234), &cfg());
        assert_eq!(
            r.fingerprint(),
            *pin,
            "{text}: report fingerprint {:#018x} drifted from {pin:#018x}",
            r.fingerprint()
        );
    }
}

/// Pins over the corners the two tables above leave out: radix > 64
/// (request masks wider than one word), a 9-group dragonfly, and an
/// engine-level `buffer_cells` override (credit loops re-armed in
/// `configure`). All at
/// `BernoulliUniform` seed 99 over 50 + 400 slots; captured on the
/// commit before `CompiledFabric` moved to flat per-port tables.
const COMPILED_LAYOUT_PINS: &[(&str, f64, Option<usize>, u64)] = &[
    (
        "full-mesh:radix=70,switches=8",
        0.5,
        None,
        0x865c_1548_1cc3_c1d1,
    ),
    (
        "fat-tree:radix=68,levels=2,planes=2",
        0.6,
        None,
        0xdc6a_962f_713c_d7b2,
    ),
    (
        "dragonfly:radix=16,groups=9",
        0.3,
        None,
        0x76f2_e8d6_179f_cbe1,
    ),
    (
        "fat-tree:radix=8,levels=3,planes=2",
        0.8,
        Some(1),
        0xec3e_8211_fdbf_5e16,
    ),
    (
        "fat-tree:radix=8,levels=3,planes=2",
        0.8,
        Some(40),
        0x09b7_201b_4d1b_622f,
    ),
];

#[test]
fn compiled_layout_fingerprints_match_pins() {
    for &(text, load, buffer_cells, pin) in COMPILED_LAYOUT_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let mut sim = CompiledFabric::new(spec);
        let mut cfg = EngineConfig::new(50, 400);
        cfg.buffer_cells = buffer_cells;
        let r = sim.run(&mut uniform(spec.hosts() as usize, load, 99), &cfg);
        assert_eq!(
            r.fingerprint(),
            pin,
            "{text} load {load} buffer {buffer_cells:?}: report fingerprint {:#018x} \
             drifted from {pin:#018x}",
            r.fingerprint()
        );
    }
}

/// `CompiledFabric` at link delays other than the default 2: delay 1 is
/// the shortest flight a spec may ask for, delay 5 a long one, each under
/// smooth and bursty (mean burst 8) traffic at load 0.6, seed 77 over
/// 50 + 400 slots. (spec, bursty, `buffer_cells` override, fingerprint);
/// captured on the commit before the flight queues became slot-indexed
/// wheels, whose bucket arithmetic is a function of the delay.
const COMPILED_DELAY_PINS: &[(&str, bool, Option<usize>, u64)] = &[
    (
        "fat-tree:radix=8,levels=3,planes=2,delay=1",
        false,
        None,
        0x627f_5fb2_4d09_8f2a,
    ),
    (
        "fat-tree:radix=8,levels=3,planes=2,delay=1",
        true,
        Some(3),
        0xeb6a_eba0_13f6_21c8,
    ),
    (
        "fat-tree:radix=8,levels=3,planes=2,delay=5",
        false,
        None,
        0x4da0_fb9f_0480_9030,
    ),
    (
        "fat-tree:radix=8,levels=3,planes=2,delay=5",
        true,
        None,
        0x554e_249d_5abb_13b9,
    ),
    (
        "dragonfly:radix=8,groups=4,delay=1",
        false,
        None,
        0x6318_3cd8_4b84_f327,
    ),
    (
        "dragonfly:radix=8,groups=4,delay=1",
        true,
        None,
        0x0b0e_1c83_79bc_2d28,
    ),
    (
        "dragonfly:radix=8,groups=4,delay=5",
        false,
        None,
        0x9b90_2d9f_1802_8305,
    ),
    (
        "dragonfly:radix=8,groups=4,delay=5",
        true,
        None,
        0x190d_73d3_eee1_9bec,
    ),
];

#[test]
fn compiled_link_delay_fingerprints_match_pins() {
    use osmosis::traffic::{Bursty, TrafficGen};

    for &(text, bursty, buffer_cells, pin) in COMPILED_DELAY_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let hosts = spec.hosts() as usize;
        let mut tr: Box<dyn TrafficGen> = if bursty {
            Box::new(Bursty::new(hosts, 0.6, 8.0, &SeedSequence::new(77)))
        } else {
            Box::new(uniform(hosts, 0.6, 77))
        };
        let mut cfg = EngineConfig::new(50, 400);
        cfg.buffer_cells = buffer_cells;
        let r = CompiledFabric::new(spec).run(tr.as_mut(), &cfg);
        assert_eq!(
            r.fingerprint(),
            pin,
            "{text} bursty {bursty} buffer {buffer_cells:?}: report fingerprint {:#018x} \
             drifted from {pin:#018x}",
            r.fingerprint()
        );
    }
}

/// The *order* of `CompiledFabric`'s observer calls, which no report
/// fingerprint sees: every trace event of a short dragonfly run at link
/// delay 1 — injections, deliveries, credit stalls, each with its slot —
/// folded in emission order into one FNV-1a digest. Captured on the
/// commit before the ordering check was hoisted out of the delivery
/// loop.
#[test]
fn compiled_trace_event_order_matches_pin() {
    use osmosis::sim::{TraceEvent, VecTrace};
    use osmosis::switch::run_switch_traced;

    let spec: TopologySpec = "dragonfly:radix=8,groups=4,delay=1".parse().unwrap();
    let mut sim = CompiledFabric::new(spec);
    let mut tr = uniform(spec.hosts() as usize, 0.7, 31);
    let mut sink = VecTrace::default();
    let cfg = EngineConfig::new(20, 200);
    let r = run_switch_traced(&mut sim, &mut tr, &cfg, &mut sink);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let (mut delivers, mut stalls) = (0u64, 0u64);
    for &(slot, event) in &sink.events {
        fold(slot);
        match event {
            TraceEvent::Inject { src, dst } => [1, src as u64, dst as u64],
            TraceEvent::Deliver {
                output,
                delay_slots,
            } => {
                delivers += 1;
                [2, output as u64, delay_slots]
            }
            TraceEvent::CreditStall { node, port } => {
                stalls += 1;
                [3, node as u64, port as u64]
            }
            other => panic!("CompiledFabric emitted {other:?}"),
        }
        .into_iter()
        .for_each(&mut fold);
    }
    assert!(
        delivers > 2_000 && stalls > 0,
        "{delivers} deliveries, {stalls} stalls: the run must exercise both"
    );
    assert_eq!(
        (digest, r.fingerprint()),
        (0x018f_9820_6205_b10a, 0x07ee_ebf7_c23b_87da),
        "event-order digest {digest:#018x}, report fingerprint {:#018x}",
        r.fingerprint()
    );
}

/// The two-level fabric over the corners the `multistage` row and
/// `fdl_pins.rs` leave out: the two other placements, an engine-level
/// `buffer_cells` override at the campaign's radix, masks wider than
/// one word, and one run under each fault reaction. Captured on the
/// commit before the simulator moved onto the expansion's port tables
/// and the shared matching kernel.
fn fat_tree_corner_fingerprints() -> Vec<(&'static str, u64)> {
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
    use osmosis::switch::run_switch_instrumented;

    let run = |spec: TopologySpec, load: f64, cfg: EngineConfig, plan: Option<FaultPlan>| {
        let mut fab = CompiledFabric::new(spec);
        let mut tr = uniform(spec.hosts() as usize, load, 1234);
        let report = match plan {
            None => fab.run(&mut tr, &cfg),
            Some(plan) => run_switch_instrumented(
                &mut fab,
                &mut tr,
                &cfg,
                Some(&mut FaultInjector::new(plan)),
                None,
            ),
        };
        report.fingerprint()
    };
    let small = paper_tree(8, 2);
    let placed = |placement| small.with_placement(placement);
    let ber = FaultKind::LinkBerBurst {
        link: LINK_ANY,
        cell_error_prob: 0.05,
    };
    vec![
        (
            "input_and_output",
            run(placed(Placement::InputAndOutput), 0.6, cfg(), None),
        ),
        (
            "output_only",
            run(placed(Placement::OutputOnly), 0.6, cfg(), None),
        ),
        (
            "radix16_buffer3",
            run(paper_tree(16, 2), 0.7, cfg().with_buffer_cells(3), None),
        ),
        (
            "radix66",
            run(paper_tree(66, 2), 0.3, EngineConfig::new(20, 100), None),
        ),
        (
            "wavelength_loss_repaired",
            run(
                small,
                0.6,
                cfg(),
                Some(FaultPlan::new().one_shot(
                    FaultKind::WavelengthLoss { plane: 1 },
                    800,
                    Some(900),
                )),
            ),
        ),
        (
            "link_ber_burst",
            run(small, 0.4, cfg(), Some(FaultPlan::new().permanent(ber, 0))),
        ),
        (
            "credit_drop",
            run(
                small,
                0.5,
                cfg(),
                Some(FaultPlan::new().one_shot(
                    FaultKind::CreditDrop { prob: 0.3 },
                    500,
                    Some(1_500),
                )),
            ),
        ),
    ]
}

const FAT_TREE_CORNER_PINS: &[(&str, u64)] = &[
    ("input_and_output", 0xf560_f9b4_bd0b_92ad),
    ("output_only", 0x00d0_4bf5_549d_3fc0),
    ("radix16_buffer3", 0xbb6c_960e_c550_6ec4),
    ("radix66", 0x23ff_1967_5235_cfb4),
    ("wavelength_loss_repaired", 0xa3d8_e4b6_fa29_990e),
    ("link_ber_burst", 0xb46b_b874_5acb_c29a),
    ("credit_drop", 0xaeaf_f48e_1769_2a33),
];

#[test]
fn fat_tree_corner_fingerprints_match_pins() {
    let got = fat_tree_corner_fingerprints();
    assert_eq!(got.len(), FAT_TREE_CORNER_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(FAT_TREE_CORNER_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// The electronic buffer plane where the rows above do not reach: the
/// campaign's `two_level(16)` fabric under bursty traffic — deep,
/// unevenly filled VOQs — at each placement (option 2 stores cells that
/// become schedulable at `t + 1 + 2d`, option 1 drains through the
/// egress stage), and the same fabric with a wavelength plane that
/// fails and heals stochastically. Captured on the commit before the
/// electronic buffers moved to one arrival-ordered buffer per input.
fn electronic_plane_fingerprints() -> Vec<(&'static str, u64)> {
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
    use osmosis::switch::run_switch_instrumented;
    use osmosis::traffic::Bursty;

    let run = |placement: Placement, load: f64, burst: f64, plan: Option<FaultPlan>| {
        let spec = paper_tree(16, 2).with_placement(placement);
        let mut fab = CompiledFabric::new(spec);
        let hosts = spec.hosts() as usize;
        let mut tr = Bursty::new(hosts, load, burst, &SeedSequence::new(1234));
        let report = match plan {
            None => fab.run(&mut tr, &cfg()),
            Some(plan) => run_switch_instrumented(
                &mut fab,
                &mut tr,
                &cfg(),
                Some(&mut FaultInjector::new(plan)),
                None,
            ),
        };
        report.fingerprint()
    };
    let plane0 = FaultKind::WavelengthLoss { plane: 0 };
    vec![
        ("radix16_bursty", run(Placement::InputOnly, 0.7, 4.0, None)),
        (
            "radix16_bursty_input_and_output",
            run(Placement::InputAndOutput, 0.7, 4.0, None),
        ),
        (
            "radix16_bursty_output_only",
            run(Placement::OutputOnly, 0.7, 4.0, None),
        ),
        (
            "radix16_long_bursts_output_only",
            run(Placement::OutputOnly, 0.9, 16.0, None),
        ),
        (
            "radix16_bursty_stochastic_plane_loss",
            run(
                Placement::InputOnly,
                0.7,
                4.0,
                Some(FaultPlan::new().stochastic(plane0, 400.0, 100.0)),
            ),
        ),
    ]
}

const ELECTRONIC_PLANE_PINS: &[(&str, u64)] = &[
    ("radix16_bursty", 0xedef_4c03_17e0_74b3),
    ("radix16_bursty_input_and_output", 0xe73f_037b_922b_6e41),
    ("radix16_bursty_output_only", 0xd8dc_9490_e958_212c),
    ("radix16_long_bursts_output_only", 0xc8e5_183c_17a7_ec65),
    (
        "radix16_bursty_stochastic_plane_loss",
        0x20dd_7db6_320a_4814,
    ),
];

#[test]
fn electronic_plane_fingerprints_match_pins() {
    let got = electronic_plane_fingerprints();
    assert_eq!(got.len(), ELECTRONIC_PLANE_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(ELECTRONIC_PLANE_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// The full audit battery in fail-fast mode over the two pinned
/// two-level runs (electronic here, FDL in `fdl_pins.rs`): every
/// per-slot credit and delay-line ledger balances, and attaching the
/// auditors leaves the pinned fingerprint untouched.
#[test]
fn audited_fat_tree_runs_are_clean_and_reproduce_the_pins() {
    use osmosis::switch::run_switch_instrumented;
    use osmosis_audit::{AuditMode, AuditSet};

    const FDL_PIN: u64 = 0x06ed_5ef1_a1c8_5de3;
    let electronic_pin = PINS[9];
    assert_eq!(electronic_pin.0, "multistage");
    for (buffer_tech, pin) in [
        (BufferTech::Electronic, electronic_pin.1),
        (BufferTech::Fdl, FDL_PIN),
    ] {
        let mut fab = CompiledFabric::new(paper_tree(8, 2))
            .with_buffer_tech(buffer_tech)
            .expect("input-only placement at rg=1");
        let mut tr = uniform(32, 0.5, 1234);
        let mut set = AuditSet::standard(AuditMode::FailFast);
        let r = run_switch_instrumented(&mut fab, &mut tr, &cfg(), None, Some(&mut set));
        assert_eq!(
            set.total_violations(),
            0,
            "{buffer_tech:?}: {}",
            set.report()
        );
        assert_eq!(
            r.fingerprint(),
            pin,
            "{buffer_tech:?}: audited fingerprint {:#018x} drifted from {pin:#018x}",
            r.fingerprint()
        );
    }
}

/// The fabric behind the rows below: [`paper_tree`] at a placement.
fn two_level_tree(radix: usize, link_delay: u64, placement: Placement) -> CompiledFabric {
    CompiledFabric::new(paper_tree(radix, link_delay).with_placement(placement))
}

/// A wavelength plane that fails and is repaired, a permanent low
/// bit-error burst on every link and a window of dropped credits: the
/// three fault reactions in one run.
fn three_fault_plan() -> osmosis::faults::FaultPlan {
    use osmosis::faults::{FaultKind, FaultPlan, LINK_ANY};
    let ber = FaultKind::LinkBerBurst {
        link: LINK_ANY,
        cell_error_prob: 0.03,
    };
    FaultPlan::new()
        .one_shot(FaultKind::WavelengthLoss { plane: 1 }, 600, Some(700))
        .permanent(ber, 0)
        .one_shot(FaultKind::CreditDrop { prob: 0.2 }, 400, Some(1_500))
}

/// The two-level fabric where no row above reaches: placements 1 and 2
/// under bursty traffic at the shortest link a spec may ask for and at a
/// long one (option 2's control round trip is `2d`, so its schedulability
/// delay moves with the link), a `buffer_cells` override under option 1,
/// and the three fault reactions at once on option 1, whose credit check
/// sits at the egress queue. Radix 8, seed 1234, 300 + 3 000 slots.
/// Captured from `FatTreeFabric` on the commit before it was folded into
/// `CompiledFabric`.
fn fold_corner_fingerprints() -> Vec<(&'static str, u64)> {
    use osmosis::fabric::Placement::{InputAndOutput, OutputOnly};
    use osmosis::faults::FaultInjector;
    use osmosis::switch::{run_switch_instrumented, CellSwitch};
    use osmosis::traffic::Bursty;

    let bursty = |placement: Placement, link_delay: u64| {
        let mut fab = two_level_tree(8, link_delay, placement);
        let mut tr = Bursty::new(fab.ports(), 0.7, 4.0, &SeedSequence::new(1234));
        fab.run(&mut tr, &cfg()).fingerprint()
    };
    vec![
        ("option1_delay1_bursty", bursty(InputAndOutput, 1)),
        ("option1_delay5_bursty", bursty(InputAndOutput, 5)),
        ("option2_delay1_bursty", bursty(OutputOnly, 1)),
        ("option2_delay5_bursty", bursty(OutputOnly, 5)),
        ("option1_delay5_buffer3", {
            let mut fab = two_level_tree(8, 5, InputAndOutput);
            let mut tr = uniform(fab.ports(), 0.8, 1234);
            fab.run(&mut tr, &cfg().with_buffer_cells(3)).fingerprint()
        }),
        ("option2_delay1_uniform", {
            let mut fab = two_level_tree(8, 1, OutputOnly);
            let mut tr = uniform(fab.ports(), 0.6, 1234);
            fab.run(&mut tr, &cfg()).fingerprint()
        }),
        ("option1_three_faults", {
            let mut fab = two_level_tree(8, 2, InputAndOutput);
            let mut tr = uniform(fab.ports(), 0.5, 1234);
            let mut inj = FaultInjector::new(three_fault_plan());
            run_switch_instrumented(&mut fab, &mut tr, &cfg(), Some(&mut inj), None).fingerprint()
        }),
    ]
}

const FOLD_CORNER_PINS: &[(&str, u64)] = &[
    ("option1_delay1_bursty", 0xef17_3f2e_6608_fd33),
    ("option1_delay5_bursty", 0xa4ef_d86b_64cc_8f2d),
    ("option2_delay1_bursty", 0x6c66_91c7_05be_71bd),
    ("option2_delay5_bursty", 0xe12b_29c3_a729_df3c),
    ("option1_delay5_buffer3", 0x9661_be78_0211_ebb9),
    ("option2_delay1_uniform", 0x5dd1_2d42_481b_fdfd),
    ("option1_three_faults", 0x48e3_ffdd_8adf_8471),
];

#[test]
fn fold_corner_fingerprints_match_pins() {
    let got = fold_corner_fingerprints();
    assert_eq!(got.len(), FOLD_CORNER_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(FOLD_CORNER_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// The three fault reactions under the full audit battery on option 1:
/// the credit ledgers balance every slot with the check at the egress
/// queue, and the auditors leave the `option1_three_faults` pin alone.
#[test]
fn audited_option1_fault_run_is_clean_and_reproduces_the_pin() {
    use osmosis::faults::FaultInjector;
    use osmosis::switch::{run_switch_instrumented, CellSwitch};
    use osmosis_audit::{AuditMode, AuditSet};

    let mut fab = two_level_tree(8, 2, Placement::InputAndOutput);
    let mut tr = uniform(fab.ports(), 0.5, 1234);
    let mut inj = FaultInjector::new(three_fault_plan());
    let mut set = AuditSet::standard(AuditMode::FailFast);
    let r = run_switch_instrumented(&mut fab, &mut tr, &cfg(), Some(&mut inj), Some(&mut set));
    assert_eq!(set.total_violations(), 0, "{}", set.report());
    let (name, pin) = FOLD_CORNER_PINS[6];
    assert_eq!(name, "option1_three_faults");
    assert_eq!(
        r.fingerprint(),
        pin,
        "audited fingerprint {:#018x} drifted from {pin:#018x}",
        r.fingerprint()
    );
}

/// The order of the electronic fabric's observer calls under the three
/// fault reactions (option 3, radix 8, load 0.15, seed 31, 20 + 600
/// slots): injections, deliveries, credit stalls and retransmissions in
/// emission order. Captured from `FatTreeFabric` on the commit before
/// the fold.
#[test]
fn fat_tree_trace_event_order_matches_pin() {
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
    use osmosis::sim::Engine;
    use osmosis::sim::VecTrace;
    use osmosis::switch::{CellSwitch, Driven};

    let ber = FaultKind::LinkBerBurst {
        link: LINK_ANY,
        cell_error_prob: 0.03,
    };
    let plan = FaultPlan::new()
        .one_shot(FaultKind::WavelengthLoss { plane: 1 }, 100, Some(120))
        .one_shot(ber, 200, Some(100))
        .one_shot(FaultKind::CreditDrop { prob: 0.3 }, 50, Some(400));
    let mut fab = two_level_tree(8, 2, Placement::InputOnly);
    let mut tr = uniform(fab.ports(), 0.15, 31);
    let mut sink = VecTrace::default();
    let cfg = EngineConfig::new(20, 600);
    let mut inj = FaultInjector::new(plan);
    let r = Engine::new(&cfg)
        .trace(&mut sink)
        .faults(Some(&mut inj))
        .run(&mut Driven::new(&mut fab, &mut tr));
    let retransmits = r.extra(Extra::FaultRetransmits).unwrap_or(0.0);
    assert!(
        retransmits > 50.0 && r.extra(Extra::FaultCreditsDropped).unwrap_or(0.0) > 50.0,
        "the run must exercise the reactions it pins: {:?}",
        r.extra
    );
    let digest = common::trace_digest(sink.events.iter());
    assert_eq!(
        (sink.events.len(), digest, r.fingerprint()),
        (40_428, 0xd348_6167_1b72_3805, 0x0778_f610_b648_de3e),
        "{} events, event-order digest {digest:#018x}, report fingerprint {:#018x}",
        sink.events.len(),
        r.fingerprint()
    );
}

/// `Islip`, `CioqSwitch` and `BurstSwitch` over the shapes the `cioq`
/// and `burst` rows leave out: single and dual receivers, one to
/// log₂N iterations, speed-up 1…4, odd radices and masks wider than
/// one word. Captured on the commit before the three moved onto the
/// shared grant/accept round.
fn round_robin_fingerprints() -> Vec<(&'static str, u64)> {
    let islip = |make: fn() -> Islip, load: f64| {
        let cfg = EngineConfig::new(500, 5_000).with_seed(1234);
        run_uniform(|| Box::new(make()), load, &cfg).fingerprint()
    };
    let cfg = EngineConfig::new(200, 3_000);
    let cioq = |n: usize, speedup: usize, egress_cap: usize, load: f64| {
        CioqSwitch::new(n, speedup, egress_cap)
            .run(&mut uniform(n, load, 77), &cfg)
            .fingerprint()
    };
    let burst = |n: usize, burst: u64, timeout: u64, load: f64| {
        BurstSwitch::new(n, burst, timeout)
            .run(&mut uniform(n, load, 79), &cfg)
            .fingerprint()
    };
    vec![
        ("islip_16_log2n_rx1", islip(|| Islip::log2n(16, 1), 0.8)),
        ("islip_16_log2n_rx2", islip(|| Islip::log2n(16, 2), 0.9)),
        ("islip_16_iter1", islip(|| Islip::new(16, 1, 1), 0.6)),
        ("islip_70_log2n_rx2", islip(|| Islip::log2n(70, 2), 0.85)),
        ("islip_5_iter3_rx2", islip(|| Islip::new(5, 3, 2), 0.95)),
        ("cioq_16_s1_cap1", cioq(16, 1, 1, 0.9)),
        ("cioq_16_s3_cap2", cioq(16, 3, 2, 0.95)),
        ("cioq_5_s2_cap1", cioq(5, 2, 1, 0.7)),
        ("cioq_70_s2_cap4", cioq(70, 2, 4, 0.9)),
        ("cioq_65_s4_cap2", cioq(65, 4, 2, 0.99)),
        ("burst_16_b1_t0", burst(16, 1, 0, 0.9)),
        ("burst_16_b4_t100", burst(16, 4, 100, 0.3)),
        ("burst_5_b3_t2", burst(5, 3, 2, 0.8)),
        ("burst_70_b8_t16", burst(70, 8, 16, 0.85)),
        ("burst_130_b2_t1", burst(130, 2, 1, 0.7)),
    ]
}

const ROUND_ROBIN_PINS: &[(&str, u64)] = &[
    ("islip_16_log2n_rx1", 0x6401_1171_f031_d615),
    ("islip_16_log2n_rx2", 0xcab0_f98c_fbb5_a374),
    ("islip_16_iter1", 0xbbc2_3601_c5e6_3a24),
    ("islip_70_log2n_rx2", 0xc5e3_b12e_3b9c_1c5b),
    ("islip_5_iter3_rx2", 0x89fe_f157_5eb8_193b),
    ("cioq_16_s1_cap1", 0x9bf9_57ee_041a_b0b4),
    ("cioq_16_s3_cap2", 0xef50_08df_c639_1711),
    ("cioq_5_s2_cap1", 0xc488_135b_961e_d070),
    ("cioq_70_s2_cap4", 0xb4a4_47ce_b689_9307),
    ("cioq_65_s4_cap2", 0x26ab_be32_6178_272e),
    ("burst_16_b1_t0", 0xd089_7a97_39e3_fbaa),
    ("burst_16_b4_t100", 0x9e3e_1031_2988_496a),
    ("burst_5_b3_t2", 0x5957_7413_46f9_ad52),
    ("burst_70_b8_t16", 0x29db_8f55_ae44_7a75),
    ("burst_130_b2_t1", 0x042a_e953_f7e8_d377),
];

#[test]
fn round_robin_fingerprints_match_pins() {
    let got = round_robin_fingerprints();
    assert_eq!(got.len(), ROUND_ROBIN_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(ROUND_ROBIN_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// `Flppr` and `PipelinedArbiter` at the demonstrator's 64 ports and
/// over the shapes the `voq` and `remote_sched` rows leave out: rows
/// wider than one word (70 and 130 ports), an odd radix, depths 1, 3 and
/// log₂N, single and dual receivers, saturation down to load 0.1 — plus
/// two faulted runs whose receiver deaths drive the capacity-masking
/// un-match. Captured on the commit before `SubScheduler` became word
/// tables over borrowed counts.
fn flppr_and_pipelined_fingerprints() -> Vec<(&'static str, u64)> {
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
    use osmosis::sched::{CellScheduler, PipelinedArbiter};
    use osmosis::switch::{run_switch_instrumented, VoqSwitch};

    let cfg = EngineConfig::new(500, 5_000).with_seed(1234);
    let plain = |make: fn() -> Box<dyn CellScheduler>, load: f64| {
        run_uniform(make, load, &cfg).fingerprint()
    };
    let faulted = |n: usize| {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::ReceiverDeath { output: 3 }, 700, Some(1_500))
            .one_shot(FaultKind::SoaStuckOff { output: n - 1 }, 1_200, Some(800))
            .periodic(FaultKind::GrantLoss { prob: 0.1 }, 300, 1_100, 250);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(n, 2)));
        let mut inj = FaultInjector::new(plan);
        run_switch_instrumented(
            &mut sw,
            &mut uniform(n, 0.8, 1234),
            &cfg,
            Some(&mut inj),
            None,
        )
        .fingerprint()
    };
    vec![
        (
            "flppr_64_rx2_sat",
            plain(|| Box::new(Flppr::osmosis(64, 2)), 0.95),
        ),
        (
            "flppr_64_rx1",
            plain(|| Box::new(Flppr::osmosis(64, 1)), 0.9),
        ),
        (
            "flppr_64_rx2_light",
            plain(|| Box::new(Flppr::osmosis(64, 2)), 0.1),
        ),
        (
            "flppr_70_rx2",
            plain(|| Box::new(Flppr::osmosis(70, 2)), 0.85),
        ),
        (
            "flppr_130_depth3_rx1",
            plain(|| Box::new(Flppr::new(130, 3, 1)), 0.8),
        ),
        (
            "flppr_5_depth3_rx2",
            plain(|| Box::new(Flppr::new(5, 3, 2)), 0.95),
        ),
        (
            "flppr_16_depth1_rx1",
            plain(|| Box::new(Flppr::new(16, 1, 1)), 0.7),
        ),
        (
            "pipelined_16_rx1",
            plain(|| Box::new(PipelinedArbiter::log2n(16, 1)), 0.7),
        ),
        (
            "pipelined_64_rx2",
            plain(|| Box::new(PipelinedArbiter::log2n(64, 2)), 0.9),
        ),
        (
            "pipelined_70_rx2",
            plain(|| Box::new(PipelinedArbiter::log2n(70, 2)), 0.85),
        ),
        ("flppr_64_rx2_faulted", faulted(64)),
        ("flppr_70_rx2_faulted", faulted(70)),
    ]
}

const FLPPR_AND_PIPELINED_PINS: &[(&str, u64)] = &[
    ("flppr_64_rx2_sat", 0xdcb2_31ae_7631_1ccd),
    ("flppr_64_rx1", 0xc87d_4f17_f8ef_ec6b),
    ("flppr_64_rx2_light", 0xf12e_c0a4_2827_2f2f),
    ("flppr_70_rx2", 0xd7c9_ea29_ae09_0daa),
    ("flppr_130_depth3_rx1", 0xf73b_0bf3_3b2c_0def),
    ("flppr_5_depth3_rx2", 0xdd2e_e538_2f54_0ee0),
    ("flppr_16_depth1_rx1", 0x4c69_04d0_1c37_5497),
    ("pipelined_16_rx1", 0x76af_74a8_aec6_3bbc),
    ("pipelined_64_rx2", 0xa4be_2263_852d_a070),
    ("pipelined_70_rx2", 0x8ed2_8f0d_4e12_0b4f),
    ("flppr_64_rx2_faulted", 0xbe82_5bb4_9b7e_900b),
    ("flppr_70_rx2_faulted", 0xb37f_8838_d26b_a9eb),
];

#[test]
fn flppr_and_pipelined_fingerprints_match_pins() {
    let got = flppr_and_pipelined_fingerprints();
    assert_eq!(got.len(), FLPPR_AND_PIPELINED_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(FLPPR_AND_PIPELINED_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}
