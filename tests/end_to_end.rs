//! Cross-crate integration tests: the full OSMOSIS stack exercised
//! through the umbrella crate's public API.

use osmosis::core::{Demonstrator, OsmosisFabricConfig, Scale};
use osmosis::fec::{decode_payload, encode_payload, BitErrorChannel, OsmosisCode};
use osmosis::sched::Flppr;
use osmosis::sim::SeedSequence;
use osmosis::switch::EngineConfig;
use osmosis::traffic::{BernoulliUniform, Bimodal};

/// A cell's payload surviving the full FEC + noisy-channel + decode path
/// while the switch moves it: the datapath and control path composed.
#[test]
fn cell_payload_survives_the_phy_while_the_switch_routes() {
    let d = Demonstrator::new();
    let code = OsmosisCode::new();
    let mut channel = BitErrorChannel::new(1e-5, 99);

    // Run the switch to get a delivery schedule.
    let mut tr = BernoulliUniform::new(d.config.ports, 0.6, &SeedSequence::new(5));
    let report = d.run(
        Box::new(d.scheduler()),
        &mut tr,
        &EngineConfig::new(200, 2_000),
    );
    assert_eq!(report.dropped, 0);
    assert_eq!(report.reordered, 0);

    // Every delivered cell's 256-byte payload crosses the optical channel
    // coded; at raw 1e-5 some blocks need correction, none may corrupt.
    let mut corrected_cells = 0;
    for i in 0..500u32 {
        let payload: Vec<u8> = (0..256u32).map(|b| (b * 31 + i) as u8).collect();
        let mut coded = encode_payload(&code, &payload);
        channel.transmit(&mut coded);
        let out = decode_payload(&code, &coded);
        if out.detected_blocks > 0 {
            // Would be retransmitted on the real link; skip content check.
            continue;
        }
        assert_eq!(&out.data[..256], &payload[..], "cell {i} corrupted");
        if out.corrected_blocks > 0 {
            corrected_cells += 1;
        }
    }
    assert!(
        corrected_cells > 0,
        "the channel must have exercised the FEC"
    );
}

#[test]
fn demonstrator_meets_table1_at_quick_scale() {
    let rows = osmosis::core::experiments::table1::run(Scale::Quick, 0xE2E);
    assert!(rows.iter().all(|r| r.pass), "{rows:#?}");
}

#[test]
fn fabric_carries_bimodal_traffic_in_order() {
    // The paper's traffic assumption: long data messages + short control
    // packets, through the multistage fabric.
    // Bursty data keeps whole flows pinned to one destination for many
    // cells, so the operating point must sit below the burst-induced
    // saturation knee.
    let f = OsmosisFabricConfig::sim_sized(8);
    let mut tr = Bimodal::new(f.ports(), 0.35, 8.0, 0.05, &SeedSequence::new(11));
    let r = f.run(&mut tr, &EngineConfig::new(1_000, 10_000));
    assert_eq!(r.reordered, 0);
    assert!(
        (r.throughput - r.offered_load).abs() < 0.04,
        "thr {} vs offered {}",
        r.throughput,
        r.offered_load
    );
}

#[test]
fn single_stage_vs_fabric_latency_hierarchy() {
    // A cell through one switch must be faster than through the 3-stage
    // fabric; both must be far below the 2-RTT single-stage-central
    // design at machine-room scale.
    let d = Demonstrator::new();
    let mut tr = BernoulliUniform::new(16, 0.1, &SeedSequence::new(13));
    let one_stage = osmosis::switch::VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)))
        .run(&mut tr, &EngineConfig::new(300, 3_000));

    let f = OsmosisFabricConfig::sim_sized(8);
    let mut tr = BernoulliUniform::new(f.ports(), 0.1, &SeedSequence::new(13));
    let fabric = f.run(&mut tr, &EngineConfig::new(300, 3_000));

    let pts = osmosis::core::experiments::fig1::run(&[50.0], 16, 13);
    let central_ns = pts[0].simulated_ns;

    let one_ns = d.slots_to_ns(one_stage.mean_delay);
    let fabric_ns = d.slots_to_ns(fabric.mean_delay);
    assert!(one_ns < fabric_ns, "{one_ns} vs {fabric_ns}");
    assert!(
        fabric_ns < central_ns,
        "multistage {fabric_ns} ns must beat the 2-RTT central design {central_ns} ns"
    );
}

#[test]
fn effective_bandwidth_composes_guard_and_fec() {
    // The 75% number must be consistent between the phy model and the
    // FEC crate's overhead constant.
    let d = Demonstrator::new();
    let guard_tax = d.efficiency.line_fraction();
    let fec_tax = 1.0 / (1.0 + osmosis::fec::code::OVERHEAD);
    assert!((guard_tax * fec_tax - d.user_bandwidth_fraction()).abs() < 1e-12);
}

#[test]
fn analysis_and_fabric_agree_on_stage_counts() {
    let table = osmosis::fabric::section_6c_table();
    // The fabric-level OSMOSIS config and the baselines table must agree.
    let f = OsmosisFabricConfig::full_size();
    assert_eq!(f.ports() as u64, 2048);
    let spec = osmosis::fabric::TopologySpec::fat_tree_for_hosts(64, f.ports() as u64);
    assert_eq!(spec.map(|s| s.stages()), Ok(table[0].stages));
}
