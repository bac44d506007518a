//! Reproducibility: every simulation in the workspace is a pure function
//! of its seed — reruns are bit-identical (same engine fingerprint),
//! different seeds change the delivered traffic.
//!
//! With every simulator on the shared engine, one harness covers all of
//! them: `EngineReport::fingerprint()` hashes the full report (counters,
//! f64 bit patterns, histograms, extras), so fingerprint equality is a
//! much stronger statement than comparing a few fields.

use osmosis::core::{OsmosisFabricConfig, Scale};
use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, EngineReport, SeedSequence, SimRng};
use osmosis::switch::{
    run_multicast, run_uniform, BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, FifoSwitch,
    OqSwitch, RemoteSchedulerSwitch,
};
use osmosis::traffic::BernoulliUniform;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000)
}

/// The reproducibility contract every simulator must satisfy: the same
/// seed gives a bit-identical report (fingerprint over counters, f64
/// bits, histograms, extras), and a different seed changes the delivered
/// traffic.
fn assert_seed_determinism(name: &str, mut run: impl FnMut(u64) -> EngineReport) {
    let a = run(1234);
    let b = run(1234);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "{name}: same seed must give a bit-identical report"
    );
    let c = run(4321);
    assert!(
        a.delivered != c.delivered || a.injected != c.injected,
        "{name}: different seeds must change the delivered traffic \
         (delivered {} vs {}, injected {} vs {})",
        a.delivered,
        c.delivered,
        a.injected,
        c.injected
    );
}

fn uniform(n: usize, load: f64, seed: u64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(seed))
}

#[test]
fn voq_switch_is_deterministic() {
    assert_seed_determinism("voq", |s| {
        run_uniform(|| Box::new(Flppr::osmosis(16, 2)), 0.7, &cfg().with_seed(s))
    });
}

#[test]
fn fifo_switch_is_deterministic() {
    assert_seed_determinism("fifo", |s| {
        FifoSwitch::new(16).run(&mut uniform(16, 0.5, s), &cfg())
    });
}

#[test]
fn oq_switch_is_deterministic() {
    assert_seed_determinism("oq", |s| {
        OqSwitch::new(16).run(&mut uniform(16, 0.7, s), &cfg())
    });
}

#[test]
fn bvn_switch_is_deterministic() {
    assert_seed_determinism("bvn", |s| {
        BvnSwitch::new(16).run(&mut uniform(16, 0.6, s), &cfg())
    });
}

#[test]
fn burst_switch_is_deterministic() {
    assert_seed_determinism("burst", |s| {
        BurstSwitch::new(16, 8, 8).run(&mut uniform(16, 0.6, s), &cfg())
    });
}

#[test]
fn deflection_switch_is_deterministic() {
    // The deflection switch has internal randomness seeded at
    // construction on top of the traffic seed.
    assert_seed_determinism("deflection", |s| {
        DeflectionSwitch::new(16, 4, s).run(&mut uniform(16, 0.6, s), &cfg())
    });
}

#[test]
fn cioq_switch_is_deterministic() {
    assert_seed_determinism("cioq", |s| {
        CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8, s), &cfg())
    });
}

#[test]
fn remote_scheduler_switch_is_deterministic() {
    assert_seed_determinism("remote_sched", |s| {
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
            .run(&mut uniform(8, 0.5, s), &cfg())
    });
}

#[test]
fn multicast_workload_is_deterministic() {
    assert_seed_determinism("multicast", |s| run_multicast(16, 3, 0.2, 3_000, s));
}

#[test]
fn fat_tree_fabric_is_deterministic() {
    assert_seed_determinism("multistage", |s| {
        let spec = TopologySpec::two_level(8).with_request_grant(1);
        let mut fab = CompiledFabric::new(spec);
        fab.run(&mut uniform(spec.hosts() as usize, 0.5, s), &cfg())
    });
}

#[test]
fn multilevel_fabric_is_deterministic() {
    assert_seed_determinism("multilevel", |s| {
        let spec = TopologySpec::m_ary_fat_tree(4, 3);
        let mut fab = CompiledFabric::new(spec);
        fab.run(&mut uniform(spec.hosts() as usize, 0.4, s), &cfg())
    });
}

#[test]
fn fabric_level_config_runs_are_bit_identical() {
    let run = || {
        let f = OsmosisFabricConfig::sim_sized(8);
        let mut tr = BernoulliUniform::new(f.ports(), 0.5, &SeedSequence::new(77));
        f.run(&mut tr, &cfg())
    };
    assert_eq!(run().fingerprint(), run().fingerprint());
}

#[test]
fn experiments_are_reproducible() {
    let a = osmosis::core::experiments::fig7::run(Scale::Quick, 9);
    let b = osmosis::core::experiments::fig7::run(Scale::Quick, 9);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.delay_single.to_bits(), y.delay_single.to_bits());
        assert_eq!(x.delay_dual.to_bits(), y.delay_dual.to_bits());
    }
}

#[test]
fn parallel_sweep_order_is_stable() {
    // The sweep runs on threads; results must still come back in input
    // order and be identical across runs.
    let inputs: Vec<u64> = (0..40).collect();
    let f = |x: u64| {
        let mut rng = SimRng::seed_from_u64(x);
        (0..1000).map(|_| rng.next_u64() & 0xFF).sum::<u64>()
    };
    let a = osmosis::sim::parallel_sweep(inputs.clone(), f);
    let b = osmosis::sim::parallel_sweep(inputs, f);
    assert_eq!(a, b);
}

#[test]
fn seed_sequences_isolate_components() {
    // Adding a new named stream must not perturb existing ones.
    let seq = SeedSequence::new(42);
    let before: Vec<u64> = (0..8).map(|i| seq.stream("voq", i).next_u64()).collect();
    let _other = seq.stream("brand-new-component", 0).next_u64();
    let after: Vec<u64> = (0..8).map(|i| seq.stream("voq", i).next_u64()).collect();
    assert_eq!(before, after);
}
