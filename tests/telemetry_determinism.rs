//! Telemetry-plane transparency: attaching a [`TelemetrySink`] (or the
//! zero-cost [`NullTrace`]) to any simulator on the shared
//! engine leaves the report — fingerprint included — bit-identical to
//! the uninstrumented run, for all ten simulators. The sink itself is
//! deterministic too: two identically-seeded observed runs export
//! byte-identical JSONL, and the exported registry survives a JSON
//! round trip exactly.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]
#![expect(clippy::panic, reason = "a test helper fails its test by panicking")]

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::sched::Flppr;
use osmosis::sim::{Engine, EngineConfig, NullTrace, SeedSequence};
use osmosis::switch::driven::CellSwitch;
use osmosis::switch::{
    run_switch, run_switch_traced, BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, Driven,
    FifoSwitch, OqSwitch, RemoteSchedulerSwitch, VoqSwitch,
};
use osmosis::telemetry::{
    metrics, validate_jsonl, MetricsRegistry, TelemetryConfig, TelemetrySink,
};
use osmosis::traffic::BernoulliUniform;

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::new(200, 2_500).with_seed(seed)
}

fn sink() -> TelemetrySink {
    TelemetrySink::with_config(TelemetryConfig::exact().with_snapshot_every(500))
}

/// The telemetry transparency contract, checked for one simulator:
///
/// 1. a full [`TelemetrySink`] does not perturb the run: bit-identical
///    report fingerprint vs. the plain run;
/// 2. [`NullTrace`] (the disabled sink) is equally invisible;
/// 3. the sink actually observed the run (cells counted, spans
///    accounted, span delay population == delivered measured cells);
/// 4. two identically-seeded observed runs export byte-identical JSONL
///    that passes schema validation.
fn assert_telemetry_transparent<S: CellSwitch>(
    name: &str,
    hosts: usize,
    load: f64,
    mk: impl Fn() -> S,
) {
    let plain = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        run_switch(&mut sw, &mut tr, &cfg(1234))
    };

    let observe = || {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        let mut tel = sink();
        let r = run_switch_traced(&mut sw, &mut tr, &cfg(1234), &mut tel);
        (r, tel)
    };

    let (observed, tel) = observe();
    assert_eq!(
        plain.fingerprint(),
        observed.fingerprint(),
        "{name}: telemetry must not perturb the run"
    );

    let nulled = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        Engine::new(&cfg(1234))
            .trace(&mut NullTrace)
            .run(&mut Driven::new(&mut sw, &mut tr))
    };
    assert_eq!(
        plain.fingerprint(),
        nulled.fingerprint(),
        "{name}: NullTrace must be bit-identical to no sink at all"
    );

    // The sink really watched: injections counted, and the span plane's
    // accounted population is exactly the engine's delay population
    // (cells injected after warmup AND delivered in the window — the
    // same gating the span plane applies).
    assert!(
        tel.registry().counter(metrics::CELLS_INJECTED) > 0,
        "{name}: no injections observed"
    );
    let d = tel.decomposition();
    assert_eq!(
        d.completed,
        plain.delay_hist.count(),
        "{name}: span population must equal the engine's delay population"
    );
    if d.completed > 0 {
        assert!(
            (d.segment_sum() - plain.mean_delay).abs() < 1e-9,
            "{name}: segment sums {} must reconcile with engine mean delay {}",
            d.segment_sum(),
            plain.mean_delay
        );
    }

    // Determinism of the export itself: same seed, byte-identical JSONL.
    let export = |tel: &TelemetrySink, report: &osmosis::sim::EngineReport| {
        let mut buf = Vec::new();
        tel.export_jsonl(&mut buf, report).expect("export");
        String::from_utf8(buf).expect("utf8")
    };
    let (observed2, tel2) = observe();
    let text = export(&tel, &observed);
    let text2 = export(&tel2, &observed2);
    assert_eq!(
        text, text2,
        "{name}: identically-seeded runs must export byte-identical JSONL"
    );
    let stats = validate_jsonl(&text)
        .unwrap_or_else(|e| panic!("{name}: exported JSONL failed validation: {e}"));
    assert_eq!(stats.metas, 1);
    assert_eq!(stats.summaries, 1);

    // The registry survives its JSON round trip bit-exactly.
    let reg_json = tel.registry().to_json();
    let back = MetricsRegistry::from_json(&reg_json).expect("registry parse");
    assert_eq!(
        back.to_json().encode(),
        reg_json.encode(),
        "{name}: registry JSON round trip must be exact"
    );
}

#[test]
fn voq_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("voq", 16, 0.7, || {
        VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)))
    });
}

#[test]
fn fifo_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("fifo", 16, 0.5, || FifoSwitch::new(16));
}

#[test]
fn oq_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("oq", 16, 0.7, || OqSwitch::new(16));
}

#[test]
fn bvn_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("bvn", 16, 0.6, || BvnSwitch::new(16));
}

#[test]
fn burst_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("burst", 16, 0.6, || BurstSwitch::new(16, 8, 8));
}

#[test]
fn deflection_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("deflection", 16, 0.6, || DeflectionSwitch::new(16, 4, 7));
}

#[test]
fn cioq_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("cioq", 16, 0.8, || CioqSwitch::new(16, 2, 8));
}

#[test]
fn remote_scheduler_switch_telemetry_is_transparent() {
    assert_telemetry_transparent("remote_sched", 8, 0.5, || {
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
    });
}

#[test]
fn fat_tree_fabric_telemetry_is_transparent() {
    assert_telemetry_transparent("multistage", 32, 0.5, || {
        CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1))
    });
}

#[test]
fn multilevel_fabric_telemetry_is_transparent() {
    let spec = TopologySpec::m_ary_fat_tree(4, 3);
    assert_telemetry_transparent("multilevel", 8, 0.4, move || CompiledFabric::new(spec));
}

#[test]
fn telemetry_composes_with_fault_and_audit_planes() {
    // All three engine hooks at once: telemetry + a real fault plan + the
    // invariant battery. The report must match the same faulted+audited
    // run without telemetry, bit for bit.
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
    use osmosis_audit::{AuditMode, AuditSet};

    let plan = || {
        FaultPlan::new()
            .one_shot(FaultKind::SoaStuckOff { output: 1 }, 400, Some(300))
            .periodic(FaultKind::GrantLoss { prob: 0.1 }, 200, 900, 250)
    };
    let run_one = |tel: Option<&mut TelemetrySink>| {
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
        let mut tr = BernoulliUniform::new(16, 0.7, &SeedSequence::new(77));
        let mut inj = FaultInjector::new(plan());
        let mut set = AuditSet::standard(AuditMode::FailFast);
        let r = match tel {
            Some(tel) => Engine::new(&cfg(77))
                .trace(tel)
                .faults(Some(&mut inj))
                .audit(Some(&mut set))
                .run(&mut Driven::new(&mut sw, &mut tr)),
            None => Engine::new(&cfg(77))
                .faults(Some(&mut inj))
                .audit(Some(&mut set))
                .run(&mut Driven::new(&mut sw, &mut tr)),
        };
        assert_eq!(set.total_violations(), 0);
        r
    };
    let without = run_one(None);
    let mut tel = sink();
    let with = run_one(Some(&mut tel));
    assert_eq!(
        without.fingerprint(),
        with.fingerprint(),
        "telemetry must stay invisible under faults and audit"
    );
    assert!(tel.registry().counter(metrics::CELLS_DROPPED) > 0 || with.dropped == 0);
}
