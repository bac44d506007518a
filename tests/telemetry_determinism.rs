//! Telemetry-plane transparency: attaching a [`TelemetrySink`] (or the
//! zero-cost [`NullTrace`]) to any simulator on the shared
//! engine leaves the report — fingerprint included — bit-identical to
//! the uninstrumented run, for all ten simulators. The sink itself is
//! deterministic too: two identically-seeded observed runs export
//! byte-identical JSONL, every exported line re-encodes byte for byte,
//! and the exported registry survives a JSON round trip exactly.
//!
//! The registry the sink folds once per run is also checked against an
//! oracle: the same runs' `VecTrace` streams folded one event at a time
//! through `MetricsRegistry::inc`/`observe` (`reference_registry`) must
//! encode to the same bytes.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]
#![expect(clippy::panic, reason = "a test helper fails its test by panicking")]

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::{BufferTech, CompiledFabric};
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::sched::Flppr;
use osmosis::sim::{
    Engine, EngineConfig, EngineReport, NullTrace, SeedSequence, TraceEvent, TraceSink, VecTrace,
};
use osmosis::switch::driven::CellSwitch;
use osmosis::switch::{
    run_switch, run_switch_traced, BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, Driven,
    FifoSwitch, OqSwitch, RemoteSchedulerSwitch, VoqSwitch,
};
use osmosis::telemetry::{
    metrics, validate_jsonl, Component, MetricId, MetricsRegistry, Record, TelemetryConfig,
    TelemetrySink,
};
use osmosis::traffic::BernoulliUniform;
use osmosis_audit::{AuditMode, AuditSet};

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::new(200, 2_500).with_seed(seed)
}

fn sink() -> TelemetrySink {
    TelemetrySink::with_config(TelemetryConfig::exact().with_snapshot_every(500))
}

/// A telemetry sink with a `VecTrace` beside it: every hook goes to the
/// sink, and each run's event stream is kept with its report.
struct Recorded {
    tel: TelemetrySink,
    log: VecTrace,
    runs: Vec<(Vec<(u64, TraceEvent)>, EngineReport)>,
}

impl Recorded {
    fn new() -> Self {
        Recorded {
            tel: sink(),
            log: VecTrace::default(),
            runs: Vec::new(),
        }
    }

    /// The sink's registry must encode byte for byte as the oracle's.
    fn assert_matches_reference(&self, name: &str) {
        assert_eq!(
            self.tel.registry().to_json().encode(),
            reference_registry(&self.runs).to_json().encode(),
            "{name}: the folded registry differs from the per-event reference"
        );
    }
}

impl TraceSink for Recorded {
    fn event(&mut self, slot: u64, event: TraceEvent) {
        self.tel.event(slot, event);
        self.log.event(slot, event);
    }

    fn run_begin(&mut self, cfg: &EngineConfig, ports: usize) {
        self.tel.run_begin(cfg, ports);
    }

    fn begin_slot(&mut self, slot: u64) {
        self.tel.begin_slot(slot);
    }

    fn run_end(&mut self, report: &EngineReport) {
        self.tel.run_end(report);
        let events = std::mem::take(&mut self.log.events);
        self.runs.push((events, report.clone()));
    }
}

/// The registry a sink would hold after `runs`, built one event at a
/// time: each event's counters and histogram observations go straight
/// into the registry, and each run's gauges follow its events.
fn reference_registry(runs: &[(Vec<(u64, TraceEvent)>, EngineReport)]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (events, report) in runs {
        for &(_, event) in events {
            match event {
                TraceEvent::Inject { .. } => reg.inc(metrics::CELLS_INJECTED, 1),
                TraceEvent::Grant { wait_slots, .. } => {
                    reg.inc(metrics::GRANTS, 1);
                    reg.observe(metrics::REQUEST_GRANT_WAIT, wait_slots);
                    reg.inc(metrics::CELLS_TRANSFERRED, 1);
                }
                TraceEvent::Deliver { delay_slots, .. } => {
                    reg.inc(metrics::CELLS_DELIVERED, 1);
                    reg.observe(metrics::DELIVERY_DELAY, delay_slots);
                }
                TraceEvent::Drop { .. } => reg.inc(metrics::CELLS_DROPPED, 1),
                TraceEvent::CreditStall { node, .. } => {
                    reg.inc(metrics::CREDIT_STALLS, 1);
                    reg.inc(MetricId::at(Component::LinkFc, "credit_stalls", node), 1);
                }
                TraceEvent::ReceiverConflict { contenders, .. } => {
                    reg.inc(metrics::RECEIVER_CONFLICTS, 1);
                    reg.observe(metrics::CONFLICT_CONTENDERS, u64::from(contenders));
                }
                TraceEvent::Retransmit { .. } => reg.inc(metrics::RETRANSMITS, 1),
            }
        }
        reg.set_gauge(metrics::THROUGHPUT, report.throughput);
        reg.set_gauge(metrics::OFFERED_LOAD, report.offered_load);
        reg.set_gauge(metrics::MEAN_DELAY, report.mean_delay);
        reg.gauge_max(metrics::MAX_QUEUE_DEPTH, report.max_queue_depth as f64);
        reg.gauge_max(metrics::MAX_EGRESS_DEPTH, report.max_egress_depth as f64);
    }
    reg
}

/// The telemetry transparency contract, checked for one simulator:
///
/// 1. a full [`TelemetrySink`] does not perturb the run: bit-identical
///    report fingerprint vs. the plain run;
/// 2. [`NullTrace`] (the disabled sink) is equally invisible;
/// 3. the sink actually observed the run (cells counted, spans
///    accounted, span delay population == delivered measured cells);
/// 4. two identically-seeded observed runs export byte-identical JSONL
///    that passes schema validation;
/// 5. the sink's registry equals the per-event reference.
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
        let mut rec = Recorded::new();
        let r = run_switch_traced(&mut sw, &mut tr, &cfg(1234), &mut rec);
        rec.assert_matches_reference(name);
        (r, rec.tel)
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
    // Every exported line is one typed record that re-encodes to itself.
    for line in text.lines() {
        let record = Record::decode(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
        assert_eq!(record.encode(), line, "{name}: re-encoding moved a byte");
    }

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
    let plan = || {
        FaultPlan::new()
            .one_shot(FaultKind::SoaStuckOff { output: 1 }, 400, Some(300))
            .periodic(FaultKind::GrantLoss { prob: 0.1 }, 200, 900, 250)
    };
    let run_one = |tel: Option<&mut Recorded>| {
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
    let mut rec = Recorded::new();
    let with = run_one(Some(&mut rec));
    assert_eq!(
        without.fingerprint(),
        with.fingerprint(),
        "telemetry must stay invisible under faults and audit"
    );
    assert!(rec.tel.registry().counter(metrics::CELLS_DROPPED) > 0 || with.dropped == 0);
    rec.assert_matches_reference("voq + faults + audit");
}

/// The 32-host two-level tree on FDL stages, with half the delay lines
/// of leaf 0 dead and every link corrupting 5 % of its cells: drops,
/// go-back-N retransmissions and per-switch credit stalls in one run.
fn faulted_fdl_tree<T: TraceSink>(sink: &mut T, faults: bool) -> EngineReport {
    let spec = TopologySpec::two_level(8).with_request_grant(1);
    let lines = spec.buffer_cells();
    let mut plan = FaultPlan::new();
    if faults {
        let ber = FaultKind::LinkBerBurst {
            link: LINK_ANY,
            cell_error_prob: 0.05,
        };
        plan = plan.permanent(ber, 0);
        for line in (0..spec.radix).flat_map(|input| input * lines..input * lines + lines / 2) {
            plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
        }
    }
    let mut fab = CompiledFabric::new(spec)
        .with_buffer_tech(BufferTech::Fdl)
        .expect("input-only placement at rg = 1");
    let mut tr = BernoulliUniform::new(32, 0.7, &SeedSequence::new(78));
    let mut inj = FaultInjector::new(plan);
    let mut set = AuditSet::standard(AuditMode::FailFast);
    let r = Engine::new(&cfg(78))
        .trace(sink)
        .faults(Some(&mut inj))
        .audit(Some(&mut set))
        .run(&mut Driven::new(&mut fab, &mut tr));
    assert_eq!(set.total_violations(), 0, "{}", set.report());
    r
}

#[test]
fn fabric_telemetry_composes_with_fault_and_audit_planes() {
    let without = faulted_fdl_tree(&mut NullTrace, true);
    let mut rec = Recorded::new();
    let with = faulted_fdl_tree(&mut rec, true);
    assert_eq!(
        without.fingerprint(),
        with.fingerprint(),
        "telemetry must stay invisible under faults and audit"
    );
    let reg = rec.tel.registry();
    for id in [
        metrics::CELLS_DROPPED,
        metrics::RETRANSMITS,
        metrics::CREDIT_STALLS,
    ] {
        assert!(reg.counter(id) > 0, "{id:?} never counted");
    }
    let stalled_nodes = reg
        .counters()
        .filter(|(id, _)| id.name == "credit_stalls" && id.instance.is_some())
        .count();
    assert!(stalled_nodes > 1, "{stalled_nodes} stalled switches");
    rec.assert_matches_reference("fdl tree + faults + audit");
}

#[test]
fn a_multi_run_sink_folds_each_run_like_the_per_event_rules() {
    // Two runs on one sink, as the ablations and the availability study
    // use it: a clean run, then a faulted one that adds drops,
    // retransmissions and per-switch stalls to the registry.
    let mut rec = Recorded::new();
    faulted_fdl_tree(&mut rec, false);
    faulted_fdl_tree(&mut rec, true);
    assert_eq!(rec.tel.runs(), 2);
    assert_eq!(rec.runs.len(), 2);
    rec.assert_matches_reference("two runs");
}
