//! Fault-plane reproducibility: a seeded [`FaultPlan`] played against any
//! simulator on the shared engine is a pure function of the run seed —
//! the fault trace (every injection/heal transition) and the full engine
//! report are bit-identical across reruns, and an *empty* plan leaves
//! every simulator's report bit-identical to the plain, unfaulted run
//! (the hook costs nothing when unused).

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, SeedSequence};
use osmosis::switch::driven::CellSwitch;
use osmosis::switch::{
    run_switch, run_switch_faulted, run_switch_instrumented, BurstSwitch, BvnSwitch, CioqSwitch,
    DeflectionSwitch, FifoSwitch, OqSwitch, RemoteSchedulerSwitch, VoqSwitch,
};
use osmosis::traffic::BernoulliUniform;
use osmosis_audit::{AuditMode, AuditSet};

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::new(200, 2_500).with_seed(seed)
}

/// A plan exercising deterministic, periodic, and MTBF/MTTR-sampled
/// schedules at once. The stochastic entry ties the fault timeline to the
/// run seed; reactive simulators additionally consult the loss
/// probabilities, non-reactive ones just carry the view along.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .one_shot(FaultKind::SoaStuckOff { output: 1 }, 400, Some(300))
        .periodic(FaultKind::GrantLoss { prob: 0.1 }, 200, 900, 250)
        .stochastic(
            FaultKind::LinkBerBurst {
                link: LINK_ANY,
                cell_error_prob: 0.05,
            },
            1_500.0,
            300.0,
        )
}

/// The fault-plane reproducibility contract, checked for one simulator:
///
/// 1. same seed ⇒ bit-identical fault trace *and* bit-identical report;
/// 2. a different seed changes the run (traffic and/or fault timeline);
/// 3. an empty plan is invisible: `run_faulted` == plain `run`, bit for
///    bit;
/// 4. the full invariant battery on the clean run finds nothing and
///    leaves the report bit-identical to the plain run;
/// 5. (`audit_faulted` models) the battery also passes on the *faulted*
///    run — every drop is accounted, every credit conserved, per-flow
///    order held through retransmissions.
///
/// `ordered` selects the battery: BVN load balancing and deflection
/// routing reorder by design, so they run without the order auditor.
fn assert_fault_determinism<S: CellSwitch>(
    name: &str,
    hosts: usize,
    load: f64,
    ordered: bool,
    audit_faulted: bool,
    mk: impl Fn() -> S,
) {
    let battery = || {
        if ordered {
            AuditSet::standard(AuditMode::FailFast)
        } else {
            AuditSet::unordered(AuditMode::FailFast)
        }
    };
    let faulted = |seed: u64| {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
        let mut inj = FaultInjector::new(plan());
        let r = run_switch_faulted(&mut sw, &mut tr, &cfg(seed), &mut inj);
        (r, inj.events().to_vec())
    };

    let (a, ea) = faulted(1234);
    let (b, eb) = faulted(1234);
    assert!(!ea.is_empty(), "{name}: the plan must actually fire");
    assert_eq!(ea, eb, "{name}: same seed must replay the same fault trace");
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "{name}: same seed must give a bit-identical faulted report"
    );

    let (c, _) = faulted(4321);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "{name}: a different seed must change the faulted run"
    );

    let plain = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        run_switch(&mut sw, &mut tr, &cfg(1234))
    };
    let empty = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        let mut inj = FaultInjector::new(FaultPlan::new());
        run_switch_faulted(&mut sw, &mut tr, &cfg(1234), &mut inj)
    };
    assert_eq!(
        plain.fingerprint(),
        empty.fingerprint(),
        "{name}: an empty fault plan must be bit-identical to the plain run"
    );

    // 4. Audited clean run: zero violations (fail-fast would panic), and
    // the report — fingerprint included — matches the plain run exactly.
    let audited = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        let mut set = battery();
        let r = run_switch_instrumented(&mut sw, &mut tr, &cfg(1234), None, Some(&mut set));
        assert_eq!(
            set.total_violations(),
            0,
            "{name}: clean run must audit clean"
        );
        r
    };
    assert_eq!(
        plain.fingerprint(),
        audited.fingerprint(),
        "{name}: a clean audit must not perturb the run"
    );

    // 5. Audited faulted run, where the model supports it.
    if audit_faulted {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(1234));
        let mut inj = FaultInjector::new(plan());
        let mut set = battery();
        let r =
            run_switch_instrumented(&mut sw, &mut tr, &cfg(1234), Some(&mut inj), Some(&mut set));
        assert_eq!(
            set.total_violations(),
            0,
            "{name}: invariants must hold under faults: {}",
            set.report()
        );
        assert_eq!(
            a.fingerprint(),
            r.fingerprint(),
            "{name}: auditing the faulted run must not perturb it"
        );
    }
}

#[test]
fn voq_switch_faults_are_deterministic() {
    assert_fault_determinism("voq", 16, 0.7, true, true, || {
        VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)))
    });
}

#[test]
fn fifo_switch_faults_are_deterministic() {
    assert_fault_determinism("fifo", 16, 0.5, true, true, || FifoSwitch::new(16));
}

#[test]
fn oq_switch_faults_are_deterministic() {
    assert_fault_determinism("oq", 16, 0.7, true, true, || OqSwitch::new(16));
}

#[test]
fn bvn_switch_faults_are_deterministic() {
    assert_fault_determinism("bvn", 16, 0.6, false, true, || BvnSwitch::new(16));
}

#[test]
fn burst_switch_faults_are_deterministic() {
    assert_fault_determinism("burst", 16, 0.6, true, true, || BurstSwitch::new(16, 8, 8));
}

#[test]
fn deflection_switch_faults_are_deterministic() {
    assert_fault_determinism("deflection", 16, 0.6, false, true, || {
        DeflectionSwitch::new(16, 4, 7)
    });
}

#[test]
fn cioq_switch_faults_are_deterministic() {
    assert_fault_determinism("cioq", 16, 0.8, true, true, || CioqSwitch::new(16, 2, 8));
}

#[test]
fn remote_scheduler_switch_faults_are_deterministic() {
    assert_fault_determinism("remote_sched", 8, 0.5, true, true, || {
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
    });
}

#[test]
fn fat_tree_fabric_faults_are_deterministic() {
    assert_fault_determinism("multistage", 32, 0.5, true, true, || {
        CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1))
    });
}

#[test]
fn multilevel_fabric_faults_are_deterministic() {
    let spec = TopologySpec::m_ary_fat_tree(4, 3);
    assert_fault_determinism("multilevel", 8, 0.4, true, true, move || {
        CompiledFabric::new(spec)
    });
}

#[test]
fn stochastic_fault_timeline_depends_only_on_the_seed() {
    // The fault schedule stream is independent of the model: the same
    // seed produces the same MTBF/MTTR timeline no matter which
    // simulator the injector is attached to.
    let events_for = |hosts: usize, load: f64| {
        let mut sw = OqSwitch::new(hosts);
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(9));
        let mut inj = FaultInjector::new(FaultPlan::new().stochastic(
            FaultKind::ReceiverDeath { output: 0 },
            700.0,
            150.0,
        ));
        run_switch_faulted(&mut sw, &mut tr, &cfg(9), &mut inj);
        inj.events().to_vec()
    };
    assert_eq!(
        events_for(8, 0.3),
        events_for(32, 0.8),
        "fault timeline must not depend on the model or its traffic"
    );
}
