//! The invariant-audit plane, exercised end to end: every simulator in
//! the workspace runs with the full battery attached, clean and under
//! the fault plans the resilience subsystem reacts to. Three contracts:
//!
//! 1. **Zero-cost attachment.** Auditors on a clean run find nothing and
//!    leave the report — fingerprint included — bit-identical to the
//!    unaudited run (no `audit_violations` extra is ever set for a clean
//!    run).
//! 2. **Invariants hold under faults.** Cell conservation (with every
//!    drop accounted by reason), credit conservation (including the
//!    resync path after dropped credits), per-flow order (through
//!    go-back-N retransmissions), and capacity legality all pass for the
//!    reactive models under their fault plans.
//! 3. **Violations are detectable.** The liveness watchdog actually
//!    fires when an output is genuinely blocked — the battery is not
//!    vacuously green.

use osmosis::fabric::{BufferTech, CompiledFabric, TopologySpec};
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, SeedSequence};
use osmosis::switch::driven::CellSwitch;
use osmosis::switch::{run_switch, run_switch_instrumented, RemoteSchedulerSwitch, VoqSwitch};
use osmosis::traffic::BernoulliUniform;
use osmosis_audit::{AuditMode, AuditSet, ViolationKind};

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::new(200, 3_000).with_seed(seed)
}

/// Run `mk()` under `plan` with the standard battery; assert it audits
/// clean and that the audit did not perturb the run.
fn assert_clean_under<S: CellSwitch>(
    name: &str,
    hosts: usize,
    load: f64,
    seed: u64,
    plan: FaultPlan,
    mk: impl Fn() -> S,
) {
    let unaudited = {
        let mut sw = mk();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
        let mut inj = FaultInjector::new(plan.clone());
        run_switch_instrumented(&mut sw, &mut tr, &cfg(seed), Some(&mut inj), None)
    };
    let mut sw = mk();
    let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
    let mut inj = FaultInjector::new(plan);
    let mut set = AuditSet::standard(AuditMode::Accumulate);
    let audited =
        run_switch_instrumented(&mut sw, &mut tr, &cfg(seed), Some(&mut inj), Some(&mut set));
    assert_eq!(
        set.total_violations(),
        0,
        "{name}: invariants must hold: {}",
        set.report()
    );
    assert!(set.report().is_clean());
    assert_eq!(
        unaudited.fingerprint(),
        audited.fingerprint(),
        "{name}: a clean audit must not perturb the faulted run"
    );
    assert_eq!(
        audited.extra("audit_violations"),
        None,
        "{name}: a clean run must not grow an audit extra"
    );
}

#[test]
fn voq_switch_audits_clean_under_soa_and_receiver_faults() {
    // SOA gate failures force the scheduler around the dead output;
    // receiver death drops cells at a *dual-receiver* egress — both must
    // stay inside the conservation and capacity-legality ledgers.
    let plan = FaultPlan::new()
        .one_shot(FaultKind::SoaStuckOff { output: 2 }, 400, Some(500))
        .one_shot(FaultKind::ReceiverDeath { output: 5 }, 800, Some(600));
    assert_clean_under("voq", 16, 0.7, 42, plan, || {
        VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)))
    });
}

#[test]
fn remote_scheduler_audits_clean_under_grant_loss() {
    // Lost grants re-enter the control loop: the cell stays queued, the
    // re-request flies again — conservation and order must both survive.
    let plan = FaultPlan::new().permanent(FaultKind::GrantLoss { prob: 0.15 }, 0);
    assert_clean_under("remote_sched", 8, 0.5, 43, plan, || {
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
    });
}

#[test]
fn fat_tree_audits_clean_under_credit_drops() {
    // Dropped credit returns take the resync path; the credit ledger
    // (held + in flight + occupancy = capacity) must balance every slot,
    // resync flights included.
    let plan = FaultPlan::new().one_shot(FaultKind::CreditDrop { prob: 0.3 }, 500, Some(1_500));
    assert_clean_under("fat-tree/credit", 32, 0.5, 44, plan, || {
        CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1))
    });
}

#[test]
fn fat_tree_audits_clean_under_link_ber() {
    // Go-back-N retransmission: corrupted cells resend one RTT later and
    // every successor on the link queues up behind them — per-flow order
    // at egress must hold through the whole stall.
    let plan = FaultPlan::new().permanent(
        FaultKind::LinkBerBurst {
            link: LINK_ANY,
            cell_error_prob: 0.05,
        },
        0,
    );
    assert_clean_under("fat-tree/ber", 32, 0.4, 45, plan, || {
        CompiledFabric::new(TopologySpec::two_level(8).with_request_grant(1))
    });
}

/// Run `spec`'s fabric for 3 000 slots (no warm-up, so the report counts
/// every cell) under `plan` with the standard battery in fail-fast mode;
/// returns the report and what the fabric still holds.
fn audited_fabric_run(
    spec: TopologySpec,
    tech: BufferTech,
    load: f64,
    plan: FaultPlan,
) -> (osmosis::sim::EngineReport, u64) {
    let mut fab = CompiledFabric::new(spec)
        .with_buffer_tech(tech)
        .expect("a supported technology");
    let mut tr = BernoulliUniform::new(fab.ports(), load, &SeedSequence::new(47));
    let mut inj = FaultInjector::new(plan);
    let mut set = AuditSet::standard(AuditMode::FailFast);
    let cfg = EngineConfig::new(0, 3_000).with_seed(47);
    let r = run_switch_instrumented(&mut fab, &mut tr, &cfg, Some(&mut inj), Some(&mut set));
    assert_eq!(set.total_violations(), 0, "{spec}: {}", set.report());
    (
        r,
        fab.resident_cells().expect("the fabric counts its cells"),
    )
}

#[test]
fn fault_reactions_hold_on_a_three_level_tree_and_a_dragonfly() {
    // Go-back-N and credit resync are per link of the expansion, not of
    // one topology: lossless, in order, every cell delivered or resident.
    for text in [
        "fat-tree:radix=4,levels=3,rg=1",
        "dragonfly:radix=8,groups=4,rg=1",
    ] {
        let ber = FaultKind::LinkBerBurst {
            link: LINK_ANY,
            cell_error_prob: 0.05,
        };
        let plan = FaultPlan::new().one_shot(ber, 600, Some(900)).one_shot(
            FaultKind::CreditDrop { prob: 0.3 },
            500,
            Some(1_500),
        );
        let spec: TopologySpec = text.parse().expect("a valid spec");
        let (r, resident) = audited_fabric_run(spec, BufferTech::Electronic, 0.3, plan);
        assert!(r.extra("fault_retransmits").unwrap_or(0.0) > 20.0, "{text}");
        assert!(
            r.extra("fault_credits_dropped").unwrap_or(0.0) > 20.0,
            "{text}"
        );
        assert_eq!((r.dropped, r.reordered), (0, 0), "{text}");
        assert_eq!(r.injected, r.delivered + resident, "{text}");
        assert!(r.delivered > 1_000, "{text}: the fabric kept flowing");
    }
}

#[test]
fn a_three_level_tree_routes_around_a_dead_plane_and_recovers() {
    // Plane 1 is the two top switches behind up-port 3 of the middle
    // stage. It is down before the first cell arrives, so none is caught
    // inside it (those would wait for the repair while their successors
    // take the detour — reordering by design, audited elsewhere with
    // `AuditSet::unordered`): its flows re-hash onto plane 0, and at this
    // load the way back at the repair keeps every flow in order.
    let spec: TopologySpec = "fat-tree:radix=4,levels=3,rg=1".parse().expect("valid");
    let loss = FaultKind::WavelengthLoss { plane: 1 };
    let plan = FaultPlan::new().one_shot(loss, 0, Some(1_500));
    let (r, resident) = audited_fabric_run(spec, BufferTech::Electronic, 0.2, plan);
    assert_eq!(r.extra("faults_healed"), Some(1.0));
    assert_eq!((r.dropped, r.reordered), (0, 0));
    assert_eq!(r.injected, r.delivered + resident);
    assert!((r.throughput - 0.2).abs() < 0.02, "thr {}", r.throughput);
}

#[test]
fn fdl_stages_on_a_three_level_tree_lose_cells_to_dead_lines_by_type() {
    // The short half of every delay line of leaf 0, dead from slot 0:
    // keyed `(switch · radix + input) · lines_per_queue + local`.
    let spec: TopologySpec = "fat-tree:radix=4,levels=3,rg=1".parse().expect("valid");
    let lines = spec.buffer_cells();
    let mut plan = FaultPlan::new();
    for input in 0..spec.radix {
        for local in 0..lines / 2 {
            let line = input * lines + local;
            plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
        }
    }
    let (r, resident) = audited_fabric_run(spec, BufferTech::Fdl, 0.5, plan);
    let dead_line = r.extra("fdl_drops_dead_line").unwrap_or(0.0);
    assert!(dead_line > 0.0, "dead lines lose cells: {:?}", r.extra);
    assert_eq!(r.extra("fdl_drops_total"), Some(r.dropped as f64));
    assert_eq!(r.reordered, 0);
    assert_eq!(r.injected, r.delivered + r.dropped + resident);
}

#[test]
fn liveness_watchdog_fires_on_a_blocked_output() {
    // An SOA plane stuck off for 800 slots starves the VOQs behind it:
    // with a 100-slot wait bound the watchdog must report starvation —
    // proof the battery detects real violations, not just vacuous green.
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut tr = BernoulliUniform::new(16, 0.6, &SeedSequence::new(46));
    let plan = FaultPlan::new().one_shot(FaultKind::SoaStuckOff { output: 3 }, 300, Some(800));
    let mut inj = FaultInjector::new(plan);
    let mut set = AuditSet::new(AuditMode::Accumulate).with_liveness(100);
    run_switch_instrumented(&mut sw, &mut tr, &cfg(46), Some(&mut inj), Some(&mut set));
    assert!(
        set.total_violations() > 0,
        "an 800-slot outage must trip a 100-slot wait bound"
    );
    let report = set.report();
    let starved = report
        .entries
        .iter()
        .flat_map(|e| e.sample.iter())
        .any(|v| matches!(v.kind, ViolationKind::Starvation { output: 3, .. }));
    assert!(starved, "the starved output must be named: {report}");
}

#[test]
fn liveness_watchdog_stays_quiet_within_bound() {
    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut tr = BernoulliUniform::new(16, 0.6, &SeedSequence::new(46));
    let plain = run_switch(&mut sw, &mut tr, &cfg(46));

    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
    let mut tr = BernoulliUniform::new(16, 0.6, &SeedSequence::new(46));
    let mut set = AuditSet::standard(AuditMode::FailFast).with_liveness(2_000);
    let audited = run_switch_instrumented(&mut sw, &mut tr, &cfg(46), None, Some(&mut set));
    assert_eq!(set.total_violations(), 0);
    assert_eq!(plain.fingerprint(), audited.fingerprint());
}
