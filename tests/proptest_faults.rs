//! Property-based tests of degraded-mode resilience: the credit-based
//! flow control stays lossless and in order under *arbitrary* seeded
//! fault plans — random credit-drop probabilities, random MTBF/MTTR
//! repair processes, and random link-corruption bursts on top.

use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, SeedSequence};
use osmosis::switch::driven::CellSwitch;
use osmosis::switch::{
    run_switch_faulted, run_switch_instrumented, BurstSwitch, BvnSwitch, CioqSwitch,
    DeflectionSwitch, FifoSwitch, OqSwitch, RemoteSchedulerSwitch, VoqSwitch,
};
use osmosis::traffic::BernoulliUniform;
use osmosis_audit::{AuditMode, AuditSet};
use proptest::prelude::*;

/// Run one simulator under `plan` with the invariant battery attached and
/// return the violation report rendered, or `None` if it audited clean.
/// `ordered` drops the order auditor for the models that reorder by
/// design (BVN load balancing, deflection routing).
fn audit_under<S: CellSwitch>(
    hosts: usize,
    load: f64,
    seed: u64,
    ordered: bool,
    plan: &FaultPlan,
    mk: impl FnOnce() -> S,
) -> Option<String> {
    let mut sw = mk();
    let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
    let mut inj = FaultInjector::new(plan.clone());
    let mut set = if ordered {
        AuditSet::standard(AuditMode::Accumulate)
    } else {
        AuditSet::unordered(AuditMode::Accumulate)
    };
    let cfg = EngineConfig::new(100, 1_500).with_seed(seed);
    run_switch_instrumented(&mut sw, &mut tr, &cfg, Some(&mut inj), Some(&mut set));
    if set.total_violations() == 0 {
        None
    } else {
        Some(set.report().to_string())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Dropped credits may throttle the fabric but can never lose,
    /// reorder, or duplicate a cell: every injected cell is either
    /// delivered or still resident when the run ends.
    #[test]
    fn flow_control_is_lossless_under_random_credit_drop_plans(
        radix in prop::sample::select(vec![4usize, 8]),
        load in 0.1f64..0.6,
        drop_p in 0.01f64..0.4,
        mtbf in 200.0f64..2_000.0,
        mttr in 50.0f64..500.0,
        seed in any::<u64>(),
    ) {
        let mut fab = CompiledFabric::new(TopologySpec::two_level(radix).with_request_grant(1));
        let hosts = fab.ports();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
        let plan = FaultPlan::new()
            .stochastic(FaultKind::CreditDrop { prob: drop_p }, mtbf, mttr);
        let mut inj = FaultInjector::new(plan);
        let cfg = EngineConfig::new(0, 3_000).with_seed(seed);
        let r = run_switch_faulted(&mut fab, &mut tr, &cfg, &mut inj);
        prop_assert_eq!(r.dropped, 0, "credit drops must not lose cells");
        prop_assert_eq!(r.reordered, 0, "credit drops must not reorder");
        prop_assert_eq!(
            r.injected,
            r.delivered + fab.resident_cells().unwrap_or(0),
            "every cell is delivered or accounted for in a queue"
        );
    }

    /// Link corruption bursts stacked on top of credit drops: hop-by-hop
    /// retransmission plus credit resynchronisation still deliver every
    /// cell exactly once, in order.
    #[test]
    fn retransmission_and_resync_compose_losslessly(
        load in 0.1f64..0.5,
        drop_p in 0.01f64..0.3,
        ber in 0.005f64..0.15,
        fault_at in 100u64..800,
        repair in 200u64..1_000,
        seed in any::<u64>(),
    ) {
        let mut fab = CompiledFabric::new(TopologySpec::two_level(4).with_request_grant(1));
        let hosts = fab.ports();
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
        let plan = FaultPlan::new()
            .one_shot(FaultKind::CreditDrop { prob: drop_p }, fault_at, Some(repair))
            .one_shot(
                FaultKind::LinkBerBurst { link: LINK_ANY, cell_error_prob: ber },
                fault_at,
                Some(repair),
            );
        let mut inj = FaultInjector::new(plan);
        let cfg = EngineConfig::new(0, 3_000).with_seed(seed);
        let r = run_switch_faulted(&mut fab, &mut tr, &cfg, &mut inj);
        prop_assert_eq!(r.dropped, 0);
        prop_assert_eq!(r.reordered, 0);
        prop_assert_eq!(r.injected, r.delivered + fab.resident_cells().unwrap_or(0));
        // The engine's loss ledger agrees: nothing was charged to faults.
        prop_assert_eq!(r.extra("fault_cells_lost").unwrap_or(0.0), 0.0);
    }

    /// The invariant battery holds for *every* simulator in the workspace
    /// under arbitrary seeded credit-drop + link-BER plans: cell
    /// conservation (drops accounted by reason), credit conservation
    /// (resync included), capacity legality, and — for the models that
    /// preserve order by design — per-flow order at egress.
    #[test]
    fn all_simulators_audit_clean_under_random_fault_plans(
        load in 0.1f64..0.5,
        drop_p in 0.01f64..0.3,
        ber in 0.005f64..0.1,
        fault_at in 50u64..600,
        repair in 100u64..800,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::CreditDrop { prob: drop_p }, fault_at, Some(repair))
            .one_shot(
                FaultKind::LinkBerBurst { link: LINK_ANY, cell_error_prob: ber },
                fault_at,
                Some(repair),
            );
        let mut dirty: Vec<(&str, String)> = Vec::new();
        let mut check = |name: &'static str, found: Option<String>| {
            if let Some(report) = found {
                dirty.push((name, report));
            }
        };
        check("voq", audit_under(8, load, seed, true, &plan, || {
            VoqSwitch::new(Box::new(Flppr::osmosis(8, 1)))
        }));
        check("fifo", audit_under(8, load, seed, true, &plan, || FifoSwitch::new(8)));
        check("oq", audit_under(8, load, seed, true, &plan, || OqSwitch::new(8)));
        check("bvn", audit_under(8, load, seed, false, &plan, || BvnSwitch::new(8)));
        check("burst", audit_under(8, load, seed, true, &plan, || BurstSwitch::new(8, 8, 8)));
        check("deflection", audit_under(8, load, seed, false, &plan, || {
            DeflectionSwitch::new(8, 4, 7)
        }));
        check("cioq", audit_under(8, load, seed, true, &plan, || CioqSwitch::new(8, 2, 8)));
        check("remote_sched", audit_under(8, load, seed, true, &plan, || {
            RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
        }));
        check("fat-tree", audit_under(8, load, seed, true, &plan, || {
            CompiledFabric::new(TopologySpec::two_level(4).with_request_grant(1))
        }));
        check("multilevel", audit_under(8, load, seed, true, &plan, || {
            CompiledFabric::new(TopologySpec::m_ary_fat_tree(4, 3))
        }));
        prop_assert!(
            dirty.is_empty(),
            "violations under plan drop_p={drop_p:.3} ber={ber:.3} seed={seed}: {dirty:?}"
        );
    }
}
