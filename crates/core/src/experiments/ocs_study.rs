//! OCS vs. packet switching, head-to-head on ML traffic.
//!
//! The paper's §VII "future work" contrasts its per-cell packet
//! scheduling with circuit-switched operation of the same optical
//! datapath. This experiment runs the comparison the paper never did:
//! the same traffic, seed for seed, through
//!
//! * **ocs** — the circuit-switched mode: [`OcsSwitch`] under an
//!   [`OcsScheduler`] (TM estimation → BvN decomposition → epoch
//!   circuits with guard-time accounting), and
//! * **packet** — the paper's architecture: a [`VoqSwitch`] under the
//!   FLPPR central scheduler (or, with a `--topology` spec, the
//!   compiled multistage fabric).
//!
//! across the ML-pattern workloads of
//! [`osmosis_traffic::ml`]: allreduce ring/tree, parameter-server
//! incast, Zipf-skewed hotspots and diurnal load, plus the classic
//! Bernoulli-uniform baseline. The qualitative result — confirmed at
//! both scales — is that OCS holds full throughput only when the
//! traffic matrix is a stable permutation (the allreduce ring: a
//! handful of reconfigurations over the whole run, utilization near the
//! offered load) and pays heavily everywhere else: per-epoch
//! reconfiguration plus guard time cannot follow uniform/diurnal churn,
//! and single-destination concentration (incast, Zipf hotspots) leaves
//! a lone circuit serving demand that FLPPR spreads across per-cell
//! grants. Delay tells the same story an order of magnitude louder —
//! epoch batching costs hundreds of slots against FLPPR's single
//! digits.

use crate::experiments::Scale;
use osmosis_audit::{AuditMode, AuditSet};
use osmosis_fabric::{CompiledFabric, ExpandedFabric, TopologyError, TopologySpec};
use osmosis_ocs::{EpochConfig, OcsScheduler, OcsSwitch};
use osmosis_sched::Flppr;
use osmosis_sim::engine::{EngineConfig, EngineReport};
use osmosis_sim::{Extra, SeedSequence};
use osmosis_switch::{run_switch_circuit, run_switch_instrumented, VoqSwitch};
use osmosis_traffic::{
    AllreduceRing, AllreduceTree, BernoulliUniform, Diurnal, HotspotSkew, Incast, TrafficGen,
};

/// Workload names, in run order.
pub const WORKLOADS: &[&str] = &[
    "uniform",
    "allreduce_ring",
    "allreduce_tree",
    "incast",
    "hotspot_skew",
    "diurnal",
];

/// Options for [`run`].
#[derive(Debug, Clone)]
pub struct OcsOptions {
    /// Experiment seed.
    pub seed: u64,
    /// Attach the invariant-audit plane to every run.
    pub audit: bool,
    /// Epoch cadence for the OCS side.
    pub epoch: EpochConfig,
    /// Run the packet side through a compiled fabric instead of the
    /// single-stage FLPPR switch; the edge port count follows the spec.
    pub topology: Option<TopologySpec>,
}

impl Default for OcsOptions {
    fn default() -> Self {
        OcsOptions {
            seed: 1,
            audit: false,
            epoch: EpochConfig::osmosis_default(),
            topology: None,
        }
    }
}

/// One (workload, mode) measurement.
#[derive(Debug, Clone)]
pub struct OcsPoint {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// `"ocs"` or `"packet"`.
    pub mode: &'static str,
    /// Offered load measured by the engine.
    pub offered_load: f64,
    /// Carried throughput.
    pub throughput: f64,
    /// Mean delay in slots.
    pub mean_delay: f64,
    /// 99th-percentile delay in slots, when resolvable.
    pub p99_delay: Option<f64>,
    /// Cells dropped (loss under finite buffering / overload).
    pub dropped: u64,
    /// Scheduler epochs (OCS only, else 0).
    pub epochs: u64,
    /// Circuit reconfigurations (OCS only, else 0).
    pub reconfigurations: u64,
    /// Guard slots paid (OCS only, else 0).
    pub guard_slots: u64,
    /// Mean per-epoch circuit utilization (OCS only, else 0).
    pub utilization: f64,
    /// Report fingerprint (reproducibility pins).
    pub fingerprint: u64,
}

/// The study result.
#[derive(Debug, Clone)]
pub struct OcsStudy {
    /// Edge port count both modes ran at.
    pub ports: usize,
    /// The compiled topology spec, when one was requested.
    pub topology: Option<TopologySpec>,
    /// Two points (ocs, packet) per workload, in [`WORKLOADS`] order.
    pub points: Vec<OcsPoint>,
    /// Total audit violations across every audited run (0 unaudited).
    pub audit_violations: u64,
}

/// Build the named workload for an `n`-port edge. The diurnal period is
/// tied to the measurement window so both scales see full day/night
/// cycles.
pub fn workload(
    name: &str,
    n: usize,
    measure_slots: u64,
    seed: u64,
) -> Option<Box<dyn TrafficGen>> {
    let seeds = SeedSequence::new(seed);
    Some(match name {
        "uniform" => Box::new(BernoulliUniform::new(n, 0.6, &seeds)),
        "allreduce_ring" => Box::new(AllreduceRing::new(n, 0.7, 128, &seeds)),
        "allreduce_tree" => Box::new(AllreduceTree::new(n, 0.5, 128, &seeds)),
        "incast" => Box::new(Incast::new(n, n / 2, 64, 16)),
        "hotspot_skew" => Box::new(HotspotSkew::new(n, 0.6, 1.0, &seeds)),
        "diurnal" => Box::new(Diurnal::new(
            n,
            0.2,
            0.8,
            (measure_slots / 4).max(2),
            &seeds,
        )),
        _ => return None,
    })
}

fn point(workload: &'static str, mode: &'static str, r: &EngineReport) -> OcsPoint {
    let get = |k: Extra| r.extra(k).unwrap_or(0.0);
    OcsPoint {
        workload,
        mode,
        offered_load: r.offered_load,
        throughput: r.throughput,
        mean_delay: r.mean_delay,
        p99_delay: r.p99_delay,
        dropped: r.dropped,
        epochs: get(Extra::OcsEpochs) as u64,
        reconfigurations: get(Extra::OcsReconfigurations) as u64,
        guard_slots: get(Extra::OcsGuardSlotsPaid) as u64,
        utilization: get(Extra::OcsMeanUtilization),
        fingerprint: r.fingerprint(),
    }
}

/// Run the full comparison at `scale`.
pub fn run(scale: Scale, opts: &OcsOptions) -> Result<OcsStudy, TopologyError> {
    let expansion = match opts.topology {
        Some(spec) => Some(ExpandedFabric::expand(spec)?),
        None => None,
    };
    let ports = match &expansion {
        Some(fab) => fab.hosts.len(),
        None => scale.ports(),
    };
    let cfg = EngineConfig::new(scale.warmup(), scale.measure()).with_seed(opts.seed);
    let mut points = Vec::new();
    let mut violations = 0u64;
    for &name in WORKLOADS {
        // OCS side: fresh switch + scheduler per workload, same seed.
        if let Some(mut tr) = workload(name, ports, scale.measure(), opts.seed) {
            let mut sw = OcsSwitch::new(ports);
            let mut sched = OcsScheduler::new(opts.epoch);
            let r = if opts.audit {
                let mut set = AuditSet::standard(AuditMode::Accumulate);
                let r = run_switch_circuit(
                    &mut sw,
                    tr.as_mut(),
                    &cfg,
                    &mut sched,
                    None,
                    Some(&mut set),
                );
                violations += set.total_violations();
                r
            } else {
                run_switch_circuit(&mut sw, tr.as_mut(), &cfg, &mut sched, None, None)
            };
            points.push(point(name, "ocs", &r));
        }
        // Packet side: FLPPR switch, or the compiled fabric under a spec.
        if let Some(mut tr) = workload(name, ports, scale.measure(), opts.seed) {
            let r = match &expansion {
                Some(fab) => {
                    let mut sim = CompiledFabric::over(fab.clone());
                    if opts.audit {
                        // Multistage routing may reorder; run the
                        // order-free battery, as the availability study
                        // does for fabrics.
                        let mut set = AuditSet::unordered(AuditMode::Accumulate);
                        let r = run_switch_instrumented(
                            &mut sim,
                            tr.as_mut(),
                            &cfg,
                            None,
                            Some(&mut set),
                        );
                        violations += set.total_violations();
                        r
                    } else {
                        run_switch_instrumented(&mut sim, tr.as_mut(), &cfg, None, None)
                    }
                }
                None => {
                    let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(ports, 1)));
                    if opts.audit {
                        let mut set = AuditSet::standard(AuditMode::Accumulate);
                        let r = run_switch_instrumented(
                            &mut sw,
                            tr.as_mut(),
                            &cfg,
                            None,
                            Some(&mut set),
                        );
                        violations += set.total_violations();
                        r
                    } else {
                        run_switch_instrumented(&mut sw, tr.as_mut(), &cfg, None, None)
                    }
                }
            };
            points.push(point(name, "packet", &r));
        }
    }
    Ok(OcsStudy {
        ports,
        topology: opts.topology,
        points,
        audit_violations: violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(study: &OcsStudy, workload: &str, mode: &str) -> OcsPoint {
        study
            .points
            .iter()
            .find(|p| p.workload == workload && p.mode == mode)
            .cloned()
            .unwrap_or_else(|| panic!("missing point {workload}/{mode}"))
    }

    #[test]
    fn quick_study_covers_every_workload_in_both_modes() {
        let study = run(Scale::Quick, &OcsOptions::default()).expect("no topology in play");
        assert_eq!(study.points.len(), 2 * WORKLOADS.len());
        assert_eq!(study.audit_violations, 0);
        for &w in WORKLOADS {
            let ocs = by(&study, w, "ocs");
            assert!(ocs.epochs > 0, "{w}: OCS ran no epochs");
            let pkt = by(&study, w, "packet");
            assert_eq!(pkt.epochs, 0, "{w}: packet mode has no epochs");
            assert!(
                (ocs.offered_load - pkt.offered_load).abs() < 1e-9,
                "{w}: same seed must offer the same load"
            );
        }
    }

    #[test]
    fn ocs_locks_onto_stable_collectives() {
        let study = run(Scale::Quick, &OcsOptions::default()).expect("expand");
        let ring = by(&study, "allreduce_ring", "ocs");
        // A two-permutation workload: the scheduler should carry nearly
        // all of it and reconfigure far less than once per epoch.
        assert!(
            ring.throughput > 0.9 * ring.offered_load,
            "ring thr {} vs offered {}",
            ring.throughput,
            ring.offered_load
        );
        assert!(
            ring.reconfigurations < ring.epochs,
            "reconfigs {} epochs {}",
            ring.reconfigurations,
            ring.epochs
        );
    }

    #[test]
    fn packet_wins_uniform_delay_ocs_wins_skew_throughput_story_holds() {
        let study = run(Scale::Quick, &OcsOptions::default()).expect("expand");
        let u_ocs = by(&study, "uniform", "ocs");
        let u_pkt = by(&study, "uniform", "packet");
        // Per-cell scheduling tracks uniform churn better than epochs.
        assert!(
            u_pkt.mean_delay < u_ocs.mean_delay,
            "uniform: packet {} vs ocs {}",
            u_pkt.mean_delay,
            u_ocs.mean_delay
        );
    }

    #[test]
    fn audited_study_is_clean_and_fingerprint_stable() {
        let opts = OcsOptions {
            audit: true,
            ..OcsOptions::default()
        };
        let a = run(Scale::Quick, &opts).expect("expand");
        assert_eq!(a.audit_violations, 0);
        let b = run(Scale::Quick, &opts).expect("expand");
        for (x, y) in a.points.iter().zip(b.points.iter()) {
            assert_eq!(x.fingerprint, y.fingerprint, "{}/{}", x.workload, x.mode);
        }
    }
}
