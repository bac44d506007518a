//! FDL buffering study — Fig. 2's buffer-placement comparison rerun with
//! a fourth option: input stages buffered by emulated fiber-delay-line
//! priority queues (`osmosis-fdl`) instead of electronic VOQs.
//!
//! The grid crosses the four buffer options with offered load,
//! burstiness, and fault plans — including the delay-line fault class
//! that only exists for the optical option — on the §V two-level fat
//! tree, or any declared topology. Every leg can run with the invariant-audit
//! battery attached (the FDL cell-conservation auditor included); a
//! clean audit leaves each report bit-identical to the unaudited run.
//!
//! What the comparison shows: at light-to-moderate load the FDL option
//! matches option 3's latency while buffering in flight-time instead of
//! RAM, but its single per-input FIFO pays head-of-line blocking under
//! bursts where the electronic VOQs do not, and dead delay lines shrink
//! its guaranteed capacity into typed `dead_line` losses the electronic
//! options never take.

use super::Scale;
use osmosis_audit::{AuditMode, AuditSet};
use osmosis_fabric::flow_control::required_buffer_cells;
use osmosis_fabric::{
    BufferTech, CompiledFabric, EngineConfig, EngineReport, Placement, TopologySpec,
};
use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis_sim::engine::Engine;
use osmosis_sim::{Auditor, FaultView, SeedSequence};
use osmosis_switch::driven::Driven;
use osmosis_traffic::{BernoulliUniform, Bursty, TrafficGen};

/// One buffer option of the comparison: Fig. 2's three placements plus
/// the FDL-buffered input stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferOption {
    /// Short stable name, used in tables and `BENCH_fdl.json`.
    pub name: &'static str,
    /// Where the buffers sit.
    pub placement: Placement,
    /// What the input buffers are made of.
    pub tech: BufferTech,
}

/// The four options, in Fig. 2 order; the FDL option reuses option 3's
/// input-only placement (the only one whose one-slot local request/grant
/// loop an FDL's shortest line can represent).
pub const OPTIONS: [BufferOption; 4] = [
    BufferOption {
        name: "opt1-in+out",
        placement: Placement::InputAndOutput,
        tech: BufferTech::Electronic,
    },
    BufferOption {
        name: "opt2-output",
        placement: Placement::OutputOnly,
        tech: BufferTech::Electronic,
    },
    BufferOption {
        name: "opt3-input",
        placement: Placement::InputOnly,
        tech: BufferTech::Electronic,
    },
    BufferOption {
        name: "opt4-fdl",
        placement: Placement::InputOnly,
        tech: BufferTech::Fdl,
    },
];

/// One fault plan of the study's fault axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyFault {
    /// No faults: the nominal leg.
    None,
    /// Half the delay lines of every input queue on switch 0 go dark at
    /// slot 0 — the optical option loses half its guaranteed capacity
    /// there and takes typed `dead_line` losses; the electronic options
    /// ignore the plan entirely.
    DelayLinesDead,
    /// One wavelength plane dies permanently: the fault class both
    /// buffer technologies are exposed to.
    PlaneLoss,
}

impl StudyFault {
    /// Stable label for tables and `BENCH_fdl.json`.
    pub fn label(&self) -> &'static str {
        match self {
            StudyFault::None => "none",
            StudyFault::DelayLinesDead => "delay_lines_dead",
            StudyFault::PlaneLoss => "plane_loss",
        }
    }

    /// Build the fault plan for a fabric of the given shape. `None` for
    /// the nominal leg, which must stay bit-identical to an unattached
    /// run.
    pub fn plan(&self, radix: usize, lines_per_queue: usize) -> Option<FaultPlan> {
        match self {
            StudyFault::None => None,
            StudyFault::DelayLinesDead => {
                // Switch 0 is node index 0, so its input `p`'s local line
                // `l` has global index (0·radix + p)·lines_per_queue + l.
                let mut plan = FaultPlan::new();
                for input in 0..radix {
                    for local in 0..lines_per_queue / 2 {
                        let line = input * lines_per_queue + local;
                        plan = plan.permanent(FaultKind::DelayLineDead { line }, 0);
                    }
                }
                Some(plan)
            }
            StudyFault::PlaneLoss => {
                Some(FaultPlan::new().permanent(FaultKind::WavelengthLoss { plane: 0 }, 0))
            }
        }
    }
}

/// One grid point: a buffer option under one (load, burst, fault) cell.
#[derive(Debug, Clone)]
pub struct FdlPoint {
    /// The buffer option.
    pub option: BufferOption,
    /// Offered per-host load.
    pub load: f64,
    /// Mean burst length (1.0 ⇒ Bernoulli arrivals).
    pub burst: f64,
    /// Fault plan variant.
    pub fault: StudyFault,
    /// Input-buffer cells (= delay lines per queue for the FDL option)
    /// the fair per-placement sizing granted this option.
    pub buffer_cells: usize,
    /// The full engine report.
    pub report: EngineReport,
    /// Invariant violations recorded in this leg (0 unless auditing and
    /// actually broken).
    pub audit_violations: u64,
}

/// The study output.
#[derive(Debug, Clone)]
pub struct FdlStudy {
    /// Hosts of the fabric every point ran on.
    pub hosts: usize,
    /// Switch radix.
    pub radix: usize,
    /// One-way link flight time in slots.
    pub link_delay: u64,
    /// The grid, in (fault, burst, load, option) nesting order with the
    /// option varying fastest.
    pub points: Vec<FdlPoint>,
    /// Total violations across every audited leg.
    pub audit_violations: u64,
}

/// Knobs for [`run_with`].
#[derive(Debug, Clone, Default)]
pub struct FdlStudyOptions {
    /// Attach the invariant-audit battery (FDL cell conservation
    /// included) to every leg.
    pub audit: bool,
    /// Run on this declared topology instead of the default paper fabric
    /// at the chosen scale. (Outside a fat tree of two or more levels
    /// the wavelength-plane fault plan has nothing to act on and its
    /// legs run clean.)
    pub topology: Option<TopologySpec>,
}

/// A typed failure: bad topology for this study.
#[derive(Debug, Clone)]
pub struct FdlStudyError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FdlStudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FdlStudyError {}

/// The study's load axis at a scale.
pub fn loads(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.3, 0.6],
        Scale::Full => vec![0.3, 0.6, 0.9],
    }
}

/// The study's burstiness axis at a scale.
pub fn bursts(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![1.0, 4.0],
        Scale::Full => vec![1.0, 4.0, 16.0],
    }
}

/// The study's fault axis at a scale.
pub fn faults(scale: Scale) -> Vec<StudyFault> {
    match scale {
        Scale::Quick => vec![StudyFault::None, StudyFault::DelayLinesDead],
        Scale::Full => vec![
            StudyFault::None,
            StudyFault::DelayLinesDead,
            StudyFault::PlaneLoss,
        ],
    }
}

/// Fig. 2's fair per-placement buffer sizing (see `fig2.rs`): option 2's
/// request/grant crosses the long cable, so its buffers grow by the
/// control RTT.
fn fair_buffer_cells(placement: Placement, link_delay: u64) -> usize {
    required_buffer_cells(link_delay)
        + 2
        + if placement == Placement::OutputOnly {
            2 * link_delay as usize
        } else {
            0
        }
}

fn traffic(hosts: usize, load: f64, burst: f64, seed: u64) -> Box<dyn TrafficGen> {
    let seeds = SeedSequence::new(seed);
    if burst > 1.0 {
        Box::new(Bursty::new(hosts, load, burst, &seeds))
    } else {
        Box::new(BernoulliUniform::new(hosts, load, &seeds))
    }
}

/// Run the study with default options (no audit, default topology).
pub fn run(scale: Scale, seed: u64) -> FdlStudy {
    match run_with(scale, seed, &FdlStudyOptions::default()) {
        Ok(s) => s,
        #[expect(
            clippy::panic,
            reason = "documented panic contract of the infallible entry point; `run_with` is the checked form"
        )]
        Err(e) => panic!("fdl study failed: {e}"),
    }
}

/// Run the study under explicit options.
pub fn run_with(
    scale: Scale,
    seed: u64,
    opts: &FdlStudyOptions,
) -> Result<FdlStudy, FdlStudyError> {
    // The default paper fabric at the chosen scale or the declared spec,
    // on the paper's request/grant cycle either way (FDL stages need it).
    let declared = opts.topology;
    let shape = declared
        .unwrap_or_else(|| TopologySpec::two_level(scale.fabric_radix()))
        .with_request_grant(1);
    let (radix, link_delay) = (shape.radix, shape.link_delay);
    let cfg = EngineConfig::new(scale.warmup(), scale.measure().min(12_000)).with_seed(seed);
    let hosts = shape.hosts() as usize;

    let mut points = Vec::new();
    let mut violations = 0u64;
    for fault in faults(scale) {
        for &burst in &bursts(scale) {
            for &load in &loads(scale) {
                for option in OPTIONS {
                    let buffer_cells = fair_buffer_cells(option.placement, link_delay);
                    let spec = shape
                        .with_placement(option.placement)
                        .with_buffer_cells(buffer_cells);
                    let mut fab = CompiledFabric::try_new(spec)
                        .and_then(|fab| fab.with_buffer_tech(option.tech))
                        .map_err(|e| FdlStudyError {
                            message: format!("fdl_study topology `{spec}`: {e}"),
                        })?;
                    let mut tr = traffic(hosts, load, burst, seed);
                    let mut inj = fault.plan(radix, buffer_cells).map(FaultInjector::new);
                    let mut set = opts
                        .audit
                        .then(|| AuditSet::standard(AuditMode::Accumulate));
                    let report = Engine::new(&cfg)
                        .faults(inj.as_mut().map(|i| i as &mut dyn FaultView))
                        .audit(set.as_mut().map(|s| s as &mut dyn Auditor))
                        .run(&mut Driven::new(&mut fab, tr.as_mut()));
                    let leg_violations = set.map_or(0, |s| s.total_violations());
                    violations += leg_violations;
                    points.push(FdlPoint {
                        option,
                        load,
                        burst,
                        fault,
                        buffer_cells,
                        report,
                        audit_violations: leg_violations,
                    });
                }
            }
        }
    }
    Ok(FdlStudy {
        hosts,
        radix,
        link_delay,
        points,
        audit_violations: violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::Extra;

    fn grid(scale: Scale) -> usize {
        OPTIONS.len() * loads(scale).len() * bursts(scale).len() * faults(scale).len()
    }

    #[test]
    fn study_covers_the_grid_and_separates_the_options() {
        let s = run(Scale::Quick, 51);
        assert_eq!(s.points.len(), grid(Scale::Quick));

        // Nominal legs: the electronic options carry the offered load
        // losslessly; the FDL option's single per-input FIFO pays
        // head-of-line blocking at moderate load (the study's point),
        // but still carries most of it.
        for p in s.points.iter().filter(|p| p.fault == StudyFault::None) {
            if p.burst <= 1.0 {
                if p.option.tech == BufferTech::Electronic {
                    assert!(
                        (p.report.throughput - p.load).abs() < 0.05,
                        "{} @{}: {}",
                        p.option.name,
                        p.load,
                        p.report.throughput
                    );
                } else {
                    assert!(
                        p.report.throughput >= 0.8 * p.load,
                        "{} @{}: {}",
                        p.option.name,
                        p.load,
                        p.report.throughput
                    );
                }
            }
            if p.option.tech == BufferTech::Electronic {
                assert_eq!(p.report.dropped, 0, "{} must be lossless", p.option.name);
            }
        }

        // The clean FDL option is lossless too: the credit loop never
        // admits more than the guaranteed capacity.
        for p in s
            .points
            .iter()
            .filter(|p| p.option.tech == BufferTech::Fdl && p.fault == StudyFault::None)
        {
            assert_eq!(p.report.dropped, 0, "clean FDL run must be lossless");
            assert_eq!(p.report.extra(Extra::FdlDropsTotal), Some(0.0));
        }

        // Dead delay lines hurt only the FDL option, as typed dead-line
        // losses, at least under bursty moderate load.
        let dead_fdl: Vec<_> = s
            .points
            .iter()
            .filter(|p| p.option.tech == BufferTech::Fdl && p.fault == StudyFault::DelayLinesDead)
            .collect();
        assert!(
            dead_fdl
                .iter()
                .any(|p| p.report.extra(Extra::FdlDropsDeadLine).unwrap_or(0.0) > 0.0),
            "dead delay lines must surface as typed dead-line losses somewhere in the grid"
        );
        for p in s
            .points
            .iter()
            .filter(|p| p.option.tech == BufferTech::Electronic)
        {
            assert_eq!(
                p.report.extra(Extra::FdlDropsTotal),
                None,
                "electronic legs must stay free of FDL extras"
            );
            if p.fault == StudyFault::DelayLinesDead {
                assert_eq!(
                    p.report.dropped, 0,
                    "delay-line faults must not touch electronic buffers"
                );
            }
        }
    }

    #[test]
    fn audited_study_is_clean_and_bit_identical() {
        let plain = run(Scale::Quick, 53);
        let audited = run_with(
            Scale::Quick,
            53,
            &FdlStudyOptions {
                audit: true,
                ..Default::default()
            },
        )
        .expect("audited study");
        assert_eq!(audited.audit_violations, 0, "invariants must hold");
        for (p, a) in plain.points.iter().zip(audited.points.iter()) {
            assert_eq!(
                p.report.fingerprint(),
                a.report.fingerprint(),
                "{} {} audited leg diverged",
                p.option.name,
                p.fault.label()
            );
        }
    }

    #[test]
    fn declared_topology_routes_and_bad_families_are_rejected() {
        let default_run = run(Scale::Quick, 57);
        let routed = run_with(
            Scale::Quick,
            57,
            &FdlStudyOptions {
                topology: Some(TopologySpec::two_level(Scale::Quick.fabric_radix())),
                ..Default::default()
            },
        )
        .expect("routed study");
        for (p, r) in default_run.points.iter().zip(routed.points.iter()) {
            assert_eq!(
                p.report.fingerprint(),
                r.report.fingerprint(),
                "equivalent declared topology must not perturb the study"
            );
        }
        // The buffer planes are not confined to one topology: on a
        // dragonfly the FDL option takes its dead-line losses at router 0,
        // and only a spec that does not validate is refused.
        let on = |topology| FdlStudyOptions {
            topology: Some(topology),
            ..Default::default()
        };
        let dragonfly = run_with(Scale::Quick, 57, &on(TopologySpec::dragonfly(8, 4)))
            .expect("any valid topology runs");
        for p in &dragonfly.points {
            let lossy = p.option.tech == BufferTech::Fdl && p.fault == StudyFault::DelayLinesDead;
            assert_eq!(
                p.report.dropped > 0,
                lossy,
                "{} {:?}",
                p.option.name,
                p.fault
            );
            assert_eq!(p.report.reordered, 0);
        }
        let err = run_with(Scale::Quick, 57, &on(TopologySpec::dragonfly(8, 99)))
            .expect_err("more groups than the radix supports");
        assert!(err.to_string().contains("group count"), "{err}");
    }
}
