//! Availability study — degraded-mode resilience of the multistage fabric
//! under the deterministic fault plane (`osmosis-faults`).
//!
//! Three questions, all answered on the two-level fat tree with rerouting
//! around dead wavelength planes:
//!
//! 1. **Throughput vs failed SOA planes.** Each spine is one wavelength
//!    plane of SOA gates; killing it permanently measures how gracefully
//!    carried load degrades as planes fail. The paper's dual-receiver /
//!    multi-plane argument predicts a single dead plane costs little at
//!    moderate load because flows re-hash onto survivors.
//! 2. **Recovery latency vs MTTR.** A majority of planes fails at a known
//!    slot and is repaired `mttr` slots later. The backlog accumulated
//!    during the outage drains after the repair; we measure how long the
//!    fabric needs to return to nominal windowed throughput. Recovery
//!    must complete within the configured MTTR.
//! 3. **Stochastic availability.** One plane fails and heals under an
//!    MTBF/MTTR-sampled schedule; the fraction of slots with no active
//!    fault is the availability delivered by the repair process.
//!
//! All fault timelines derive from the run seed, so every number here is
//! exactly reproducible — including across a crash: the sweeps run under
//! the supervised sweep runner ([`osmosis_sim::supervised_sweep`]), and
//! with [`AvailabilityOptions::checkpoint_dir`] set they checkpoint each
//! completed point to disk and resume bit-identically after an
//! interruption. [`AvailabilityOptions::audit`] attaches the invariant
//! auditors (`osmosis-audit`) to every run; a clean audit leaves each
//! report bit-identical to the unaudited run.

use super::Scale;
use osmosis_audit::{AuditMode, AuditSet};
use osmosis_fabric::{CompiledFabric, EngineConfig, EngineReport, TopologySpec};
use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis_sim::engine::{run_instrumented, TraceEvent, TraceSink};
use osmosis_sim::json::Value;
use osmosis_sim::{
    checkpointed_sweep, supervised_sweep, CheckpointLog, FaultView, SeedSequence, SweepError,
    SweepOptions, SweepState, SweepSummary,
};
use osmosis_switch::driven::Driven;
use osmosis_telemetry::TelemetrySink;
use osmosis_traffic::BernoulliUniform;
use std::path::PathBuf;

/// One point of the throughput-vs-failed-planes sweep.
#[derive(Debug, Clone)]
pub struct PlanePoint {
    /// Wavelength planes (spines) permanently failed.
    pub failed_planes: usize,
    /// The full engine report of the degraded run.
    pub report: EngineReport,
    /// Carried throughput relative to the fault-free run.
    pub relative_throughput: f64,
}

/// One point of the recovery-latency-vs-MTTR sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MttrPoint {
    /// Configured repair time (slots after fault onset).
    pub mttr: u64,
    /// Mean windowed per-host throughput before the fault.
    pub nominal_windowed: f64,
    /// Mean windowed per-host throughput during the outage.
    pub degraded_windowed: f64,
    /// Slots after the repair until windowed throughput is back to ≥ 95%
    /// of nominal (backlog drained). `None` if it never recovered inside
    /// the simulated horizon.
    pub recovery_slots: Option<u64>,
    /// Invariant violations the audit plane recorded in this leg (always
    /// 0 unless [`AvailabilityOptions::audit`] was set and the run was
    /// actually broken).
    pub audit_violations: u64,
}

impl SweepState for MttrPoint {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("mttr".into(), Value::u64(self.mttr)),
            ("nominal_windowed".into(), Value::f64(self.nominal_windowed)),
            (
                "degraded_windowed".into(),
                Value::f64(self.degraded_windowed),
            ),
            (
                "recovery_slots".into(),
                self.recovery_slots.map_or(Value::Null, Value::u64),
            ),
            ("audit_violations".into(), Value::u64(self.audit_violations)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(MttrPoint {
            mttr: v.get("mttr")?.as_u64()?,
            nominal_windowed: v.get("nominal_windowed")?.as_f64()?,
            degraded_windowed: v.get("degraded_windowed")?.as_f64()?,
            recovery_slots: match v.get("recovery_slots")? {
                Value::Null => None,
                other => Some(other.as_u64()?),
            },
            audit_violations: v.get("audit_violations")?.as_u64()?,
        })
    }
}

/// Stochastic MTBF/MTTR availability summary.
#[derive(Debug, Clone)]
pub struct StochasticSummary {
    /// Plane failures injected over the run.
    pub faults_injected: u64,
    /// Repairs completed over the run.
    pub faults_healed: u64,
    /// Fraction of slots with no active fault.
    pub availability: f64,
    /// Carried throughput over the whole run, faults included.
    pub throughput: f64,
}

/// Results of the availability experiment.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// Wavelength planes (spines) in the fabric.
    pub planes: usize,
    /// Offered per-host load.
    pub load: f64,
    /// Fault-free reference run.
    pub nominal: EngineReport,
    /// Throughput vs permanently failed planes (first point: zero planes
    /// failed through an *empty* fault plan — bit-identical to nominal).
    pub plane_sweep: Vec<PlanePoint>,
    /// Planes failed in each MTTR-sweep outage.
    pub outage_planes: usize,
    /// Slot at which the MTTR-sweep outage starts.
    pub fault_at: u64,
    /// Recovery latency vs configured MTTR.
    pub mttr_sweep: Vec<MttrPoint>,
    /// MTBF/MTTR-driven availability of a single plane.
    pub stochastic: StochasticSummary,
    /// Total invariant violations across every audited leg (0 when the
    /// audit plane was off — and when it was on, for a correct fabric).
    pub audit_violations: u64,
}

/// Knobs for [`run_with`]: audit plane, crash-safe checkpointing, and
/// the sweep supervisor's retry/budget policy.
#[derive(Debug, Clone, Default)]
pub struct AvailabilityOptions {
    /// Attach the full invariant-audit battery to every run. Clean runs
    /// stay bit-identical; violations are counted, never panicked on.
    pub audit: bool,
    /// Directory for sweep checkpoint files. When set, interrupted
    /// experiments resume from completed points with identical results.
    pub checkpoint_dir: Option<PathBuf>,
    /// Per-job slot budget for the supervisor's watchdog (`None`: off).
    pub slot_budget: Option<u64>,
    /// Supervisor retry attempts per job (`None`: the default, 3).
    pub max_attempts: Option<u32>,
    /// Stream telemetry (metrics registry, spans, snapshots) from the
    /// nominal and stochastic legs to this JSONL file. Telemetry only
    /// observes: every report stays bit-identical to an unobserved run.
    pub telemetry: Option<PathBuf>,
    /// Report per-job sweep progress live on stderr.
    pub progress: bool,
    /// Run every leg on this declared topology instead of the default
    /// paper fabric at the chosen scale. Must expand to the fault-capable
    /// two-level fat tree (`fat-tree:…,levels=2,planes=2`) — every leg
    /// here kills and heals wavelength planes. The spec participates in
    /// the checkpoint key, so checkpoints from one topology never leak
    /// into a resume on another.
    pub topology: Option<TopologySpec>,
}

/// Deliveries bucketed into fixed windows of `window` slots — the
/// time-resolved throughput trace the recovery detector runs on.
struct DeliveryWindows {
    window: u64,
    counts: Vec<u64>,
}

impl DeliveryWindows {
    fn new(window: u64) -> Self {
        DeliveryWindows {
            window,
            counts: Vec::new(),
        }
    }

    fn count(&self, w: usize) -> u64 {
        self.counts.get(w).copied().unwrap_or(0)
    }

    /// Mean deliveries per window over windows fully inside `[from, to)`.
    fn mean_over(&self, from: u64, to: u64) -> f64 {
        let first = from.div_ceil(self.window);
        let last = to / self.window; // exclusive
        if last <= first {
            return 0.0;
        }
        let sum: u64 = (first..last).map(|w| self.count(w as usize)).sum();
        sum as f64 / (last - first) as f64
    }
}

impl TraceSink for DeliveryWindows {
    fn event(&mut self, slot: u64, event: TraceEvent) {
        if let TraceEvent::Deliver { .. } = event {
            let w = (slot / self.window) as usize;
            if self.counts.len() <= w {
                self.counts.resize(w + 1, 0);
            }
            self.counts[w] += 1;
        }
    }
}

const LOAD: f64 = 0.6;
const LINK_DELAY: u64 = 2;
const WINDOW: u64 = 100;

/// Resolve the fabric the study runs on: the default paper fabric at
/// the chosen scale, or a declared `--topology` spec. Either runs the
/// paper's request/grant cycle (a declared spec that leaves `rg` at 0
/// gets 1). The spec must have wavelength planes to fail — a fat tree
/// of two or more levels; the plane faults have nowhere to act on other
/// families.
fn resolve_spec(scale: Scale, topology: Option<&TopologySpec>) -> Result<TopologySpec, SweepError> {
    let spec = match topology {
        Some(spec) => *spec,
        None => TopologySpec::two_level(scale.fabric_radix()).with_link_delay(LINK_DELAY),
    };
    let fail = |why: String| SweepError::Io {
        message: format!("availability topology `{spec}`: {why}"),
    };
    spec.validate().map_err(|e| fail(e.to_string()))?;
    if spec.wavelength_planes() == 0 {
        let why = "no wavelength planes to fail: the fault-capable topologies are fat trees \
                   of two or more levels";
        return Err(fail(why.into()));
    }
    Ok(spec.with_request_grant(spec.request_grant.max(1)))
}

fn traffic(hosts: usize, seed: u64) -> BernoulliUniform {
    BernoulliUniform::new(hosts, LOAD, &SeedSequence::new(seed))
}

/// Run one fabric leg with an optional fault plan and (per `audit`) the
/// invariant battery attached. Returns the report and the violation
/// count. A clean audit leaves the report bit-identical to the plain
/// run, so this single path serves both modes.
///
/// `ordered` selects the battery: legs whose fault plan heals a
/// wavelength plane mid-run re-hash in-flight flows back onto the
/// repaired plane, overtaking cells still queued on the survivor path —
/// reordering by design (the paper's resequencer argument), so those
/// legs run the order-free battery.
fn run_leg<T: TraceSink>(
    spec: &TopologySpec,
    seed: u64,
    cfg: &EngineConfig,
    sink: &mut T,
    plan: Option<FaultPlan>,
    audit: bool,
    ordered: bool,
) -> (EngineReport, u64) {
    let mut fab = CompiledFabric::new(*spec);
    let mut tr = traffic(spec.hosts() as usize, seed);
    let mut driven = Driven::new(&mut fab, &mut tr);
    let mut inj = plan.map(FaultInjector::new);
    let faults = inj.as_mut().map(|i| i as &mut dyn FaultView);
    if audit {
        let mut set = if ordered {
            AuditSet::standard(AuditMode::Accumulate)
        } else {
            AuditSet::unordered(AuditMode::Accumulate)
        };
        let r = run_instrumented(&mut driven, cfg, sink, faults, Some(&mut set));
        (r, set.total_violations())
    } else {
        (run_instrumented(&mut driven, cfg, sink, faults, None), 0)
    }
}

/// Checkpoint key: ties a state file to the exact sweep it belongs to,
/// so a stale file from another seed, scale, or topology is ignored,
/// not resumed.
fn ckpt_key(tag: u64, spec: &TopologySpec, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [tag, seed]
        .into_iter()
        .chain(spec.to_string().bytes().map(u64::from))
    {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run a sweep under the supervisor, checkpointing when a directory is
/// configured, and unwrap the outputs (propagating the first job that
/// failed all its retries).
fn sweep<I, O, F>(
    inputs: Vec<I>,
    sweep_opts: &SweepOptions,
    ckpt: Option<CheckpointLog>,
    f: F,
) -> Result<Vec<O>, SweepError>
where
    I: Send,
    O: Send + SweepState,
    F: Fn(&I) -> O + Sync,
{
    let summary: SweepSummary<O> = match ckpt {
        Some(ckpt) => checkpointed_sweep(inputs, sweep_opts, &ckpt, f)?,
        None => supervised_sweep(inputs, sweep_opts, f),
    };
    summary.into_outputs()
}

/// Run the experiment with default options (no audit, no checkpoints).
pub fn run(scale: Scale, seed: u64) -> AvailabilityResult {
    match run_with(scale, seed, &AvailabilityOptions::default()) {
        Ok(r) => r,
        // lint:allow(panic-free): documented panic contract of the
        // infallible figure entry point; `run_with` is the checked form
        Err(e) => panic!("availability sweep failed: {e}"),
    }
}

/// Run the experiment under explicit supervisor/audit/checkpoint options.
pub fn run_with(
    scale: Scale,
    seed: u64,
    opts: &AvailabilityOptions,
) -> Result<AvailabilityResult, SweepError> {
    let spec = resolve_spec(scale, opts.topology.as_ref())?;
    let hosts = spec.hosts() as usize;
    let planes = spec.wavelength_planes();
    let cfg = EngineConfig::new(500, scale.measure().min(12_000)).with_seed(seed);

    let mut sweep_opts = SweepOptions::seeded(seed).with_backoff_base_ms(0);
    if let Some(b) = opts.slot_budget {
        sweep_opts = sweep_opts.with_slot_budget(b);
    }
    if let Some(a) = opts.max_attempts {
        sweep_opts = sweep_opts.with_max_attempts(a);
    }
    if opts.progress {
        sweep_opts = sweep_opts.with_progress(osmosis_telemetry::stderr_progress("availability"));
    }

    // One telemetry sink observes both sequential legs (nominal +
    // stochastic), streaming a two-run JSONL document. The parallel
    // sweeps stay unobserved: a shared sink would serialize them.
    let mut telemetry = match &opts.telemetry {
        Some(path) => Some(
            TelemetrySink::new()
                .with_label("availability")
                .stream_to_path(path)
                .map_err(|e| SweepError::Io {
                    message: format!("open telemetry stream {}: {e}", path.display()),
                })?,
        ),
        None => None,
    };
    let ckpt = |tag: u64, name: &str| {
        opts.checkpoint_dir
            .as_ref()
            .map(|dir| CheckpointLog::new(dir.join(name), ckpt_key(tag, &spec, seed)))
    };

    // Fault-free reference. Each run gets a freshly built fabric so the
    // bit-identical comparison below is over identical starting states.
    let (nominal, mut violations) = match telemetry.as_mut() {
        Some(sink) => run_leg(&spec, seed, &cfg, sink, None, opts.audit, true),
        None => run_leg(
            &spec,
            seed,
            &cfg,
            &mut osmosis_sim::NullTrace,
            None,
            opts.audit,
            true,
        ),
    };

    // 1. Throughput vs permanently failed planes. k = 0 runs through an
    // empty FaultPlan: the report must be bit-identical to `nominal`.
    // Each point is one supervised job; a panicking or budget-exceeding
    // point is retried and reported without aborting its siblings.
    let failed_counts: Vec<u64> = (0..=planes as u64 / 2).collect();
    let reports = sweep(
        failed_counts,
        &sweep_opts,
        ckpt(1, "plane_sweep.jsonl"),
        |&failed| {
            let mut plan = FaultPlan::new();
            for plane in 0..failed as usize {
                plan = plan.permanent(FaultKind::WavelengthLoss { plane }, 0);
            }
            let (report, _) = run_leg(
                &spec,
                seed,
                &cfg,
                &mut osmosis_sim::NullTrace,
                Some(plan),
                opts.audit,
                true,
            );
            report
        },
    )?;
    let mut plane_sweep = Vec::new();
    for (failed, report) in reports.into_iter().enumerate() {
        violations += report.extra("audit_violations").unwrap_or(0.0) as u64;
        plane_sweep.push(PlanePoint {
            failed_planes: failed,
            relative_throughput: report.throughput / nominal.throughput,
            report,
        });
    }

    // 2. Recovery latency vs MTTR: a majority outage (more than half the
    // planes) oversubscribes the survivors, so backlog builds for `mttr`
    // slots and must drain after the repair.
    let outage_planes = planes / 2 + 1;
    let fault_at = 1_000u64;
    let mttrs: Vec<u64> = match scale {
        Scale::Quick => vec![600, 1_200],
        Scale::Full => vec![1_500, 3_000],
    };
    let mttr_sweep = sweep(mttrs, &sweep_opts, ckpt(2, "mttr_sweep.jsonl"), |&mttr| {
        let mut plan = FaultPlan::new();
        for plane in 0..outage_planes {
            plan = plan.one_shot(FaultKind::WavelengthLoss { plane }, fault_at, Some(mttr));
        }
        let horizon = fault_at + mttr + 2_000;
        let run_cfg = EngineConfig::new(0, horizon).with_seed(seed);
        let mut windows = DeliveryWindows::new(WINDOW);
        let (_, audit_violations) = run_leg(
            &spec,
            seed,
            &run_cfg,
            &mut windows,
            Some(plan),
            opts.audit,
            false,
        );

        // Skip the pipe-fill ramp when averaging the nominal phase, and
        // the transition window when averaging the outage.
        let nominal_per_window = windows.mean_over(300, fault_at);
        let repair = fault_at + mttr;
        let degraded_per_window = windows.mean_over(fault_at + WINDOW, repair);
        let per_host = WINDOW as f64 * hosts as f64;

        let first = repair.div_ceil(WINDOW);
        let last = horizon / WINDOW;
        let recovery_slots = (first..last)
            .find(|&w| windows.count(w as usize) as f64 >= 0.95 * nominal_per_window)
            .map(|w| (w + 1) * WINDOW - repair);

        MttrPoint {
            mttr,
            nominal_windowed: nominal_per_window / per_host,
            degraded_windowed: degraded_per_window / per_host,
            recovery_slots,
            audit_violations,
        }
    })?;
    violations += mttr_sweep.iter().map(|m| m.audit_violations).sum::<u64>();

    // 3. Stochastic availability of one plane under MTBF/MTTR repair.
    let (mtbf, mttr, slots) = match scale {
        Scale::Quick => (2_000.0, 300.0, 10_000u64),
        Scale::Full => (5_000.0, 600.0, 40_000u64),
    };
    let plan = FaultPlan::new().stochastic(FaultKind::WavelengthLoss { plane: 0 }, mtbf, mttr);
    let run_cfg = EngineConfig::new(0, slots).with_seed(seed);
    let (r, v) = match telemetry.as_mut() {
        Some(sink) => run_leg(&spec, seed, &run_cfg, sink, Some(plan), opts.audit, false),
        None => run_leg(
            &spec,
            seed,
            &run_cfg,
            &mut osmosis_sim::NullTrace,
            Some(plan),
            opts.audit,
            false,
        ),
    };
    violations += v;
    let active = r.extra("fault_active_slots").unwrap_or(0.0);
    let stochastic = StochasticSummary {
        faults_injected: r.extra("faults_injected").unwrap_or(0.0) as u64,
        faults_healed: r.extra("faults_healed").unwrap_or(0.0) as u64,
        availability: 1.0 - active / slots as f64,
        throughput: r.throughput,
    };

    if let Some(mut sink) = telemetry {
        sink.finish_stream()
            .map_err(|message| SweepError::Io { message })?;
    }

    Ok(AvailabilityResult {
        planes,
        load: LOAD,
        nominal,
        plane_sweep,
        outage_planes,
        fault_at,
        mttr_sweep,
        stochastic,
        audit_violations: violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_mode_claims_hold() {
        let r = run(Scale::Quick, 23);

        // The empty fault plan is invisible: bit-identical reports.
        assert_eq!(r.plane_sweep[0].failed_planes, 0);
        assert_eq!(
            r.plane_sweep[0].report.fingerprint(),
            r.nominal.fingerprint(),
            "empty fault plan must not perturb the run"
        );

        // One dead wavelength plane: rerouting keeps ≥ 80% of nominal
        // carried throughput (the acceptance bar; in practice ~100% at
        // this load because survivors absorb the re-hashed flows).
        assert!(
            r.plane_sweep[1].relative_throughput >= 0.8,
            "1 of {} planes dead: relative throughput {}",
            r.planes,
            r.plane_sweep[1].relative_throughput
        );
        // Lossless in every degraded run.
        for p in &r.plane_sweep {
            assert_eq!(p.report.dropped, 0, "{} planes failed", p.failed_planes);
        }

        // Majority outage degrades, repair recovers within the MTTR.
        for m in &r.mttr_sweep {
            assert!(
                m.degraded_windowed < 0.95 * m.nominal_windowed,
                "outage must visibly degrade: {} vs {}",
                m.degraded_windowed,
                m.nominal_windowed
            );
            let rec = m
                .recovery_slots
                .unwrap_or_else(|| panic!("no recovery after mttr {}", m.mttr));
            assert!(
                rec <= m.mttr,
                "recovery {rec} slots exceeds mttr {}",
                m.mttr
            );
        }

        // Stochastic repair process yields high but imperfect availability.
        assert!(r.stochastic.faults_injected > 0);
        assert!(r.stochastic.availability > 0.5);
        assert!(r.stochastic.availability < 1.0);
    }

    #[test]
    fn audited_run_is_clean_and_bit_identical() {
        let plain = run(Scale::Quick, 29);
        let audited = run_with(
            Scale::Quick,
            29,
            &AvailabilityOptions {
                audit: true,
                ..Default::default()
            },
        )
        .expect("audited sweep must complete");
        assert_eq!(audited.audit_violations, 0, "invariants must hold");
        assert_eq!(
            plain.nominal.fingerprint(),
            audited.nominal.fingerprint(),
            "a clean audit must not perturb the nominal run"
        );
        for (p, a) in plain.plane_sweep.iter().zip(audited.plane_sweep.iter()) {
            assert_eq!(
                p.report.fingerprint(),
                a.report.fingerprint(),
                "{} failed planes: audited run diverged",
                p.failed_planes
            );
        }
        assert_eq!(plain.mttr_sweep, audited.mttr_sweep);
    }

    #[test]
    fn telemetered_run_streams_valid_jsonl_and_stays_bit_identical() {
        let path = std::env::temp_dir().join(format!(
            "osmosis-avail-telemetry-{}.jsonl",
            std::process::id()
        ));
        let plain = run(Scale::Quick, 37);
        let telemetered = run_with(
            Scale::Quick,
            37,
            &AvailabilityOptions {
                telemetry: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("telemetered run");
        assert_eq!(
            plain.nominal.fingerprint(),
            telemetered.nominal.fingerprint(),
            "telemetry must not perturb the nominal leg"
        );
        assert_eq!(
            plain.stochastic.throughput.to_bits(),
            telemetered.stochastic.throughput.to_bits(),
            "telemetry must not perturb the stochastic leg"
        );
        let text = std::fs::read_to_string(&path).expect("stream file");
        let stats = osmosis_telemetry::validate_jsonl(&text).expect("schema-valid stream");
        assert_eq!(stats.metas, 2, "nominal + stochastic legs");
        assert_eq!(stats.summaries, 2);
        assert!(stats.snapshots > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn declared_topology_routes_through_the_same_fabric_path() {
        // `fat-tree:radix=8,levels=2,planes=2` is exactly the default
        // Quick-scale fabric, so routing the study through
        // the declarative spec must change nothing — bit for bit.
        let default_run = run(Scale::Quick, 41);
        let routed = run_with(
            Scale::Quick,
            41,
            &AvailabilityOptions {
                topology: Some(TopologySpec::two_level(8)),
                ..Default::default()
            },
        )
        .expect("topology-routed run");
        assert_eq!(
            default_run.nominal.fingerprint(),
            routed.nominal.fingerprint(),
            "equivalent declared topology must not perturb the study"
        );
        assert_eq!(default_run.mttr_sweep, routed.mttr_sweep);

        // Families without wavelength planes are rejected up front with
        // a typed error, not a silent misconfiguration.
        let err = run_with(
            Scale::Quick,
            41,
            &AvailabilityOptions {
                topology: Some(TopologySpec::dragonfly(8, 4)),
                ..Default::default()
            },
        )
        .expect_err("dragonfly has no fault-capable planes");
        assert!(
            err.to_string().contains("fault-capable"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "osmosis-avail-ckpt-{}-{}",
            std::process::id(),
            31u64
        ));
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");
        let opts = AvailabilityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        // First pass populates the checkpoints; the second restores every
        // point from disk. Both must match an unsupervised reference.
        let first = run_with(Scale::Quick, 31, &opts).expect("first pass");
        let resumed = run_with(Scale::Quick, 31, &opts).expect("resumed pass");
        let reference = run(Scale::Quick, 31);
        for ((f, s), r) in first
            .plane_sweep
            .iter()
            .zip(resumed.plane_sweep.iter())
            .zip(reference.plane_sweep.iter())
        {
            assert_eq!(f.report.fingerprint(), r.report.fingerprint());
            assert_eq!(
                s.report.fingerprint(),
                r.report.fingerprint(),
                "restored point diverged at {} failed planes",
                r.failed_planes
            );
        }
        assert_eq!(first.mttr_sweep, reference.mttr_sweep);
        assert_eq!(resumed.mttr_sweep, reference.mttr_sweep);
        std::fs::remove_dir_all(&dir).ok();
    }
}
