//! The five benchmark workloads and one repetition of each.
//!
//! A repetition is a fixed slot count on a freshly constructed model fed
//! by the program's own traffic layer, seeded from `--seed`; how many
//! repetitions a run makes is the only thing `--seconds` decides. Sizes
//! are chosen so one repetition takes one to three seconds on a 2-core
//! shared box: a run then holds enough repetitions for a steady median.

use crate::wrappers::{PhaseTimed, SharedTrace, TimedSched, TimedTraffic};
use osmosis_campaign::shard::paths;
use osmosis_campaign::{run_shard, BufferSpec, CampaignSpec, FaultSpec};
use osmosis_fabric::{CompiledFabric, ExpandedFabric, TopologySpec};
use osmosis_sched::{CellScheduler, Flppr};
use osmosis_sim::engine::{EngineConfig, EngineReport};
use osmosis_sim::json::Value;
use osmosis_sim::SeedSequence;
use osmosis_switch::{run_switch, CellSwitch, VoqSwitch};
use osmosis_traffic::{BernoulliUniform, TrafficGen};
use std::path::Path;
use std::time::Instant;

/// The seed `benchmark/pins.json` is recorded at.
pub const DEFAULT_SEED: u64 = 20_051_112;

/// What a workload simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `VoqSwitch` under `Flppr::osmosis(ports, 2)`, Bernoulli-uniform.
    Switch { ports: usize, load: f64 },
    /// `CompiledFabric` over the parsed topology spec, Bernoulli-uniform.
    Fabric { spec: &'static str, load: f64 },
    /// The 48-point campaign as one in-process shard, then its resume.
    Campaign,
}

/// The direct-call probes that ride with a workload's traced run: each
/// set goes with the workload whose end-to-end number it explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probes {
    None,
    /// Saturated rows of the scheduler ladder, and the plane-cost matrix.
    SatLadderAndPlanes,
    /// Sparse rows of the scheduler ladder.
    SparseLadder,
}

/// One benchmark workload: a model, a load and a fixed window.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub probes: Probes,
    /// Warm-up slots (per point for the campaign).
    pub warmup: u64,
    /// Measured slots (per point for the campaign).
    pub measure: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "switch64_sat",
        kind: Kind::Switch {
            ports: 64,
            load: 0.95,
        },
        probes: Probes::SatLadderAndPlanes,
        warmup: 5_000,
        measure: 45_000,
    },
    Workload {
        name: "switch64_light",
        kind: Kind::Switch {
            ports: 64,
            load: 0.10,
        },
        probes: Probes::SparseLadder,
        warmup: 15_000,
        measure: 135_000,
    },
    Workload {
        name: "fabric2k_mid",
        kind: Kind::Fabric {
            spec: "fat-tree:radix=64,levels=2,planes=2",
            load: 0.6,
        },
        probes: Probes::None,
        warmup: 100,
        measure: 500,
    },
    Workload {
        name: "fabric8k_light",
        kind: Kind::Fabric {
            spec: "fat-tree:radix=32,levels=3,planes=2",
            load: 0.10,
        },
        probes: Probes::None,
        warmup: 100,
        measure: 300,
    },
    Workload {
        name: "campaign_mix",
        kind: Kind::Campaign,
        probes: Probes::None,
        warmup: 100,
        measure: 400,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The modelled-design statistics of one repetition. Deterministic: a
/// change that only speeds the simulator up leaves every field identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    pub fingerprint: u64,
    pub throughput: f64,
    pub mean_delay: f64,
    pub p99_delay: f64,
    pub delivered: u64,
}

/// One repetition: its timings, its simulated statistics, and every
/// reason it counts as failed (none on a healthy run).
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spec parse, topology expansion and model + generator construction.
    pub setup_s: f64,
    /// `ExpandedFabric::expand` alone (fabric workloads).
    pub expand_s: f64,
    /// `CompiledFabric::over` alone (fabric workloads).
    pub build_s: f64,
    /// Wall of the engine `run` call (campaign: of the fresh shard pass).
    pub wall_s: f64,
    /// Wall of the campaign's resume pass over the finished directory.
    pub resume_s: f64,
    /// Simulated slots behind `wall_s`.
    pub slots: u64,
    /// Scenario points behind `wall_s` (1 for a model workload).
    pub points: u64,
    /// Operations attempted: the repetition itself, or each campaign
    /// point plus the resume pass.
    pub ops: u64,
    /// Bytes of campaign state left on disk per point.
    pub bytes_per_point: f64,
    /// The campaign's per-point fingerprints, in index order.
    pub point_fingerprints: Vec<u64>,
    pub sim: SimStats,
    pub failures: Vec<String>,
}

/// Why a model repetition fails on its own evidence: all four model
/// configurations are lossless and order-preserving by design, and carry
/// their offered load.
fn judge_report(r: &EngineReport, load: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if r.dropped > 0 {
        failures.push(format!("dropped {} cells", r.dropped));
    }
    if r.reordered > 0 {
        failures.push(format!("reordered {} cells", r.reordered));
    }
    if (r.throughput - load).abs() > 0.01 {
        failures.push(format!("throughput {} vs load {load}", r.throughput));
    }
    if r.p99_delay.is_none() {
        failures.push("p99 delay beyond the histogram".into());
    }
    failures
}

fn switch_parts(ports: usize, load: f64, seed: u64) -> (Box<dyn CellScheduler>, BernoulliUniform) {
    (
        Box::new(Flppr::osmosis(ports, 2)),
        BernoulliUniform::new(ports, load, &SeedSequence::new(seed)),
    )
}

/// Parse, expand and build a fabric and its generator; also returns the
/// walls of `ExpandedFabric::expand` and `CompiledFabric::over` alone.
fn fabric_parts(spec: &str, load: f64, seed: u64) -> (CompiledFabric, BernoulliUniform, f64, f64) {
    let spec: TopologySpec = match spec.parse() {
        Ok(s) => s,
        Err(e) => panic!("bad topology spec {spec}: {e}"),
    };
    let t = Instant::now();
    let expanded = match ExpandedFabric::expand(spec) {
        Ok(f) => f,
        Err(e) => panic!("expansion of {spec} failed: {e}"),
    };
    let expand_s = t.elapsed().as_secs_f64();
    let hosts = expanded.hosts.len();
    let t = Instant::now();
    let fabric = CompiledFabric::over(expanded);
    let build_s = t.elapsed().as_secs_f64();
    let traffic = BernoulliUniform::new(hosts, load, &SeedSequence::new(seed));
    (fabric, traffic, expand_s, build_s)
}

/// Set-up ends and the timed `run` call begins here; the model is
/// dropped after the clock has stopped.
fn timed_run<S: CellSwitch>(
    constructing_since: Instant,
    mut sw: S,
    mut tr: impl TrafficGen,
    cfg: &EngineConfig,
) -> (f64, f64, EngineReport) {
    let setup_s = constructing_since.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = run_switch(&mut sw, &mut tr, cfg);
    (setup_s, t.elapsed().as_secs_f64(), report)
}

/// One repetition of a switch or fabric workload; with `trace`, the
/// model, scheduler and generator run inside the timing wrappers.
pub fn model_rep(w: &Workload, seed: u64, trace: Option<&SharedTrace>) -> Rep {
    let cfg = EngineConfig::new(w.warmup, w.measure).with_seed(seed);
    let t0 = Instant::now();
    let (load, expand_s, build_s, (setup_s, wall_s, report)) = match w.kind {
        Kind::Switch { ports, load } => {
            let (sched, traffic) = switch_parts(ports, load, seed);
            let timed = match trace {
                None => timed_run(t0, VoqSwitch::new(sched), traffic, &cfg),
                Some(t) => {
                    let sched = Box::new(TimedSched::new(sched, t.clone()));
                    let sw = PhaseTimed::new(VoqSwitch::new(sched), t.clone());
                    timed_run(t0, sw, TimedTraffic::new(traffic, t.clone()), &cfg)
                }
            };
            (load, 0.0, 0.0, timed)
        }
        Kind::Fabric { spec, load } => {
            let (fabric, traffic, expand_s, build_s) = fabric_parts(spec, load, seed);
            let timed = match trace {
                None => timed_run(t0, fabric, traffic, &cfg),
                Some(t) => {
                    let fab = PhaseTimed::new(fabric, t.clone());
                    timed_run(t0, fab, TimedTraffic::new(traffic, t.clone()), &cfg)
                }
            };
            (load, expand_s, build_s, timed)
        }
        Kind::Campaign => panic!("campaign_mix has no engine-level repetition"),
    };
    Rep {
        setup_s,
        expand_s,
        build_s,
        wall_s,
        resume_s: 0.0,
        slots: w.warmup + w.measure,
        points: 1,
        ops: 1,
        bytes_per_point: 0.0,
        point_fingerprints: Vec::new(),
        sim: SimStats {
            fingerprint: report.fingerprint(),
            throughput: report.throughput,
            mean_delay: report.mean_delay,
            p99_delay: report.p99_delay.unwrap_or(f64::NAN),
            delivered: report.delivered,
        },
        failures: judge_report(&report, load),
    }
}

/// Further set-ups of the workload, each timed and thrown away, until
/// `max_samples` are taken or `budget_s` is spent. A set-up is far
/// shorter than a repetition, so a run can afford enough of them for a
/// steady `setup_s` median.
pub fn setup_samples(
    w: &Workload,
    seed: u64,
    max_samples: usize,
    budget_s: f64,
    dir: &Path,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(max_samples);
    while samples.len() < max_samples && started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        // Each arm reads the clock before it drops what it built.
        let elapsed = match w.kind {
            Kind::Switch { ports, load } => {
                let (sched, traffic) = switch_parts(ports, load, seed);
                let built = std::hint::black_box((VoqSwitch::new(sched), traffic));
                let elapsed = t.elapsed();
                drop(built);
                elapsed
            }
            Kind::Fabric { spec, load } => {
                let built = std::hint::black_box(fabric_parts(spec, load, seed));
                let elapsed = t.elapsed();
                drop(built);
                elapsed
            }
            Kind::Campaign => {
                campaign_setup(dir, &campaign_spec(w, seed))
                    .map_err(|e| format!("campaign setup in {}: {e}", dir.display()))?;
                let elapsed = t.elapsed();
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("remove {}: {e}", dir.display()))?;
                elapsed
            }
        };
        samples.push(elapsed.as_secs_f64());
    }
    Ok(samples)
}

/// The campaign_mix scenario space: 2 loads × 2 bursts × 3 fault plans ×
/// 2 topologies × 2 buffer technologies = 48 points.
pub fn campaign_spec(w: &Workload, seed: u64) -> CampaignSpec {
    CampaignSpec {
        seed,
        ports: 64,
        warmup: w.warmup,
        measure: w.measure,
        loads: vec![0.3, 0.7],
        bursts: vec![1.0, 4.0],
        faults: vec![
            FaultSpec::None,
            FaultSpec::PlaneLoss { planes: 1 },
            FaultSpec::Stochastic {
                mtbf: 5_000.0,
                mttr: 600.0,
            },
        ],
        topologies: vec![None, Some(TopologySpec::two_level(16))],
        buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
        replicas: 1,
        poison_shards: vec![],
    }
}

/// Create `dir` and write the campaign's `spec.json` into it. A `dir`
/// left behind by a killed run is emptied first.
pub fn campaign_setup(dir: &Path, spec: &CampaignSpec) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    std::fs::write(paths::spec(dir), spec.to_json().encode() + "\n")
}

/// The `shard_point` records of a shard's telemetry stream.
pub fn stream_points(dir: &Path, shard: usize) -> std::io::Result<Vec<Value>> {
    let text = std::fs::read_to_string(paths::shard_stream(dir, shard))?;
    Ok(text
        .lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("shard_point"))
        .collect())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// One campaign repetition in the scratch directory `dir`: write the
/// spec, run every point as shard 0 of 1, then run the shard again over
/// the finished directory, which must restore every point unchanged.
pub fn campaign_rep(w: &Workload, seed: u64, dir: &Path) -> Result<Rep, String> {
    let t0 = Instant::now();
    let spec = campaign_spec(w, seed);
    let total = spec.total_points();
    campaign_setup(dir, &spec).map_err(|e| format!("campaign setup in {}: {e}", dir.display()))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let fresh = run_shard(dir, 0, 1).map_err(|e| format!("campaign shard: {e}"))?;
    let wall_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let resumed = run_shard(dir, 0, 1).map_err(|e| format!("campaign resume: {e}"))?;
    let resume_s = t2.elapsed().as_secs_f64();

    let points = stream_points(dir, 0).map_err(|e| format!("campaign stream: {e}"))?;
    let bytes = dir_bytes(dir).map_err(|e| format!("campaign dir: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let mut failures = Vec::new();
    for idx in 0..total {
        let present = points
            .iter()
            .any(|p| p.get("index").and_then(Value::as_u64) == Some(idx));
        if !present {
            failures.push(format!("point {idx} missing from the shard stream"));
        }
    }
    if fresh.points != total || fresh.restored != 0 {
        failures.push(format!(
            "fresh pass completed {} points ({} restored), expected {total} fresh",
            fresh.points, fresh.restored
        ));
    }
    if resumed.restored != total || resumed.fingerprint != fresh.fingerprint {
        failures.push(format!(
            "resume restored {} of {total} points, fingerprint {:#x} vs {:#x}",
            resumed.restored, resumed.fingerprint, fresh.fingerprint
        ));
    }

    // The campaign's simulated statistics are per point: report their
    // mean, and the worst point's mean delay in the p99 column.
    let column = |field: &str| -> Vec<f64> {
        points
            .iter()
            .filter_map(|p| p.get(field).and_then(Value::as_f64))
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let delays = column("mean_delay");
    Ok(Rep {
        setup_s,
        expand_s: 0.0,
        build_s: 0.0,
        wall_s,
        resume_s,
        slots: total * (w.warmup + w.measure),
        points: total,
        ops: total + 1,
        bytes_per_point: bytes as f64 / total as f64,
        point_fingerprints: points
            .iter()
            .filter_map(|p| p.get("fingerprint").and_then(Value::as_u64))
            .collect(),
        sim: SimStats {
            fingerprint: fresh.fingerprint,
            throughput: mean(&column("throughput")),
            mean_delay: mean(&delays),
            p99_delay: delays.iter().copied().fold(f64::NAN, f64::max),
            delivered: fresh.delivered,
        },
        failures,
    })
}
