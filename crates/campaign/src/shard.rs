//! One worker's share of a campaign: run the shard's points in index
//! order under an append-only checkpoint log, stream per-shard
//! telemetry JSONL, and fold the results into a shard summary.
//!
//! The worker is a pure function of `(spec.json, shard, shards)` plus
//! whatever intact checkpoint prefix survives on disk — so a worker
//! killed at any instant (including mid-append: the torn trailing line
//! is truncated away on reload) resumes to a bit-identical summary.
//! The checkpoint file doubles as the supervisor's heartbeat: it grows
//! by one line per completed point, and a worker whose log stops
//! growing is presumed hung and killed.

use crate::spec::{BufferSpec, CampaignSpec, FaultSpec, ScenarioPoint};
use crate::{fnv_words, CampaignError};
use osmosis_fabric::{BufferTech, CompiledFabric, Placement, TopologyFamily};
use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis_sched::Flppr;
use osmosis_sim::engine::EngineConfig;
use osmosis_sim::json::Value;
use osmosis_sim::{CheckpointLog, FaultView, SeedSequence};
use osmosis_switch::{run_switch_instrumented_traced, CellSwitch, VoqSwitch};
use osmosis_telemetry::{
    campaign_record, campaign_summary_record, shard_point_record, shard_record, MetricsRegistry,
    TelemetrySink,
};
use osmosis_traffic::{BernoulliUniform, Bursty, TrafficGen};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The digest of one completed scenario point — exactly what the
/// checkpoint log persists, and all the campaign fold ever needs.
#[derive(Debug, Clone)]
struct PointDigest {
    fingerprint: u64,
    throughput: f64,
    mean_delay: f64,
    delivered: u64,
    dropped: u64,
    registry: Value,
}

impl PointDigest {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("fingerprint".into(), Value::u64(self.fingerprint)),
            ("throughput".into(), Value::f64(self.throughput)),
            ("mean_delay".into(), Value::f64(self.mean_delay)),
            ("delivered".into(), Value::u64(self.delivered)),
            ("dropped".into(), Value::u64(self.dropped)),
            ("registry".into(), self.registry.clone()),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(PointDigest {
            fingerprint: v.get("fingerprint")?.as_u64()?,
            throughput: v.get("throughput")?.as_f64()?,
            mean_delay: v.get("mean_delay")?.as_f64()?,
            delivered: v.get("delivered")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
            registry: v.get("registry")?.clone(),
        })
    }
}

/// One completed shard: the merge unit the supervisor folds into the
/// campaign summary.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The campaign key (ties the summary to its spec).
    pub campaign_key: u64,
    /// This shard's index.
    pub shard: usize,
    /// The sharding the campaign ran under.
    pub shards: usize,
    /// Scenario points this shard owns (all completed).
    pub points: u64,
    /// How many of them were restored from the checkpoint log rather
    /// than simulated in this process.
    pub restored: u64,
    /// Order-determined FNV fold over the per-point fingerprints.
    pub fingerprint: u64,
    /// Cells delivered across the shard.
    pub delivered: u64,
    /// Cells dropped across the shard.
    pub dropped: u64,
    /// The shard's merged metric registry.
    pub registry: MetricsRegistry,
    /// Checkpoint-recovery warnings (torn lines truncated, stale logs
    /// discarded) surfaced for the supervisor's manifest.
    pub warnings: Vec<String>,
}

impl ShardSummary {
    /// Serialize for the shard's summary file.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("version".into(), Value::u64(1)),
            ("campaign_key".into(), Value::u64(self.campaign_key)),
            ("shard".into(), Value::u64(self.shard as u64)),
            ("shards".into(), Value::u64(self.shards as u64)),
            ("points".into(), Value::u64(self.points)),
            ("restored".into(), Value::u64(self.restored)),
            ("fingerprint".into(), Value::u64(self.fingerprint)),
            ("delivered".into(), Value::u64(self.delivered)),
            ("dropped".into(), Value::u64(self.dropped)),
            ("registry".into(), self.registry.to_json()),
        ])
    }

    /// Deserialize a summary file; `None` on malformed input.
    pub fn from_json(v: &Value) -> Option<Self> {
        if v.get("version")?.as_u64()? != 1 {
            return None;
        }
        Some(ShardSummary {
            campaign_key: v.get("campaign_key")?.as_u64()?,
            shard: v.get("shard")?.as_usize()?,
            shards: v.get("shards")?.as_usize()?,
            points: v.get("points")?.as_u64()?,
            restored: v.get("restored")?.as_u64()?,
            fingerprint: v.get("fingerprint")?.as_u64()?,
            delivered: v.get("delivered")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
            registry: MetricsRegistry::from_json(v.get("registry")?)?,
            warnings: Vec::new(),
        })
    }
}

/// Campaign state-file layout inside the campaign directory.
pub mod paths {
    use super::{Path, PathBuf};

    /// The serialized [`super::CampaignSpec`].
    pub fn spec(dir: &Path) -> PathBuf {
        dir.join("spec.json")
    }

    /// A shard's append-only checkpoint log (also its heartbeat).
    pub fn shard_log(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.ckpt.jsonl"))
    }

    /// A shard's telemetry JSONL stream.
    pub fn shard_stream(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.jsonl"))
    }

    /// A shard's summary file (written atomically on completion; its
    /// existence marks the shard done).
    pub fn shard_summary(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.summary.json"))
    }

    /// The campaign manifest (rewritten on every state change).
    pub fn manifest(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// The campaign-level summary (written on completion).
    pub fn summary(dir: &Path) -> PathBuf {
        dir.join("summary.json")
    }

    /// The campaign-level telemetry JSONL stream.
    pub fn stream(dir: &Path) -> PathBuf {
        dir.join("campaign.jsonl")
    }
}

fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> CampaignError {
    CampaignError::Io {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// Load and validate the campaign spec from `dir`.
pub fn load_spec(dir: &Path) -> Result<CampaignSpec, CampaignError> {
    let path = paths::spec(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| io_err("read", &path, e))?;
    let doc = Value::parse(&text).map_err(|e| io_err("parse", &path, e))?;
    let spec = CampaignSpec::from_json(&doc).ok_or_else(|| CampaignError::Spec {
        message: format!("malformed campaign spec {}", path.display()),
    })?;
    spec.validate()?;
    Ok(spec)
}

/// Write `doc` to `path` atomically (tmp + rename): a crash mid-write
/// can never leave a torn file behind.
pub(crate) fn write_atomic(path: &Path, doc: &Value) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.encode() + "\n").map_err(|e| io_err("write", &tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename to", path, e))
}

/// Simulate one point on a built switch/fabric model.
fn simulate<S: CellSwitch + ?Sized>(
    model: &mut S,
    tr: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
) -> PointDigest {
    let mut sink = TelemetrySink::new();
    let mut inj = plan.map(FaultInjector::new);
    let faults = inj.as_mut().map(|i| i as &mut dyn FaultView);
    let report = run_switch_instrumented_traced(model, tr, cfg, &mut sink, faults, None);
    PointDigest {
        fingerprint: report.fingerprint(),
        throughput: report.throughput,
        mean_delay: report.mean_delay,
        delivered: report.delivered,
        dropped: report.dropped,
        registry: sink.registry().to_json(),
    }
}

fn fault_plan(fault: &FaultSpec, spines: usize) -> Option<FaultPlan> {
    match fault {
        FaultSpec::None => None,
        FaultSpec::PlaneLoss { planes } => {
            // Leave at least one survivor plane so the point measures
            // degraded service, not a dead fabric.
            let kill = (*planes).min(spines.saturating_sub(1));
            if kill == 0 {
                return None;
            }
            let mut plan = FaultPlan::new();
            for plane in 0..kill {
                plan = plan.permanent(FaultKind::WavelengthLoss { plane }, 0);
            }
            Some(plan)
        }
        FaultSpec::Stochastic { mtbf, mttr } => {
            Some(FaultPlan::new().stochastic(FaultKind::WavelengthLoss { plane: 0 }, *mtbf, *mttr))
        }
    }
}

fn traffic_for(hosts: usize, point: &ScenarioPoint) -> Box<dyn TrafficGen> {
    let seeds = SeedSequence::new(point.seed);
    if point.burst > 1.0 {
        Box::new(Bursty::new(hosts, point.load, point.burst, &seeds))
    } else {
        Box::new(BernoulliUniform::new(hosts, point.load, &seeds))
    }
}

/// Run one scenario point. Deterministic: the digest is a pure function
/// of `(spec, point.index)`.
fn run_point(spec: &CampaignSpec, point: &ScenarioPoint) -> Result<PointDigest, CampaignError> {
    let cfg = EngineConfig::new(spec.warmup, spec.measure).with_seed(point.seed);
    let Some(declared) = point.topology.as_ref() else {
        // Single-stage FLPPR switch. No fault hooks here: non-None
        // fault variants run clean (deterministically) by design.
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(spec.ports, 1)));
        let mut tr = traffic_for(spec.ports, point);
        return Ok(simulate(&mut sw, tr.as_mut(), &cfg, None));
    };
    // The two-level, two-plane fat tree is the campaign's fault-capable
    // topology: it runs the paper's request/grant cycle (`rg=1`) and
    // takes the fault plan and the buffer axis. Every other spec runs as
    // declared, clean and electronic, like vacuous fault plans run clean
    // (widening the axes to them re-pins the campaign).
    let two_level = TopologyFamily::FatTree {
        levels: 2,
        planes: 2,
    };
    let faultable = declared.family == two_level;
    let paper_cycle = if faultable { 1 } else { 0 };
    let tspec = declared.with_request_grant(declared.request_grant.max(paper_cycle));
    // FDL input stages need the input-only placement and the one-slot
    // request/grant loop (a bank's shortest line); points that pair FDL
    // with anything else keep their native electronic buffers.
    let fdl = faultable
        && point.buffer == BufferSpec::Fdl
        && (tspec.placement, tspec.request_grant) == (Placement::InputOnly, 1);
    let tech = if fdl {
        BufferTech::Fdl
    } else {
        BufferTech::Electronic
    };
    let mut fab = CompiledFabric::try_new(tspec)
        .and_then(|fab| fab.with_buffer_tech(tech))
        .map_err(|e| CampaignError::Spec {
            message: format!("topology `{declared}`: {e}"),
        })?;
    let plan = if faultable {
        fault_plan(&point.fault, tspec.wavelength_planes())
    } else {
        None
    };
    let mut tr = traffic_for(fab.ports(), point);
    Ok(simulate(&mut fab, tr.as_mut(), &cfg, plan))
}

/// Run shard `shard` of `shards` against the campaign in `dir`.
///
/// Resumable and crash-safe: completed points are restored from the
/// shard's checkpoint log (torn trailing lines are truncated away with
/// a warning), fresh points are appended one line each, and the final
/// summary file is written atomically — its existence is the done
/// marker the supervisor trusts. The telemetry stream is rewritten from
/// scratch each attempt, so its final bytes are identical however many
/// times the worker was interrupted.
///
/// A shard on the spec's poison list completes its first point (so the
/// quarantine test exercises checkpointed partial work) and then fails
/// with [`CampaignError::Poisoned`] — on every attempt.
pub fn run_shard(dir: &Path, shard: usize, shards: usize) -> Result<ShardSummary, CampaignError> {
    if shards == 0 {
        return Err(CampaignError::Spec {
            message: "shards must be ≥ 1".into(),
        });
    }
    let spec = load_spec(dir)?;
    let key = spec.key();
    let log = CheckpointLog::new(paths::shard_log(dir, shard), spec.shard_key(shard, shards));
    let (entries, mut warnings) = log.load_and_repair().map_err(|e| CampaignError::Io {
        message: e.to_string(),
    })?;
    let mut completed: BTreeMap<u64, PointDigest> = BTreeMap::new();
    for (idx, payload) in &entries {
        match PointDigest::from_json(payload) {
            Some(d) => {
                completed.insert(*idx, d);
            }
            None => warnings.push(format!(
                "shard {shard}: undecodable checkpoint payload for point {idx}; re-running it"
            )),
        }
    }

    let indices = spec.shard_indices(shard, shards);
    let poisoned = spec.poison_shards.contains(&shard);

    let stream_path = paths::shard_stream(dir, shard);
    let mut stream = std::io::BufWriter::new(
        std::fs::File::create(&stream_path).map_err(|e| io_err("create", &stream_path, e))?,
    );
    let mut emit = |v: Value| -> Result<(), CampaignError> {
        let mut line = v.encode();
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| io_err("write", &stream_path, e))
    };
    emit(campaign_record(
        key,
        &format!("shard-{shard}/{shards}"),
        shards as u64,
        spec.total_points(),
    ))?;

    let mut restored = 0u64;
    let mut fold: Vec<u64> = vec![key, shard as u64, shards as u64];
    let mut registry = MetricsRegistry::new();
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for (n, &idx) in indices.iter().enumerate() {
        let digest = match completed.get(&idx) {
            Some(d) => {
                restored += 1;
                d.clone()
            }
            None => {
                let point = spec.point(idx).ok_or_else(|| CampaignError::Spec {
                    message: format!("point index {idx} out of range"),
                })?;
                let d = run_point(&spec, &point)?;
                log.append(idx, &d.to_json())
                    .map_err(|e| CampaignError::Io {
                        message: e.to_string(),
                    })?;
                d
            }
        };
        emit(shard_point_record(
            shard as u64,
            idx,
            digest.fingerprint,
            digest.throughput,
            digest.mean_delay,
            digest.delivered,
            digest.dropped,
        ))?;
        fold.push(idx);
        fold.push(digest.fingerprint);
        delivered += digest.delivered;
        dropped += digest.dropped;
        if registry.merge_json(&digest.registry).is_none() {
            return Err(CampaignError::Spec {
                message: format!("shard {shard}: malformed registry in point {idx} digest"),
            });
        }
        if poisoned && n == 0 {
            // Deliberate failure *after* checkpointing real work: the
            // quarantine test proves partial progress survives.
            return Err(CampaignError::Poisoned { shard });
        }
    }
    if poisoned {
        // A poison shard with zero points still fails every attempt.
        return Err(CampaignError::Poisoned { shard });
    }

    let summary = ShardSummary {
        campaign_key: key,
        shard,
        shards,
        points: indices.len() as u64,
        restored,
        fingerprint: fnv_words(fold),
        delivered,
        dropped,
        registry,
        warnings,
    };
    // Always "completed" here — the worker stream must be byte-stable
    // across interruptions, so restore history cannot appear in it. The
    // supervisor's campaign stream is where restored is distinguished.
    emit(shard_record(
        shard as u64,
        "completed",
        summary.points,
        1,
        summary.fingerprint,
        None,
    ))?;
    emit(campaign_summary_record(
        key,
        1,
        &[],
        summary.points,
        summary.fingerprint,
        &summary.registry,
    ))?;
    stream
        .flush()
        .map_err(|e| io_err("flush", &stream_path, e))?;
    write_atomic(&paths::shard_summary(dir, shard), &summary.to_json())?;
    Ok(summary)
}

/// Load a shard's summary file, verifying it belongs to `(key, shards)`.
/// `Ok(None)` when absent or stale — the shard just runs (again).
pub fn load_shard_summary(
    dir: &Path,
    shard: usize,
    shards: usize,
    key: u64,
) -> Result<Option<ShardSummary>, CampaignError> {
    let path = paths::shard_summary(dir, shard);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read", &path, e)),
    };
    let parsed = Value::parse(&text)
        .ok()
        .and_then(|v| ShardSummary::from_json(&v));
    Ok(parsed.filter(|s| s.campaign_key == key && s.shards == shards && s.shard == shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use osmosis_fabric::TopologySpec;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec {
            seed: 0x5EED,
            ports: 4,
            warmup: 20,
            measure: 150,
            loads: vec![0.4, 0.8],
            bursts: vec![1.0, 3.0],
            faults: vec![FaultSpec::None, FaultSpec::PlaneLoss { planes: 1 }],
            topologies: vec![None, Some(TopologySpec::two_level(4))],
            buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
            replicas: 1,
            poison_shards: vec![],
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "osmosis-campaign-shard-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_spec(dir: &Path, spec: &CampaignSpec) {
        write_atomic(&paths::spec(dir), &spec.to_json()).unwrap();
    }

    #[test]
    fn shard_runs_are_deterministic_and_resumable() {
        let spec = quick_spec();
        let a = fresh_dir("det-a");
        let b = fresh_dir("det-b");
        write_spec(&a, &spec);
        write_spec(&b, &spec);
        let first = run_shard(&a, 0, 2).unwrap();
        let again = run_shard(&b, 0, 2).unwrap();
        assert_eq!(first.fingerprint, again.fingerprint);
        assert_eq!(first.points, spec.shard_indices(0, 2).len() as u64);
        assert_eq!(first.restored, 0);
        // A re-run in the same dir restores every point from the log.
        let resumed = run_shard(&a, 0, 2).unwrap();
        assert_eq!(resumed.restored, resumed.points);
        assert_eq!(resumed.fingerprint, first.fingerprint);
        assert_eq!(
            resumed.registry.to_json().encode(),
            first.registry.to_json().encode()
        );
        // Telemetry stream is schema-valid and byte-stable across runs.
        let stream = std::fs::read_to_string(paths::shard_stream(&a, 0)).unwrap();
        let stats = osmosis_telemetry::validate_jsonl(&stream).unwrap();
        assert_eq!(stats.campaigns, 1);
        assert_eq!(stats.shard_points, first.points);
        assert_eq!(stats.campaign_summaries, 1);
        let stream_b = std::fs::read_to_string(paths::shard_stream(&b, 0)).unwrap();
        assert_eq!(stream, stream_b);
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn torn_checkpoint_line_recovers_bit_identically() {
        let spec = quick_spec();
        let dir = fresh_dir("torn");
        write_spec(&dir, &spec);
        let clean = run_shard(&dir, 1, 2).unwrap();
        // Corrupt the log the way a SIGKILL mid-append would: chop the
        // final record in half, and drop the summary so the shard
        // re-runs from the damaged log.
        let log_path = paths::shard_log(&dir, 1);
        let text = std::fs::read_to_string(&log_path).unwrap();
        std::fs::write(&log_path, &text[..text.len() - 7]).unwrap();
        std::fs::remove_file(paths::shard_summary(&dir, 1)).unwrap();
        let recovered = run_shard(&dir, 1, 2).unwrap();
        assert_eq!(recovered.fingerprint, clean.fingerprint);
        assert!(
            !recovered.warnings.is_empty(),
            "torn line must surface a warning"
        );
        assert_eq!(recovered.restored, recovered.points - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poison_shard_fails_every_attempt_but_checkpoints_first_point() {
        let mut spec = quick_spec();
        spec.poison_shards = vec![0];
        let dir = fresh_dir("poison");
        write_spec(&dir, &spec);
        let err = run_shard(&dir, 0, 2).unwrap_err();
        assert_eq!(err, CampaignError::Poisoned { shard: 0 });
        // The first point made it into the log before the failure.
        let log = CheckpointLog::new(paths::shard_log(&dir, 0), spec.shard_key(0, 2));
        let (entries, _) = log.load_and_repair().unwrap();
        assert_eq!(entries.len(), 1);
        // And it fails again on retry (after restoring that point).
        let err = run_shard(&dir, 0, 2).unwrap_err();
        assert_eq!(err, CampaignError::Poisoned { shard: 0 });
        // The unpoisoned sibling shard is unaffected.
        assert!(run_shard(&dir, 1, 2).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_files_round_trip_and_reject_stale_keys() {
        let spec = quick_spec();
        let dir = fresh_dir("summary");
        write_spec(&dir, &spec);
        let summary = run_shard(&dir, 0, 3).unwrap();
        let loaded = load_shard_summary(&dir, 0, 3, spec.key())
            .unwrap()
            .expect("summary present");
        assert_eq!(loaded.fingerprint, summary.fingerprint);
        assert_eq!(
            loaded.registry.to_json().encode(),
            summary.registry.to_json().encode()
        );
        // Wrong key / wrong sharding ⇒ treated as absent.
        assert!(load_shard_summary(&dir, 0, 3, spec.key() ^ 1)
            .unwrap()
            .is_none());
        assert!(load_shard_summary(&dir, 0, 4, spec.key())
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
