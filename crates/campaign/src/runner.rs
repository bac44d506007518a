//! The campaign runner: every shard in this process, on
//! [`parallel_sweep`], folded into a single summary.
//!
//! A shard is a pure function of `spec.json` and the intact prefix of
//! its checkpoint log, so a shard that fails fails the same way again:
//! there is nothing to retry. A `run_shard` error is returned in shard
//! order, a panic propagates with its payload, and a process killed
//! mid-campaign leaves every finished point in its shard's log and
//! every finished shard in its summary, which the next call restores.
//!
//! The campaign fingerprint folds the per-shard fingerprints in shard
//! index order and leaves out wall-clock timings and whether a shard
//! was restored or run, so a resumed campaign reproduces the
//! uninterrupted fingerprint bit for bit.

use crate::shard::{io_err, load_shard_summary, paths, run_shard, write_atomic, ShardSummary};
use crate::spec::CampaignSpec;
use crate::{fnv_words, CampaignError};
use osmosis_sim::json::Value;
use osmosis_sim::sweep::parallel_sweep;
use osmosis_telemetry::{MetricsRegistry, Record, ShardStatus, SCHEMA_VERSION};
use std::path::Path;

/// The outcome of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign key (hash of the canonical spec encoding).
    pub key: u64,
    /// Shard count the campaign ran under.
    pub shards: usize,
    /// Total scenario points in the spec.
    pub points: u64,
    /// Points covered by the shards (all of them, on success).
    pub points_done: u64,
    /// Shards run by this call.
    pub completed: Vec<usize>,
    /// Shards adopted from summaries already on disk (`--resume`).
    pub restored: Vec<usize>,
    /// Order-determined fold over per-shard fingerprints.
    pub fingerprint: u64,
    /// Cells delivered across the shards.
    pub delivered: u64,
    /// Cells dropped across the shards.
    pub dropped: u64,
    /// The campaign's merged metric registry.
    pub registry: MetricsRegistry,
    /// Every shard's checkpoint-repair warnings, in shard order.
    pub warnings: Vec<String>,
}

/// Install `spec` in `dir`, or check that the spec already there is the
/// same campaign: resuming another campaign's checkpoints is refused.
fn adopt_spec(dir: &Path, spec: &CampaignSpec) -> Result<(), CampaignError> {
    let spec_path = paths::spec(dir);
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return write_atomic(&spec_path, &spec.to_json());
        }
        Err(e) => return Err(io_err("read", &spec_path, e)),
    };
    let on_disk = Value::parse(&text)
        .ok()
        .and_then(|v| CampaignSpec::from_json(&v));
    match on_disk {
        Some(on_disk) if on_disk.key() == spec.key() => Ok(()),
        Some(_) => Err(CampaignError::Spec {
            message: format!(
                "refusing to resume: {} holds a different campaign",
                spec_path.display()
            ),
        }),
        None => Err(CampaignError::Spec {
            message: format!("unreadable campaign spec {}", spec_path.display()),
        }),
    }
}

/// Run (or resume) a campaign of `shards` shards in `dir`.
///
/// A shard whose key-valid summary is already on disk is restored from
/// it; every other shard runs through [`run_shard`], which restores the
/// points its checkpoint log holds. Shards run in parallel; their
/// summaries are folded in shard-index order into `summary.json` and
/// the `campaign.jsonl` stream.
///
/// `Err` is a bad spec or shard count, a resume against a different
/// campaign's directory, filesystem trouble, or the first failing
/// shard's error in shard order.
pub fn run_campaign(
    dir: &Path,
    spec: &CampaignSpec,
    shards: usize,
) -> Result<CampaignReport, CampaignError> {
    spec.validate()?;
    if shards == 0 {
        return Err(CampaignError::Spec {
            message: "shards must be ≥ 1".into(),
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
    adopt_spec(dir, spec)?;
    let key = spec.key();

    let outcomes = parallel_sweep((0..shards).collect(), |shard| {
        match load_shard_summary(dir, shard, shards, key)? {
            Some(summary) => Ok((ShardStatus::Restored, summary)),
            None => run_shard(dir, shard, shards).map(|s| (ShardStatus::Completed, s)),
        }
    });
    let outcomes: Vec<(ShardStatus, ShardSummary)> =
        outcomes.into_iter().collect::<Result<_, _>>()?;

    let mut report = CampaignReport {
        key,
        shards,
        points: spec.total_points(),
        points_done: 0,
        completed: Vec::new(),
        restored: Vec::new(),
        fingerprint: 0,
        delivered: 0,
        dropped: 0,
        registry: MetricsRegistry::new(),
        warnings: Vec::new(),
    };
    let mut words = vec![key, shards as u64];
    for (shard, (status, summary)) in outcomes.iter().enumerate() {
        match status {
            ShardStatus::Restored => report.restored.push(shard),
            ShardStatus::Completed => report.completed.push(shard),
        }
        // The leading 1 is part of the fingerprint's pinned word format.
        words.extend([1, shard as u64, summary.fingerprint]);
        report.points_done += summary.points;
        report.delivered += summary.delivered;
        report.dropped += summary.dropped;
        report.registry.merge(&summary.registry);
        report.warnings.extend(summary.warnings.iter().cloned());
    }
    report.fingerprint = fnv_words(words);
    finalize(dir, &outcomes, &report)?;
    Ok(report)
}

/// Write `summary.json` and the schema-valid `campaign.jsonl` stream.
/// `attempts` counts the shards this call ran; `quarantined` stays in
/// both files, always empty, so their bytes keep their shape.
fn finalize(
    dir: &Path,
    outcomes: &[(ShardStatus, ShardSummary)],
    report: &CampaignReport,
) -> Result<(), CampaignError> {
    let doc = Value::Obj(vec![
        ("version".into(), Value::u64(1)),
        ("key".into(), Value::u64(report.key)),
        ("shards".into(), Value::u64(report.shards as u64)),
        ("points".into(), Value::u64(report.points)),
        ("points_done".into(), Value::u64(report.points_done)),
        ("completed".into(), Value::u64(report.shards as u64)),
        ("quarantined".into(), Value::Arr(Vec::new())),
        ("fingerprint".into(), Value::u64(report.fingerprint)),
        ("delivered".into(), Value::u64(report.delivered)),
        ("dropped".into(), Value::u64(report.dropped)),
        ("attempts".into(), Value::u64(report.completed.len() as u64)),
        ("registry".into(), report.registry.to_json()),
    ]);
    write_atomic(&paths::summary(dir), &doc)?;

    let mut records = vec![Record::Campaign {
        version: SCHEMA_VERSION,
        key: report.key,
        label: "campaign".into(),
        shards: report.shards as u64,
        points: report.points,
    }];
    records.extend(
        outcomes
            .iter()
            .enumerate()
            .map(|(shard, (status, summary))| Record::Shard {
                shard: shard as u64,
                status: *status,
                points: summary.points,
                attempts: 1,
                fingerprint: summary.fingerprint,
            }),
    );
    records.push(Record::CampaignSummary {
        key: report.key,
        completed: report.shards as u64,
        quarantined: Vec::new(),
        points_done: report.points_done,
        fingerprint: report.fingerprint,
        registry: report.registry.clone(),
    });
    let mut out = String::new();
    for record in &records {
        out.push_str(&record.encode());
        out.push('\n');
    }
    let stream_path = paths::stream(dir);
    std::fs::write(&stream_path, out).map_err(|e| io_err("write", &stream_path, e))
}
