//! The crash-safe campaign runner, interrupted the way a killed process
//! leaves it: one shard's checkpoint log torn mid-record, another
//! shard's state gone entirely, the campaign-level files never written.
//! The next run reproduces the uninterrupted campaign bit for bit —
//! fingerprint, merged registry and every shard file — and reports the
//! repair it made.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use osmosis::campaign::shard::paths;
use osmosis::campaign::{run_campaign, BufferSpec, CampaignError, CampaignSpec, FaultSpec};
use osmosis::fabric::TopologySpec;
use osmosis::sim::json::Value;
use osmosis::telemetry::validate_jsonl;
use std::path::{Path, PathBuf};

const SHARDS: usize = 5;

fn quick_spec() -> CampaignSpec {
    CampaignSpec {
        seed: 0xCA11,
        ports: 4,
        warmup: 50,
        measure: 400,
        loads: vec![0.3, 0.7],
        bursts: vec![1.0, 3.0],
        faults: vec![FaultSpec::None, FaultSpec::PlaneLoss { planes: 1 }],
        topologies: vec![None, Some(TopologySpec::two_level(4))],
        buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
        replicas: 1,
        poison_shards: vec![],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("osmosis-campaign-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("campaign file")
}

/// A shard summary without its `restored` count, the one field that
/// says how the shard's points were obtained rather than what they are.
fn summary_body(dir: &Path, shard: usize) -> String {
    let mut doc = Value::parse(&read(&paths::shard_summary(dir, shard))).expect("summary");
    if let Value::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "restored");
    }
    doc.encode()
}

/// Every per-shard file of a campaign directory: checkpoint log,
/// telemetry stream and summary body.
fn shard_files(dir: &Path) -> Vec<[String; 3]> {
    (0..SHARDS)
        .map(|s| {
            [
                read(&paths::shard_log(dir, s)),
                read(&paths::shard_stream(dir, s)),
                summary_body(dir, s),
            ]
        })
        .collect()
}

#[test]
fn sigkilled_campaign_resumes_to_the_uninterrupted_fingerprint() {
    let spec = quick_spec();

    // Reference: one uninterrupted run.
    let dir_a = fresh_dir("clean");
    let clean = run_campaign(&dir_a, &spec, SHARDS).expect("clean run");
    assert_eq!(clean.completed, (0..SHARDS).collect::<Vec<_>>());
    assert!(clean.restored.is_empty() && clean.warnings.is_empty());
    assert_eq!(clean.points_done, spec.total_points());
    assert!(clean.delivered > 0);

    // Victim: the same campaign, then the damage a kill leaves behind.
    let dir_b = fresh_dir("killed");
    run_campaign(&dir_b, &spec, SHARDS).expect("victim run");
    let (torn, lost) = (1, 3);
    let log = paths::shard_log(&dir_b, torn);
    let bytes = std::fs::read(&log).expect("read torn log");
    assert!(bytes.len() > 5);
    std::fs::write(&log, &bytes[..bytes.len() - 5]).expect("tear the log");
    for path in [
        paths::shard_summary(&dir_b, torn),
        paths::shard_log(&dir_b, lost),
        paths::shard_summary(&dir_b, lost),
        paths::summary(&dir_b),
        paths::stream(&dir_b),
    ] {
        std::fs::remove_file(&path).expect("delete campaign state");
    }

    // Resume. Untouched shards restore from their summaries, the torn
    // one re-runs its last point from the repaired log, the lost one
    // re-runs whole — and everything lands on the clean run's bytes.
    let resumed = run_campaign(&dir_b, &spec, SHARDS).expect("resumed run");
    assert_eq!(resumed.completed, vec![torn, lost]);
    assert_eq!(resumed.restored, vec![0, 2, 4]);
    assert_eq!(
        resumed.fingerprint, clean.fingerprint,
        "resume must be bit-exact"
    );
    assert_eq!(resumed.points_done, clean.points_done);
    assert_eq!(resumed.delivered, clean.delivered);
    assert_eq!(resumed.dropped, clean.dropped);
    assert_eq!(
        resumed.registry.to_json().encode(),
        clean.registry.to_json().encode(),
        "merged registries must match exactly"
    );
    assert!(
        shard_files(&dir_b) == shard_files(&dir_a),
        "every shard file must equal the clean run's"
    );
    let torn_summary = Value::parse(&read(&paths::shard_summary(&dir_b, torn))).expect("summary");
    let count = |field| torn_summary.get(field).and_then(Value::as_u64);
    assert_eq!(
        count("restored"),
        count("points").map(|p| p - 1),
        "the torn shard re-runs only its torn point"
    );
    let torn_log = log.display().to_string();
    assert!(
        resumed.warnings.len() == 1
            && resumed.warnings[0].contains(&torn_log)
            && resumed.warnings[0].contains("torn record"),
        "the torn log's repair must be reported: {:?}",
        resumed.warnings
    );

    // Both campaign telemetry streams are schema-valid.
    for dir in [&dir_a, &dir_b] {
        let stream = std::fs::read_to_string(paths::stream(dir)).expect("stream");
        let stats = validate_jsonl(&stream).expect("campaign stream must validate");
        assert_eq!(stats.campaigns, 1);
        assert_eq!(stats.campaign_summaries, 1);
        assert_eq!(stats.shards, SHARDS as u64);
    }

    // A different campaign refuses to adopt this directory.
    let mut other = spec.clone();
    other.seed ^= 1;
    let err = run_campaign(&dir_b, &other, SHARDS).unwrap_err();
    assert!(
        matches!(err, CampaignError::Spec { .. }),
        "resuming a different campaign must be refused, got {err}"
    );

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
