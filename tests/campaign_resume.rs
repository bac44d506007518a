//! The crash-safe campaign runner, exercised with real worker
//! *processes*: the supervisor SIGKILLs a run mid-campaign, a
//! checkpoint file is corrupted the way a crash would, a poison shard
//! exhausts its attempts — and the resumed campaign still reproduces
//! the uninterrupted run's summary fingerprint bit for bit, with the
//! quarantine recorded identically in both manifests.
//!
//! The worker is this very test binary re-invoked: `worker_entry` is an
//! env-gated `#[test]` that is a no-op under normal `cargo test` and
//! becomes the shard worker when the supervisor spawns it with the
//! `OSMOSIS_CAMPAIGN_WORKER_*` variables set.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use osmosis::campaign::{
    run_campaign, run_shard, BufferSpec, CampaignError, CampaignOptions, CampaignSpec, FaultSpec,
    WorkerRequest,
};
use osmosis::fabric::TopologySpec;
use osmosis::telemetry::validate_jsonl;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ENV_DIR: &str = "OSMOSIS_CAMPAIGN_WORKER_DIR";
const ENV_SHARD: &str = "OSMOSIS_CAMPAIGN_WORKER_SHARD";
const ENV_SHARDS: &str = "OSMOSIS_CAMPAIGN_WORKER_SHARDS";
const ENV_HANG: &str = "OSMOSIS_CAMPAIGN_WORKER_HANG";

/// Worker mode. Under plain `cargo test` the gate variable is unset and
/// this passes vacuously; spawned by the launcher below it runs one
/// shard and exits with the worker status convention (0 ok, 3 poison,
/// 1 anything else) before the harness can print its summary.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the launcher below hands a spawned worker its shard through the environment"
)]
fn worker_entry() {
    let Ok(dir) = std::env::var(ENV_DIR) else {
        return;
    };
    let shard: usize = std::env::var(ENV_SHARD)
        .expect("worker shard env")
        .parse()
        .expect("worker shard index");
    let shards: usize = std::env::var(ENV_SHARDS)
        .expect("worker shards env")
        .parse()
        .expect("worker shard count");
    if std::env::var(ENV_HANG).ok().as_deref() == Some(shard.to_string().as_str()) {
        // Simulate a wedged worker: no progress, no exit. The
        // supervisor's heartbeat watchdog must kill us.
        std::thread::sleep(std::time::Duration::from_secs(120));
        std::process::exit(1);
    }
    match run_shard(Path::new(&dir), shard, shards) {
        Ok(_) => std::process::exit(0),
        Err(CampaignError::Poisoned { .. }) => std::process::exit(3),
        Err(e) => {
            eprintln!("worker shard {shard}: {e}");
            std::process::exit(1);
        }
    }
}

fn launcher(hang_shard: Option<usize>) -> impl Fn(&WorkerRequest) -> Command {
    move |req: &WorkerRequest| {
        let exe = std::env::current_exe().expect("current test binary");
        let mut cmd = Command::new(exe);
        cmd.arg("worker_entry")
            .arg("--exact")
            .arg("--nocapture")
            .env(ENV_DIR, &req.dir)
            .env(ENV_SHARD, req.shard.to_string())
            .env(ENV_SHARDS, req.shards.to_string())
            .stdout(Stdio::null());
        if let Some(h) = hang_shard {
            cmd.env(ENV_HANG, h.to_string());
        }
        cmd
    }
}

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
        poison_shards: vec![2],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("osmosis-campaign-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts(interrupt_after: Option<usize>) -> CampaignOptions {
    CampaignOptions {
        shards: 5,
        workers: 3,
        max_attempts: 2,
        backoff_base_ms: 1,
        heartbeat_timeout_ms: 30_000,
        poll_ms: 5,
        interrupt_after,
        progress: false,
    }
}

#[test]
fn sigkilled_campaign_resumes_to_the_uninterrupted_fingerprint() {
    let spec = quick_spec();

    // Reference: one uninterrupted supervised run. The poison shard is
    // quarantined; everything else completes.
    let dir_a = fresh_dir("clean");
    let clean = run_campaign(&dir_a, &spec, &opts(None), launcher(None)).expect("clean run");
    assert!(!clean.interrupted);
    assert_eq!(
        clean
            .quarantined
            .iter()
            .map(|q| q.shard)
            .collect::<Vec<_>>(),
        vec![2],
        "the poison shard must be quarantined: {:?}",
        clean.quarantined
    );
    assert_eq!(clean.quarantined[0].attempts, 2);
    assert_eq!(clean.completed.len(), 4);
    assert!(clean.points_done > 0 && clean.delivered > 0);

    // Victim: same campaign, but the supervisor tears everything down
    // (SIGKILL to every live worker) once two shards are done.
    let dir_b = fresh_dir("killed");
    let killed =
        run_campaign(&dir_b, &spec, &opts(Some(2)), launcher(None)).expect("interrupted run");
    assert!(killed.interrupted, "interrupt_after must fire");
    assert!(!osmosis::campaign::shard::paths::summary(&dir_b).exists());

    // Corrupt one shard's checkpoint log the way a crash torn mid-append
    // would, and drop its summary so the resume must re-derive the shard
    // from the damaged log.
    let victim = (0..5)
        .find(|&s| osmosis::campaign::shard::paths::shard_log(&dir_b, s).exists() && s != 2)
        .expect("some non-poison shard left a checkpoint log");
    let log = osmosis::campaign::shard::paths::shard_log(&dir_b, victim);
    let bytes = std::fs::read(&log).expect("read victim log");
    assert!(bytes.len() > 5);
    std::fs::write(&log, &bytes[..bytes.len() - 5]).expect("truncate victim log");
    std::fs::remove_file(osmosis::campaign::shard::paths::shard_summary(
        &dir_b, victim,
    ))
    .ok();

    // Resume. Finished shards restore from their summaries, the
    // corrupted one re-derives from its repaired log, the poison shard
    // is quarantined again — and the campaign fingerprint, point count,
    // and merged registry are bit-identical to the clean run's.
    let resumed = run_campaign(&dir_b, &spec, &opts(None), launcher(None)).expect("resumed run");
    assert!(!resumed.interrupted);
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
    assert_eq!(
        resumed
            .quarantined
            .iter()
            .map(|q| q.shard)
            .collect::<Vec<_>>(),
        vec![2]
    );

    // Both manifests name the quarantined shard with a reason; both
    // campaign telemetry streams are schema-valid.
    for dir in [&dir_a, &dir_b] {
        let manifest = std::fs::read_to_string(osmosis::campaign::shard::paths::manifest(dir))
            .expect("manifest");
        assert!(
            manifest.contains("\"status\":\"quarantined\""),
            "{manifest}"
        );
        assert!(manifest.contains("\"reason\""), "{manifest}");
        let stream =
            std::fs::read_to_string(osmosis::campaign::shard::paths::stream(dir)).expect("stream");
        let stats = validate_jsonl(&stream).expect("campaign stream must validate");
        assert_eq!(stats.campaigns, 1);
        assert_eq!(stats.campaign_summaries, 1);
        assert_eq!(stats.shards, 5);
    }

    // A different campaign refuses to adopt this directory.
    let mut other = spec.clone();
    other.seed ^= 1;
    let err = run_campaign(&dir_b, &other, &opts(None), launcher(None)).unwrap_err();
    assert!(
        matches!(err, CampaignError::Spec { .. }),
        "resuming a different campaign must be refused, got {err}"
    );

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn hung_worker_is_killed_by_the_heartbeat_watchdog_and_quarantined() {
    let mut spec = quick_spec();
    spec.poison_shards = vec![];
    let dir = fresh_dir("hang");
    let opts = CampaignOptions {
        shards: 2,
        workers: 2,
        max_attempts: 2,
        backoff_base_ms: 1,
        heartbeat_timeout_ms: 250,
        poll_ms: 10,
        interrupt_after: None,
        progress: false,
    };
    let report = run_campaign(&dir, &spec, &opts, launcher(Some(1))).expect("campaign");
    assert_eq!(report.completed, vec![0]);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.shard, 1);
    assert_eq!(q.attempts, 2);
    assert!(
        q.reason.contains("heartbeat"),
        "watchdog reason expected, got: {}",
        q.reason
    );
    std::fs::remove_dir_all(&dir).ok();
}
