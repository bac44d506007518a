//! Crash-safe sharded campaign runner (`osmosis-campaign`), driven end
//! to end: the scenario cross-product of the default campaign spec is
//! split into shards, run in parallel in this process with resumable
//! checkpoints, and folded into one summary. Prints the summary table
//! and rewrites the `BENCH_campaign.json` snapshot at the repo root;
//! checkpoint-repair warnings go to stderr.
//!
//! Flags: `--quick` (test scale), `--shards N` (default 8), `--dir D`
//! (campaign directory; without it the run works in a directory under
//! the system temp dir and removes it once the table is printed),
//! `--resume` (keep the state already in `--dir` instead of wiping it: a
//! run killed part-way picks up where it stopped and lands on the
//! uninterrupted fingerprint; refused without `--dir`), and
//! `--topology <spec>` (replace the spec's topology axis; repeatable).

use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_campaign::{run_campaign, CampaignReport, CampaignSpec};
use osmosis_core::experiments::campaign::default_spec;
use osmosis_sim::json::Value;

const CAMPAIGN_SEED: u64 = 0xCA3B;

fn run_or_die(dir: &std::path::Path, spec: &CampaignSpec, shards: usize) -> CampaignReport {
    let report = or_exit(run_campaign(dir, spec, shards), 1, "campaign failed");
    for warning in &report.warnings {
        eprintln!("campaign: {warning}");
    }
    report
}

fn snapshot(report: &CampaignReport, spec: &CampaignSpec, wall_s: f64, resume_s: f64) -> String {
    Value::Obj(vec![
        ("bench".into(), Value::str("campaign-runner")),
        ("key".into(), Value::u64(report.key)),
        ("shards".into(), Value::u64(report.shards as u64)),
        ("points".into(), Value::u64(report.points)),
        (
            "slots_per_point".into(),
            Value::u64(spec.warmup + spec.measure),
        ),
        ("attempts".into(), Value::u64(report.completed.len() as u64)),
        ("wall_s".into(), Value::f64(wall_s)),
        (
            "points_per_s".into(),
            Value::f64(report.points_done as f64 / wall_s.max(1e-9)),
        ),
        ("resume_wall_s".into(), Value::f64(resume_s)),
        ("fingerprint".into(), Value::u64(report.fingerprint)),
    ])
    .encode()
}

pub fn run(args: &Args) {
    let mut spec = default_spec(args.scale(), CAMPAIGN_SEED);
    if !args.topologies.is_empty() {
        spec.topologies = args.topologies.iter().copied().map(Some).collect();
    }
    let shards = args.shards.unwrap_or(8);
    if shards == 0 {
        eprintln!("--shards must be >= 1");
        std::process::exit(2);
    }

    if args.resume && args.dir.is_none() {
        eprintln!("--resume needs --dir: the default directory is named by process id and removed after the run");
        std::process::exit(2);
    }
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("osmosis-campaign-{}", std::process::id()))
    });
    if !args.resume {
        std::fs::remove_dir_all(&dir).ok();
    }

    let t0 = Instant::now();
    let report = run_or_die(&dir, &spec, shards);
    let wall_s = t0.elapsed().as_secs_f64();

    // A second pass over the finished directory measures pure resume
    // overhead: every shard restores from its summary.
    let t1 = Instant::now();
    let resumed = run_or_die(&dir, &spec, shards);
    let resume_s = t1.elapsed().as_secs_f64();
    if resumed.fingerprint != report.fingerprint {
        eprintln!(
            "resume drifted: {:016x} != {:016x}",
            resumed.fingerprint, report.fingerprint
        );
        std::process::exit(1);
    }

    let rows = vec![
        vec!["campaign key".into(), format!("{:016x}", report.key)],
        vec!["scenario points".into(), report.points.to_string()],
        vec!["points completed".into(), report.points_done.to_string()],
        vec![
            "shards (run/restored)".into(),
            format!(
                "{} ({}/{})",
                report.shards,
                report.completed.len(),
                report.restored.len()
            ),
        ],
        vec!["cells delivered".into(), report.delivered.to_string()],
        vec!["cells dropped".into(), report.dropped.to_string()],
        vec![
            "campaign fingerprint".into(),
            format!("{:016x}", report.fingerprint),
        ],
        vec!["wall clock".into(), format!("{wall_s:.2} s")],
        vec![
            "resume overhead (all restored)".into(),
            format!("{resume_s:.2} s"),
        ],
    ];
    print_table(
        "Crash-safe sharded campaign (in-process shards)",
        &["metric", "value"],
        &rows,
    );
    if args.dir.is_none() {
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("campaign: cannot remove {}: {e}", dir.display());
        }
    }

    write_snapshot(
        "BENCH_campaign.json",
        snapshot(&report, &spec, wall_s, resume_s),
    );
}
