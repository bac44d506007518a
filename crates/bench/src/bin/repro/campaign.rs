//! Crash-safe sharded campaign runner (`osmosis-campaign`), driven end
//! to end: the scenario cross-product of the default campaign spec is
//! split into shards, each run in a supervised worker *process* with
//! resumable checkpoints, and folded into one summary with bounded
//! memory.
//!
//! Modes:
//!
//! * default — run the campaign, print the summary table, and rewrite
//!   the `BENCH_campaign.json` snapshot at the repo root;
//! * `--smoke` — the CI resilience gate: run a poisoned campaign clean,
//!   run it again SIGKILLed at 50% completion, corrupt one checkpoint
//!   log the way a crash would, resume, and fail (exit 1) unless the
//!   resumed fingerprint is bit-identical and the poison shard is
//!   quarantined in both manifests — all inside a wall-clock budget;
//! * `--worker` — internal: run one shard and exit (the supervisor
//!   spawns `repro campaign --worker` on its own executable).
//!
//! Flags: `--quick` (test scale), `--shards N`, `--workers N`,
//! `--dir D` (campaign directory; default under the system temp dir),
//! `--resume` (keep existing state in `--dir` instead of wiping it),
//! `--kill-after F` (abort the supervisor once fraction `F` of shards
//! completed — exits 124, leaving resumable state), `--poison S` (add
//! shard `S` to the deliberate-failure quarantine list), `--topology
//! <spec>` (replace the spec's topology axis; repeatable), and
//! `--progress`.

use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_campaign::shard::paths;
use osmosis_campaign::{
    run_campaign, run_shard, CampaignError, CampaignOptions, CampaignReport, CampaignSpec,
    WorkerRequest,
};
use osmosis_core::experiments::campaign::default_spec;
use osmosis_sim::json::Value;

/// Wall-clock budget for the whole smoke battery on a loaded runner.
const SMOKE_BUDGET_S: f64 = 120.0;

const CAMPAIGN_SEED: u64 = 0xCA3B;

/// Worker mode: run one shard of the campaign in `--dir` and exit with
/// the worker status convention (0 ok, 3 poison, 1 anything else).
fn worker_main(args: &Args) -> ! {
    let (Some(dir), Some(shard), Some(shards)) = (&args.dir, args.shard, args.shards) else {
        eprintln!("--worker needs --dir, --shard and --shards");
        std::process::exit(2);
    };
    match run_shard(dir, shard, shards) {
        Ok(_) => std::process::exit(0),
        Err(CampaignError::Poisoned { .. }) => std::process::exit(3),
        Err(e) => {
            eprintln!("worker shard {shard}: {e}");
            std::process::exit(1);
        }
    }
}

/// The spawn hook: this very binary, re-invoked as `repro campaign
/// --worker`.
fn launcher(req: &WorkerRequest) -> std::process::Command {
    let exe = std::env::current_exe();
    let exe = or_exit(exe, 1, "cannot resolve current executable");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["campaign", "--worker", "--dir"])
        .arg(&req.dir)
        .arg("--shard")
        .arg(req.shard.to_string())
        .arg("--shards")
        .arg(req.shards.to_string());
    cmd
}

fn run_or_die(
    dir: &std::path::Path,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> CampaignReport {
    or_exit(
        run_campaign(dir, spec, opts, launcher),
        1,
        "campaign failed",
    )
}

fn wipe(dir: &std::path::Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// The CI resilience gate. Exercises the full graceful-degradation
/// contract in one battery; any violated bar exits 1.
fn smoke(spec: &CampaignSpec, opts: &CampaignOptions, base: &std::path::Path) -> ! {
    let t0 = Instant::now();
    let mut spec = spec.clone();
    let poison = 2usize.min(opts.shards - 1);
    if !spec.poison_shards.contains(&poison) {
        spec.poison_shards.push(poison);
    }

    // Leg 1: uninterrupted reference run (poison shard quarantined).
    let dir_clean = base.join("clean");
    wipe(&dir_clean);
    let clean = run_or_die(&dir_clean, &spec, opts);
    let quarantined: Vec<usize> = clean.quarantined.iter().map(|q| q.shard).collect();
    println!(
        "smoke: clean run fingerprint {:016x}, {} points, quarantined {:?}",
        clean.fingerprint, clean.points_done, quarantined
    );
    if quarantined != vec![poison] {
        println!("smoke: FAIL - expected exactly shard {poison} quarantined");
        std::process::exit(1);
    }

    // Leg 2: the same campaign, SIGKILLed at 50% of shards complete.
    let dir_victim = base.join("victim");
    wipe(&dir_victim);
    let mut interrupted_opts = opts.clone();
    interrupted_opts.interrupt_after = Some(opts.shards.div_ceil(2));
    let killed = run_or_die(&dir_victim, &spec, &interrupted_opts);
    if !killed.interrupted {
        println!("smoke: FAIL - interrupt_after did not fire");
        std::process::exit(1);
    }
    println!(
        "smoke: interrupted after {} of {} shards; workers SIGKILLed",
        killed.completed.len(),
        opts.shards
    );

    // Corrupt one surviving checkpoint log the way a crash torn
    // mid-append would, and drop its summary so the resume must
    // re-derive that shard from the damaged log.
    let victim_shard = (0..opts.shards)
        .find(|&s| s != poison && paths::shard_log(&dir_victim, s).exists())
        .unwrap_or_else(|| {
            println!("smoke: FAIL - no checkpoint log survived the interruption");
            std::process::exit(1);
        });
    let log = paths::shard_log(&dir_victim, victim_shard);
    let bytes = std::fs::read(&log).unwrap_or_else(|e| {
        println!("smoke: FAIL - read {}: {e}", log.display());
        std::process::exit(1);
    });
    let cut = bytes.len().saturating_sub(5);
    if std::fs::write(&log, &bytes[..cut]).is_err() {
        println!("smoke: FAIL - cannot corrupt {}", log.display());
        std::process::exit(1);
    }
    std::fs::remove_file(paths::shard_summary(&dir_victim, victim_shard)).ok();
    println!("smoke: corrupted checkpoint log of shard {victim_shard} (torn trailing record)");

    // Leg 3: resume. Must reproduce the clean fingerprint bit for bit.
    let resumed = run_or_die(&dir_victim, &spec, opts);
    let resumed_quarantine: Vec<usize> = resumed.quarantined.iter().map(|q| q.shard).collect();
    println!(
        "smoke: resumed fingerprint {:016x} ({} restored, {} completed, quarantined {:?})",
        resumed.fingerprint,
        resumed.restored.len(),
        resumed.completed.len(),
        resumed_quarantine
    );
    let mut failed = false;
    if resumed.fingerprint != clean.fingerprint {
        println!(
            "smoke: FAIL - resumed fingerprint {:016x} != clean {:016x}",
            resumed.fingerprint, clean.fingerprint
        );
        failed = true;
    }
    if resumed.points_done != clean.points_done || resumed.delivered != clean.delivered {
        println!("smoke: FAIL - resumed counts diverged from the clean run");
        failed = true;
    }
    if resumed_quarantine != vec![poison] {
        println!("smoke: FAIL - quarantine list diverged after resume");
        failed = true;
    }
    for dir in [&dir_clean, &dir_victim] {
        let manifest = std::fs::read_to_string(paths::manifest(dir)).unwrap_or_default();
        if !manifest.contains("\"status\":\"quarantined\"") || !manifest.contains("\"reason\"") {
            println!(
                "smoke: FAIL - manifest in {} does not name the quarantined shard",
                dir.display()
            );
            failed = true;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if elapsed > SMOKE_BUDGET_S {
        println!("smoke: FAIL - battery took {elapsed:.1}s, budget {SMOKE_BUDGET_S}s");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    wipe(&dir_clean);
    wipe(&dir_victim);
    println!("smoke: SIGKILL + corrupt checkpoint + resume reproduced the campaign bit for bit ({elapsed:.1}s)");
    std::process::exit(0);
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
        ("attempts".into(), Value::u64(report.attempts)),
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
    if args.worker {
        worker_main(args);
    }

    let mut spec = default_spec(args.scale(), CAMPAIGN_SEED);
    if !args.topologies.is_empty() {
        spec.topologies = args.topologies.iter().copied().map(Some).collect();
    }
    spec.poison_shards.extend(args.poison);

    // Pacing only — none of this reaches a fingerprint. Don't spawn more
    // workers than cores: oversubscribed workers stretch per-point wall
    // time until the heartbeat watchdog mistakes contention for a hang.
    // The widened heartbeat tolerates the slowest full-scale points
    // (FDL-buffered fabric legs at high burst) on a loaded runner.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = CampaignOptions {
        shards: args.shards.unwrap_or(8),
        workers: args.workers.unwrap_or(4.min(cores)),
        heartbeat_timeout_ms: 120_000,
        interrupt_after: None,
        progress: args.progress,
        ..Default::default()
    };
    if opts.shards == 0 || opts.workers == 0 {
        eprintln!("--shards and --workers must both be >= 1");
        std::process::exit(2);
    }

    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("osmosis-campaign-{}", std::process::id()))
    });
    if args.smoke {
        smoke(&spec, &opts, &dir);
    }

    if !args.resume {
        wipe(&dir);
    }

    let t0 = Instant::now();
    let mut run_opts = opts.clone();
    if let Some(frac) = args.kill_after {
        run_opts.interrupt_after = Some(((frac * opts.shards as f64).ceil() as usize).max(1));
    }
    let report = run_or_die(&dir, &spec, &run_opts);
    let wall_s = t0.elapsed().as_secs_f64();
    if report.interrupted {
        println!(
            "campaign interrupted after {} of {} shards; resumable state in {}",
            report.completed.len() + report.restored.len(),
            report.shards,
            dir.display()
        );
        std::process::exit(124);
    }

    // A second supervised pass over the finished directory measures pure
    // resume overhead: every shard restores from its summary.
    let t1 = Instant::now();
    let resumed = run_or_die(&dir, &spec, &opts);
    let resume_s = t1.elapsed().as_secs_f64();
    if resumed.fingerprint != report.fingerprint {
        eprintln!(
            "resume drifted: {:016x} != {:016x}",
            resumed.fingerprint, report.fingerprint
        );
        std::process::exit(1);
    }

    let mut rows = vec![
        vec!["campaign key".into(), format!("{:016x}", report.key)],
        vec!["scenario points".into(), report.points.to_string()],
        vec!["points completed".into(), report.points_done.to_string()],
        vec![
            "shards (completed/quarantined)".into(),
            format!(
                "{} ({}/{})",
                report.shards,
                report.completed.len() + report.restored.len(),
                report.quarantined.len()
            ),
        ],
        vec!["worker attempts".into(), report.attempts.to_string()],
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
    for q in &report.quarantined {
        rows.push(vec![
            format!("quarantined shard {}", q.shard),
            format!("{} attempts: {}", q.attempts, q.reason),
        ]);
    }
    print_table(
        "Crash-safe sharded campaign (supervised worker processes)",
        &["metric", "value"],
        &rows,
    );

    write_snapshot(
        "BENCH_campaign.json",
        snapshot(&report, &spec, wall_s, resume_s),
    );
}
