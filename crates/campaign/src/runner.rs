//! The campaign supervisor: one worker **process** per shard, watched
//! over, retried, quarantined, and folded into a single summary.
//!
//! Process isolation is the point. A worker that panics, aborts, leaks
//! until the OOM killer takes it, or simply wedges costs the campaign
//! one shard *attempt* — the supervisor observes the exit (or the
//! silence, via the checkpoint-growth heartbeat), backs off with a
//! seeded delay, and respawns. Whatever points the dead worker had
//! checkpointed are restored by its successor, so no finished work is
//! ever recomputed, let alone lost.
//!
//! Memory stays bounded however large the campaign: the supervisor
//! holds at most one shard summary at a time, folding its registry into
//! the campaign registry the moment the shard completes and dropping
//! it. The campaign fingerprint folds per-shard fingerprints in shard
//! index order and deliberately excludes retry counts, wall-clock
//! timings, and quarantine reason strings — so an interrupted-and-
//! resumed campaign reproduces the uninterrupted fingerprint bit for
//! bit even when the retry history differs.

use crate::shard::{load_shard_summary, paths, write_atomic};
use crate::spec::CampaignSpec;
use crate::{fnv_words, CampaignError};
use osmosis_sim::json::Value;
use osmosis_telemetry::{MetricsRegistry, Record, ShardStatus, SCHEMA_VERSION};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Child;

/// Wall-clock pacing for retries and heartbeat watchdogs. Nothing read
/// from this module ever reaches a fingerprint, a manifest, or a
/// summary — it only decides *when* to respawn or give up on a worker.
mod clock {
    pub(super) use std::time::Instant as Stamp;

    #[expect(
        clippy::disallowed_methods,
        reason = "wall clock paces retries and heartbeats only; results never depend on it"
    )]
    pub(super) fn now() -> Stamp {
        Stamp::now()
    }

    pub(super) fn ms_since(earlier: Stamp) -> u64 {
        earlier.elapsed().as_millis() as u64
    }
}

/// What the supervisor asks of one worker attempt. The caller's spawn
/// hook turns this into a [`std::process::Command`] — typically the
/// current executable re-invoked in worker mode.
#[derive(Debug, Clone)]
pub struct WorkerRequest {
    /// The campaign directory (holds `spec.json` and all shard state).
    pub dir: PathBuf,
    /// The shard to run.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// 1-based attempt number (first try is 1).
    pub attempt: u32,
}

/// Supervision knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// How many shards to split the campaign into.
    pub shards: usize,
    /// Concurrent worker processes.
    pub workers: usize,
    /// Attempts per shard before quarantine.
    pub max_attempts: u32,
    /// Base for the exponential retry backoff, milliseconds.
    pub backoff_base_ms: u64,
    /// A worker whose checkpoint log stops growing for this long is
    /// presumed hung and killed (the attempt fails; normal retry path).
    pub heartbeat_timeout_ms: u64,
    /// Supervisor poll interval, milliseconds.
    pub poll_ms: u64,
    /// Crash-injection hook for tests and the CI smoke gate: once this
    /// many shards are done, SIGKILL every running worker and return an
    /// interrupted report without finalizing. `None` in real runs.
    pub interrupt_after: Option<usize>,
    /// Narrate shard lifecycle events on stderr.
    pub progress: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            shards: 8,
            workers: 4,
            max_attempts: 3,
            backoff_base_ms: 50,
            heartbeat_timeout_ms: 30_000,
            poll_ms: 15,
            interrupt_after: None,
            progress: false,
        }
    }
}

/// A shard that failed every allowed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard index.
    pub shard: usize,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// Why the last attempt failed (exit status or watchdog verdict).
    pub reason: String,
}

/// The outcome of one supervised campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign key (hash of the canonical spec encoding).
    pub key: u64,
    /// Shard count the campaign ran under.
    pub shards: usize,
    /// Total scenario points in the spec.
    pub points: u64,
    /// Points covered by completed shards.
    pub points_done: u64,
    /// Shards that completed under this supervisor.
    pub completed: Vec<usize>,
    /// Shards adopted from summaries already on disk (`--resume`).
    pub restored: Vec<usize>,
    /// Shards that exhausted their attempts.
    pub quarantined: Vec<QuarantinedShard>,
    /// Order-determined fold over per-shard fingerprints; excludes
    /// attempts, timings, and reason strings by construction.
    pub fingerprint: u64,
    /// Cells delivered across completed shards.
    pub delivered: u64,
    /// Cells dropped across completed shards.
    pub dropped: u64,
    /// Worker attempts spawned by this supervisor.
    pub attempts: u64,
    /// True when `interrupt_after` fired: state on disk is consistent
    /// and resumable, but the campaign was not finalized.
    pub interrupted: bool,
    /// The campaign's merged metric registry.
    pub registry: MetricsRegistry,
}

/// Per-shard bookkeeping. `Done` keeps only the digest the campaign
/// fold needs — the summary itself (registry included) is merged and
/// dropped on arrival, keeping supervisor memory bounded.
enum Slot {
    Pending {
        attempts: u32,
        eligible_at: Option<clock::Stamp>,
    },
    Running {
        child: Child,
        attempt: u32,
        beat_sig: (u64, bool),
        last_beat: clock::Stamp,
    },
    Done {
        restored: bool,
        points: u64,
        fingerprint: u64,
        attempts: u32,
    },
    Quarantined {
        attempts: u32,
        reason: String,
    },
}

impl Slot {
    fn status_str(&self) -> &'static str {
        match self {
            Slot::Pending { .. } => "pending",
            Slot::Running { .. } => "running",
            Slot::Done { restored: true, .. } => "restored",
            Slot::Done {
                restored: false, ..
            } => "completed",
            Slot::Quarantined { .. } => "quarantined",
        }
    }
}

fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> CampaignError {
    CampaignError::Io {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// Seeded retry backoff: exponential in the attempt number with a
/// deterministic per-(campaign, shard, attempt) jitter, so a thundering
/// herd of failed workers respawns staggered — reproducibly.
fn backoff_ms(key: u64, shard: usize, attempt: u32, base: u64) -> u64 {
    let exp = base.saturating_mul(1u64 << attempt.min(6));
    let jitter = fnv_words([key, shard as u64, attempt as u64]) % base.max(1);
    exp + jitter
}

/// The heartbeat signature of a shard's on-disk state: checkpoint log
/// length plus summary existence. Any change proves the worker is
/// making progress.
fn beat_sig(dir: &Path, shard: usize) -> (u64, bool) {
    let log_len = std::fs::metadata(paths::shard_log(dir, shard))
        .map(|m| m.len())
        .unwrap_or(0);
    let done = paths::shard_summary(dir, shard).exists();
    (log_len, done)
}

fn describe_exit(status: std::process::ExitStatus) -> String {
    match status.code() {
        Some(0) => "exited 0 without a valid shard summary".to_string(),
        Some(3) => "poisoned (worker exit code 3)".to_string(),
        Some(c) => format!("worker exit code {c}"),
        None => "worker killed by signal".to_string(),
    }
}

/// Write the campaign manifest: the always-current statement of which
/// shards are done, which are quarantined (and why), and whether the
/// supervisor was interrupted. Rewritten atomically on every state
/// change, so a reader never sees a torn or stale view.
fn write_manifest(
    dir: &Path,
    spec: &CampaignSpec,
    slots: &[Slot],
    interrupted: bool,
) -> Result<(), CampaignError> {
    let entries: Vec<Value> = slots
        .iter()
        .enumerate()
        .map(|(shard, slot)| {
            let mut fields = vec![
                ("shard".to_string(), Value::u64(shard as u64)),
                ("status".to_string(), Value::Str(slot.status_str().into())),
            ];
            match slot {
                Slot::Pending { attempts, .. } | Slot::Quarantined { attempts, .. } => {
                    fields.push(("attempts".into(), Value::u64(*attempts as u64)));
                }
                Slot::Running { attempt, .. } => {
                    fields.push(("attempts".into(), Value::u64(*attempt as u64)));
                }
                Slot::Done {
                    attempts,
                    points,
                    fingerprint,
                    ..
                } => {
                    fields.push(("attempts".into(), Value::u64(*attempts as u64)));
                    fields.push(("points".into(), Value::u64(*points)));
                    fields.push(("fingerprint".into(), Value::u64(*fingerprint)));
                }
            }
            if let Slot::Quarantined { reason, .. } = slot {
                fields.push(("reason".into(), Value::Str(reason.clone())));
            }
            Value::Obj(fields)
        })
        .collect();
    let doc = Value::Obj(vec![
        ("version".into(), Value::u64(1)),
        ("key".into(), Value::u64(spec.key())),
        ("shards".into(), Value::u64(slots.len() as u64)),
        ("total_points".into(), Value::u64(spec.total_points())),
        ("interrupted".into(), Value::Bool(interrupted)),
        ("entries".into(), Value::Arr(entries)),
    ]);
    write_atomic(&paths::manifest(dir), &doc)
}

/// The campaign fingerprint: fold `[key, shards]` then, in shard index
/// order, `[1, shard, shard_fingerprint]` for each completed shard and
/// `[2, shard]` for each quarantined one. Attempts and reasons are
/// excluded so retry history cannot perturb the result.
fn campaign_fingerprint(key: u64, slots: &[Slot]) -> u64 {
    let mut words = vec![key, slots.len() as u64];
    for (shard, slot) in slots.iter().enumerate() {
        match slot {
            Slot::Done { fingerprint, .. } => {
                words.extend([1, shard as u64, *fingerprint]);
            }
            Slot::Quarantined { .. } => words.extend([2, shard as u64]),
            _ => {}
        }
    }
    fnv_words(words)
}

fn kill_all(slots: &mut [Slot]) {
    for slot in slots.iter_mut() {
        if let Slot::Running { child, .. } = slot {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Run (or resume) a campaign in `dir` under supervision.
///
/// `spawn` turns a [`WorkerRequest`] into the command to execute — the
/// worker must call [`crate::shard::run_shard`] for the requested shard
/// and exit 0 on success (3 for the deliberate poison failure, any
/// other nonzero otherwise). The supervisor only ever observes worker
/// *files*: a shard counts as done exactly when a key-valid summary
/// file exists, which is also how `--resume` adopts prior work.
///
/// Never returns `Err` for worker failures — those end up quarantined
/// in the report and manifest. `Err` means the campaign itself could
/// not run: bad spec, a resume against a different campaign's
/// directory, or filesystem trouble with supervisor-owned state.
pub fn run_campaign<F>(
    dir: &Path,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    spawn: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(&WorkerRequest) -> std::process::Command,
{
    spec.validate()?;
    if opts.shards == 0 || opts.workers == 0 {
        return Err(CampaignError::Spec {
            message: "shards and workers must both be ≥ 1".into(),
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
    let key = spec.key();

    // Adopt or install the spec. A directory holding a *different*
    // campaign's spec is refused outright — resuming someone else's
    // checkpoints bit-exactly is not a thing.
    let spec_path = paths::spec(dir);
    match std::fs::read_to_string(&spec_path) {
        Ok(text) => {
            let existing = Value::parse(&text)
                .ok()
                .and_then(|v| CampaignSpec::from_json(&v));
            match existing {
                Some(on_disk) if on_disk.key() == key => {}
                Some(_) => {
                    return Err(CampaignError::Spec {
                        message: format!(
                            "refusing to resume: {} holds a different campaign",
                            spec_path.display()
                        ),
                    })
                }
                None => {
                    return Err(CampaignError::Spec {
                        message: format!("unreadable campaign spec {}", spec_path.display()),
                    })
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            write_atomic(&spec_path, &spec.to_json())?;
        }
        Err(e) => return Err(io_err("read", &spec_path, e)),
    }

    let mut registry = MetricsRegistry::new();
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut points_done = 0u64;
    let mut total_attempts = 0u64;
    let mut restored_shards: Vec<usize> = Vec::new();

    // Pre-scan: any shard with a key-valid summary on disk is already
    // done — that is the whole of `--resume`. Summaries are merged one
    // at a time and dropped.
    let mut slots: Vec<Slot> = Vec::with_capacity(opts.shards);
    for shard in 0..opts.shards {
        match load_shard_summary(dir, shard, opts.shards, key)? {
            Some(summary) => {
                registry.merge(&summary.registry);
                delivered += summary.delivered;
                dropped += summary.dropped;
                points_done += summary.points;
                restored_shards.push(shard);
                if opts.progress {
                    eprintln!("campaign: shard {shard} restored from summary");
                }
                slots.push(Slot::Done {
                    restored: true,
                    points: summary.points,
                    fingerprint: summary.fingerprint,
                    attempts: 0,
                });
            }
            None => slots.push(Slot::Pending {
                attempts: 0,
                eligible_at: None,
            }),
        }
    }
    write_manifest(dir, spec, &slots, false)?;

    let mut completed_shards: Vec<usize> = Vec::new();
    let mut interrupted = false;
    loop {
        let done = slots
            .iter()
            .filter(|s| matches!(s, Slot::Done { .. }))
            .count();
        if let Some(limit) = opts.interrupt_after {
            if done >= limit {
                // Crash injection: take the workers down hard, leave
                // every file exactly as the SIGKILL found it.
                kill_all(&mut slots);
                interrupted = true;
                break;
            }
        }
        let open = slots
            .iter()
            .any(|s| matches!(s, Slot::Pending { .. } | Slot::Running { .. }));
        if !open {
            break;
        }

        // Spawn eligible pending shards, lowest index first.
        let mut running = slots
            .iter()
            .filter(|s| matches!(s, Slot::Running { .. }))
            .count();
        for (shard, slot) in slots.iter_mut().enumerate() {
            if running >= opts.workers {
                break;
            }
            let Slot::Pending {
                attempts,
                eligible_at,
            } = &*slot
            else {
                continue;
            };
            if let Some(t) = eligible_at {
                if *t > clock::now() {
                    continue;
                }
            }
            let attempt = attempts + 1;
            let req = WorkerRequest {
                dir: dir.to_path_buf(),
                shard,
                shards: opts.shards,
                attempt,
            };
            total_attempts += 1;
            if opts.progress {
                eprintln!("campaign: shard {shard} attempt {attempt} starting");
            }
            match spawn(&req).spawn() {
                Ok(child) => {
                    *slot = Slot::Running {
                        child,
                        attempt,
                        beat_sig: beat_sig(dir, shard),
                        last_beat: clock::now(),
                    };
                    running += 1;
                }
                Err(e) => {
                    fail_slot(
                        slot,
                        shard,
                        attempt,
                        format!("spawn failed: {e}"),
                        key,
                        opts,
                    );
                }
            }
        }

        std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));

        // Reap exits and police heartbeats.
        let mut dirty = false;
        for (shard, slot) in slots.iter_mut().enumerate() {
            let Slot::Running {
                child,
                attempt,
                beat_sig: sig,
                last_beat,
            } = slot
            else {
                continue;
            };
            let attempt = *attempt;
            match child.try_wait() {
                Ok(Some(status)) => {
                    dirty = true;
                    if status.success() {
                        if let Some(summary) = load_shard_summary(dir, shard, opts.shards, key)? {
                            registry.merge(&summary.registry);
                            delivered += summary.delivered;
                            dropped += summary.dropped;
                            points_done += summary.points;
                            completed_shards.push(shard);
                            if opts.progress {
                                eprintln!(
                                    "campaign: shard {shard} completed ({} points, {} restored)",
                                    summary.points, summary.restored
                                );
                            }
                            *slot = Slot::Done {
                                restored: false,
                                points: summary.points,
                                fingerprint: summary.fingerprint,
                                attempts: attempt,
                            };
                            continue;
                        }
                    }
                    fail_slot(slot, shard, attempt, describe_exit(status), key, opts);
                }
                Ok(None) => {
                    let now_sig = beat_sig(dir, shard);
                    if now_sig != *sig {
                        *sig = now_sig;
                        *last_beat = clock::now();
                    } else if clock::ms_since(*last_beat) > opts.heartbeat_timeout_ms {
                        child.kill().ok();
                        child.wait().ok();
                        dirty = true;
                        fail_slot(
                            slot,
                            shard,
                            attempt,
                            "heartbeat timeout: checkpoint log stopped growing".to_string(),
                            key,
                            opts,
                        );
                    }
                }
                Err(e) => {
                    dirty = true;
                    let message = format!("wait on worker: {e}");
                    fail_slot(slot, shard, attempt, message, key, opts);
                }
            }
        }
        if dirty {
            write_manifest(dir, spec, &slots, false)?;
        }
    }

    write_manifest(dir, spec, &slots, interrupted)?;
    let fingerprint = campaign_fingerprint(key, &slots);
    let quarantined: Vec<QuarantinedShard> = slots
        .iter()
        .enumerate()
        .filter_map(|(shard, s)| match s {
            Slot::Quarantined { attempts, reason } => Some(QuarantinedShard {
                shard,
                attempts: *attempts,
                reason: reason.clone(),
            }),
            _ => None,
        })
        .collect();
    let report = CampaignReport {
        key,
        shards: opts.shards,
        points: spec.total_points(),
        points_done,
        completed: completed_shards,
        restored: restored_shards,
        quarantined,
        fingerprint,
        delivered,
        dropped,
        attempts: total_attempts,
        interrupted,
        registry,
    };
    if !interrupted {
        finalize(dir, &slots, &report)?;
    }
    Ok(report)
}

/// Record a failed attempt: back off and retry, or quarantine when the
/// attempt budget is spent.
fn fail_slot(
    slot: &mut Slot,
    shard: usize,
    attempt: u32,
    reason: String,
    key: u64,
    opts: &CampaignOptions,
) {
    if attempt >= opts.max_attempts {
        if opts.progress {
            eprintln!("campaign: shard {shard} quarantined after {attempt} attempts: {reason}");
        }
        *slot = Slot::Quarantined {
            attempts: attempt,
            reason,
        };
    } else {
        let delay = backoff_ms(key, shard, attempt, opts.backoff_base_ms);
        if opts.progress {
            eprintln!(
                "campaign: shard {shard} attempt {attempt} failed ({reason}); retry in {delay} ms"
            );
        }
        *slot = Slot::Pending {
            attempts: attempt,
            eligible_at: Some(clock::now() + std::time::Duration::from_millis(delay)),
        };
    }
}

/// Finalize a completed campaign: `summary.json` plus the schema-valid
/// `campaign.jsonl` telemetry stream.
fn finalize(dir: &Path, slots: &[Slot], report: &CampaignReport) -> Result<(), CampaignError> {
    let quarantined_idx: Vec<usize> = report.quarantined.iter().map(|q| q.shard).collect();
    let doc = Value::Obj(vec![
        ("version".into(), Value::u64(1)),
        ("key".into(), Value::u64(report.key)),
        ("shards".into(), Value::u64(report.shards as u64)),
        ("points".into(), Value::u64(report.points)),
        ("points_done".into(), Value::u64(report.points_done)),
        (
            "completed".into(),
            Value::u64((report.completed.len() + report.restored.len()) as u64),
        ),
        (
            "quarantined".into(),
            Value::Arr(
                quarantined_idx
                    .iter()
                    .map(|&s| Value::u64(s as u64))
                    .collect(),
            ),
        ),
        ("fingerprint".into(), Value::u64(report.fingerprint)),
        ("delivered".into(), Value::u64(report.delivered)),
        ("dropped".into(), Value::u64(report.dropped)),
        ("attempts".into(), Value::u64(report.attempts)),
        ("registry".into(), report.registry.to_json()),
    ]);
    write_atomic(&paths::summary(dir), &doc)?;

    let stream_path = paths::stream(dir);
    let mut records = vec![Record::Campaign {
        version: SCHEMA_VERSION,
        key: report.key,
        label: "campaign".into(),
        shards: report.shards as u64,
        points: report.points,
    }];
    // Finalizing runs once no shard is pending or running.
    records.extend(slots.iter().enumerate().filter_map(|(shard, slot)| {
        let (status, points, attempts, fingerprint, reason) = match slot {
            Slot::Done {
                restored,
                points,
                fingerprint,
                attempts,
            } => {
                let status = if *restored {
                    ShardStatus::Restored
                } else {
                    ShardStatus::Completed
                };
                (status, *points, (*attempts).max(1), *fingerprint, None)
            }
            Slot::Quarantined { attempts, reason } => (
                ShardStatus::Quarantined,
                0,
                *attempts,
                0,
                Some(reason.clone()),
            ),
            Slot::Pending { .. } | Slot::Running { .. } => return None,
        };
        Some(Record::Shard {
            shard: shard as u64,
            status,
            points,
            attempts: attempts as u64,
            fingerprint,
            reason,
        })
    }));
    records.push(Record::CampaignSummary {
        key: report.key,
        completed: (report.completed.len() + report.restored.len()) as u64,
        quarantined: quarantined_idx.iter().map(|&s| s as u64).collect(),
        points_done: report.points_done,
        fingerprint: report.fingerprint,
        registry: report.registry.clone(),
    });
    let mut out = Vec::new();
    for record in &records {
        out.extend_from_slice(record.encode().as_bytes());
        out.push(b'\n');
    }
    let mut file =
        std::fs::File::create(&stream_path).map_err(|e| io_err("create", &stream_path, e))?;
    file.write_all(&out)
        .map_err(|e| io_err("write", &stream_path, e))?;
    Ok(())
}
