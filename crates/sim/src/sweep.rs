//! Parallel parameter sweeps, resumable from a checkpoint log.
//!
//! Figure reproductions sweep offered load, port count, or guard time
//! over dozens of points, each an independent simulation. Two entry
//! points:
//!
//! * [`parallel_sweep`] — a striped `std::thread::scope` worker pool (the
//!   data-parallel pattern from the Rayon guide, without the dependency):
//!   results come back in input order, and a job's panic reaches the
//!   caller with its original payload once every worker has stopped.
//! * [`checkpointed_sweep`] — the same pool, crash-safe: each completed
//!   job is appended to a [`CheckpointLog`] as it finishes, so a sweep
//!   that was interrupted (killed, or stopped by a panicking job) resumes
//!   from every job that finished, and a torn or corrupt log costs only
//!   the records after the damage. The round trip is bit-exact (see
//!   [`SweepState`] and the `json` module), so a resumed sweep
//!   fingerprints identically to an uninterrupted one.
//!
//! Every point carries its own seed and workers share no mutable
//! simulation state, so every job is deterministic: a job that fails
//! fails the same way on every run. Nothing here retries one; its panic
//! propagates, and once the cause is fixed the run resumes from the log.

use crate::engine::EngineReport;
use crate::extra::Extra;
use crate::json::Value;
use crate::stats::Histogram;
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why a sweep could not return its outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The checkpoint file could not be read, parsed, or written.
    Checkpoint {
        /// Description of the I/O or parse failure.
        message: String,
    },
    /// An auxiliary I/O channel of the experiment failed (e.g. a
    /// telemetry export stream).
    Io {
        /// Description of the I/O failure.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Checkpoint { message } => write!(f, "checkpoint failure: {message}"),
            SweepError::Io { message } => write!(f, "i/o failure: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// How the job a [`SweepProgress`] event reports on ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressOutcome {
    /// The job ran to completion in this process.
    Completed,
    /// The job was restored from a checkpoint file without running.
    Restored,
}

/// A progress event [`checkpointed_sweep`] delivers each time a job
/// finishes or is restored. Purely advisory: the observer sees progress,
/// it never influences results or job order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Index of the job this event reports on.
    pub job: usize,
    /// Total jobs in the sweep.
    pub total: usize,
    /// Jobs finished so far — completed or restored — this one included.
    /// Monotone, though concurrent workers may observe the shared counter
    /// slightly stale relative to their own event.
    pub finished: usize,
    /// How the job ended.
    pub outcome: ProgressOutcome,
}

/// Run `f` over every element of `inputs`, in parallel, preserving
/// order. Inputs are dealt round-robin over one scoped thread per
/// available core: worker `w` takes items `w`, `w + workers`,
/// `w + 2·workers`, … so a load sweep whose cost grows monotonically
/// with the parameter still balances. `f` is shared by reference across
/// workers; inputs are consumed by value.
///
/// A panic in `f` propagates to the caller with its original payload,
/// after every other worker has stopped.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let mut stripes: Vec<Vec<I>> = (0..workers)
        .map(|w| Vec::with_capacity(n / workers + usize::from(w < n % workers)))
        .collect();
    for (idx, input) in inputs.into_iter().enumerate() {
        stripes[idx % workers].push(input);
    }

    let stripe_outputs: Vec<Vec<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                let f = &f;
                scope.spawn(move || stripe.into_iter().map(f).collect::<Vec<O>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outputs) => outputs,
                // Re-raise the worker's panic on the caller thread with
                // its original payload instead of a generic join error;
                // the scope joins the remaining workers before it leaves.
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });

    // Un-deal: item idx was the (idx / workers)-th element of stripe
    // (idx % workers); the placement below is that bijection inverted.
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (w, outputs) in stripe_outputs.into_iter().enumerate() {
        for (j, r) in outputs.into_iter().enumerate() {
            slots[w + j * workers] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            None => unreachable!("stripe dealing is a bijection over 0..n"),
        })
        .collect()
}

/// A sweep output that can round-trip through the JSON checkpoint file
/// **exactly** — `from_json(to_json(x))` must reproduce `x` bit for bit,
/// or a resumed sweep would fingerprint differently from an
/// uninterrupted one.
pub trait SweepState: Sized {
    /// Serialize for the checkpoint file.
    fn to_json(&self) -> Value;
    /// Deserialize; `None` on a malformed entry (the job reruns).
    fn from_json(v: &Value) -> Option<Self>;
}

impl SweepState for u64 {
    fn to_json(&self) -> Value {
        Value::u64(*self)
    }
    fn from_json(v: &Value) -> Option<Self> {
        v.as_u64()
    }
}

fn hist_to_json(h: &Histogram) -> Value {
    Value::Obj(vec![
        ("width".into(), Value::f64(h.width())),
        (
            "counts".into(),
            Value::Arr(h.bucket_counts().iter().map(|&c| Value::u64(c)).collect()),
        ),
        ("overflow".into(), Value::u64(h.overflow_count())),
        ("total".into(), Value::u64(h.count())),
        ("sum".into(), Value::f64(h.sum())),
    ])
}

fn hist_from_json(v: &Value) -> Option<Histogram> {
    let width = v.get("width")?.as_f64()?;
    let counts: Vec<u64> = v
        .get("counts")?
        .items()?
        .iter()
        .map(Value::as_u64)
        .collect::<Option<_>>()?;
    let overflow = v.get("overflow")?.as_u64()?;
    let total = v.get("total")?.as_u64()?;
    let sum = v.get("sum")?.as_f64()?;
    if width <= 0.0 || counts.is_empty() {
        return None;
    }
    Some(Histogram::from_parts(width, counts, overflow, total, sum))
}

impl SweepState for EngineReport {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("offered_load".into(), Value::f64(self.offered_load)),
            ("throughput".into(), Value::f64(self.throughput)),
            ("mean_delay".into(), Value::f64(self.mean_delay)),
            (
                "p99_delay".into(),
                self.p99_delay.map_or(Value::Null, Value::f64),
            ),
            (
                "mean_request_grant".into(),
                Value::f64(self.mean_request_grant),
            ),
            ("injected".into(), Value::u64(self.injected)),
            ("delivered".into(), Value::u64(self.delivered)),
            ("dropped".into(), Value::u64(self.dropped)),
            ("reordered".into(), Value::u64(self.reordered)),
            (
                "max_queue_depth".into(),
                Value::u64(self.max_queue_depth as u64),
            ),
            (
                "max_egress_depth".into(),
                Value::u64(self.max_egress_depth as u64),
            ),
            ("measured_slots".into(), Value::u64(self.measured_slots)),
            ("delay_hist".into(), hist_to_json(&self.delay_hist)),
            ("grant_hist".into(), hist_to_json(&self.grant_hist)),
            (
                "extra".into(),
                Value::Arr(
                    self.extra
                        .iter()
                        .map(|&(key, value)| {
                            Value::Arr(vec![Value::str(key.name()), Value::f64(value)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// An extra name no [`Extra`] variant carries makes the record
    /// malformed, so its job is recomputed.
    fn from_json(v: &Value) -> Option<Self> {
        let fu = |k: &str| v.get(k).and_then(Value::as_u64);
        let ff = |k: &str| v.get(k).and_then(Value::as_f64);
        let extra = v
            .get("extra")?
            .items()?
            .iter()
            .map(|pair| {
                let items = pair.items()?;
                let key = Extra::from_name(items.first()?.as_str()?)?;
                let value = items.get(1)?.as_f64()?;
                Some((key, value))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(EngineReport {
            offered_load: ff("offered_load")?,
            throughput: ff("throughput")?,
            mean_delay: ff("mean_delay")?,
            p99_delay: match v.get("p99_delay")? {
                Value::Null => None,
                p => Some(p.as_f64()?),
            },
            mean_request_grant: ff("mean_request_grant")?,
            injected: fu("injected")?,
            delivered: fu("delivered")?,
            dropped: fu("dropped")?,
            reordered: fu("reordered")?,
            max_queue_depth: v.get("max_queue_depth").and_then(Value::as_usize)?,
            max_egress_depth: v.get("max_egress_depth").and_then(Value::as_usize)?,
            measured_slots: fu("measured_slots")?,
            delay_hist: hist_from_json(v.get("delay_hist")?)?,
            grant_hist: hist_from_json(v.get("grant_hist")?)?,
            extra,
        })
    }
}

fn checkpoint_io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> SweepError {
    SweepError::Checkpoint {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// An append-only JSONL checkpoint: a header line identifying the
/// producing computation, then one `[index, payload]` line per
/// completed unit of work. An append is O(1) per completion, which is
/// what a long-running sweep or shard worker needs — and a kill
/// mid-append leaves at worst one torn trailing line, which
/// [`CheckpointLog::load_and_repair`] detects, truncates away with a
/// warning, and resumes past. Completed records are never lost.
#[derive(Debug, Clone)]
pub struct CheckpointLog {
    path: PathBuf,
    key: u64,
}

/// What [`CheckpointLog::load_and_repair`] recovers: every intact
/// `(index, payload)` record in file order, plus one human-readable
/// warning per repair performed.
pub type RepairedRecords = (Vec<(u64, Value)>, Vec<String>);

impl CheckpointLog {
    /// A log at `path` identified by `key` (hash the computation's
    /// parameters into it; a log whose header key disagrees is
    /// discarded rather than resumed).
    pub fn new(path: impl Into<PathBuf>, key: u64) -> Self {
        CheckpointLog {
            path: path.into(),
            key,
        }
    }

    /// The log-file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn header_line(&self) -> String {
        let header = Value::Obj(vec![
            ("version".into(), Value::u64(1)),
            ("key".into(), Value::u64(self.key)),
        ]);
        let mut line = header.encode();
        line.push('\n');
        line
    }

    /// Load every intact `(index, payload)` record, in file order.
    ///
    /// Recovery semantics (the kill-mid-write case): a torn or corrupt
    /// line — and anything after it — is truncated off the file so
    /// subsequent appends continue from the last intact record; each
    /// repair is reported in the returned warnings. A missing file is
    /// an empty log; a file whose header is unreadable or carries the
    /// wrong key is discarded wholesale (with a warning) and replaced
    /// by a fresh header on the next [`CheckpointLog::append`].
    pub fn load_and_repair(&self) -> Result<RepairedRecords, SweepError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), Vec::new()))
            }
            Err(e) => return Err(checkpoint_io_err("read", &self.path, e)),
        };
        let mut warnings = Vec::new();
        let discard = |warnings: &mut Vec<String>, why: String| {
            warnings.push(format!(
                "discarding checkpoint log {}: {why}",
                self.path.display()
            ));
            if let Err(e) = std::fs::remove_file(&self.path) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    return Err(checkpoint_io_err("remove", &self.path, e));
                }
            }
            Ok((Vec::new(), std::mem::take(warnings)))
        };
        let Some(header_end) = text.find('\n') else {
            return discard(&mut warnings, "torn header line".into());
        };
        match Value::parse(&text[..header_end]) {
            Ok(h)
                if h.get("version").and_then(Value::as_u64) == Some(1)
                    && h.get("key").and_then(Value::as_u64) == Some(self.key) => {}
            Ok(_) => return discard(&mut warnings, "header key mismatch (stale log)".into()),
            Err(e) => return discard(&mut warnings, format!("unreadable header: {e}")),
        }
        let mut entries = Vec::new();
        let mut intact_end = header_end + 1;
        let mut rest = &text[intact_end..];
        let mut line_no = 2usize;
        while !rest.is_empty() {
            let (line, consumed, complete) = match rest.find('\n') {
                Some(nl) => (&rest[..nl], nl + 1, true),
                None => (rest, rest.len(), false),
            };
            let record = if complete {
                Value::parse(line).ok().and_then(|v| {
                    let items = v.items()?;
                    let idx = items.first().and_then(Value::as_u64)?;
                    Some((idx, items.get(1)?.clone()))
                })
            } else {
                None
            };
            match record {
                Some(entry) => {
                    entries.push(entry);
                    intact_end += consumed;
                    rest = &rest[consumed..];
                    line_no += 1;
                }
                None => {
                    // Torn or corrupt: drop this line and everything
                    // after it. Those units of work simply re-run.
                    warnings.push(format!(
                        "checkpoint log {}: discarding torn record at line {line_no} \
                         ({} byte(s) truncated)",
                        self.path.display(),
                        text.len() - intact_end
                    ));
                    let file = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&self.path)
                        .map_err(|e| checkpoint_io_err("open for repair", &self.path, e))?;
                    file.set_len(intact_end as u64)
                        .map_err(|e| checkpoint_io_err("truncate", &self.path, e))?;
                    break;
                }
            }
        }
        Ok((entries, warnings))
    }

    /// Append one completed record. Creates the file (with its header
    /// line) on first use. The single `write` of a full line keeps the
    /// torn-write window to that one syscall.
    pub fn append(&self, index: u64, payload: &Value) -> Result<(), SweepError> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| checkpoint_io_err("open", &self.path, e))?;
        let mut out = String::new();
        let empty = file
            .metadata()
            .map_err(|e| checkpoint_io_err("stat", &self.path, e))?
            .len()
            == 0;
        if empty {
            out.push_str(&self.header_line());
        }
        out.push_str(&Value::Arr(vec![Value::u64(index), payload.clone()]).encode());
        out.push('\n');
        file.write_all(out.as_bytes())
            .map_err(|e| checkpoint_io_err("append", &self.path, e))?;
        file.flush()
            .map_err(|e| checkpoint_io_err("flush", &self.path, e))
    }
}

/// [`parallel_sweep`] with crash-safe progress persistence: jobs already
/// in a matching `log` are restored instead of re-run, the rest run
/// through [`parallel_sweep`], and each output is appended to `log` as
/// its job finishes. The outputs are identical — bit for bit, via the
/// exact [`SweepState`] round trip — to what an uninterrupted run would
/// have produced. The job count is folded into the log's key, so a log
/// left by a sweep of another key or another size is discarded rather
/// than resumed; a torn or corrupt record costs only itself and the
/// records after it, which re-run. Without a log this is
/// [`parallel_sweep`] with progress events.
///
/// `progress`, when given, sees one [`SweepProgress`] per job: restored
/// jobs first, then each job that ran, as it finishes.
///
/// Only checkpoint I/O failures surface as `Err`. A panic in `f`
/// propagates as from [`parallel_sweep`]; every record the other workers
/// finished before it is already in the log, so the next run resumes
/// from them.
pub fn checkpointed_sweep<I, O, F>(
    inputs: Vec<I>,
    log: Option<&CheckpointLog>,
    progress: Option<&(dyn Fn(SweepProgress) + Sync)>,
    f: F,
) -> Result<Vec<O>, SweepError>
where
    I: Send,
    O: Send + SweepState,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let log = log.map(|log| {
        let sized_key = crate::rng::SeedSequence::new(log.key).child_seed("sweep-jobs", n as u64);
        CheckpointLog::new(&log.path, sized_key)
    });
    let mut restored: Vec<Option<O>> = (0..n).map(|_| None).collect();
    if let Some(log) = &log {
        let (records, warnings) = log.load_and_repair()?;
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        for (idx, payload) in &records {
            if let Some(slot) = restored.get_mut(*idx as usize) {
                *slot = O::from_json(payload);
            }
        }
    }

    let finished = AtomicUsize::new(0);
    let notify = |job: usize, outcome: ProgressOutcome| {
        if let Some(progress) = progress {
            progress(SweepProgress {
                job,
                total: n,
                finished: finished.fetch_add(1, Ordering::SeqCst) + 1,
                outcome,
            });
        }
    };
    // Restored jobs count toward progress before any worker starts.
    for (idx, _) in restored.iter().enumerate().filter(|(_, o)| o.is_some()) {
        notify(idx, ProgressOutcome::Restored);
    }

    let pending: Vec<(usize, I)> = inputs
        .into_iter()
        .enumerate()
        .filter(|&(idx, _)| restored[idx].is_none())
        .collect();
    // Appends are serialized; the first failure stops further writes.
    let write_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let ran = parallel_sweep(pending, |(idx, input)| {
        let output = f(input);
        if let Some(log) = &log {
            let json = output.to_json();
            let mut failed = write_error.lock().unwrap_or_else(|e| e.into_inner());
            if failed.is_none() {
                *failed = log.append(idx as u64, &json).err();
            }
        }
        notify(idx, ProgressOutcome::Completed);
        output
    });
    if let Some(e) = write_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }

    // `ran` holds the pending jobs' outputs in ascending job order: one
    // for each gap in `restored`, in the order the gaps occur.
    let mut ran = ran.into_iter();
    Ok(restored
        .into_iter()
        .filter_map(|o| o.or_else(|| ran.next()))
        .collect())
}

/// Generate `count` evenly spaced points in `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2, "need at least two points");
    let step = (hi - lo) / (count - 1) as f64;
    (0..count).map(|i| lo + step * i as f64).collect()
}

/// Generate logarithmically spaced points in `[lo, hi]` inclusive.
/// Panics unless `0 < lo <= hi`.
pub fn logspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2, "need at least two points");
    assert!(lo > 0.0 && hi >= lo, "logspace needs 0 < lo <= hi");
    let llo = lo.ln();
    let lhi = hi.ln();
    let step = (lhi - llo) / (count - 1) as f64;
    (0..count).map(|i| (llo + step * i as f64).exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let inputs: Vec<u64> = (0..57).collect();
        let out = parallel_sweep(inputs, |x| x * x);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, (i * i) as u64);
        }
    }

    #[test]
    fn sweep_empty() {
        let out: Vec<u64> = parallel_sweep(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_single() {
        let out = parallel_sweep(vec![41], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn sweep_with_heavy_work_is_correct() {
        // Each task busy-computes so threads actually interleave.
        let inputs: Vec<u64> = (0..32).collect();
        let out = parallel_sweep(inputs, |x| {
            let mut acc = 0u64;
            for i in 0..50_000 {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_with_its_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_sweep(vec![1u64, 2, 3, 4], |x| {
                if x == 3 {
                    std::panic::panic_any(format!("job {x} always dies"));
                }
                x * 10
            })
        }));
        let payload = match caught {
            Ok(out) => panic!("the sweep must not return: {out:?}"),
            Err(payload) => payload,
        };
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 3 always dies"),
            "the job's own payload must reach the caller"
        );
    }

    #[test]
    fn progress_sees_every_job_without_perturbing_results() {
        use std::sync::Mutex;
        let events: Mutex<Vec<SweepProgress>> = Mutex::new(Vec::new());
        let record = |p: SweepProgress| events.lock().unwrap().push(p);
        let out = checkpointed_sweep(vec![1u64, 2, 3, 4], None, Some(&record), |x| x * 10).unwrap();
        assert_eq!(out, vec![10, 20, 30, 40]);
        let seen = std::mem::take(&mut *events.lock().unwrap());
        assert_eq!(seen.len(), 4, "one event per job");
        let mut jobs: Vec<usize> = seen.iter().map(|p| p.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2, 3]);
        for p in &seen {
            assert_eq!(p.outcome, ProgressOutcome::Completed);
            assert_eq!(p.total, 4);
            assert!(p.finished >= 1 && p.finished <= 4);
        }

        // Checkpointed restore reports Restored events.
        let path = tmp_path("progress.jsonl");
        std::fs::remove_file(&path).ok();
        let ckpt = CheckpointLog::new(&path, 99);
        checkpointed_sweep(vec![5u64, 6], Some(&ckpt), None, |x| x).unwrap();
        let resumed = checkpointed_sweep(vec![5u64, 6], Some(&ckpt), Some(&record), |x| x).unwrap();
        assert_eq!(resumed, vec![5, 6]);
        let seen = events.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|p| p.outcome == ProgressOutcome::Restored));
        drop(seen);
        std::fs::remove_file(&path).ok();
    }

    /// A run with real histogram contents and an extra.
    fn loopy_run(measure: u64) -> EngineReport {
        use crate::engine::{Engine, EngineConfig};
        use crate::SlottedModel;
        struct Loopy(std::collections::VecDeque<u64>);
        impl SlottedModel for Loopy {
            fn ports(&self) -> usize {
                2
            }
            fn arbitrate<T: crate::TraceSink>(&mut self, _: u64, obs: &mut crate::Observer<'_, T>) {
                if let Some(&s) = self.0.front() {
                    obs.cell_granted(0, 1, s);
                }
            }
            fn deliver<T: crate::TraceSink>(&mut self, _: u64, obs: &mut crate::Observer<'_, T>) {
                if let Some(s) = self.0.pop_front() {
                    obs.cell_delivered(1, s);
                }
            }
            fn inject<T: crate::TraceSink>(&mut self, slot: u64, obs: &mut crate::Observer<'_, T>) {
                if !slot.is_multiple_of(3) {
                    self.0.push_back(slot);
                    obs.cell_injected(0, 1);
                }
            }
            fn finish(&mut self, report: &mut EngineReport) {
                report.set_extra(Extra::MeanTransmissions, 0.125);
            }
        }
        Engine::new(&EngineConfig::new(10, measure)).run(&mut Loopy(Default::default()))
    }

    #[test]
    fn engine_report_json_round_trip_is_bit_exact() {
        let r = loopy_run(500);
        let back = EngineReport::from_json(&Value::parse(&r.to_json().encode()).unwrap()).unwrap();
        assert_eq!(r.fingerprint(), back.fingerprint());
        assert_eq!(back.extra(Extra::MeanTransmissions), Some(0.125));
    }

    #[test]
    fn a_checkpointed_extra_no_variant_names_recomputes_its_job() {
        let path = tmp_path("unknown-extra.jsonl");
        std::fs::remove_file(&path).ok();
        let ckpt = CheckpointLog::new(&path, 0xE7);
        let inputs = vec![100u64, 200, 300];
        checkpointed_sweep(inputs.clone(), Some(&ckpt), None, loopy_run).unwrap();
        // One record of a foreign or tampered log names a metric no
        // `Extra` carries: that record is malformed, not a new name.
        let text = std::fs::read_to_string(&path).unwrap();
        let known = "[\"mean_transmissions\",0.125]";
        assert_eq!(text.matches(known).count(), 3);
        std::fs::write(&path, text.replacen(known, "[\"no_such_extra\",1.0]", 1)).unwrap();

        let restored = AtomicUsize::new(0);
        let count = |p: SweepProgress| {
            if p.outcome == ProgressOutcome::Restored {
                restored.fetch_add(1, Ordering::SeqCst);
            }
        };
        let resumed = checkpointed_sweep(inputs.clone(), Some(&ckpt), Some(&count), loopy_run);
        assert_eq!(restored.into_inner(), 2, "the tampered job is recomputed");
        let fresh = parallel_sweep(inputs, loopy_run);
        let digests = |rs: &[EngineReport]| rs.iter().map(|r| r.fingerprint()).collect::<Vec<_>>();
        assert_eq!(digests(&resumed.unwrap()), digests(&fresh));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.0).abs() < 1e-12);
        assert!((v[4] - 1.0).abs() < 1e-12);
        assert!((v[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn logspace_endpoints() {
        let v = logspace(1e-12, 1e-6, 7);
        assert!((v[0] - 1e-12).abs() < 1e-24);
        assert!((v[6] - 1e-6).abs() < 1e-16);
        // Monotone increasing.
        for w in v.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_needs_two_points() {
        linspace(0.0, 1.0, 1);
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("osmosis-sweep-{}-{name}", std::process::id()))
    }

    /// Run `checkpointed_sweep` over `inputs` against `ckpt` and count the
    /// jobs it restored instead of running.
    fn restored_jobs(inputs: Vec<u64>, ckpt: &CheckpointLog) -> (Vec<u64>, usize) {
        let restored = AtomicUsize::new(0);
        let count = |p: SweepProgress| {
            if p.outcome == ProgressOutcome::Restored {
                restored.fetch_add(1, Ordering::SeqCst);
            }
        };
        let out = checkpointed_sweep(inputs, Some(ckpt), Some(&count), |x| x * 10).unwrap();
        (out, restored.into_inner())
    }

    #[test]
    fn unreadable_checkpoint_header_warns_and_recomputes() {
        let path = tmp_path("corrupt-header.jsonl");
        // Disk damage, or a foreign file at the path: not a log at all.
        // The sweep must run fresh, not error out.
        std::fs::write(&path, "{\"version\":1,\"key\":7,\"tot").unwrap();
        let ckpt = CheckpointLog::new(&path, 7);
        assert_eq!(restored_jobs(vec![1, 2, 3], &ckpt), (vec![10, 20, 30], 0));
        // The discarded file was replaced by a valid log.
        assert_eq!(restored_jobs(vec![1, 2, 3], &ckpt), (vec![10, 20, 30], 3));
        // The same key over another job count is another sweep.
        assert_eq!(restored_jobs(vec![1, 2], &ckpt), (vec![10, 20], 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_log_round_trips_and_appends() {
        let path = tmp_path("log-roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let log = CheckpointLog::new(&path, 0xC0DE);
        let (entries, warnings) = log.load_and_repair().unwrap();
        assert!(entries.is_empty() && warnings.is_empty());
        log.append(4, &Value::str("a")).unwrap();
        log.append(9, &Value::u64(123)).unwrap();
        let (entries, warnings) = log.load_and_repair().unwrap();
        assert!(warnings.is_empty());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 4);
        assert_eq!(entries[1], (9, Value::u64(123)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_log_truncates_torn_trailing_record() {
        let path = tmp_path("log-torn.jsonl");
        std::fs::remove_file(&path).ok();
        let log = CheckpointLog::new(&path, 11);
        log.append(0, &Value::u64(10)).unwrap();
        log.append(1, &Value::u64(20)).unwrap();
        // Simulate a SIGKILL mid-append: chop the last record in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 4]).unwrap();
        let (entries, warnings) = log.load_and_repair().unwrap();
        assert_eq!(entries, vec![(0, Value::u64(10))]);
        assert_eq!(warnings.len(), 1, "torn record must be reported");
        // The repair truncated the file: appending resumes cleanly.
        log.append(1, &Value::u64(20)).unwrap();
        let (entries, warnings) = log.load_and_repair().unwrap();
        assert!(warnings.is_empty());
        assert_eq!(entries, vec![(0, Value::u64(10)), (1, Value::u64(20))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_log_discards_stale_key() {
        let path = tmp_path("log-stale.jsonl");
        std::fs::remove_file(&path).ok();
        CheckpointLog::new(&path, 1)
            .append(0, &Value::u64(1))
            .unwrap();
        let (entries, warnings) = CheckpointLog::new(&path, 2).load_and_repair().unwrap();
        assert!(entries.is_empty());
        assert_eq!(warnings.len(), 1);
        assert!(!path.exists(), "stale log must be removed");
        std::fs::remove_file(&path).ok();
    }
}
