//! Parallel parameter sweeps, with a supervisor for long campaigns.
//!
//! Figure reproductions sweep offered load, port count, or guard time
//! over dozens of points, each an independent simulation. Three entry
//! points share one striped `std::thread::scope` worker pool (the
//! data-parallel pattern from the Rayon guide, without the dependency):
//!
//! * [`parallel_sweep`] — the original fire-and-forget fan-out: panics
//!   propagate, results come back in input order.
//! * [`supervised_sweep`] — production-grade: each job runs under
//!   `catch_unwind` with an optional slot-budget [`watchdog`], failed
//!   jobs retry with seeded (deterministic) backoff, and the
//!   [`SweepSummary`] reports every job's fate without a single failure
//!   aborting its siblings.
//! * [`checkpointed_sweep`] — supervised *and* crash-safe: each
//!   completed job is appended to a [`CheckpointLog`] so an interrupted
//!   sweep resumes from every job that finished, and a torn or corrupt
//!   log costs only the records after the damage. The round-trip is
//!   bit-exact (see [`SweepState`] and the `json` module), so a resumed
//!   sweep fingerprints identically to an uninterrupted one.
//!
//! Determinism is preserved throughout because every point carries its
//! own seed and workers share no mutable simulation state.

use crate::engine::EngineReport;
use crate::json::Value;
use crate::stats::Histogram;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The per-thread slot-budget watchdog the engine consults before each
/// run (see `run_inner` in the engine module).
///
/// A supervised job's closure may run many engine windows; the budget
/// bounds their *total* slot count. The engine charges the configured
/// window up front — deterministically, before the first slot executes —
/// so an over-budget run aborts identically on every retry and on every
/// machine, instead of depending on wall-clock timing. Runs that
/// converge early consume only the slots they actually executed.
pub mod watchdog {
    use std::cell::Cell;

    /// The panic payload thrown when a run would exceed the armed
    /// budget. The sweep supervisor downcasts it into
    /// [`SweepError::BudgetExceeded`](super::SweepError::BudgetExceeded).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SlotBudgetExceeded {
        /// The armed budget, in slots.
        pub budget: u64,
        /// Slots already consumed by earlier runs of this job.
        pub already_used: u64,
        /// Slots the aborted run asked for.
        pub requested: u64,
    }

    impl std::fmt::Display for SlotBudgetExceeded {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "slot budget exceeded: run of {} slots with {} of {} already used",
                self.requested, self.already_used, self.budget
            )
        }
    }

    thread_local! {
        static BUDGET: Cell<Option<u64>> = const { Cell::new(None) };
        static USED: Cell<u64> = const { Cell::new(0) };
    }

    /// Arm the watchdog on this thread with a fresh budget.
    pub fn arm(budget: u64) {
        BUDGET.with(|b| b.set(Some(budget)));
        USED.with(|u| u.set(0));
    }

    /// Disarm the watchdog on this thread.
    pub fn disarm() {
        BUDGET.with(|b| b.set(None));
        USED.with(|u| u.set(0));
    }

    /// Whether a budget is armed on this thread.
    pub fn armed() -> bool {
        BUDGET.with(|b| b.get()).is_some()
    }

    /// Slots consumed since the watchdog was armed.
    pub fn used() -> u64 {
        USED.with(|u| u.get())
    }

    /// Abort (by panic, caught by the supervisor) if a run of `slots`
    /// would exceed the armed budget. No-op when disarmed.
    pub fn charge(slots: u64) {
        if let Some(budget) = BUDGET.with(|b| b.get()) {
            let already_used = USED.with(|u| u.get());
            if already_used.saturating_add(slots) > budget {
                std::panic::panic_any(SlotBudgetExceeded {
                    budget,
                    already_used,
                    requested: slots,
                });
            }
        }
    }

    /// Record `slots` actually executed. No-op when disarmed.
    pub fn consume(slots: u64) {
        if armed() {
            USED.with(|u| u.set(u.get().saturating_add(slots)));
        }
    }
}

/// Why a supervised job ultimately failed (after exhausting retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The job panicked; `message` is the panic payload when it was a
    /// string (model invariants panic with messages).
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The job's simulation window exceeded the armed slot budget.
    BudgetExceeded {
        /// The armed budget, in slots.
        budget: u64,
        /// Slots the aborted run asked for (on top of what earlier runs
        /// of the job had already consumed).
        requested: u64,
    },
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
            SweepError::Panicked { message } => write!(f, "job panicked: {message}"),
            SweepError::BudgetExceeded { budget, requested } => {
                write!(f, "slot budget {budget} exceeded by a {requested}-slot run")
            }
            SweepError::Checkpoint { message } => write!(f, "checkpoint failure: {message}"),
            SweepError::Io { message } => write!(f, "i/o failure: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// How one supervised job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran (possibly after retries) and produced its output.
    Completed,
    /// The output was restored from the checkpoint file; the job did
    /// not run in this process.
    Restored,
    /// The job failed on every attempt; its output slot is `None`.
    Failed(SweepError),
}

/// Supervision record for one job of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Attempts made in this process (0 for restored jobs).
    pub attempts: u32,
    /// The job's fate.
    pub outcome: JobOutcome,
}

/// The result of a supervised sweep: per-job outputs (in input order,
/// `None` where the job failed) and per-job supervision records.
#[derive(Debug, Clone)]
pub struct SweepSummary<O> {
    /// `outputs[i]` is job `i`'s output, or `None` if it failed.
    pub outputs: Vec<Option<O>>,
    /// `jobs[i]` records how job `i` ended.
    pub jobs: Vec<JobRecord>,
}

impl<O> SweepSummary<O> {
    /// Whether every job produced an output.
    pub fn is_complete(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// The failed jobs, as `(index, error)` pairs.
    pub fn failures(&self) -> Vec<(usize, &SweepError)> {
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(i, j)| match &j.outcome {
                JobOutcome::Failed(e) => Some((i, e)),
                _ => None,
            })
            .collect()
    }

    /// Total attempts across all jobs (restored jobs contribute 0).
    pub fn total_attempts(&self) -> u64 {
        self.jobs.iter().map(|j| j.attempts as u64).sum()
    }

    /// Unwrap into plain outputs, or the first job failure.
    pub fn into_outputs(self) -> Result<Vec<O>, SweepError> {
        let mut first_failure = None;
        for job in &self.jobs {
            if let JobOutcome::Failed(e) = &job.outcome {
                first_failure = Some(e.clone());
                break;
            }
        }
        match first_failure {
            Some(e) => Err(e),
            None => self
                .outputs
                .into_iter()
                .map(|o| {
                    o.ok_or(SweepError::Panicked {
                        message: "missing output without a recorded failure".into(),
                    })
                })
                .collect(),
        }
    }
}

/// The terse per-job outcome carried by a [`SweepProgress`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressOutcome {
    /// The job ran to completion in this process.
    Completed,
    /// The job was restored from a checkpoint file without running.
    Restored,
    /// The job failed all its retry attempts.
    Failed,
}

/// A progress event delivered to a [`ProgressHook`] each time a job of a
/// supervised or checkpointed sweep finishes (or is restored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Index of the job this event reports on.
    pub job: usize,
    /// Total jobs in the sweep.
    pub total: usize,
    /// Jobs finished so far — completed, restored, or failed — this one
    /// included. Monotone, though concurrent workers may observe the
    /// shared counter slightly stale relative to their own event.
    pub finished: usize,
    /// Jobs that have failed all retries so far.
    pub failed: usize,
    /// Attempts this job made in this process (0 for restored jobs).
    pub attempts: u32,
    /// How the job ended.
    pub outcome: ProgressOutcome,
}

/// A shareable observer invoked once per finished job. Purely advisory:
/// hooks see progress, they never influence results, retries, or job
/// order. Cloned into [`SweepOptions`]; the telemetry crate provides a
/// ready-made stderr reporter.
#[derive(Clone)]
pub struct ProgressHook(std::sync::Arc<dyn Fn(SweepProgress) + Send + Sync>);

impl ProgressHook {
    /// Wrap a callback. It must be `Send + Sync`: workers invoke it
    /// concurrently from the sweep's threads.
    pub fn new(f: impl Fn(SweepProgress) + Send + Sync + 'static) -> Self {
        ProgressHook(std::sync::Arc::new(f))
    }

    /// Deliver one progress event.
    pub fn notify(&self, progress: SweepProgress) {
        (self.0)(progress)
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Supervision policy for [`supervised_sweep`] / [`checkpointed_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Sweep seed; the retry backoff is a pure function of
    /// `(seed, job index, attempt)` so reruns sleep identically.
    pub seed: u64,
    /// Attempts per job before recording a failure (minimum 1).
    pub max_attempts: u32,
    /// Per-job slot budget enforced by the [`watchdog`]; `None` leaves
    /// jobs unbounded.
    pub slot_budget: Option<u64>,
    /// Base retry backoff in milliseconds (doubles per attempt, plus
    /// seeded jitter). 0 disables sleeping — tests use this.
    pub backoff_base_ms: u64,
    /// Worker-thread count; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Optional live progress observer, notified once per finished (or
    /// checkpoint-restored) job.
    pub progress: Option<ProgressHook>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seed: 0,
            max_attempts: 3,
            slot_budget: None,
            backoff_base_ms: 10,
            workers: None,
            progress: None,
        }
    }
}

impl SweepOptions {
    /// Options seeded for a deterministic campaign.
    pub fn seeded(seed: u64) -> Self {
        SweepOptions {
            seed,
            ..Self::default()
        }
    }

    /// Set the per-job slot budget.
    pub fn with_slot_budget(mut self, slots: u64) -> Self {
        self.slot_budget = Some(slots);
        self
    }

    /// Set the attempt limit.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Set the base backoff (0 disables sleeping).
    pub fn with_backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Pin the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attach a live progress observer.
    pub fn with_progress(mut self, hook: ProgressHook) -> Self {
        self.progress = Some(hook);
        self
    }
}

fn default_workers(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
}

/// The shared striped worker pool: deal `inputs` round-robin over
/// `workers` scoped threads, run `run(index, input)` on each, return the
/// results in input order. Worker `w` takes items `w`, `w + workers`,
/// `w + 2·workers`, … so a load sweep whose cost grows monotonically
/// with the parameter still balances. A panic escaping `run` propagates
/// (supervised callers catch inside `run`, so only [`parallel_sweep`]
/// exposes this).
fn striped<I, R, F>(inputs: Vec<I>, workers: usize, run: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| run(i, x))
            .collect();
    }

    let mut stripes: Vec<Vec<(usize, I)>> = (0..workers)
        .map(|w| Vec::with_capacity(n / workers + usize::from(w < n % workers)))
        .collect();
    for (idx, input) in inputs.into_iter().enumerate() {
        stripes[idx % workers].push((idx, input));
    }

    let stripe_outputs: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                let run = &run;
                scope.spawn(move || {
                    stripe
                        .into_iter()
                        .map(|(idx, input)| run(idx, input))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outputs) => outputs,
                // Re-raise the worker's panic on the caller thread with
                // its original payload instead of a generic join error.
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });

    // Un-deal: item idx was the (idx / workers)-th element of stripe
    // (idx % workers); the placement below is that bijection inverted.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
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

/// Run `f` over every element of `inputs`, in parallel, preserving
/// order. Panics propagate to the caller (use [`supervised_sweep`] for
/// isolation). `f` is shared by reference across workers; inputs are
/// consumed by value.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = default_workers(inputs.len());
    striped(inputs, workers, |_idx, input| f(input))
}

fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> SweepError {
    match payload.downcast::<watchdog::SlotBudgetExceeded>() {
        Ok(e) => SweepError::BudgetExceeded {
            budget: e.budget,
            requested: e.requested,
        },
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            SweepError::Panicked { message }
        }
    }
}

/// Sleep before retrying `job`'s attempt number `attempt` — exponential
/// in the attempt with jitter drawn from a stream derived from the sweep
/// seed and the job index, so the backoff schedule is a pure function of
/// `(seed, job, attempt)`.
fn retry_backoff(opts: &SweepOptions, job: usize, attempt: u32) {
    if opts.backoff_base_ms == 0 {
        return;
    }
    let mut rng = crate::rng::SeedSequence::new(opts.seed).stream("sweep-retry", job as u64);
    let mut jitter = 0;
    for _ in 0..attempt {
        jitter = rng.below(opts.backoff_base_ms + 1);
    }
    let scaled = opts
        .backoff_base_ms
        .saturating_mul(1u64 << (attempt - 1).min(6));
    std::thread::sleep(std::time::Duration::from_millis(scaled + jitter));
}

fn supervise_one<I, O, F>(
    idx: usize,
    input: &I,
    opts: &SweepOptions,
    f: &F,
) -> (Option<O>, JobRecord)
where
    F: Fn(&I) -> O,
{
    let max_attempts = opts.max_attempts.max(1);
    let mut attempts = 0;
    loop {
        attempts += 1;
        if let Some(budget) = opts.slot_budget {
            watchdog::arm(budget);
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(input)));
        if opts.slot_budget.is_some() {
            watchdog::disarm();
        }
        match result {
            Ok(output) => {
                return (
                    Some(output),
                    JobRecord {
                        attempts,
                        outcome: JobOutcome::Completed,
                    },
                )
            }
            Err(payload) => {
                let err = classify_panic(payload);
                if attempts >= max_attempts {
                    return (
                        None,
                        JobRecord {
                            attempts,
                            outcome: JobOutcome::Failed(err),
                        },
                    );
                }
                retry_backoff(opts, idx, attempts);
            }
        }
    }
}

/// Shared progress counters for one sweep, notified through the
/// options' optional [`ProgressHook`].
struct ProgressLedger<'a> {
    hook: Option<&'a ProgressHook>,
    total: usize,
    finished: std::sync::atomic::AtomicUsize,
    failed: std::sync::atomic::AtomicUsize,
}

impl<'a> ProgressLedger<'a> {
    fn new(opts: &'a SweepOptions, total: usize) -> Self {
        ProgressLedger {
            hook: opts.progress.as_ref(),
            total,
            finished: std::sync::atomic::AtomicUsize::new(0),
            failed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn note(&self, job: usize, record: &JobRecord) {
        use std::sync::atomic::Ordering;
        let Some(hook) = self.hook else { return };
        let outcome = match record.outcome {
            JobOutcome::Completed => ProgressOutcome::Completed,
            JobOutcome::Restored => ProgressOutcome::Restored,
            JobOutcome::Failed(_) => ProgressOutcome::Failed,
        };
        let failed = if outcome == ProgressOutcome::Failed {
            self.failed.fetch_add(1, Ordering::SeqCst) + 1
        } else {
            self.failed.load(Ordering::SeqCst)
        };
        hook.notify(SweepProgress {
            job,
            total: self.total,
            finished: self.finished.fetch_add(1, Ordering::SeqCst) + 1,
            failed,
            attempts: record.attempts,
            outcome,
        });
    }
}

/// Run `f` over every element of `inputs` in parallel under supervision:
/// each job is isolated by `catch_unwind`, bounded by the optional slot
/// budget, retried up to `opts.max_attempts` times with deterministic
/// seeded backoff, and reported in the [`SweepSummary`] — a panicking or
/// over-budget job never aborts its siblings.
///
/// `f` takes the input by reference so retries can re-run it.
pub fn supervised_sweep<I, O, F>(inputs: Vec<I>, opts: &SweepOptions, f: F) -> SweepSummary<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    let workers = opts.workers.unwrap_or_else(|| default_workers(n));
    let ledger = ProgressLedger::new(opts, n);
    let results = striped(inputs, workers, |idx, input| {
        let (output, record) = supervise_one(idx, &input, opts, &f);
        ledger.note(idx, &record);
        (output, record)
    });
    let mut outputs = Vec::with_capacity(n);
    let mut jobs = Vec::with_capacity(n);
    for (output, record) in results {
        outputs.push(output);
        jobs.push(record);
    }
    SweepSummary { outputs, jobs }
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

impl SweepState for f64 {
    fn to_json(&self) -> Value {
        Value::f64(*self)
    }
    fn from_json(v: &Value) -> Option<Self> {
        v.as_f64()
    }
}

impl SweepState for u64 {
    fn to_json(&self) -> Value {
        Value::u64(*self)
    }
    fn from_json(v: &Value) -> Option<Self> {
        v.as_u64()
    }
}

/// Intern an extra-metric name loaded from a checkpoint into the
/// `&'static str` the report schema requires. Known engine-produced
/// names resolve without allocating; genuinely new names leak once per
/// distinct string per process (checkpoints carry a handful of names,
/// so the leak is bounded and intentional).
fn intern_extra_name(name: &str) -> &'static str {
    static CACHE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(known) = cache.iter().find(|k| **k == name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    cache.push(leaked);
    leaked
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
                        .map(|&(name, value)| Value::Arr(vec![Value::str(name), Value::f64(value)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let fu = |k: &str| v.get(k).and_then(Value::as_u64);
        let ff = |k: &str| v.get(k).and_then(Value::as_f64);
        let extra = v
            .get("extra")?
            .items()?
            .iter()
            .map(|pair| {
                let items = pair.items()?;
                let name = items.first()?.as_str()?;
                let value = items.get(1)?.as_f64()?;
                Some((intern_extra_name(name), value))
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

/// [`supervised_sweep`] with crash-safe progress persistence: each
/// completed job is appended to `ckpt` as it finishes, jobs already in a
/// matching log are restored instead of re-run, and the merged summary
/// is identical — bit for bit, via the exact [`SweepState`] round-trip —
/// to what an uninterrupted run would have produced. The job count is
/// folded into the log's key, so a log left by a sweep of another key or
/// another size is discarded rather than resumed; a torn or corrupt
/// record costs only itself and the records after it, which re-run.
///
/// Only checkpoint I/O failures surface as `Err`; job failures are
/// reported per-job in the summary, like [`supervised_sweep`].
pub fn checkpointed_sweep<I, O, F>(
    inputs: Vec<I>,
    opts: &SweepOptions,
    ckpt: &CheckpointLog,
    f: F,
) -> Result<SweepSummary<O>, SweepError>
where
    I: Send,
    O: Send + SweepState,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    let sized_key = crate::rng::SeedSequence::new(ckpt.key).child_seed("sweep-jobs", n as u64);
    let log = CheckpointLog::new(&ckpt.path, sized_key);
    let (records, warnings) = log.load_and_repair()?;
    for warning in warnings {
        eprintln!("warning: {warning}");
    }
    let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (idx, payload) in &records {
        if let Some(slot) = outputs.get_mut(*idx as usize) {
            *slot = O::from_json(payload);
        }
    }
    let mut jobs: Vec<JobRecord> = outputs
        .iter()
        .map(|o| JobRecord {
            attempts: 0,
            outcome: if o.is_some() {
                JobOutcome::Restored
            } else {
                // Placeholder; overwritten when the job runs below.
                JobOutcome::Completed
            },
        })
        .collect();

    let pending: Vec<(usize, I)> = inputs
        .into_iter()
        .enumerate()
        .filter(|&(idx, _)| outputs[idx].is_none())
        .collect();

    // Restored jobs count toward progress before any worker starts.
    let ledger = ProgressLedger::new(opts, n);
    for (idx, job) in jobs.iter().enumerate() {
        if job.outcome == JobOutcome::Restored {
            ledger.note(idx, job);
        }
    }

    // Appends are serialized; the first failure stops further writes.
    let write_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let workers = opts
        .workers
        .unwrap_or_else(|| default_workers(pending.len()));
    let results: Vec<(usize, Option<O>, JobRecord)> =
        striped(pending, workers, |_stripe_idx, (idx, input)| {
            let (output, record) = supervise_one(idx, &input, opts, &f);
            ledger.note(idx, &record);
            if let Some(o) = &output {
                let json = o.to_json();
                let mut failed = write_error.lock().unwrap_or_else(|e| e.into_inner());
                if failed.is_none() {
                    *failed = log.append(idx as u64, &json).err();
                }
            }
            (idx, output, record)
        });

    for (idx, output, record) in results {
        outputs[idx] = output;
        jobs[idx] = record;
    }
    match write_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some(e) => Err(e),
        None => Ok(SweepSummary { outputs, jobs }),
    }
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

    fn quiet_opts() -> SweepOptions {
        SweepOptions::seeded(7).with_backoff_base_ms(0)
    }

    #[test]
    fn supervised_sweep_isolates_a_panicking_job() {
        let summary = supervised_sweep(
            vec![1u64, 2, 3, 4],
            &quiet_opts().with_max_attempts(2),
            |&x| {
                assert!(x != 3, "job three always dies");
                x * 10
            },
        );
        assert!(!summary.is_complete());
        assert_eq!(summary.outputs[0], Some(10));
        assert_eq!(summary.outputs[1], Some(20));
        assert_eq!(summary.outputs[2], None);
        assert_eq!(summary.outputs[3], Some(40));
        let failures = summary.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 2);
        assert_eq!(summary.jobs[2].attempts, 2);
        assert!(matches!(
            summary.jobs[2].outcome,
            JobOutcome::Failed(SweepError::Panicked { .. })
        ));
    }

    #[test]
    fn supervised_sweep_retries_deterministically() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Fails on the first attempt, succeeds on the second.
        let tries = AtomicU32::new(0);
        let summary = supervised_sweep(vec![0u64], &quiet_opts().with_max_attempts(3), |_| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            99u64
        });
        assert!(summary.is_complete());
        assert_eq!(summary.jobs[0].attempts, 2);
        assert_eq!(summary.into_outputs().unwrap(), vec![99]);
    }

    #[test]
    fn watchdog_budget_aborts_before_the_run_starts() {
        use crate::engine::{run_model, EngineConfig, Observer, SlottedModel, TraceSink};
        struct Idle;
        impl SlottedModel for Idle {
            fn ports(&self) -> usize {
                1
            }
            fn arbitrate<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
            fn deliver<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
            fn inject<T: TraceSink>(&mut self, _: u64, _: &mut Observer<'_, T>) {}
        }
        let opts = quiet_opts().with_slot_budget(150).with_max_attempts(2);
        let summary = supervised_sweep(vec![100u64, 400], &opts, |&slots| {
            run_model(&mut Idle, &EngineConfig::new(0, slots)).measured_slots
        });
        assert_eq!(summary.outputs[0], Some(100));
        assert_eq!(summary.outputs[1], None);
        match &summary.jobs[1].outcome {
            JobOutcome::Failed(SweepError::BudgetExceeded { budget, requested }) => {
                assert_eq!(*budget, 150);
                assert_eq!(*requested, 400);
            }
            other => panic!("expected a budget failure, got {other:?}"),
        }
        assert!(!watchdog::armed(), "watchdog must be disarmed after a job");
    }

    #[test]
    fn progress_hook_sees_every_job_without_perturbing_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        let events: Arc<Mutex<Vec<SweepProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let opts = quiet_opts()
            .with_max_attempts(2)
            .with_progress(ProgressHook::new(move |p| {
                sink.lock().unwrap().push(p);
            }));
        let summary = supervised_sweep(vec![1u64, 2, 3, 4], &opts, |&x| {
            assert!(x != 3, "job three always dies");
            x * 10
        });
        assert_eq!(summary.outputs[0], Some(10));
        let seen = events.lock().unwrap();
        assert_eq!(seen.len(), 4, "one event per job");
        let mut jobs: Vec<usize> = seen.iter().map(|p| p.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![0, 1, 2, 3]);
        let failed: Vec<_> = seen
            .iter()
            .filter(|p| p.outcome == ProgressOutcome::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].job, 2);
        assert_eq!(failed[0].attempts, 2);
        for p in seen.iter() {
            assert_eq!(p.total, 4);
            assert!(p.finished >= 1 && p.finished <= 4);
        }
        drop(seen);

        // Checkpointed restore reports Restored events.
        let dir = std::env::temp_dir().join(format!("osmosis-progress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = CheckpointLog::new(dir.join("progress.jsonl"), 99);
        let first = AtomicUsize::new(0);
        let _ = checkpointed_sweep(vec![5u64, 6], &quiet_opts(), &ckpt, |&x| {
            first.fetch_add(1, Ordering::SeqCst);
            x
        })
        .unwrap();
        let events: Arc<Mutex<Vec<SweepProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let opts = quiet_opts().with_progress(ProgressHook::new(move |p| {
            sink.lock().unwrap().push(p);
        }));
        let resumed = checkpointed_sweep(vec![5u64, 6], &opts, &ckpt, |&x| x).unwrap();
        assert!(resumed.is_complete());
        let seen = events.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|p| p.outcome == ProgressOutcome::Restored));
        drop(seen);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_report_json_round_trip_is_bit_exact() {
        use crate::engine::{run_model, EngineConfig, EngineReport};
        use crate::SlottedModel;
        // A run with real histogram contents and extras.
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
                report.set_extra("loopy_marker", 0.125);
            }
        }
        let r = run_model(&mut Loopy(Default::default()), &EngineConfig::new(10, 500));
        let back = EngineReport::from_json(&Value::parse(&r.to_json().encode()).unwrap()).unwrap();
        assert_eq!(r.fingerprint(), back.fingerprint());
        assert_eq!(back.extra("loopy_marker"), Some(0.125));
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

    #[test]
    fn unreadable_checkpoint_header_warns_and_recomputes() {
        let path = tmp_path("corrupt-header.jsonl");
        // Disk damage, or a foreign file at the path: not a log at all.
        // The sweep must run fresh, not error out.
        std::fs::write(&path, "{\"version\":1,\"key\":7,\"tot").unwrap();
        let ckpt = CheckpointLog::new(&path, 7);
        let summary =
            checkpointed_sweep(vec![1u64, 2, 3], &quiet_opts(), &ckpt, |&x| x * 10).unwrap();
        assert!(summary.is_complete());
        assert_eq!(summary.outputs[2], Some(30));
        // The discarded file was replaced by a valid log.
        let resumed =
            checkpointed_sweep(vec![1u64, 2, 3], &quiet_opts(), &ckpt, |&x| x * 10).unwrap();
        assert!(resumed
            .jobs
            .iter()
            .all(|j| j.outcome == JobOutcome::Restored));
        // The same key over another job count is another sweep.
        let resized = checkpointed_sweep(vec![1u64, 2], &quiet_opts(), &ckpt, |&x| x * 10).unwrap();
        assert!(resized
            .jobs
            .iter()
            .all(|j| j.outcome == JobOutcome::Completed));
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
