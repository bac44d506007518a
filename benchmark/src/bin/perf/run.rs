//! The end-to-end protocol: one process, one workload, tracing off.
//!
//! One untimed *priming* repetition warms the allocator and page cache
//! and yields the reference fingerprint; timed repetitions of the same
//! seeded run follow, each on a freshly constructed model, until
//! `--seconds` of measured wall have accumulated (at least
//! [`MIN_REPS`]). Timings are medians over the timed repetitions.

use crate::decl::{out_dir, Decl};
use crate::host;
use crate::stats::{iqr_over_median, median, spread};
use crate::workloads::{campaign_rep, model_rep, setup_samples, Kind, Rep, SimStats, Workload};
use crate::wrappers::SharedTrace;
use osmosis_sim::json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fewest timed repetitions a run reports a median over.
pub const MIN_REPS: usize = 3;
/// Set-ups timed on their own, besides the one each repetition makes:
/// up to this many, within this many seconds.
const SETUP_SAMPLES: usize = 200;
const SETUP_BUDGET_S: f64 = 0.25;
/// Stop adding repetitions once the process has run this long, whatever
/// `--seconds` asks: a run must end well inside the driver's 180 s.
const WALL_CEILING_S: f64 = 100.0;

/// This process's campaign scratch directory, inside `benchmark/out/`.
pub fn campaign_dir() -> Result<PathBuf, String> {
    Ok(out_dir()?.join(format!("campaign-{}", std::process::id())))
}

/// One repetition of any workload. A panic inside the model is a failed
/// repetition, not a crashed benchmark.
pub fn one_rep(w: &Workload, seed: u64, trace: Option<&SharedTrace>) -> Result<Rep, String> {
    match w.kind {
        Kind::Campaign => campaign_rep(w, seed, &campaign_dir()?),
        _ => catch_unwind(AssertUnwindSafe(|| model_rep(w, seed, trace))).map_err(|p| {
            let what = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            format!("repetition panicked: {what}")
        }),
    }
}

/// Everything one `perf run` observed.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub priming: Rep,
    /// The timed repetitions that completed.
    pub reps: Vec<Rep>,
    /// Every set-up the run timed: the stand-alone ones, then one per
    /// repetition.
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
}

/// Failed operations of one completed repetition, judged against the
/// priming repetition's statistics and, when given, the committed pin.
pub fn judge(rep: &Rep, reference: &SimStats, pin: Option<&SimStats>) -> Vec<String> {
    let mut failures = rep.failures.clone();
    if rep.sim.fingerprint != reference.fingerprint {
        failures.push(format!(
            "fingerprint {:#018x} differs from the priming repetition's {:#018x}",
            rep.sim.fingerprint, reference.fingerprint
        ));
    }
    if let Some(pin) = pin {
        if rep.sim != *pin {
            failures.push(format!(
                "simulated statistics {:?} differ from the pinned {pin:?}",
                rep.sim
            ));
        }
    }
    failures
}

pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    pin: Option<&SimStats>,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut setups = setup_samples(w, seed, SETUP_SAMPLES, SETUP_BUDGET_S, &campaign_dir()?)?;
    let priming = one_rep(w, seed, None).map_err(|e| format!("priming repetition: {e}"))?;
    setups.push(priming.setup_s);
    let mut attempted = priming.ops;
    let mut failures = judge(&priming, &priming.sim, pin);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < MIN_REPS
        || (measured_s < seconds && started.elapsed().as_secs_f64() < WALL_CEILING_S)
    {
        match one_rep(w, seed, None) {
            Ok(rep) => {
                attempted += rep.ops;
                failures.extend(judge(&rep, &priming.sim, pin));
                measured_s += rep.wall_s;
                setups.push(rep.setup_s);
                reps.push(rep);
            }
            Err(e) => {
                attempted += priming.ops;
                failures.push(e);
                if failures.len() > MIN_REPS {
                    return Err(format!("repetitions keep failing: {}", failures.join("; ")));
                }
            }
        }
    }
    Ok(Outcome {
        workload: w.name,
        seed,
        priming,
        reps,
        setups,
        attempted,
        failed: (failures.len() as u64).min(attempted),
        failures,
        peak_rss_mb: host::peak_rss_mb()?,
    })
}

/// One reported metric: its value and, for a timing, the per-repetition
/// values it is the median of.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub per_rep: Vec<f64>,
}

impl Metric {
    fn timed(name: impl Into<String>, unit: &'static str, per_rep: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: median(&per_rep),
            per_rep,
        }
    }

    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            per_rep: Vec::new(),
        }
    }

    /// The contract form: `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> (String, Value) {
        (
            self.name.clone(),
            Value::Obj(vec![
                ("value".into(), Value::f64(self.value)),
                ("unit".into(), Value::str(self.unit)),
            ]),
        )
    }
}

/// The end-to-end metrics, the same set for every workload.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| o.reps.iter().map(f).collect::<Vec<f64>>();
    let sim = &o.priming.sim;
    vec![
        Metric::timed(
            "slots_per_s",
            "1/s",
            per_rep(&|r| r.slots as f64 / r.wall_s),
        ),
        Metric::timed(
            "points_per_s",
            "1/s",
            per_rep(&|r| r.points as f64 / r.wall_s),
        ),
        Metric::timed("setup_s", "s", o.setups.clone()),
        Metric::exact("peak_rss_mb", "MB", o.peak_rss_mb),
        Metric::exact("sim_throughput", "cells/port/slot", sim.throughput),
        Metric::exact("sim_mean_delay_slots", "slots", sim.mean_delay),
        Metric::exact("sim_p99_delay_slots", "slots", sim.p99_delay),
    ]
}

/// The last stdout line the driver reads.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::u64(attempted)),
        ("failed".into(), Value::u64(failed)),
        (
            "metrics".into(),
            Value::Obj(metrics.iter().map(Metric::to_json).collect()),
        ),
    ])
    .encode()
}

/// The detailed record of a run: every metric with its per-repetition
/// values and spread, the fingerprint, and the host it ran on. A timing
/// whose own inter-quartile spread exceeds its declared bound is marked
/// `unresolved`: the run cannot resolve a change of the size the bound
/// polices.
pub fn detail(o: &Outcome, metrics: &[Metric], decl: &Decl, host: Value) -> Value {
    let metric_objs = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".into(), Value::f64(m.value)),
                ("unit".into(), Value::str(m.unit)),
            ];
            if !m.per_rep.is_empty() {
                let (lo, hi) = spread(&m.per_rep);
                fields.push((
                    "per_rep".into(),
                    Value::Arr(m.per_rep.iter().map(|&v| Value::f64(v)).collect()),
                ));
                fields.push(("min_over_median".into(), Value::f64(lo)));
                fields.push(("max_over_median".into(), Value::f64(hi)));
                let iqr = iqr_over_median(&m.per_rep);
                fields.push(("iqr_over_median".into(), Value::f64(iqr)));
                let bound = decl.bound(&m.name).unwrap_or(0.0);
                fields.push(("unresolved".into(), Value::Bool(iqr > bound)));
            }
            (m.name.clone(), Value::Obj(fields))
        })
        .collect();
    Value::Obj(vec![
        ("workload".into(), Value::str(o.workload)),
        ("seed".into(), Value::u64(o.seed)),
        (
            "fingerprint".into(),
            Value::str(format!("{:#018x}", o.priming.sim.fingerprint)),
        ),
        ("delivered".into(), Value::u64(o.priming.sim.delivered)),
        ("timed_reps".into(), Value::u64(o.reps.len() as u64)),
        ("priming_wall_s".into(), Value::f64(o.priming.wall_s)),
        ("attempted".into(), Value::u64(o.attempted)),
        ("failed".into(), Value::u64(o.failed)),
        (
            "failed_share".into(),
            Value::f64(o.failed as f64 / o.attempted as f64),
        ),
        (
            "failures".into(),
            Value::Arr(o.failures.iter().map(Value::str).collect()),
        ),
        ("metrics".into(), Value::Obj(metric_objs)),
        ("host".into(), host),
    ])
}
