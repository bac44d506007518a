//! The traced run: per-layer metrics, measured from outside.
//!
//! End-to-end numbers always come from the untraced run. This run adds a
//! few untraced repetitions (the baseline the tracing overhead is read
//! against), then one repetition inside the timing wrappers, then the
//! direct-call probes that belong to the workload. Every declared
//! per-layer metric is printed for every workload; one whose layer the
//! workload does not exercise, or whose probe belongs to another
//! workload, reads 0.

use crate::decl::out_dir;
use crate::run::{campaign_dir, judge, one_rep, Metric};
use crate::stats::{median, quantile, resolvable_tail};
use crate::workloads::{campaign_setup, campaign_spec, stream_points, Kind, Probes, Rep, Workload};
use crate::wrappers::{SlotSpans, Trace};
use osmosis_audit::{AuditMode, AuditSet};
use osmosis_campaign::{run_shard, BufferSpec};
use osmosis_fabric::TopologySpec;
use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
use osmosis_sched::{CellScheduler, Flppr, Islip, Pim};
use osmosis_sim::engine::EngineConfig;
use osmosis_sim::json::Value;
use osmosis_sim::{CheckpointLog, NullCircuits, SeedSequence, SimRng};
use osmosis_switch::{
    run_switch, run_switch_audited, run_switch_circuit, run_switch_circuit_traced,
    run_switch_instrumented, run_switch_traced, VoqSwitch,
};
use osmosis_telemetry::TelemetrySink;
use osmosis_traffic::BernoulliUniform;
use std::collections::BTreeMap;
use std::time::Instant;

/// Untraced repetitions after the priming one; their median wall is the
/// base of `trace_overhead` and `fabric.cold_extra_s`.
const UNTRACED_REPS: usize = 3;
/// Window of each plane-cost arm (switch64_sat configuration).
const PLANE_WARMUP: u64 = 1_500;
const PLANE_MEASURE: u64 = 13_500;
const PLANE_REPS: usize = 3;

const ALGOS: [&str; 3] = ["flppr", "islip", "pim"];
const LADDER_PORTS: [usize; 3] = [16, 64, 256];
const FILLS: [&str; 2] = ["sat", "sparse"];

fn ladder_name(algo: &str, n: usize, fill: &str) -> String {
    format!("sched.tick_ns.{algo}.n{n}.{fill}")
}

/// Every per-layer metric `perf` prints, with its unit, in print order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 35] = [
        ("sim.run_ns_per_slot", "ns"),
        ("sim.engine_self_ns_per_slot", "ns"),
        ("traffic.arrivals_ns_per_slot", "ns"),
        ("traffic.cells_per_slot", "count"),
        ("trace_overhead", "ratio"),
        ("sched.tick_ns_p50", "ns"),
        ("sched.tick_ns_p99", "ns"),
        ("sched.note_arrival_ns_per_cell", "ns"),
        ("sched.grants_per_tick", "count"),
        ("switch.arbitrate_self_ns_per_slot", "ns"),
        ("switch.deliver_ns_per_slot", "ns"),
        ("switch.admit_self_ns_per_slot", "ns"),
        ("fabric.expand_ms", "ms"),
        ("fabric.build_ms", "ms"),
        ("fabric.cold_extra_s", "s"),
        ("fabric.arbitrate_ns_per_slot_p50", "ns"),
        ("fabric.arbitrate_ns_per_slot_p95", "ns"),
        ("fabric.deliver_ns_per_slot", "ns"),
        ("fabric.admit_ns_per_slot", "ns"),
        ("fabric.cell_hops_per_slot", "count"),
        ("fabric.ns_per_cell_hop", "ns"),
        ("sim.plane_cost.vacuous", "ratio"),
        ("faults.plane_cost", "ratio"),
        ("audit.plane_cost", "ratio"),
        ("telemetry.plane_cost", "ratio"),
        ("sim.plane_cost.all", "ratio"),
        ("campaign.point_ms_p50", "ms"),
        ("campaign.point_ms_p95", "ms"),
        ("campaign.point_ms.switch", "ms"),
        ("campaign.point_ms.fabric_electronic", "ms"),
        ("campaign.point_ms.fabric_fdl", "ms"),
        ("campaign.resume_ms", "ms"),
        ("campaign.bytes_per_point", "count"),
        ("sim.checkpoint_append_us", "us"),
        ("sim.checkpoint_repair_ms", "ms"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for algo in ALGOS {
        for n in LADDER_PORTS {
            for fill in FILLS {
                all.push((ladder_name(algo, n, fill), "ns"));
            }
        }
    }
    all
}

/// Measured values by metric name; what is absent prints as 0.
type Values = BTreeMap<String, f64>;

/// What a traced run hands back to `main`.
pub struct LayerOutcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The detailed record: failures, sample counts, resolvable tails.
    pub detail: Value,
}

fn column(slots: &[SlotSpans], f: impl Fn(&SlotSpans) -> u32) -> Vec<f64> {
    slots.iter().map(|s| f64::from(f(s))).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median cost of reading the clock twice back to back. A timed span
/// reads about this much too long, and its parent is charged about as
/// much again outside the span; it matters only for `note_arrival`,
/// which is timed sixty times a slot and costs less than the clock.
fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..10_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The span-tree metrics of one traced model repetition. Returns the
/// per-slot mean self time of every span, which sum to the run.
fn span_metrics(w: &Workload, traced: &Rep, slots: &[SlotSpans], values: &mut Values) -> Value {
    let n = slots.len() as f64;
    let run_ns = traced.wall_s * 1e9 / n;
    let arbitrate = column(slots, |s| s.arbitrate_ns);
    let tick = column(slots, |s| s.tick_ns);
    let deliver = mean(&column(slots, |s| s.deliver_ns));
    let arrivals = mean(&column(slots, |s| s.arrivals_ns));
    let admit = mean(&column(slots, |s| s.admit_ns));
    let cells = mean(&column(slots, |s| s.cells));
    // Clock reads around the per-cell spans, moved to a line of their own.
    let timer = timer_ns();
    let note_raw = mean(&column(slots, |s| s.note_ns));
    let noted = if note_raw > 0.0 { cells } else { 0.0 };
    let note = (note_raw - noted * timer).max(0.0);
    let tracer = 2.0 * noted * timer;
    let admit_self = admit - note - tracer;
    let engine_self = run_ns - mean(&arbitrate) - deliver - arrivals - admit;
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    set("sim.run_ns_per_slot", run_ns);
    // Slot loop, observer and report: the run minus the model's phases.
    set("sim.engine_self_ns_per_slot", engine_self);
    set("traffic.arrivals_ns_per_slot", arrivals);
    set("traffic.cells_per_slot", cells);
    match w.kind {
        Kind::Switch { .. } => {
            set("sched.tick_ns_p50", median(&tick));
            set("sched.tick_ns_p99", quantile(&tick, 0.99));
            set("sched.note_arrival_ns_per_cell", note / cells);
            set("sched.grants_per_tick", mean(&column(slots, |s| s.grants)));
            set(
                "switch.arbitrate_self_ns_per_slot",
                mean(&arbitrate) - mean(&tick),
            );
            set("switch.deliver_ns_per_slot", deliver);
            set("switch.admit_self_ns_per_slot", admit_self);
        }
        Kind::Fabric { spec, .. } => {
            set("fabric.arbitrate_ns_per_slot_p50", median(&arbitrate));
            set(
                "fabric.arbitrate_ns_per_slot_p95",
                quantile(&arbitrate, 0.95),
            );
            set("fabric.deliver_ns_per_slot", deliver);
            set("fabric.admit_ns_per_slot", admit);
            let stages = spec
                .parse::<TopologySpec>()
                .map_or(0.0, |s| f64::from(s.stages()));
            let hops = traced.sim.delivered as f64 * stages / w.measure as f64;
            set("fabric.cell_hops_per_slot", hops);
            set(
                "fabric.ns_per_cell_hop",
                (mean(&arbitrate) + deliver + admit) / hops,
            );
        }
        Kind::Campaign => {}
    }
    let tail = resolvable_tail(slots.len());
    let self_ns = [
        ("sim.engine", engine_self),
        ("arbitrate", mean(&arbitrate) - mean(&tick)),
        ("sched.tick", mean(&tick)),
        ("deliver", deliver),
        ("traffic.arrivals", arrivals),
        ("admit", admit_self),
        ("sched.note_arrival", note),
        ("tracer_clock", tracer),
    ];
    Value::Obj(vec![
        ("samples".into(), Value::u64(slots.len() as u64)),
        ("timer_ns".into(), Value::f64(timer)),
        (
            "self_ns_per_slot".into(),
            Value::Obj(
                self_ns
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Value::f64(v)))
                    .collect(),
            ),
        ),
        (
            "self_sum_over_run".into(),
            Value::f64(self_ns.iter().map(|&(_, v)| v).sum::<f64>() / run_ns),
        ),
        (
            "highest_resolvable_tail".into(),
            tail.map_or(Value::Null, |(label, _)| Value::str(label)),
        ),
        (
            "arbitrate_ns_at_tail".into(),
            tail.map_or(Value::Null, |(_, q)| Value::f64(quantile(&arbitrate, q))),
        ),
    ])
}

fn make_sched(algo: &str, n: usize, seed: u64) -> Box<dyn CellScheduler> {
    let iterations = n.ilog2() as usize;
    match algo {
        "flppr" => Box::new(Flppr::osmosis(n, 2)),
        "islip" => Box::new(Islip::log2n(n, 2)),
        _ => Box::new(Pim::new(n, iterations, 2, seed)),
    }
}

/// Median ns of a direct `tick` call. `sat` keeps every VOQ non-empty
/// (each granted pair is re-armed outside the timed call); `sparse`
/// feeds 0.1·N seeded arrivals per tick.
fn tick_ns(algo: &str, n: usize, fill: &str, seed: u64) -> f64 {
    let ticks: u64 = match n {
        16 => 20_000,
        64 => 4_000,
        _ => 1_000,
    };
    let warm = ticks / 10;
    let mut sched = make_sched(algo, n, seed);
    let mut rng = SimRng::seed_from_u64(seed ^ n as u64);
    if fill == "sat" {
        for i in 0..n {
            for o in 0..n {
                sched.note_arrival(i, o);
            }
        }
    }
    let mut samples = Vec::with_capacity(ticks as usize);
    for slot in 0..warm + ticks {
        if fill == "sparse" {
            for i in 0..n {
                if rng.coin(0.1) {
                    sched.note_arrival(i, rng.index(n));
                }
            }
        }
        let t = Instant::now();
        let matching = sched.tick(slot);
        let ns = t.elapsed().as_nanos() as f64;
        if fill == "sat" {
            for &(i, o) in matching.pairs() {
                sched.note_arrival(i, o);
            }
        }
        if slot >= warm {
            samples.push(ns);
        }
    }
    median(&samples)
}

fn ladder(fill: &str, seed: u64, values: &mut Values) {
    for algo in ALGOS {
        for n in LADDER_PORTS {
            values.insert(ladder_name(algo, n, fill), tick_ns(algo, n, fill, seed));
        }
    }
}

/// The plane-cost matrix: wall of the switch64_sat configuration with
/// each plane attached, as a ratio to the bare run. Arms are interleaved
/// so drift in the machine's speed hits all of them alike.
fn plane_costs(ports: usize, load: f64, seed: u64, values: &mut Values) {
    let cfg = EngineConfig::new(PLANE_WARMUP, PLANE_MEASURE).with_seed(seed);
    let horizon = PLANE_WARMUP + PLANE_MEASURE;
    // Attached and polled every slot, but its one fault never fires.
    let dormant = || {
        FaultInjector::new(FaultPlan::new().one_shot(
            FaultKind::SoaStuckOff { output: 0 },
            horizon + 1_000,
            None,
        ))
    };
    let arms = [
        "bare",
        "sim.plane_cost.vacuous",
        "faults.plane_cost",
        "audit.plane_cost",
        "telemetry.plane_cost",
        "sim.plane_cost.all",
    ];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    for _ in 0..PLANE_REPS {
        for (arm, wall) in walls.iter_mut().enumerate() {
            let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(ports, 2)));
            let mut tr = BernoulliUniform::new(ports, load, &SeedSequence::new(seed));
            let t = Instant::now();
            let report = match arm {
                0 => run_switch(&mut sw, &mut tr, &cfg),
                1 => {
                    let mut empty = FaultInjector::new(FaultPlan::new());
                    run_switch_circuit(
                        &mut sw,
                        &mut tr,
                        &cfg,
                        &mut NullCircuits,
                        Some(&mut empty),
                        None,
                    )
                }
                2 => run_switch_instrumented(&mut sw, &mut tr, &cfg, Some(&mut dormant()), None),
                3 => {
                    let mut audit = AuditSet::standard(AuditMode::Accumulate);
                    run_switch_audited(&mut sw, &mut tr, &cfg, &mut audit)
                }
                4 => run_switch_traced(&mut sw, &mut tr, &cfg, &mut TelemetrySink::new()),
                _ => {
                    let mut audit = AuditSet::standard(AuditMode::Accumulate);
                    run_switch_circuit_traced(
                        &mut sw,
                        &mut tr,
                        &cfg,
                        &mut TelemetrySink::new(),
                        &mut NullCircuits,
                        Some(&mut dormant()),
                        Some(&mut audit),
                    )
                }
            };
            wall.push(t.elapsed().as_secs_f64());
            std::hint::black_box(report);
        }
    }
    let bare = median(&walls[0]);
    for (name, wall) in arms.iter().zip(&walls).skip(1) {
        values.insert(name.to_string(), median(wall) / bare);
    }
}

/// `CheckpointLog` probes: append cost per record and the cost of
/// loading a 1000-record log whose tail is torn.
fn checkpoint_probes(values: &mut Values) -> Result<(), String> {
    const RECORDS: u64 = 1_000;
    let path = out_dir()?.join(format!("probe-{}.ckpt.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let log = CheckpointLog::new(&path, 0xC0FFEE);
    let payload = Value::Obj(vec![
        ("fingerprint".into(), Value::u64(0x1234_5678_9ABC_DEF0)),
        ("throughput".into(), Value::f64(0.7)),
        ("delivered".into(), Value::u64(123_456)),
    ]);
    let t = Instant::now();
    for idx in 0..RECORDS {
        log.append(idx, &payload).map_err(|e| e.to_string())?;
    }
    let append_s = t.elapsed().as_secs_f64();
    // A kill mid-append leaves a partial last line.
    let mut text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    text.push_str("[1000,{\"fingerprint\":12");
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (entries, warnings) = log.load_and_repair().map_err(|e| e.to_string())?;
    let repair_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    if entries.len() as u64 != RECORDS || warnings.len() != 1 {
        return Err(format!(
            "checkpoint probe: {} records and {} warnings after repair",
            entries.len(),
            warnings.len()
        ));
    }
    values.insert(
        "sim.checkpoint_append_us".into(),
        append_s * 1e6 / RECORDS as f64,
    );
    values.insert("sim.checkpoint_repair_ms".into(), repair_s * 1e3);
    Ok(())
}

/// The campaign's traced run: the same spec as 48 single-point shards,
/// so every point has its own wall.
fn campaign_layers(
    w: &Workload,
    seed: u64,
    reference: &Rep,
    untraced_wall_s: f64,
    values: &mut Values,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let spec = campaign_spec(w, seed);
    let total = spec.total_points() as usize;
    let dir = campaign_dir()?;
    campaign_setup(&dir, &spec).map_err(|e| format!("campaign setup: {e}"))?;
    let mut walls_ms = Vec::with_capacity(total);
    let mut fingerprints = Vec::with_capacity(total);
    for k in 0..total {
        let t = Instant::now();
        run_shard(&dir, k, total).map_err(|e| format!("campaign shard {k}: {e}"))?;
        walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let fingerprint = stream_points(&dir, k)
            .map_err(|e| format!("campaign shard {k} stream: {e}"))?
            .first()
            .and_then(|p| p.get("fingerprint").and_then(Value::as_u64));
        fingerprints.push(fingerprint.unwrap_or(0));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    if fingerprints != reference.point_fingerprints {
        failures.push("per-point fingerprints of the 48 single-point shards differ".into());
    }

    // The campaign's trace file: one span per point.
    let mut trace = format!(
        "{{\"type\":\"trace\",\"workload\":\"{}\",\"points\":{total},\"unit\":\"ms\"}}\n",
        w.name
    );
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, &ms) in walls_ms.iter().enumerate() {
        let Some(point) = spec.point(k as u64) else {
            continue;
        };
        let kind = match (point.topology, point.buffer) {
            (None, _) => "campaign.point_ms.switch",
            (Some(_), BufferSpec::Electronic) => "campaign.point_ms.fabric_electronic",
            (Some(_), BufferSpec::Fdl) => "campaign.point_ms.fabric_fdl",
        };
        by_kind.entry(kind).or_default().push(ms);
        trace.push_str(&format!(
            "{{\"point\":{k},\"kind\":\"{}\",\"load\":{},\"burst\":{},\"fault\":\"{}\",\"wall_ms\":{ms}}}\n",
            kind.trim_start_matches("campaign.point_ms."),
            point.load,
            point.burst,
            point.fault.label()
        ));
    }
    let path = out_dir()?.join(format!("trace-{}.jsonl", w.name));
    std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))?;
    for (kind, ms) in &by_kind {
        values.insert(kind.to_string(), mean(ms));
    }
    let traced_wall_s = walls_ms.iter().sum::<f64>() / 1e3;
    values.insert("campaign.point_ms_p50".into(), median(&walls_ms));
    values.insert("campaign.point_ms_p95".into(), quantile(&walls_ms, 0.95));
    values.insert("campaign.resume_ms".into(), reference.resume_s * 1e3);
    values.insert("campaign.bytes_per_point".into(), reference.bytes_per_point);
    values.insert(
        "sim.run_ns_per_slot".into(),
        traced_wall_s * 1e9 / reference.slots as f64,
    );
    values.insert(
        "trace_overhead".into(),
        traced_wall_s / untraced_wall_s - 1.0,
    );
    checkpoint_probes(values)
}

pub fn run_layers(w: &'static Workload, seed: u64) -> Result<LayerOutcome, String> {
    let priming = one_rep(w, seed, None).map_err(|e| format!("priming repetition: {e}"))?;
    let mut attempted = priming.ops;
    let mut failures = judge(&priming, &priming.sim, None);
    let mut untraced = Vec::with_capacity(UNTRACED_REPS);
    for _ in 0..UNTRACED_REPS {
        let rep = one_rep(w, seed, None)?;
        attempted += rep.ops;
        failures.extend(judge(&rep, &priming.sim, None));
        untraced.push(rep);
    }
    let untraced_wall_s = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let mut values = Values::new();
    let mut notes = Value::Null;
    match w.kind {
        Kind::Campaign => {
            attempted += priming.ops - 1;
            campaign_layers(
                w,
                seed,
                &priming,
                untraced_wall_s,
                &mut values,
                &mut failures,
            )?;
        }
        Kind::Switch { .. } | Kind::Fabric { .. } => {
            let trace = Trace::shared(w.warmup + w.measure);
            let traced = one_rep(w, seed, Some(&trace))?;
            attempted += traced.ops;
            failures.extend(judge(&traced, &priming.sim, None));
            let trace = trace.borrow();
            let path = out_dir()?.join(format!("trace-{}.jsonl", w.name));
            trace
                .write_jsonl(&path, w.name)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            notes = span_metrics(w, &traced, &trace.slots, &mut values);
            values.insert(
                "trace_overhead".into(),
                traced.wall_s / untraced_wall_s - 1.0,
            );
            if let Kind::Fabric { .. } = w.kind {
                let all: Vec<&Rep> = std::iter::once(&priming).chain(&untraced).collect();
                let med =
                    |f: &dyn Fn(&Rep) -> f64| median(&all.iter().map(|r| f(r)).collect::<Vec<_>>());
                values.insert("fabric.expand_ms".into(), med(&|r| r.expand_s) * 1e3);
                values.insert("fabric.build_ms".into(), med(&|r| r.build_s) * 1e3);
                values.insert(
                    "fabric.cold_extra_s".into(),
                    priming.wall_s - untraced_wall_s,
                );
            }
        }
    }
    // The direct-call probes ride with the workload they explain.
    match (w.probes, w.kind) {
        (Probes::SatLadderAndPlanes, Kind::Switch { ports, load }) => {
            ladder("sat", seed, &mut values);
            plane_costs(ports, load, seed, &mut values);
        }
        (Probes::SparseLadder, _) => ladder("sparse", seed, &mut values),
        _ => {}
    }

    let metrics = catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::exact(name, unit, value)
        })
        .collect();
    let failed = (failures.len() as u64).min(attempted);
    Ok(LayerOutcome {
        metrics,
        attempted,
        failed,
        detail: Value::Obj(vec![
            ("workload".into(), Value::str(w.name)),
            ("seed".into(), Value::u64(seed)),
            ("untraced_reps".into(), Value::u64(UNTRACED_REPS as u64)),
            ("untraced_wall_s".into(), Value::f64(untraced_wall_s)),
            ("priming_wall_s".into(), Value::f64(priming.wall_s)),
            ("spans".into(), notes),
            (
                "failures".into(),
                Value::Arr(failures.iter().map(Value::str).collect()),
            ),
        ]),
    })
}
