//! OCS vs. FLPPR head-to-head: delay, throughput and loss across the ML
//! workloads, plus scheduler performance (epochs/s, BvN decomposition
//! time, simulation slot rate) written to `BENCH_ocs.json` at the repo
//! root for drift tracking.
//!
//! Modes:
//!
//! * default — run the comparison, print the tables and rewrite the
//!   snapshot;
//! * `--quick` — test scale (16 ports);
//! * `--audit` — attach the invariant-audit battery to every run;
//! * repeatable `--topology <spec>` — run the packet side through the
//!   compiled fabric of the given spec (exit 2 on a bad spec).

use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_core::experiments::ocs_study::{self, workload, OcsOptions, OcsStudy, WORKLOADS};
use osmosis_core::Scale;
use osmosis_fabric::TopologySpec;
use osmosis_ocs::{EpochConfig, OcsScheduler, OcsSwitch};
use osmosis_sim::engine::EngineConfig;
use osmosis_sim::json::Value;
use osmosis_switch::run_switch_circuit;

struct Perf {
    workload: &'static str,
    slot_rate: f64,
    epochs_per_s: f64,
    decompose_us: f64,
    epochs: u64,
    reconfigurations: u64,
}

/// Time one OCS run of `name` and the BvN decomposition of its final
/// traffic-matrix estimate.
fn measure(name: &'static str, scale: Scale, seed: u64, epoch: EpochConfig) -> Perf {
    let n = scale.ports();
    let cfg = EngineConfig::new(scale.warmup(), scale.measure()).with_seed(seed);
    let mut tr = workload(name, n, scale.measure(), seed).expect("known workload");
    let mut sw = OcsSwitch::new(n);
    let mut sched = OcsScheduler::new(epoch);
    let t0 = Instant::now();
    let _ = run_switch_circuit(&mut sw, tr.as_mut(), &cfg, &mut sched, None, None);
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let slots = (scale.warmup() + scale.measure()) as f64;
    // Re-decompose the scheduler's final TM estimate in isolation: the
    // per-frame planning cost the epoch budget has to absorb.
    let tm = sched.estimator().estimate().to_vec();
    let iters = 32;
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(osmosis_ocs::bvn::decompose(n, std::hint::black_box(&tm)));
    }
    let decompose_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;
    Perf {
        workload: name,
        slot_rate: slots / elapsed,
        epochs_per_s: sched.epochs() as f64 / elapsed,
        decompose_us,
        epochs: sched.epochs(),
        reconfigurations: sched.reconfigurations(),
    }
}

fn snapshot(scale: Scale, points: &[Perf]) -> String {
    let entries: Vec<Value> = points
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("workload".into(), Value::str(p.workload)),
                ("slot_rate_per_s".into(), Value::f64(p.slot_rate)),
                ("epochs_per_s".into(), Value::f64(p.epochs_per_s)),
                ("decompose_us".into(), Value::f64(p.decompose_us)),
                ("epochs".into(), Value::u64(p.epochs)),
                ("reconfigurations".into(), Value::u64(p.reconfigurations)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::str("ocs-scheduler")),
        ("ports".into(), Value::u64(scale.ports() as u64)),
        ("slots".into(), Value::u64(scale.warmup() + scale.measure())),
        ("points".into(), Value::Arr(entries)),
    ])
    .encode()
}

fn comparison_rows(study: &OcsStudy) -> Vec<Vec<String>> {
    study
        .points
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.mode.to_string(),
                format!("{:.3}", p.offered_load),
                format!("{:.3}", p.throughput),
                format!("{:.2}", p.mean_delay),
                p.p99_delay
                    .map_or_else(|| "-".to_string(), |d| format!("{d:.0}")),
                format!("{}", p.dropped),
                if p.mode == "ocs" {
                    format!("{}/{}", p.reconfigurations, p.epochs)
                } else {
                    "-".to_string()
                },
                if p.mode == "ocs" {
                    format!("{:.2}", p.utilization)
                } else {
                    "-".to_string()
                },
                format!("{:016x}", p.fingerprint),
            ]
        })
        .collect()
}

fn run_study(scale: Scale, opts: &OcsOptions) -> OcsStudy {
    or_exit(ocs_study::run(scale, opts), 1, "study failed")
}

pub fn run(args: &Args) {
    let (audit, topologies) = (args.audit, &args.topologies);
    let scale = args.scale();
    let header = [
        "workload",
        "mode",
        "offered",
        "throughput",
        "mean delay",
        "p99",
        "dropped",
        "reconf/epochs",
        "util",
        "fingerprint",
    ];
    // One comparison on the single switch, or one per declared fabric.
    let legs: Vec<Option<TopologySpec>> = match topologies.as_slice() {
        [] => vec![None],
        specs => specs.iter().copied().map(Some).collect(),
    };
    for topology in legs {
        let opts = OcsOptions {
            audit,
            topology,
            ..OcsOptions::default()
        };
        let study = run_study(scale, &opts);
        let title = match topology {
            None => format!(
                "OCS vs. FLPPR at {} ports (epoch {} slots, {} guard)",
                study.ports, opts.epoch.epoch_slots, opts.epoch.guard_slots
            ),
            Some(spec) => format!("OCS edge vs. packet fabric {spec} ({} hosts)", study.ports),
        };
        print_table(&title, &header, &comparison_rows(&study));
        if audit {
            println!("audit violations: {}", study.audit_violations);
        }
    }

    // Scheduler performance snapshot, always at quick scale so the
    // committed JSON is comparable across machines and runs.
    let points: Vec<Perf> = WORKLOADS
        .iter()
        .map(|&w| measure(w, Scale::Quick, 0x0C5, EpochConfig::osmosis_default()))
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                format!("{:.0}", p.slot_rate),
                format!("{:.0}", p.epochs_per_s),
                format!("{:.1}", p.decompose_us),
                format!("{}", p.epochs),
                format!("{}", p.reconfigurations),
            ]
        })
        .collect();
    print_table(
        "OCS scheduler performance (quick scale)",
        &[
            "workload",
            "slots/s",
            "epochs/s",
            "decompose (us)",
            "epochs",
            "reconfigs",
        ],
        &rows,
    );
    write_snapshot("BENCH_ocs.json", snapshot(Scale::Quick, &points));
}
