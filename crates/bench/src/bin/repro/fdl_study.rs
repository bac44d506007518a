//! Fig. 2 rerun with a fourth buffer option: input stages buffered by
//! emulated fiber-delay-line priority queues (`osmosis-fdl`) next to the
//! three electronic placements, across load, burstiness and fault plans
//! — including the delay-line fault class only the optical option is
//! exposed to. Writes `BENCH_fdl.json` at the repo root for drift
//! tracking.
//!
//! Modes:
//!
//! * default — run the grid, print the table and rewrite the snapshot;
//! * `--quick` — test scale;
//! * `--audit` — attach the invariant-audit battery (FDL cell
//!   conservation included) to every leg;
//! * `--smoke` — the CI gate: reproducibility, electronic/FDL
//!   separation, dead-line loss typing and telemetry-schema assertions
//!   under a time budget; exit 1 on failure, writes nothing;
//! * `--topology <spec>` — run the grid on a declared topology of any
//!   family (exit 2 on a bad spec).

use std::fmt::Write as _;
use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_core::experiments::fdl_study::{
    run_with, FdlStudy, FdlStudyOptions, StudyFault, OPTIONS,
};
use osmosis_core::Scale;
use osmosis_fabric::BufferTech;
use osmosis_fabric::TopologySpec;
use osmosis_sim::json::Value;
use osmosis_telemetry::export::{meta_record, summary_record};
use osmosis_telemetry::{
    fdl_drop_record, fdl_occupancy_record, fdl_recirculation_record, validate_jsonl, Decomposition,
    MetricsRegistry, RunMeta,
};

/// Wall-clock budget for the whole smoke battery on a loaded runner.
const SMOKE_BUDGET_S: f64 = 240.0;

fn run_study(scale: Scale, opts: &FdlStudyOptions) -> FdlStudy {
    or_exit(run_with(scale, 0xFD1, opts), 2, "study failed")
}

fn study_rows(study: &FdlStudy) -> Vec<Vec<String>> {
    study
        .points
        .iter()
        .map(|p| {
            let fdl = |name: &str| {
                p.report
                    .extra(name)
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
            };
            vec![
                p.option.name.to_string(),
                format!("{:.2}", p.load),
                format!("{:.0}", p.burst),
                p.fault.label().to_string(),
                format!("{:.3}", p.report.throughput),
                format!("{:.2}", p.report.mean_delay),
                format!("{}", p.report.dropped),
                fdl("fdl_drops_dead_line"),
                fdl("fdl_recirculations"),
                format!("{:016x}", p.report.fingerprint()),
            ]
        })
        .collect()
}

fn snapshot(study: &FdlStudy, scale: Scale) -> String {
    let entries: Vec<Value> = study
        .points
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("option".into(), Value::str(p.option.name)),
                ("load".into(), Value::f64(p.load)),
                ("burst".into(), Value::f64(p.burst)),
                ("fault".into(), Value::str(p.fault.label())),
                ("buffer_cells".into(), Value::u64(p.buffer_cells as u64)),
                ("throughput".into(), Value::f64(p.report.throughput)),
                ("mean_delay".into(), Value::f64(p.report.mean_delay)),
                ("dropped".into(), Value::u64(p.report.dropped)),
            ];
            for name in [
                "fdl_drops_total",
                "fdl_drops_dead_line",
                "fdl_recirculations",
                "fdl_underflow_stalls",
            ] {
                if let Some(v) = p.report.extra(name) {
                    fields.push((name.into(), Value::f64(v)));
                }
            }
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::str("fdl-buffering")),
        (
            "scale".into(),
            Value::str(if scale == Scale::Quick {
                "quick"
            } else {
                "full"
            }),
        ),
        ("radix".into(), Value::u64(study.radix as u64)),
        ("hosts".into(), Value::u64(study.hosts as u64)),
        ("link_delay".into(), Value::u64(study.link_delay)),
        ("points".into(), Value::Arr(entries)),
    ])
    .encode()
}

/// The CI smoke battery. Every check prints a line; any failure exits 1.
fn smoke(audit: bool, topology: Option<TopologySpec>) {
    let t0 = Instant::now();
    let mut failed = false;
    let mut check = |name: &str, ok: bool| {
        println!("smoke: {name} ({})", if ok { "ok" } else { "FAILED" });
        failed |= !ok;
    };

    // 1. Same-seed grid is bit-identical, and audited runs are clean.
    let opts = FdlStudyOptions { audit, topology };
    let a = run_study(Scale::Quick, &opts);
    let b = run_study(Scale::Quick, &opts);
    check(
        "same-seed study bit-identical",
        !a.points.is_empty()
            && a.points.len() == b.points.len()
            && a.points
                .iter()
                .zip(b.points.iter())
                .all(|(x, y)| x.report.fingerprint() == y.report.fingerprint()),
    );
    if audit {
        check(
            "audit battery clean",
            a.audit_violations == 0 && b.audit_violations == 0,
        );
    }

    // 2. The buffer options actually separate: same cell, different
    //    technology, different fingerprint.
    let cell = |study: &FdlStudy, tech: BufferTech| {
        study
            .points
            .iter()
            .find(|p| {
                p.option.tech == tech
                    && p.option.name != "opt1-in+out"
                    && p.option.name != "opt2-output"
                    && p.fault == StudyFault::None
            })
            .map(|p| p.report.fingerprint())
    };
    check(
        "electronic and FDL input stages produce distinct runs",
        match (cell(&a, BufferTech::Electronic), cell(&a, BufferTech::Fdl)) {
            (Some(e), Some(f)) => e != f,
            _ => false,
        },
    );

    // 3. Dead delay lines surface as typed dead-line losses on the FDL
    //    option and leave every electronic option untouched.
    let fdl_hit = a.points.iter().any(|p| {
        p.option.tech == BufferTech::Fdl
            && p.fault == StudyFault::DelayLinesDead
            && p.report.extra("fdl_drops_dead_line").unwrap_or(0.0) > 0.0
    });
    let electronic_clean = a.points.iter().all(|p| {
        p.option.tech == BufferTech::Electronic
            && p.fault == StudyFault::DelayLinesDead
            && p.report.dropped == 0
            || p.fault != StudyFault::DelayLinesDead
            || p.option.tech != BufferTech::Electronic
    });
    check(
        "dead delay lines hit only the FDL option",
        fdl_hit && electronic_clean,
    );

    // 4. Telemetry: the FDL record types round-trip through the JSONL
    //    schema validator, derived from a faulted FDL leg's extras.
    let leg = a
        .points
        .iter()
        .find(|p| p.option.tech == BufferTech::Fdl && p.fault == StudyFault::DelayLinesDead)
        .expect("grid contains a faulted FDL leg");
    let meta = RunMeta {
        seed: 0xFD1,
        ports: a.hosts,
        warmup_slots: 0,
        measure_slots: 0,
        sample_every: 0,
        snapshot_every: 0,
    };
    let mut doc = String::new();
    let _ = writeln!(doc, "{}", meta_record(0, "fdl_study", &meta).encode());
    let _ = writeln!(
        doc,
        "{}",
        fdl_occupancy_record(0, 0, 0, 0, leg.buffer_cells as u64).encode()
    );
    let drops = leg.report.extra("fdl_drops_dead_line").unwrap_or(0.0) as u64;
    for i in 0..drops.min(3) {
        let _ = writeln!(doc, "{}", fdl_drop_record(0, i, 0, "dead_line").encode());
    }
    let recirc = leg.report.extra("fdl_recirculations").unwrap_or(0.0) as u64;
    let _ = writeln!(
        doc,
        "{}",
        fdl_recirculation_record(0, 0, 0, recirc.min(9)).encode()
    );
    let _ = writeln!(
        doc,
        "{}",
        summary_record(
            0,
            &leg.report,
            &MetricsRegistry::new(),
            &Decomposition::default()
        )
        .encode()
    );
    match validate_jsonl(&doc) {
        Ok(stats) => check(
            "FDL records validate as JSONL",
            stats.fdl_occupancies == 1
                && stats.fdl_drops == drops.min(3)
                && stats.fdl_drops > 0
                && stats.fdl_recirculations == 1,
        ),
        Err(e) => check(&format!("FDL records validate as JSONL: {e}"), false),
    }

    let elapsed = t0.elapsed().as_secs_f64();
    check(
        &format!("within {SMOKE_BUDGET_S} s budget ({elapsed:.1} s)"),
        elapsed <= SMOKE_BUDGET_S,
    );
    if failed {
        std::process::exit(1);
    }
}

pub fn run(args: &Args) {
    let (audit, topology) = (args.audit, args.topology());
    if args.smoke {
        smoke(audit, topology);
        return;
    }

    let scale = args.scale();
    let opts = FdlStudyOptions { audit, topology };
    let study = run_study(scale, &opts);
    print_table(
        &format!(
            "Fig. 2 rerun with FDL option: radix {} ({} hosts), {} options",
            study.radix,
            study.hosts,
            OPTIONS.len()
        ),
        &[
            "option",
            "load",
            "burst",
            "fault",
            "throughput",
            "mean delay",
            "dropped",
            "dead-line",
            "recirc",
            "fingerprint",
        ],
        &study_rows(&study),
    );
    if audit {
        println!("audit violations: {}", study.audit_violations);
    }

    // The snapshot carries the scale it ran at: the committed file is
    // the full-scale grid, `--quick` rewrites a test-scale stand-in.
    write_snapshot("BENCH_fdl.json", snapshot(&study, scale));
}
