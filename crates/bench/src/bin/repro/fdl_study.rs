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
//! * `--topology <spec>` — run the grid on a declared topology of any
//!   family (exit 2 on a bad spec).

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_core::experiments::fdl_study::{run_with, FdlStudy, FdlStudyOptions, OPTIONS};
use osmosis_core::Scale;
use osmosis_sim::json::Value;
use osmosis_sim::Extra;

fn run_study(scale: Scale, opts: &FdlStudyOptions) -> FdlStudy {
    or_exit(run_with(scale, 0xFD1, opts), 2, "study failed")
}

fn study_rows(study: &FdlStudy) -> Vec<Vec<String>> {
    study
        .points
        .iter()
        .map(|p| {
            let fdl = |key: Extra| {
                p.report
                    .extra(key)
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
                fdl(Extra::FdlDropsDeadLine),
                fdl(Extra::FdlRecirculations),
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
            for key in [
                Extra::FdlDropsTotal,
                Extra::FdlDropsDeadLine,
                Extra::FdlRecirculations,
                Extra::FdlUnderflowStalls,
            ] {
                if let Some(v) = p.report.extra(key) {
                    fields.push((key.name().into(), Value::f64(v)));
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

pub fn run(args: &Args) {
    let (audit, topology) = (args.audit, args.topology());
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
