//! Availability study: degraded-mode throughput and recovery latency of
//! the multistage fabric under the deterministic fault plane.
//!
//! Flags: `--quick` runs at test scale; `--smoke` is `--quick` plus a
//! hard pass/fail on the resilience acceptance bars (for CI);
//! `--audit` attaches the invariant auditors to every run and fails on
//! any violation; `--checkpoint <dir>` checkpoints each completed sweep
//! point to `<dir>` so an interrupted study resumes bit-identically;
//! `--telemetry <path.jsonl>` streams the telemetry plane (metrics
//! registry, spans, snapshots — see DESIGN.md for the record schema)
//! from the nominal and stochastic legs; `--progress` reports live
//! per-job sweep progress on stderr; `--topology <spec>` routes every
//! leg through a declared topology (one with wavelength planes to fail:
//! a fat tree of two or more levels, e.g. `fat-tree:radix=8,levels=3`).

use osmosis_bench::{or_exit, print_table, report_stream, Args};
use osmosis_core::experiments::availability::{self, AvailabilityOptions};

pub fn run(args: &Args) {
    let topology = args.topology();
    if let Some(dir) = &args.checkpoint {
        let what = format!("cannot create checkpoint dir {}", dir.display());
        or_exit(std::fs::create_dir_all(dir), 2, &what);
    }
    let opts = AvailabilityOptions {
        audit: args.audit,
        checkpoint_dir: args.checkpoint.clone(),
        telemetry: args.telemetry.clone(),
        progress: args.progress,
        topology,
        ..Default::default()
    };
    let run = availability::run_with(args.scale(), 0xFA11, &opts);
    let r = or_exit(run, 1, "availability sweep failed");

    print_table(
        &format!(
            "Throughput vs failed wavelength planes ({} planes, load {:.2})",
            r.planes, r.load
        ),
        &["planes failed", "throughput", "vs nominal", "dropped"],
        &r.plane_sweep
            .iter()
            .map(|p| {
                vec![
                    p.failed_planes.to_string(),
                    format!("{:.4}", p.report.throughput),
                    format!("{:.1}%", 100.0 * p.relative_throughput),
                    p.report.dropped.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        &format!(
            "Recovery latency vs MTTR ({} of {} planes out from slot {})",
            r.outage_planes, r.planes, r.fault_at
        ),
        &[
            "MTTR (slots)",
            "nominal tput",
            "degraded tput",
            "recovery (slots)",
        ],
        &r.mttr_sweep
            .iter()
            .map(|m| {
                vec![
                    m.mttr.to_string(),
                    format!("{:.4}", m.nominal_windowed),
                    format!("{:.4}", m.degraded_windowed),
                    m.recovery_slots.map_or("never".into(), |s| s.to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        "Stochastic MTBF/MTTR availability (one plane)",
        &["metric", "value"],
        &[
            vec![
                "faults injected".into(),
                r.stochastic.faults_injected.to_string(),
            ],
            vec![
                "faults healed".into(),
                r.stochastic.faults_healed.to_string(),
            ],
            vec![
                "availability".into(),
                format!("{:.4}", r.stochastic.availability),
            ],
            vec![
                "throughput (faults incl.)".into(),
                format!("{:.4}", r.stochastic.throughput),
            ],
        ],
    );

    // Acceptance bars — always checked; --smoke exists so CI runs them at
    // quick scale.
    assert!(
        r.plane_sweep[1].relative_throughput >= 0.8,
        "1 dead plane must keep >= 80% of nominal throughput, got {:.1}%",
        100.0 * r.plane_sweep[1].relative_throughput
    );
    for m in &r.mttr_sweep {
        let rec = m.recovery_slots.expect("fabric must recover after repair");
        assert!(
            rec <= m.mttr,
            "recovery took {rec} slots, above the configured MTTR {}",
            m.mttr
        );
    }
    if args.audit {
        assert_eq!(
            r.audit_violations, 0,
            "invariant auditors recorded violations"
        );
        println!("\naudit: every invariant held across all legs");
    }

    if let Some(path) = &args.telemetry {
        // The stream was already flushed and error-checked inside
        // run_with; validate the document end to end before telling the
        // user it is trustworthy.
        report_stream(path);
    }

    println!("\nOne dead wavelength plane costs almost nothing: surviving planes absorb the");
    println!("re-hashed flows losslessly. A majority outage throttles the fabric for the");
    println!("outage duration, and the backlog drains back to nominal within the MTTR.");
    if args.smoke {
        println!("smoke: all availability acceptance checks passed");
    }
}
