//! Latency-decomposition study: the Fig. 7 delay-vs-load curve with each
//! point's mean delay split into stacked per-component segments — VOQ
//! queueing, request→grant control path, crossbar transfer, and egress
//! residence — measured by the telemetry plane's cell-lifecycle spans.
//!
//! Every run checks its acceptance bars: segment sums must reconcile
//! with the engine's mean delay to 1e-9, and the emitted JSONL must pass
//! schema validation. Flags: `--quick` runs at test scale;
//! `--telemetry <path.jsonl>` keeps the stream at `path`; without it the
//! stream goes to a temporary file, removed once validated.

use osmosis_bench::{close_stream, open_stream, or_exit, print_table, report_stream, Args};
use osmosis_core::experiments::latency_decomposition::{self, DecompositionPoint};

fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

fn print_arm(points: &[DecompositionPoint], receivers: usize) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.load),
                format!("{:.3}", p.throughput),
                format!("{:.3}", p.mean_delay),
                format!("{:.3}", p.queueing),
                format!("{:.3}", p.request_grant),
                format!("{:.3}", p.crossbar),
                format!("{:.3}", p.egress),
                format!("{:.1e}", p.reconciliation_error),
            ]
        })
        .collect();
    print_table(
        &format!("Delay decomposition, {receivers} receiver(s) per port"),
        &[
            "load",
            "thr",
            "delay",
            "queueing",
            "req-grant",
            "crossbar",
            "egress",
            "recon err",
        ],
        &rows,
    );
    // Stacked composition of the highest-load point, as a text chart.
    if let Some(p) = points.last() {
        let total = p.mean_delay.max(f64::MIN_POSITIVE);
        println!(
            "  composition at load {:.3} (delay {:.2} cycles):",
            p.load, p.mean_delay
        );
        for (name, v) in [
            ("queueing", p.queueing),
            ("req-grant", p.request_grant),
            ("crossbar", p.crossbar),
            ("egress", p.egress),
        ] {
            println!("    {name:<9} {:>6.2} |{}", v, bar(v / total, 40));
        }
    }
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = 0x7E1E;
    let scratch = std::env::temp_dir().join(format!(
        "osmosis-telemetry-study-{}.jsonl",
        std::process::id()
    ));
    let path = args.telemetry.as_ref().unwrap_or(&scratch);

    let mut sink = open_stream("telemetry_study", path);
    let single = latency_decomposition::run_with_sink(scale, seed, 1, &mut sink);
    let dual = latency_decomposition::run_with_sink(scale, seed, 2, &mut sink);
    close_stream(&mut sink);

    print_arm(&single, 1);
    println!();
    print_arm(&dual, 2);

    // Validate the emitted stream end to end — the study's own output is
    // its first consumer.
    let stats = match &args.telemetry {
        Some(path) => report_stream(path, path.display()),
        None => {
            let stats = report_stream(&scratch, "temporary file, removed");
            let what = format!("cannot remove {}", scratch.display());
            or_exit(std::fs::remove_file(&scratch), 1, &what);
            stats
        }
    };

    // Acceptance bars; `crates/bench/tests` runs them at `--quick`.
    let runs = (single.len() + dual.len()) as u64;
    assert_eq!(stats.metas, runs, "one meta record per engine run");
    assert_eq!(stats.summaries, runs, "one summary record per engine run");
    for p in single.iter().chain(dual.iter()) {
        assert!(p.cells > 0, "no measured cells at load {}", p.load);
        assert!(
            p.reconciliation_error < 1e-9,
            "segment sum {} diverged from engine mean delay {} at load {} ({} rx)",
            p.segment_sum(),
            p.mean_delay,
            p.load,
            p.receivers
        );
    }
    // The decomposition must explain the load-dependent growth: at the
    // top load the queueing+egress share dominates the fixed floors.
    let top = dual.last().unwrap();
    let floor = top.request_grant + top.crossbar;
    assert!(
        top.mean_delay > floor,
        "delay {} not above the fixed floors {}",
        top.mean_delay,
        floor
    );

    println!("\nThe fixed floors (request-grant, crossbar) are load-independent; all delay");
    println!("growth with load lands in VOQ queueing and egress residence - with the dual");
    println!("receiver draining egress contention, exactly the paper's Fig. 7 argument.");
}
