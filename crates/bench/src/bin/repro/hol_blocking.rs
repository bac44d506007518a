//! Ablation A3: head-of-line blocking - what VOQ buys over single-FIFO
//! input queues (SIII's motivation for VOQ).
//!
//! `--telemetry <path.jsonl>` observes both saturated runs (FIFO, then
//! VOQ) with the telemetry plane and streams the two-run JSONL document
//! to `path`. The printed numbers are bit-identical either way.

use osmosis_bench::{close_stream, open_stream, print_table, report_stream, Args};
use osmosis_core::experiments::ablations::{hol_blocking, hol_blocking_with_sink};

pub fn run(args: &Args) {
    let telemetry = &args.telemetry;
    let scale = args.scale();
    let r = if let Some(path) = telemetry {
        let mut sink = open_stream("hol_blocking", path);
        let r = hol_blocking_with_sink(scale, 0xA3, &mut sink);
        close_stream(&mut sink);
        r
    } else {
        hol_blocking(scale, 0xA3)
    };
    print_table(
        "A3: saturated uniform throughput",
        &["architecture", "throughput"],
        &[
            vec![
                "single FIFO per input (HoL-blocked)".into(),
                format!("{:.3}", r.fifo_throughput),
            ],
            vec!["VOQ + FLPPR".into(), format!("{:.3}", r.voq_throughput)],
            vec![
                "Karol limit 2 - sqrt(2)".into(),
                format!("{:.3}", r.karol_limit),
            ],
        ],
    );
    if let Some(path) = telemetry {
        report_stream(path);
    }
    println!("\nFIFO input queues saturate near 58.6%; VOQ restores full throughput -");
    println!("the well-known result the paper builds on (ref. [17]).");
}
