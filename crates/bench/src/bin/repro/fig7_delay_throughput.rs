//! Regenerates Fig. 7: delay vs. throughput for the OSMOSIS switch with
//! FLPPR - single receiver vs. the dual-receiver datapath.
//!
//! `--telemetry <path.jsonl>` reruns both arms sequentially under the
//! telemetry plane, streaming metrics/spans/snapshots to `path` (see
//! DESIGN.md for the record schema). The table is identical either way:
//! telemetry only observes.

use osmosis_bench::{close_stream, open_stream, print_table, report_stream, Args};
use osmosis_core::experiments::{fig7, latency_decomposition};

pub fn run(args: &Args) {
    let telemetry = &args.telemetry;
    let scale = args.scale();
    let seed = 0xF167;

    let pts = if let Some(path) = telemetry {
        // The telemetered sweep is sequential (one sink, one stream);
        // rebuild the Fig. 7 points from the two decomposed arms.
        let mut sink = open_stream("fig7", path);
        let single = latency_decomposition::run_with_sink(scale, seed, 1, &mut sink);
        let dual = latency_decomposition::run_with_sink(scale, seed, 2, &mut sink);
        close_stream(&mut sink);
        single
            .iter()
            .zip(dual.iter())
            .map(|(s, d)| fig7::Fig7Point {
                load: s.load,
                throughput_single: s.throughput,
                delay_single: s.mean_delay,
                throughput_dual: d.throughput,
                delay_dual: d.mean_delay,
            })
            .collect()
    } else {
        fig7::run(scale, seed)
    };

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.load),
                format!("{:.3}", p.throughput_single),
                format!("{:.2}", p.delay_single),
                format!("{:.3}", p.throughput_dual),
                format!("{:.2}", p.delay_dual),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 7: delay vs. throughput, {}-port switch, FLPPR",
            scale.ports()
        ),
        &[
            "offered load",
            "thr (1 rx)",
            "delay (1 rx)",
            "thr (2 rx)",
            "delay (2 rx)",
        ],
        &rows,
    );
    if let Some(path) = telemetry {
        report_stream(path, path.display());
    }
    println!("\nDelays in cell cycles (51.2 ns each). The dual-receiver curve stays nearly");
    println!("flat over a wide load range and rises only near saturation - the paper's");
    println!("\"Dual Receiver\" curve. Both arms sustain >95% throughput.");
}
