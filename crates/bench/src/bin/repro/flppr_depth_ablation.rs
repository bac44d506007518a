//! Ablation A1: FLPPR pipeline depth K - delay and throughput vs. load.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::ablations::flppr_depth;

pub fn run(args: &Args) {
    let scale = args.scale();
    let pts = flppr_depth(scale, 0xA1);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                format!("{:.2}", p.load),
                format!("{:.2}", p.delay),
                format!("{:.3}", p.throughput),
            ]
        })
        .collect();
    print_table(
        "A1: FLPPR depth ablation (uniform Bernoulli traffic)",
        &[
            "depth K",
            "offered load",
            "mean delay (cycles)",
            "throughput",
        ],
        &rows,
    );
    println!("\nDepth 1 (a single one-iteration matcher) loses throughput near saturation;");
    println!("depth log2(N) recovers it while keeping the 1-cycle low-load grant latency.");
}
