//! Ablation A4: the load-balanced Birkhoff-von Neumann baseline (SVI.D) -
//! scalable, but N/2 unloaded latency and out-of-order delivery.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::ablations::bvn_baseline;

pub fn run(args: &Args) {
    let scale = args.scale();
    let r = bvn_baseline(scale, 0xA4);
    print_table(
        &format!("A4: Birkhoff-von Neumann vs. OSMOSIS at {} ports", r.ports),
        &["metric", "BvN", "OSMOSIS (FLPPR, dual rx)"],
        &[
            vec![
                "unloaded latency (cycles)".into(),
                format!("{:.1} (≈N/2 = {})", r.unloaded_latency, r.ports / 2),
                format!("{:.2}", r.osmosis_unloaded_latency),
            ],
            vec![
                "reordering at 70% load".into(),
                format!("{:.1}% of cells", r.reorder_fraction * 100.0),
                "0".into(),
            ],
        ],
    );
    println!("\nBvN scales without a central scheduler but pays N/2 cycles of unloaded");
    println!("latency and reorders packets - both disqualifying for HPC (SVI.D).");
}
