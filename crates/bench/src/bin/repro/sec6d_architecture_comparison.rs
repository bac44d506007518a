//! Regenerates SVI.D as one table: OSMOSIS vs. every switch architecture
//! the paper compares against, on the Table 1 axes.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::sec6d;

pub fn run(args: &Args) {
    let scale = args.scale();
    let rows = sec6d::run(scale, 0x6D);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.2}", r.unloaded_delay),
                format!("{:.3}", r.saturated_throughput),
                format!("{:.1}%", r.reorder_fraction * 100.0),
                if r.blocks_or_drops { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "SVI.D: switch architecture comparison ({} ports)",
            scale.ports()
        ),
        &[
            "architecture",
            "unloaded delay (cycles)",
            "thr @98%",
            "reordered @70%",
            "blocks?",
        ],
        &table,
    );
    println!("\nOnly OSMOSIS (and the unbuildable ideal OQ switch) combines low latency,");
    println!(">95% sustained throughput, zero reordering and zero loss - SVI.D's argument.");
}
