//! Regenerates the SVI.B / Fig. 9 latency budget: the ~1200 ns FPGA
//! demonstrator, its ASIC mapping, and the scheduler partition.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig9;

pub fn run(_: &Args) {
    let r = fig9::run();
    let rows: Vec<Vec<String>> = r
        .fpga_items
        .iter()
        .zip(&r.asic_items)
        .map(|(f, a)| {
            vec![
                f.name.to_string(),
                format!("{}", f.latency),
                format!("{}", a.latency),
            ]
        })
        .collect();
    print_table(
        "SVI.B: demonstrator latency budget, FPGA prototype -> ASIC mapping",
        &["item", "FPGA", "ASIC (4x logic, 10x shorter control fiber)"],
        &rows,
    );
    println!("\ntotal: FPGA {} -> ASIC {}", r.fpga_total, r.asic_total);
    println!(
        "scheduler partition: {} FPGAs ({} crossing ns on critical path) -> {} ASICs ({} ns)",
        r.fpga_partition.chips,
        r.fpga_partition.crossing_total().as_ns_f64(),
        r.asic_partition.chips,
        r.asic_partition.crossing_total().as_ns_f64(),
    );
}
