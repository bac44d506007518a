//! Ablation A2: user-bandwidth fraction vs. guard time for several cell
//! sizes - why sub-ns SOAs (SVII) matter for small cells.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::ablations::guard_ablation;

pub fn run(_: &Args) {
    let curves = guard_ablation();
    let guards: Vec<String> = curves[0]
        .1
        .iter()
        .map(|(g, _)| format!("{:.1}", g.as_ns_f64()))
        .collect();
    let mut header = vec!["cell bytes \\ guard ns".to_string()];
    header.extend(guards);
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|(cell, pts)| {
            let mut row = vec![cell.to_string()];
            row.extend(pts.iter().map(|(_, f)| format!("{:.2}", f)));
            row
        })
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "A2: user-bandwidth fraction vs. guard time (40 Gb/s, 6.25% FEC)",
        &header_refs,
        &rows,
    );
    println!("\nAt 64-byte cells the 10.4 ns guard destroys efficiency; the sub-ns SVII");
    println!("outlook restores it - enabling shorter cells at the same port rate.");
}
