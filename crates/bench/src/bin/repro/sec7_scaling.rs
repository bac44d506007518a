//! Regenerates the SVII scaling outlook.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::sec7;

pub fn run(_: &Args) {
    let r = sec7::run();
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.name.to_string(),
                format!(
                    "{}x{} = {}",
                    row.config.wavelengths,
                    row.config.fibers,
                    row.config.ports()
                ),
                format!("{:.0}", row.config.port_gbps),
                format!("{:.1}", row.aggregate_tbps),
                if row.feasible { "yes" } else { "no" }.to_string(),
                row.flppr_depth.to_string(),
                format!("{:.1}", row.cell_time_ns),
            ]
        })
        .collect();
    print_table(
        "SVII: single-stage scaling (electronic ceiling: 6-8 Tb/s)",
        &[
            "configuration",
            "lambda x fibers = ports",
            "Gb/s/port",
            "aggregate Tb/s",
            "optics OK?",
            "FLPPR depth",
            "cell time ns",
        ],
        &rows,
    );
    println!("\n64-byte cells at 40 Gb/s:");
    println!(
        "  user bandwidth with today's 10.4 ns guard: {:.1}%  ->  with sub-ns SVII guard: {:.1}%",
        r.small_cell_user_fraction_today * 100.0,
        r.small_cell_user_fraction_outlook * 100.0
    );
    println!("\nASIC 4x scheduler speedup trade space:");
    for (desc, fits) in &r.asic_trades {
        println!("  {desc}: {}", if *fits { "fits" } else { "does not fit" });
    }
}
