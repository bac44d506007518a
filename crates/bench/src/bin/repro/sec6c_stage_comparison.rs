//! Regenerates the SVI.C comparison: 3 OSMOSIS stages vs. 5 high-end
//! electronic vs. 9 commodity stages for the 2048-port fabric.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::sec6c;

pub fn run(_: &Args) {
    let rows = sec6c::run();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let c = &r.comparison;
            vec![
                c.alt.name.to_string(),
                c.alt.radix.to_string(),
                c.stages.to_string(),
                c.switch_count.to_string(),
                c.oeo_layers.to_string(),
                format!("{:.0}", c.path_latency_ns),
                format!("{:.1}", r.model_power_w / 1_000.0),
            ]
        })
        .collect();
    print_table(
        "SVI.C: 2048-port fabric alternatives",
        &[
            "technology",
            "radix",
            "stages",
            "switches",
            "OEO layers",
            "path latency (ns)",
            "power (kW)",
        ],
        &table,
    );
    println!("\nOSMOSIS needs 3 stages (vs 5 / 9) and saves two OEO layers vs the");
    println!("high-end electronic fat tree - fewer conversions, less latency, less power.");
}
