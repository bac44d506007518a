//! Ablation A5: one-shot matching quality vs. the max-size oracle.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::ablations::matching_quality;

pub fn run(args: &Args) {
    let scale = args.scale();
    let rows = matching_quality(scale, 0xA5);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| vec![m.name.to_string(), format!("{:.3}", m.quality)])
        .collect();
    print_table(
        "A5: sustained drain rate relative to the Hopcroft-Karp max-size oracle",
        &["scheduler", "fraction of oracle"],
        &table,
    );
}
