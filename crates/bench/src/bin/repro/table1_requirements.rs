//! Regenerates Table 1: key HPC fabric requirements vs. what the
//! reproduction measures.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::table1;

pub fn run(args: &Args) {
    let scale = args.scale();
    let rows = table1::run(scale, 0xA11);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.requirement.to_string(),
                r.target.clone(),
                r.measured.clone(),
                if r.pass { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1: key HPC fabric requirements",
        &["requirement", "paper target", "measured", "status"],
        &table,
    );
    assert!(rows.iter().all(|r| r.pass), "a Table 1 requirement failed");
}
