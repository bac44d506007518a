//! Regenerates Fig. 2's comparison: buffer placement options around the
//! optical crossbar.
//!
//! Flags:
//!
//! * `--quick` — test scale.
//! * `--topology <spec>` — run the comparison on a declared two-level
//!   topology instead of the figure's default (the spec's placement and
//!   buffer-sizing fields are the experiment's own axes and are
//!   ignored).

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig2;

pub fn run(args: &Args) {
    let scale = args.scale();
    let spec = args
        .topology()
        .unwrap_or_else(|| fig2::default_topology(scale));
    let rows = fig2::run_on(&spec, scale, 0xF162);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.placement),
                r.oeo_per_stage.to_string(),
                format!("{:.2}", r.light_load_latency),
                format!("{:.2}", r.moderate_load_latency),
                format!("{:.3}", r.moderate_throughput),
                r.buffer_cells_needed.to_string(),
            ]
        })
        .collect();
    print_table(
        // The title names the fabric's shape; cable length, placement and
        // buffer depth are the figure's own columns and axes.
        &format!("Fig. 2: buffer placement options ({})", spec.shape()),
        &[
            "placement",
            "OEO/stage",
            "latency @5% (cycles)",
            "latency @60%",
            "thr @60%",
            "buffer cells",
        ],
        &table,
    );
    println!("\nOption 3 (input-only) minimizes OEO conversions AND request/grant latency;");
    println!("its cost is the RTT-sized input buffer - the paper's choice.");
}
