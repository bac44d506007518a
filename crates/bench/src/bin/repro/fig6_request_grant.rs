//! Regenerates Fig. 6: FLPPR request-to-grant latency vs. the prior
//! pipelined art, for a lone request entering an idle 64-port switch at
//! every pipeline phase.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig6;
use osmosis_core::Scale;

pub fn run(args: &Args) {
    let scale = args.scale();
    let ports = if scale == Scale::Quick { 16 } else { 64 };
    let r = fig6::run(ports);
    let rows: Vec<Vec<String>> = (0..r.depth)
        .map(|phase| {
            vec![
                phase.to_string(),
                format!("{} cycle(s)", r.flppr_latency_by_phase[phase]),
                format!("{} cycle(s)", r.prior_art_latency_by_phase[phase]),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 6: request-to-grant latency, {}-port switch (pipeline depth log2N = {})",
            r.ports, r.depth
        ),
        &["arrival phase", "FLPPR", "prior pipelined art"],
        &rows,
    );
    println!("\nFLPPR grants a lone request in a single packet cycle from any phase;");
    println!("the prior art always waits the full log2(N) pipeline depth.");
}
