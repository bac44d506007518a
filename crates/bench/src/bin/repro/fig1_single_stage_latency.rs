//! Regenerates Fig. 1: unloaded latency of a bufferless single-stage
//! fabric with a central scheduler, vs. machine-room diameter — the 2 RTT
//! argument that rules single-stage out.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig1;

pub fn run(args: &Args) {
    let scale = args.scale();
    let ports = scale.ports();
    let diameters = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 75.0, 100.0];
    let pts = fig1::run(&diameters, ports, 0xF161);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.diameter_m),
                format!("{:.0}", p.half_rtt_ns),
                format!("{:.0}", p.two_rtt_ns),
                format!("{:.1}", p.simulated_ns),
                if p.fits_budget { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 1: single-stage fabric latency vs. machine-room diameter",
        &[
            "diameter (m)",
            "1/2 RTT (ns)",
            "2 RTT floor (ns)",
            "sim latency (ns)",
            "fits 500 ns?",
        ],
        &rows,
    );
    println!("\nConclusion: at 50 m (the paper's machine room) the 2-RTT control loop");
    println!("alone exceeds the 500 ns fabric budget -> multistage topology required.");
}
