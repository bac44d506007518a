//! Extension study: multicast on the broadcast-and-select datapath.
//! The optical crossbar broadcasts every input to all switching modules,
//! so multicast costs nothing optically; this study measures the
//! scheduling side (fanout splitting) across fanouts.

use osmosis_bench::{print_table, Args};
use osmosis_sim::Extra;
use osmosis_switch::multicast::run_multicast;

pub fn run(_: &Args) {
    let n = 64;
    let slots = 30_000;
    let mut rows = Vec::new();
    for fanout in [1usize, 2, 4, 8, 16, 32] {
        // Keep the copy load per output fixed at ~0.5.
        let rate = 0.5 / fanout as f64;
        let r = run_multicast(n, fanout, rate, slots, 0x3C);
        rows.push(vec![
            fanout.to_string(),
            format!("{rate:.4}"),
            format!("{:.3}", r.throughput),
            format!("{:.2}", r.mean_delay),
            format!("{:.2}", r.extra(Extra::MeanTransmissions).unwrap_or(0.0)),
            format!(
                "{:.1}%",
                100.0 * r.delivered as f64 / r.injected.max(1) as f64
            ),
        ]);
    }
    print_table(
        "Multicast on broadcast-and-select (64 ports, copy load ~0.5/output)",
        &[
            "fanout",
            "inject rate",
            "output util",
            "mean completion (cycles)",
            "tx per cell",
            "completed",
        ],
        &rows,
    );
    println!("\nThe star-coupler broadcast serves a full fanout in one transmission when");
    println!("the outputs are free; under contention the scheduler splits the fanout");
    println!("across slots - no optical penalty, only arbitration.");
}
