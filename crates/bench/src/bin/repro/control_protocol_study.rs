//! Extension study (ref. [19]): reliable control channels for crossbar
//! arbitration - naive incremental updates vs. the protected protocol
//! with periodic absolute refresh.

use osmosis_bench::{print_table, Args};
use osmosis_switch::{run_control_channel, ControlProtocol};

pub fn run(_: &Args) {
    let slots = 500_000;
    let mut rows = Vec::new();
    for loss_p in [1e-4f64, 1e-3, 1e-2] {
        for (name, proto) in [
            ("naive", ControlProtocol::Naive),
            (
                "protected/4096",
                ControlProtocol::Protected {
                    refresh_period: 4096,
                },
            ),
            (
                "protected/64",
                ControlProtocol::Protected { refresh_period: 64 },
            ),
        ] {
            let r = run_control_channel(8, proto, 0.6, loss_p, slots, 0x19);
            rows.push(vec![
                format!("{loss_p:.0e}"),
                name.to_string(),
                r.control_losses.to_string(),
                r.stranded.to_string(),
                r.phantom_grants.to_string(),
                format!("{:.4}", r.served as f64 / r.arrivals.max(1) as f64),
            ]);
        }
    }
    print_table(
        "Reliable control protocol (8 VOQs, 60% load, 500k slots)",
        &[
            "msg loss",
            "protocol",
            "losses",
            "stranded cells",
            "phantom grants",
            "served fraction",
        ],
        &rows,
    );
    println!("\nWithout protection every lost request permanently strands a cell; the");
    println!("periodic absolute refresh (ref. [19]) bounds desynchronization to one");
    println!("refresh period - \"we have shown how to make these control channels");
    println!("reliable\" (SIV.B).");
}
