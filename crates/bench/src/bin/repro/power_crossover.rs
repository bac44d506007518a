//! Regenerates the SI power argument: CMOS power grows with the data
//! rate, SOA bias does not; control power follows the packet rate.

use osmosis_analysis::power::PowerModel;
use osmosis_bench::{print_table, Args};

pub fn run(_: &Args) {
    let m = PowerModel::circa_2005();
    let rates = [2.5, 10.0, 20.0, 40.0, 80.0, 160.0, 200.0];
    let rows: Vec<Vec<String>> = rates
        .iter()
        .map(|&r| {
            vec![
                format!("{r:.0}"),
                format!("{:.2}", m.cmos_port_power_w(r)),
                format!("{:.2}", m.optical_port_power_w(r)),
                format!("{:.2}", m.control_port_power_w(r, 256.0)),
                format!("{:.2}", m.hybrid_port_power_w(r, 256.0)),
            ]
        })
        .collect();
    print_table(
        "SI: per-port switching power vs. line rate (W)",
        &["Gb/s", "CMOS", "optical (SOA)", "control", "hybrid total"],
        &rows,
    );
    println!(
        "\ncrossover: optics cheaper than CMOS above {:.1} Gb/s",
        m.crossover_gbps()
    );
    println!("The optical datapath is flat in the data rate; only the control function");
    println!("(proportional to the packet rate) grows - the paper's SI power argument.");
}
