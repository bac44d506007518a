//! SVII commercialization study: fabric-level $/Gb/s and the optical
//! integration factor needed for cost parity with electronics.

use osmosis_analysis::cost::{tco_per_port, CostModel};
use osmosis_analysis::power::PowerModel;
use osmosis_bench::{print_table, Args};

pub fn run(_: &Args) {
    let pm = PowerModel::circa_2005();
    let mut rows = Vec::new();
    for factor in [1.0f64, 2.0, 4.0, 8.0] {
        let m = CostModel::integrated(factor);
        let osmosis = m.fabric_cost_per_gbps(m.osmosis_port(), 2048, 3, 96.0);
        let electronic = m.fabric_cost_per_gbps(m.electronic_port(), 2048, 5, 96.0);
        rows.push(vec![
            format!("{factor:.0}x"),
            format!("${:.0}", m.osmosis_port()),
            format!("${:.0}", m.electronic_port()),
            format!("${:.2}/Gb/s", osmosis),
            format!("${:.2}/Gb/s", electronic),
            if osmosis <= electronic {
                "OSMOSIS"
            } else {
                "electronic"
            }
            .to_string(),
        ]);
    }
    print_table(
        "SVII: cost per bandwidth, 2048-port fabric (3 OSMOSIS vs 5 electronic stages)",
        &[
            "integration",
            "OSMOSIS port",
            "electronic port",
            "OSMOSIS fabric",
            "electronic fabric",
            "cheaper",
        ],
        &rows,
    );
    let m = CostModel::discrete_2005();
    println!(
        "\nparity integration factor vs 5-stage high-end fabric: {:.1}x",
        m.parity_integration_factor(3, 5)
    );
    println!(
        "parity vs 9-stage commodity fabric: {:.1}x",
        m.parity_integration_factor(3, 9)
    );
    let o_tco = tco_per_port(3_000.0, pm.hybrid_port_power_w(96.0, 256.0), 5.0, 0.10);
    let e_tco = tco_per_port(3_000.0, pm.cmos_port_power_w(96.0), 5.0, 0.10);
    println!(
        "\n5-year TCO per port at equal capital: OSMOSIS ${o_tco:.0} vs electronic ${e_tco:.0}"
    );
    println!("\n\"To reach this cost point, a further integration of the optical components");
    println!("is an essential first step\" (SVII) - the model quantifies how far: single-");
    println!("digit integration factors suffice, because OSMOSIS already saves stages.");
}
