//! Fig. 1 rerun beyond 2048 ports: compile declarative topology specs
//! into expanded fabrics and score stage counts against the 500 ns
//! latency budget at 8192 and 32768 ports — one invocation covers both.
//!
//! Override the built-in ladder with repeatable `--topology <spec>`
//! flags using the spec grammar, e.g.:
//!
//! ```text
//! cargo run --release -p osmosis-bench -- topology_budget \
//!     --topology fat-tree:radix=64,levels=3 \
//!     --topology dragonfly:radix=64,groups=64
//! ```

use osmosis_bench::{or_exit, print_table, Args};
use osmosis_core::experiments::topology_budget::{self, full_mesh_max_ports, ladder, BUDGET_NS};
use osmosis_core::Scale;
use osmosis_fabric::TopologySpec;

fn show(title: &str, specs: &[TopologySpec], cable_m: f64, sim_limit: u64) {
    let pts = topology_budget::run(specs, cable_m, sim_limit, 0x7090);
    let pts = or_exit(pts, 1, "expansion failed");
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                // The shape: the link delay is the cable length's, not a
                // declared key.
                p.spec.shape().to_string(),
                format!("{}", p.hosts),
                format!("{}", p.switches),
                format!("{}", p.links),
                format!("{}", p.stages),
                format!("{:.0}", p.analytic_ns),
                p.simulated_ns
                    .map_or_else(|| "-".to_string(), |s| format!("{s:.0}")),
                if p.fits_budget { "yes" } else { "NO" }.to_string(),
                format!("{:016x}", p.fingerprint),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "topology",
            "hosts",
            "switches",
            "links",
            "stages",
            "model (ns)",
            "sim (ns)",
            "fits 500 ns?",
            "fingerprint",
        ],
        &rows,
    );
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let cable_m = 25.0; // the §V machine-room cable length
    let sim_limit = match scale {
        Scale::Quick => 0,
        Scale::Full => 4_096,
    };
    let custom = &args.topologies;
    if custom.is_empty() {
        for ports in [8_192u64, 32_768] {
            let specs = or_exit(ladder(ports), 1, &format!("ladder({ports}) failed"));
            show(
                &format!(
                    "Fig. 1 rerun at {ports} ports, {cable_m} m cables, {BUDGET_NS} ns budget"
                ),
                &specs,
                cable_m,
                sim_limit,
            );
        }
    } else {
        show(
            &format!("Latency budget for requested topologies, {cable_m} m cables"),
            custom,
            cable_m,
            sim_limit,
        );
    }
    println!(
        "\nA radix-64 full mesh tops out at {} ports -- flat topologies cannot",
        full_mesh_max_ports(64)
    );
    println!("reach these scales at all (the sec. VI.C argument); stage count is the");
    println!("currency: commodity-radix fat trees blow the budget well before 32K ports.");
}
