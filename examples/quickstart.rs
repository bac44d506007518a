//! Quickstart: build the OSMOSIS demonstrator, run uniform traffic
//! through the 64-port switch, and print the switch-level report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use osmosis_core::Demonstrator;
use osmosis_sim::SeedSequence;
use osmosis_switch::EngineConfig;
use osmosis_traffic::BernoulliUniform;

fn main() {
    // The §V demonstrator: 64 ports × 40 Gb/s, 256-byte cells (51.2 ns
    // cycle), dual receivers, FLPPR scheduler, (272,256,3) FEC.
    let d = Demonstrator::new();
    println!("OSMOSIS demonstrator");
    println!("  ports              : {}", d.config.ports);
    println!("  port rate          : {} Gb/s", d.config.port_gbps);
    println!("  cell cycle         : {}", d.cell_cycle());
    println!("  aggregate          : {:.2} Tb/s", d.aggregate_tbps());
    println!(
        "  user bandwidth     : {:.1}%",
        d.user_bandwidth_fraction() * 100.0
    );
    println!("  power budget closes: {}", d.power_budget_closes());
    println!("  FLPPR depth        : {}", d.scheduler().depth());

    // Offer 80% uniform Bernoulli traffic and measure.
    let mut traffic = BernoulliUniform::new(d.config.ports, 0.8, &SeedSequence::new(42));
    let report = d.run(
        Box::new(d.scheduler()),
        &mut traffic,
        &EngineConfig::new(2_000, 20_000),
    );

    println!("\n80% uniform load, {} measured slots:", 20_000);
    println!("  throughput      : {:.1}%", report.throughput * 100.0);
    println!(
        "  mean delay      : {:.2} cycles = {:.0} ns",
        report.mean_delay,
        d.slots_to_ns(report.mean_delay)
    );
    if let Some(p99) = report.p99_delay {
        println!(
            "  p99 delay       : {:.1} cycles = {:.0} ns",
            p99,
            d.slots_to_ns(p99)
        );
    }
    println!(
        "  request→grant   : {:.2} cycles (FLPPR single-cycle at low load)",
        report.mean_request_grant
    );
    println!("  cells delivered : {}", report.delivered);
    println!("  drops           : {}", report.dropped);
    println!("  reorderings     : {}", report.reordered);
    assert_eq!(report.dropped, 0, "OSMOSIS is lossless");
    assert_eq!(report.reordered, 0, "per-flow order is maintained");
}
