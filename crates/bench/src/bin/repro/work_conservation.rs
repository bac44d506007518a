//! Extension study (ref. [11]): work conservation of CIOQ switches with
//! limited output buffers vs. internal speedup.

use osmosis_bench::{print_table, Args};
use osmosis_sim::SeedSequence;
use osmosis_switch::{CioqSwitch, EngineConfig};
use osmosis_traffic::BernoulliUniform;

pub fn run(_: &Args) {
    let n = 16;
    let cfg = EngineConfig::new(2_000, 30_000);
    let mut rows = Vec::new();
    for speedup in [1usize, 2, 3] {
        for cap in [1usize, 2, 4, 16] {
            let mut sw = CioqSwitch::new(n, speedup, cap);
            let mut tr = BernoulliUniform::new(n, 0.95, &SeedSequence::new(11));
            let r = sw.run(&mut tr, &cfg);
            rows.push(vec![
                speedup.to_string(),
                cap.to_string(),
                format!("{:.3}", r.throughput),
                format!("{:.4}", r.extra("violation_fraction").unwrap_or(0.0)),
                format!("{:.2}", r.mean_delay),
            ]);
        }
    }
    print_table(
        "Work conservation of CIOQ (16 ports, 95% uniform load)",
        &[
            "speedup",
            "egress buffer (cells)",
            "throughput",
            "violation fraction",
            "mean delay",
        ],
        &rows,
    );
    println!("\nSpeedup 1 cannot be work-conserving; speedup 2 nearly is, *provided* the");
    println!("output buffers are large enough - ref. [11]'s result, and the reason the");
    println!("paper requires work-conserving switches for >95% sustained throughput.");
}
