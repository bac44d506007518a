//! Design-space exploration: where does the OSMOSIS design point sit?
//!
//! Sweeps cell size × guard time × port rate through the analytic models
//! and prints which configurations satisfy Table 1's 75% user-bandwidth
//! floor while keeping the scheduler feasible (one FLPPR iteration per
//! cell cycle) — showing why the paper picked 256-byte cells at 40 Gb/s
//! with a 10.4 ns guard, and what the §VII technology unlocks.
//!
//! ```text
//! cargo run --release --example design_space
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use osmosis_analysis::scaling::cell_time_ns;
use osmosis_phy::guard::{CellEfficiency, GuardBudget};
use osmosis_sim::TimeDelta;

fn main() {
    let guards = [
        ("2005 SOA (10.4 ns)", GuardBudget::osmosis_default().total()),
        ("§VII outlook (2.5 ns)", GuardBudget::fast_outlook().total()),
    ];
    // The FPGA scheduler needs ≥ 51.2 ns per iteration; the §VII ASIC is
    // 4× faster.
    let sched = [("FPGA (51.2 ns/iter)", 51.2), ("ASIC (12.8 ns/iter)", 12.8)];

    println!("configuration                                  user BW   sched feasible?  verdict");
    println!("--------------------------------------------   -------   ---------------  -------");
    for (gname, guard) in guards {
        for (sname, iter_ns) in sched {
            for cell_bytes in [64u64, 128, 256] {
                for rate in [40.0f64, 80.0, 160.0] {
                    let cycle = cell_time_ns(cell_bytes as u32, rate);
                    if guard.as_ns_f64() >= cycle {
                        continue; // guard swallows the whole cell
                    }
                    let eff = CellEfficiency {
                        cell_bytes,
                        port_gbps: rate,
                        guard,
                        fec_overhead: 0.0625,
                    };
                    let user = eff.user_fraction();
                    let feasible = iter_ns <= cycle;
                    let ok = user >= 0.75 && feasible;
                    println!(
                        "{cell_bytes:>4} B @ {rate:>3.0} G, {gname:<22} {sname:<10}  {:>5.1}%   {:<15}  {}",
                        user * 100.0,
                        if feasible { "yes" } else { "no" },
                        if ok { "VIABLE" } else { "-" },
                    );
                }
            }
        }
    }
    println!();
    println!("2005 technology admits exactly the paper's design point (256 B @ 40 G on");
    println!("the FPGA scheduler); the §VII guard + ASIC unlock 64-byte cells and");
    println!("160 Gb/s ports — the outlook quantified.");
    let _ = TimeDelta::ZERO;
}
