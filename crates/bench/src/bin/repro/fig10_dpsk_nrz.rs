//! Regenerates Fig. 10: OSNR penalty vs. SOA input power for DPSK and NRZ
//! at BER 1e-6 and 1e-10.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig10;

pub fn run(_: &Args) {
    let r = fig10::run();
    // Print the four curves at the paper's axis points (0..20 dBm).
    let powers: Vec<f64> = (0..=10).map(|i| i as f64 * 2.0).collect();
    let mut rows = Vec::new();
    for p in &powers {
        let mut row = vec![format!("{p:.0}")];
        for c in &r.curves {
            let pen = c
                .points
                .iter()
                .min_by(|a, b| (a.0 - p).abs().partial_cmp(&(b.0 - p).abs()).unwrap())
                .unwrap()
                .1;
            row.push(if pen > 9.9 {
                ">10".to_string()
            } else {
                format!("{pen:.2}")
            });
        }
        rows.push(row);
    }
    print_table(
        "Fig. 10: OSNR penalty (dB) vs. SOA input power (dBm)",
        &[
            "P_in (dBm)",
            "NRZ 1e-6",
            "NRZ 1e-10",
            "DPSK 1e-6",
            "DPSK 1e-10",
        ],
        &rows,
    );
    println!("\n1 dB-penalty points:");
    for c in &r.curves {
        println!(
            "  {:?} @ BER {:.0e}: {:.2} dBm",
            c.modulation, c.ber, c.power_at_1db
        );
    }
    println!(
        "\nDPSK loading improvement at 1 dB penalty: {:.1} dB (paper: 14 dB)",
        r.improvement_db
    );
    println!(
        "DPSK OSNR advantage at any BER: {:.1} dB (paper: 3 dB)",
        r.osnr_advantage_db
    );
}
