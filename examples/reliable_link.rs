//! The §IV.C reliability stack on one noisy optical link: the
//! (272,256,3) FEC plus hop-by-hop go-back-N retransmission, end to end
//! through the real encoder, bit-error channel, and decoder.
//!
//! ```text
//! cargo run --release --example reliable_link
//! ```
#![expect(
    clippy::print_stdout,
    reason = "an example prints what it demonstrates"
)]

use osmosis_fec::analytics::{block_outcomes, user_ber_fec_only, user_ber_with_retransmission};
use osmosis_fec::retransmission::{run_reliable_link, LinkConfig};

fn main() {
    println!("Two-tier reliability on a 40 Gb/s optical link (256-byte cells)\n");

    // Tier table at the paper's raw BERs (analytic — the event rates are
    // far beyond Monte-Carlo reach).
    println!("raw BER     FEC-only user BER   FEC+retx user BER");
    for raw in [1e-12f64, 1e-11, 1e-10] {
        println!(
            "{:>8.0e}   {:>17.2e}   {:>17.2e}",
            raw,
            user_ber_fec_only(raw),
            user_ber_with_retransmission(raw)
        );
    }
    println!("\npaper targets: < 1e-17 after FEC, < 1e-21 after retransmission ✓");

    // Monte-Carlo at an exaggerated BER so every code path fires.
    for raw in [1e-6f64, 1e-5, 1e-4] {
        let o = block_outcomes(raw);
        let cfg = LinkConfig::osmosis(5, raw, 42);
        let r = run_reliable_link(&cfg, 5_000);
        println!(
            "\nraw BER {raw:.0e}: P(block corrected) = {:.2e}, P(detected) = {:.2e}",
            o.corrected, o.detected
        );
        println!(
            "  link run: {}/{} cells delivered in order, {} FEC-corrected cells,",
            r.delivered, r.offered, r.fec_corrected_cells
        );
        println!(
            "  {} retransmissions, {} undetected corruptions, goodput {:.4}",
            r.retransmissions, r.undetected_corruptions, r.goodput
        );
        assert_eq!(r.delivered, r.offered);
        assert_eq!(r.undetected_corruptions, 0);
    }
    println!("\nEven at a million times the real error rate, every cell arrives intact:");
    println!("single-bit errors are corrected in place, everything else is detected and");
    println!("retransmitted within one deterministic link RTT.");
}
