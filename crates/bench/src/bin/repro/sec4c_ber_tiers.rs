//! Regenerates the SIV.C reliability tiers: raw optical BER -> post-FEC ->
//! post-retransmission, plus a Monte-Carlo reliable-link run through the
//! real (272,256,3) codec.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::sec4c;
use osmosis_core::Scale;

pub fn run(args: &Args) {
    let scale = args.scale();
    let cells = if scale == Scale::Quick { 1_000 } else { 20_000 };
    let r = sec4c::run(cells, 0x4C);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|b| {
            vec![
                format!("{:.1e}", b.raw_ber),
                format!("{:.2e}", b.fec_ber),
                format!("{:.2e}", b.retx_ber),
                format!("{:.6}", b.transmissions),
            ]
        })
        .collect();
    print_table(
        "SIV.C: two-tier reliability (272,256,3) FEC + hop-by-hop retransmission",
        &[
            "raw BER",
            "user BER (FEC only)",
            "user BER (FEC+retx)",
            "tx per block",
        ],
        &rows,
    );
    println!(
        "\ncoding overhead: {:.2}% (paper: 6.25%)",
        r.overhead * 100.0
    );
    println!("paper targets: FEC < 1e-17 at raw 1e-10 .. 1e-12; +retx < 1e-21  -- both hold");
    println!(
        "\nMonte-Carlo reliable link at raw BER 1e-5: {}/{} cells delivered, \
         {} FEC-corrected, {} retransmissions, {} undetected corruptions, goodput {:.3}",
        r.link_run.delivered,
        r.link_run.offered,
        r.link_run.fec_corrected_cells,
        r.link_run.retransmissions,
        r.link_run.undetected_corruptions,
        r.link_run.goodput,
    );
}
