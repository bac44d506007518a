//! Regenerates the Figs. 3-4 flow-control experiment: deterministic FC
//! RTT, buffer-sizing law, and fabric losslessness under hotspot
//! overload.

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig4;

pub fn run(args: &Args) {
    let scale = args.scale();
    let r = fig4::run(scale, 0xF164);
    print_table(
        "Figs. 3-4: scheduler-relayed remote flow control",
        &["metric", "value"],
        &[
            vec!["link delay (slots)".into(), r.link_delay.to_string()],
            vec![
                "buffer sizing rule (cells)".into(),
                r.buffer_rule.to_string(),
            ],
            vec!["FC RTT min (slots)".into(), r.relay.fc_rtt_min.to_string()],
            vec!["FC RTT max (slots)".into(), r.relay.fc_rtt_max.to_string()],
            vec![
                "relay-loop throughput".into(),
                format!("{:.4}", r.relay.throughput),
            ],
            vec!["idle cells inserted".into(), r.relay.idle_cells.to_string()],
            vec![
                "hotspot fabric: delivered".into(),
                r.hotspot.delivered.to_string(),
            ],
            vec![
                "hotspot fabric: reordered".into(),
                r.hotspot.reordered.to_string(),
            ],
            vec![
                "hotspot fabric: peak buffer occupancy".into(),
                format!(
                    "{} / {} capacity",
                    r.hotspot.max_queue_depth, r.fabric_buffer
                ),
            ],
        ],
    );
    assert_eq!(r.relay.fc_rtt_min, r.relay.fc_rtt_max, "deterministic RTT");
    println!("\nThe FC loop RTT is constant (deterministic), buffers never overflow, and");
    println!("no cell is dropped even with one egress overloaded 16x - Table 1's");
    println!("losslessness requirement via the Fig. 4 relay scheme.");
}
