//! Regenerates the Fig. 5 datapath checks: the optical power budget of
//! the broadcast-and-select path (SVI.A: "closed the optical power ...
//! budgets").

use osmosis_bench::{print_table, Args};
use osmosis_core::experiments::fig5;

pub fn run(_: &Args) {
    let r = fig5::run();
    let mut rows = vec![vec![
        "launch".to_string(),
        String::new(),
        format!("{:+.2} dBm", r.launch_dbm),
    ]];
    for l in &r.budget_lines {
        rows.push(vec![
            l.name.to_string(),
            format!("{:+.2} dB", l.gain.0),
            format!("{:+.2} dBm", l.power_after.0),
        ]);
    }
    rows.push(vec![
        "receiver sensitivity".into(),
        String::new(),
        format!("{:+.2} dBm", r.sensitivity_dbm),
    ]);
    rows.push(vec![
        "margin".into(),
        format!("{:+.2} dB", r.margin_db),
        String::new(),
    ]);
    print_table(
        "Fig. 5: OSMOSIS broadcast-and-select power budget (any of the 64x128 paths)",
        &["element", "gain/loss", "power after"],
        &rows,
    );
    println!(
        "\nStructure: {} broadcast modules, {} switching modules; guard time {}",
        r.broadcast_modules, r.switching_modules, r.guard
    );
    assert!(r.margin_db >= 3.0, "budget must close with margin");
}
