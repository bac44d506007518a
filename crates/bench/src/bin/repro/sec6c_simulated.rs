//! SVI.C in motion: simulate fabrics of different switch radix at the
//! SAME host count and measure what each extra stage costs in latency.

use osmosis_bench::{print_table, Args};
use osmosis_fabric::{CompiledFabric, TopologySpec};
use osmosis_sim::{Extra, SeedSequence};
use osmosis_traffic::BernoulliUniform;

pub fn run(_: &Args) {
    // 16 hosts three ways: radix-8 x 2 levels (3 stages, "OSMOSIS-like"),
    // radix-4 x 4 levels (7 stages, "commodity-like"). 64 hosts two ways:
    // radix-16 x 2 (3 stages) vs radix-4 x 6 (11 stages).
    let cases = [
        ("radix-8, 2 levels", TopologySpec::m_ary_fat_tree(8, 2), 0.3),
        ("radix-4, 4 levels", TopologySpec::m_ary_fat_tree(4, 4), 0.3),
        (
            "radix-16, 2 levels",
            TopologySpec::m_ary_fat_tree(16, 2),
            0.3,
        ),
        ("radix-4, 6 levels", TopologySpec::m_ary_fat_tree(4, 6), 0.3),
    ];
    let mut rows = Vec::new();
    for (name, spec, load) in cases {
        let mut fab = CompiledFabric::new(spec.with_link_delay(2));
        let hosts = spec.hosts() as usize;
        let mut tr = BernoulliUniform::new(hosts, load, &SeedSequence::new(0x6C));
        let r = fab.run(&mut tr, &osmosis_fabric::EngineConfig::new(1_000, 10_000));
        rows.push(vec![
            name.to_string(),
            hosts.to_string(),
            format!("{}", r.extra(Extra::Stages).unwrap_or(0.0) as u32),
            format!("{:.2}", r.mean_delay),
            format!("{:.3}", r.throughput),
            r.reordered.to_string(),
        ]);
    }
    print_table(
        "SVI.C simulated: same hosts, different radix -> stage count vs latency",
        &[
            "fabric",
            "hosts",
            "stages",
            "mean latency (cycles)",
            "throughput",
            "reordered",
        ],
        &rows,
    );
    println!("\nEvery extra stage adds a link flight plus a scheduling cycle: the");
    println!("high-radix (OSMOSIS-like) fabric wins exactly as SVI.C argues.");
}
