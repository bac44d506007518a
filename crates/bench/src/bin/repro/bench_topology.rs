//! Topology-compiler performance snapshot: wall-clock expansion time and
//! simulation slot rate at 2048 / 8192 / 32768 ports, written to
//! `BENCH_topology.json` at the repo root for drift tracking. Every
//! point records the load it offered and the throughput it delivered
//! next to its slot rate: a deadlocked fabric does no per-cell work, so
//! its slot rate alone would flatter it. The runs start empty, so the
//! delivered share also pays for the fill, about one mean delay's worth
//! of slots. Takes no flags.

use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_core::experiments::fig1::CELL_NS;
use osmosis_fabric::{CompiledFabric, EngineConfig, ExpandedFabric, TopologySpec};
use osmosis_sim::json::Value;
use osmosis_sim::SeedSequence;
use osmosis_traffic::BernoulliUniform;

/// Load every simulated point offers, uniform Bernoulli.
const LOAD: f64 = 0.1;

struct Measurement {
    spec: TopologySpec,
    hosts: u64,
    switches: u64,
    expand_ms: f64,
    slot_rate: f64,
    /// Offered load, cells per port per slot.
    offered: f64,
    /// Delivered throughput, cells per port per slot.
    delivered: f64,
}

fn measure(spec: TopologySpec, sim_slots: u64) -> Measurement {
    let t0 = Instant::now();
    let expanded = ExpandedFabric::expand(spec);
    let fab = or_exit(expanded, 1, &format!("expand {spec} failed"));
    let expand_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hosts = fab.hosts.len() as u64;
    let switches = fab.switches.len() as u64;
    let mut sim = CompiledFabric::over(fab);
    let mut tr = BernoulliUniform::new(hosts as usize, LOAD, &SeedSequence::new(0xBE2C));
    let t1 = Instant::now();
    let r = sim.run(&mut tr, &EngineConfig::new(0, sim_slots));
    Measurement {
        spec,
        hosts,
        switches,
        expand_ms,
        slot_rate: sim_slots as f64 / t1.elapsed().as_secs_f64(),
        offered: r.offered_load,
        delivered: r.throughput,
    }
}

fn snapshot(points: &[Measurement]) -> String {
    let entries: Vec<Value> = points
        .iter()
        .map(|m| {
            Value::Obj(vec![
                ("spec".into(), Value::str(m.spec.to_string())),
                ("hosts".into(), Value::u64(m.hosts)),
                ("switches".into(), Value::u64(m.switches)),
                ("expand_ms".into(), Value::f64(m.expand_ms)),
                ("slot_rate_per_s".into(), Value::f64(m.slot_rate)),
                ("offered_load".into(), Value::f64(m.offered)),
                ("throughput".into(), Value::f64(m.delivered)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("bench".into(), Value::str("topology-compiler")),
        ("cell_ns".into(), Value::f64(CELL_NS)),
        ("points".into(), Value::Arr(entries)),
    ])
    .encode()
}

pub fn run(_: &Args) {
    // The snapshot ladder: exact 2048 / 8192 / 32768-port instances.
    let points = vec![
        measure(TopologySpec::two_level(64), 2_000),
        measure(TopologySpec::fat_tree(32, 3), 500),
        measure(TopologySpec::fat_tree(8, 7), 100),
        measure(TopologySpec::dragonfly(64, 64), 100),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|m| {
            vec![
                m.spec.to_string(),
                format!("{}", m.hosts),
                format!("{}", m.switches),
                format!("{:.2}", m.expand_ms),
                format!("{:.0}", m.slot_rate),
                format!("{:.3}", m.offered),
                format!("{:.3}", m.delivered),
            ]
        })
        .collect();
    print_table(
        "Topology compiler: expansion time, simulation slot rate and delivered throughput",
        &[
            "topology",
            "hosts",
            "switches",
            "expand (ms)",
            "slots/s",
            "offered",
            "delivered",
        ],
        &rows,
    );
    write_snapshot("BENCH_topology.json", snapshot(&points));
}
