//! Topology-compiler performance snapshot: wall-clock expansion time and
//! simulation slot rate at 2048 / 8192 / 32768 ports, written to
//! `BENCH_topology.json` at the repo root for drift tracking. Every
//! point records the load it offered and the throughput it delivered
//! next to its slot rate: a deadlocked fabric does no per-cell work, so
//! its slot rate alone would flatter it. The runs start empty, so the
//! delivered share also pays for the fill, about one mean delay's worth
//! of slots.
//!
//! Modes:
//!
//! * default — measure and rewrite the snapshot;
//! * `--smoke` — expand the two 32768-port instances, simulate 20 slots
//!   of each (the fat tree's 13 stages are the deepest route), and fail
//!   (exit 1) if either instance exceeds the CI time budget; writes
//!   nothing.

use std::time::Instant;

use osmosis_bench::{or_exit, print_table, write_snapshot, Args};
use osmosis_core::experiments::fig1::CELL_NS;
use osmosis_fabric::{CompiledFabric, EngineConfig, ExpandedFabric, TopologySpec};
use osmosis_sim::json::Value;
use osmosis_sim::SeedSequence;
use osmosis_traffic::BernoulliUniform;

/// Per-instance CI budget for the 32K instances, generous enough for a
/// loaded shared runner (release builds expand these in well under a
/// second, and simulate the smoke slots in a fraction of one).
const SMOKE_BUDGET_S: f64 = 30.0;

/// Slots of each 32K instance the smoke gate simulates at load 0.1.
/// Enough to touch ~65 000 flows: per-run state that grows with ports²
/// instead of with the flows touched (dense per-flow tables took 35 s
/// and 8 GB here) overruns the budget or the runner's memory.
const SMOKE_SIM_SLOTS: u64 = 20;

/// Load every simulated point offers, uniform Bernoulli.
const LOAD: f64 = 0.1;

struct Measurement {
    spec: TopologySpec,
    hosts: u64,
    switches: u64,
    expand_ms: f64,
    sim: Option<Simulated>,
}

struct Simulated {
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
    let sim = (sim_slots > 0).then(|| {
        let mut sim = CompiledFabric::over(fab);
        let mut tr = BernoulliUniform::new(hosts as usize, LOAD, &SeedSequence::new(0xBE2C));
        let t1 = Instant::now();
        let r = sim.run(&mut tr, &EngineConfig::new(0, sim_slots));
        Simulated {
            slot_rate: sim_slots as f64 / t1.elapsed().as_secs_f64(),
            offered: r.offered_load,
            delivered: r.throughput,
        }
    });
    Measurement {
        spec,
        hosts,
        switches,
        expand_ms,
        sim,
    }
}

fn snapshot(points: &[Measurement]) -> String {
    let entries: Vec<Value> = points
        .iter()
        .map(|m| {
            let sim = |field: fn(&Simulated) -> f64| {
                m.sim.as_ref().map_or(Value::Null, |s| Value::f64(field(s)))
            };
            Value::Obj(vec![
                ("spec".into(), Value::str(m.spec.to_string())),
                ("hosts".into(), Value::u64(m.hosts)),
                ("switches".into(), Value::u64(m.switches)),
                ("expand_ms".into(), Value::f64(m.expand_ms)),
                ("slot_rate_per_s".into(), sim(|s| s.slot_rate)),
                ("offered_load".into(), sim(|s| s.offered)),
                ("throughput".into(), sim(|s| s.delivered)),
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

pub fn run(args: &Args) {
    if args.smoke {
        // The CI gate: both 32768-port families must expand and simulate
        // inside the budget on a cold runner.
        let mut failed = false;
        for spec in [
            TopologySpec::fat_tree(8, 7),
            TopologySpec::dragonfly(64, 64),
        ] {
            let (m, sim_slots) = (measure(spec, SMOKE_SIM_SLOTS), SMOKE_SIM_SLOTS);
            let sim_s = m
                .sim
                .as_ref()
                .map_or(0.0, |s| sim_slots as f64 / s.slot_rate);
            let ok = m.expand_ms / 1e3 + sim_s <= SMOKE_BUDGET_S;
            println!(
                "smoke: {} -> {} hosts, {} switches, expanded in {:.1} ms, \
                 {sim_slots} slots simulated in {:.1} ms ({})",
                m.spec,
                m.hosts,
                m.switches,
                m.expand_ms,
                sim_s * 1e3,
                if ok { "ok" } else { "OVER BUDGET" }
            );
            if m.hosts < 32_768 {
                println!("smoke: {} reaches only {} hosts", m.spec, m.hosts);
                failed = true;
            }
            failed |= !ok;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

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
            let sim = |cell: fn(&Simulated) -> String| {
                m.sim.as_ref().map_or_else(|| "-".to_string(), cell)
            };
            vec![
                m.spec.to_string(),
                format!("{}", m.hosts),
                format!("{}", m.switches),
                format!("{:.2}", m.expand_ms),
                sim(|s| format!("{:.0}", s.slot_rate)),
                sim(|s| format!("{:.3}", s.offered)),
                sim(|s| format!("{:.3}", s.delivered)),
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
