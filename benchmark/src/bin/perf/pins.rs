//! `benchmark/pins.json`: the default-seed simulated statistics of every
//! workload, as committed. A run at the default seed must reproduce them
//! exactly, so a change that only claims speed cannot move the model.

use crate::decl::bench_dir;
use crate::workloads::{SimStats, DEFAULT_SEED};
use osmosis_sim::json::Value;

fn stats_to_json(s: &SimStats) -> Value {
    Value::Obj(vec![
        ("fingerprint".into(), Value::u64(s.fingerprint)),
        ("sim_throughput".into(), Value::f64(s.throughput)),
        ("sim_mean_delay_slots".into(), Value::f64(s.mean_delay)),
        ("sim_p99_delay_slots".into(), Value::f64(s.p99_delay)),
        ("delivered".into(), Value::u64(s.delivered)),
    ])
}

fn stats_from_json(v: &Value) -> Option<SimStats> {
    Some(SimStats {
        fingerprint: v.get("fingerprint")?.as_u64()?,
        throughput: v.get("sim_throughput")?.as_f64()?,
        mean_delay: v.get("sim_mean_delay_slots")?.as_f64()?,
        p99_delay: v.get("sim_p99_delay_slots")?.as_f64()?,
        delivered: v.get("delivered")?.as_u64()?,
    })
}

/// The pin for `workload`, when `seed` is the one the pins were taken at.
pub fn lookup(workload: &str, seed: u64) -> Result<Option<SimStats>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let path = bench_dir().join("pins.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("seed").and_then(Value::as_u64) != Some(DEFAULT_SEED) {
        return Err(format!(
            "{}: not taken at seed {DEFAULT_SEED}",
            path.display()
        ));
    }
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(stats_from_json)
        .map(Some)
        .ok_or_else(|| format!("{}: no pin for {workload}", path.display()))
}

/// The pins file for `entries`, one workload per line.
pub fn encode(entries: &[(&str, SimStats)]) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|(name, stats)| format!("    \"{name}\": {}", stats_to_json(stats).encode()))
        .collect();
    format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        lines.join(",\n")
    )
}
