//! What the run can say about the machine it ran on.

use osmosis_sim::json::Value;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM")
        .ok_or("no VmHWM line in /proc/self/status: peak_rss_mb needs Linux procfs")?;
    let kb: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unreadable VmHWM `{field}`: {e}"))?;
    Ok(kb / 1024.0)
}

/// Core count, CPU model and the load average at the time of the call —
/// the context a reader needs to judge a timing taken on a shared box.
pub fn descriptor() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .and_then(|s| s.parse::<f64>().ok());
    Value::Obj(vec![
        ("nproc".into(), Value::u64(nproc)),
        ("cpu".into(), Value::str(cpu)),
        ("loadavg_1m".into(), load.map_or(Value::Null, Value::f64)),
        ("threads_used".into(), Value::u64(1)),
    ])
}
