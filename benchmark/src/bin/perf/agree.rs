//! Saved sets of `perf run` records, and their comparison.
//!
//! A set is a JSONL file: the detailed record of one run per workload,
//! as `perf all` saves it. `perf agree A B` reads B against A, metric by
//! metric, with the bounds `BENCHMARK.json` fixes.

use crate::decl::Decl;
use osmosis_sim::json::Value;
use std::path::Path;

pub fn load_set(path: &Path) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Value::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Four decimals, or scientific notation for the small set-up times.
fn number(v: f64) -> String {
    if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn record<'a>(set: &'a [Value], workload: &str) -> Option<&'a Value> {
    set.iter()
        .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
}

fn metric<'a>(record: &'a Value, name: &str) -> Option<&'a Value> {
    record.get("metrics")?.get(name)
}

/// One row per (workload, metric): both values, the ratio B ÷ A with A
/// as its base, the share by which B is worse, and the verdict. Returns
/// the rows and whether any bound is breached.
pub fn compare(decl: &Decl, a: &[Value], b: &[Value]) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<15} {:<21} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "worse", "bound"
    )];
    let mut breached = false;
    for w in &decl.workloads {
        let (Some(ra), Some(rb)) = (record(a, w), record(b, w)) else {
            rows.push(format!("{w:<15} missing from a set"));
            breached = true;
            continue;
        };
        for m in &decl.end_to_end {
            let value = |r: &Value| metric(r, &m.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                rows.push(format!("{w:<15} {:<21} missing from a set", m.name));
                breached = true;
                continue;
            };
            let worse = if m.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let bound = m.bound.unwrap_or(0.0);
            let unresolved = [ra, rb].iter().any(|r| {
                metric(r, &m.name)
                    .and_then(|v| v.get("unresolved"))
                    .and_then(Value::as_bool)
                    == Some(true)
            });
            let verdict = if worse > bound {
                breached = true;
                "BREACH"
            } else if unresolved {
                "ok (a run's own spread exceeds the bound: unresolved)"
            } else {
                "ok"
            };
            rows.push(format!(
                "{w:<15} {:<21} {:>14} {:>14} {:>9.4} {:>7.2}% {:>5.1}%  {verdict}",
                m.name,
                number(va),
                number(vb),
                vb / va,
                worse * 100.0,
                bound * 100.0
            ));
        }
        let share = |r: &Value| r.get("failed_share").and_then(Value::as_f64);
        let (fa, fb) = (share(ra).unwrap_or(1.0), share(rb).unwrap_or(1.0));
        let verdict = if fb > fa {
            breached = true;
            "BREACH"
        } else {
            "ok"
        };
        rows.push(format!(
            "{w:<15} {:<21} {fa:>14.6} {fb:>14.6} {:>9} {:>8} {:>5.1}%  {verdict}",
            "failed_share", "-", "-", 0.0
        ));
        let fingerprint = |r: &Value| {
            r.get("fingerprint")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let same_seed =
            ra.get("seed").and_then(Value::as_u64) == rb.get("seed").and_then(Value::as_u64);
        if same_seed {
            let same = fingerprint(ra) == fingerprint(rb);
            rows.push(format!(
                "{w:<15} {:<21} simulated statistics {}",
                "fingerprint",
                if same { "identical" } else { "DIFFER" }
            ));
        }
    }
    (rows, breached)
}
