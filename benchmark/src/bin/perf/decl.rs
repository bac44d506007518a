//! The benchmark's declaration, `BENCHMARK.json`: the single source of
//! the metric bounds `perf` judges spreads and agreement against.

use crate::run::Metric;
use osmosis_sim::json::Value;
use std::path::{Path, PathBuf};

/// The checkout root: the benchmark is run from it. Tests run from the
/// package directory instead.
pub fn root() -> PathBuf {
    if cfg!(test) {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    } else {
        PathBuf::from(".")
    }
}

/// The benchmark's own directory, `benchmark/`.
pub fn bench_dir() -> PathBuf {
    root().join("benchmark")
}

/// Scratch and output directory, `benchmark/out/` (git-ignored).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Decl {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Decl {
    pub fn load() -> Result<Decl, String> {
        let path = root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Decl::from_json(&doc)
            .ok_or_else(|| format!("{}: not a benchmark declaration", path.display()))
    }

    fn from_json(doc: &Value) -> Option<Decl> {
        let metrics = |key: &str| -> Option<Vec<MetricDecl>> {
            doc.get(key)?
                .items()?
                .iter()
                .map(|m| {
                    Some(MetricDecl {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        higher_is_better: match m.get("better")?.as_str()? {
                            "higher" => true,
                            "lower" => false,
                            _ => return None,
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Some(Decl {
            run_seconds: doc.get("run_seconds")?.as_f64()?,
            workloads: doc
                .get("workloads")?
                .items()?
                .iter()
                .map(|w| Some(w.get("name")?.as_str()?.to_string()))
                .collect::<Option<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Refuse to print a metric set other than the declared one: the
    /// driver reads every declared name, and only those.
    pub fn check_names(declared: &[MetricDecl], printed: &[Metric]) -> Result<(), String> {
        let declared: Vec<(&str, &str)> = declared
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let printed: Vec<(&str, &str)> =
            printed.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        if declared == printed {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json declares {declared:?} but perf prints {printed:?}"
            ))
        }
    }

    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    }
}
