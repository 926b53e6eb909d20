//! What the benchmark declares: its workloads and metrics.
//! `BENCHMARK.json` at the repository root is the single source of each
//! metric's name, unit, direction and regression bound, and of which
//! metrics are gated end to end.

use crate::json;

/// The benchmark declaration, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// The compiled-in declaration.
    pub fn load() -> Catalog {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = json::parse(text)?;
        let field = |v, k: &str| json::get(v, k).ok_or_else(|| format!("missing key {k}"));
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            json::items(field(&doc, key)?)
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        field(m, k).and_then(|v| {
                            json::str(v)
                                .map(str::to_string)
                                .ok_or(format!("{k} is not a string"))
                        })
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: json::get(m, "bound").and_then(json::num),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            run_seconds: json::num(field(&doc, "run_seconds")?)
                .ok_or("run_seconds is not a number")?,
            workloads: json::items(field(&doc, "workloads")?)
                .iter()
                .filter_map(|w| json::get(w, "name").and_then(json::str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Look a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn code_and_benchmark_json_declare_the_same_workloads() {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(Catalog::load().workloads, workloads);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_the_largest() {
        let cat = Catalog::load();
        let setup = cat
            .metric("setup_s")
            .and_then(|m| m.bound)
            .expect("setup_s bound");
        for m in &cat.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(bound <= setup, "{} bound above setup_s's", m.name);
        }
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
