//! The benchmark's contract, read from the repository's `BENCHMARK.json`.
//!
//! The file is embedded at build time, so the names, units and bounds the
//! program prints and `compare` applies cannot drift from the declared ones.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics (reported, never gated).
    pub bound: Option<f64>,
}

/// Workloads the crate runs, reports and compares but `BENCHMARK.json` does
/// not list, so nothing is gated on them. `serve_small`'s closed loop flips
/// between two placements the kernel chooses (every thread packed on one CPU,
/// or spread over both, where each hop is a cross-vCPU wake-up): ten runs of
/// one commit spread 3 % or 28 % depending on the minute, wider than any bound
/// the contract allows. A metric is gated on every listed workload or on
/// none, so a workload that cannot hold the bounds is demoted as a whole.
pub const UNGATED: [&str; 1] = ["serve_small"];

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// The gated workloads, as `BENCHMARK.json` lists them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    /// Every workload the crate knows: the ungated ones, then the gated.
    pub fn all_workloads(&self) -> impl Iterator<Item = &str> {
        let gated = self.workloads.iter().map(String::as_str);
        UNGATED.into_iter().chain(gated)
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: missing list {key}"))
        };
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("BENCHMARK.json: missing string {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_is_consistent() {
        let spec = Spec::load();
        assert_eq!(
            spec.all_workloads().collect::<Vec<_>>(),
            [
                "serve_small",
                "serve_medium",
                "serve_open4",
                "tables",
                "pool_dags"
            ]
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        assert!(spec.per_layer.len() <= 128);
    }
}
