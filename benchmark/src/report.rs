//! Results: the metric catalogue from `BENCHMARK.json`, one workload run's
//! result, its `run.json` form, the human-readable report and the final
//! machine-readable line.

use crate::stats::Better;
use lvp_json::{Json, ToJson};
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value summarizes.
    pub n: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n: n as u64,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("value", self.value.to_json()),
            ("unit", self.unit.to_json()),
            ("n", self.n.to_json()),
        ])
    }

    fn from_json(name: &str, j: &Json) -> Result<Metric, String> {
        Ok(Metric {
            name: name.to_string(),
            value: j
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric '{name}' has no numeric 'value'"))?,
            unit: j
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric '{name}' has no 'unit'"))?
                .to_string(),
            n: j.get("n")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric '{name}' has no 'n'"))? as u64,
        })
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(ms.iter().map(|m| (m.name.clone(), m.to_json())))
}

fn metrics_from_json(j: Option<&Json>) -> Result<Vec<Metric>, String> {
    match j {
        Some(Json::Object(pairs)) => pairs.iter().map(|(k, v)| Metric::from_json(k, v)).collect(),
        _ => Err("expected an object of metrics".to_string()),
    }
}

/// Counts checked operations; every mismatch, error line or timeout is one
/// failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 20;

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(note());
            }
        }
    }
}

/// One workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// End-to-end metrics for an untraced run, per-layer metrics for a
    /// traced one: exactly the set `BENCHMARK.json` lists for the mode.
    pub metrics: Vec<Metric>,
    /// Everything else measured: workload-specific and deterministic values.
    pub extra: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Looks a value up among the metrics, then the extras.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("seed", self.seed.to_json()),
            ("traced", self.traced.to_json()),
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            (
                "notes",
                Json::Array(self.notes.iter().map(|n| n.to_json()).collect()),
            ),
            ("metrics", metrics_json(&self.metrics)),
            ("extra", metrics_json(&self.extra)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let u = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("result has no numeric '{key}'"))
        };
        Ok(WorkloadResult {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result has no 'workload'")?
                .to_string(),
            seed: u("seed")?,
            traced: matches!(j.get("traced"), Some(Json::Bool(true))),
            attempted: u("attempted")?,
            failed: u("failed")?,
            notes: j
                .get("notes")
                .and_then(Json::as_array)
                .ok_or("result has no 'notes'")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            metrics: metrics_from_json(j.get("metrics"))?,
            extra: metrics_from_json(j.get("extra"))?,
        })
    }
}

/// A `run.json` document: the results of one invocation.
pub fn run_doc(results: &[WorkloadResult]) -> Json {
    Json::obj([(
        "workloads",
        Json::Array(results.iter().map(WorkloadResult::to_json).collect()),
    )])
}

/// Parses a `run.json` document.
pub fn parse_run_doc(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let j = Json::parse(text).map_err(|e| format!("malformed run.json: {e}"))?;
    j.get("workloads")
        .and_then(Json::as_array)
        .ok_or("run.json has no 'workloads' array")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

/// Writes a JSON document, creating parent directories.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric catalogue of `BENCHMARK.json` — the one place metric names,
/// units, directions and bounds are declared.
#[derive(Debug, Clone)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Catalogue {
    pub fn load(path: &Path) -> Result<Catalogue, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Catalogue::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let j = Json::parse(text).map_err(|e| format!("malformed BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            j.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("a '{key}' metric has no '{k}'"))
                    };
                    let better = s("better")?;
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        better: Better::parse(&better)
                            .ok_or_else(|| format!("unknown direction '{better}'"))?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "a workload has no 'name'".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    /// The metrics a run in this mode reports.
    pub fn for_mode(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Orders `measured` as the catalogue lists the mode's metrics and
    /// checks that each is present, finite and in the declared unit.
    pub fn select(&self, traced: bool, measured: &[Metric]) -> Result<Vec<Metric>, String> {
        self.for_mode(traced)
            .iter()
            .map(|spec| {
                let m = measured
                    .iter()
                    .find(|m| m.name == spec.name)
                    .ok_or_else(|| format!("metric '{}' was not measured", spec.name))?;
                if m.unit != spec.unit {
                    return Err(format!(
                        "metric '{}' measured in '{}', BENCHMARK.json says '{}'",
                        spec.name, m.unit, spec.unit
                    ));
                }
                if !m.value.is_finite() {
                    return Err(format!("metric '{}' is not finite: {}", spec.name, m.value));
                }
                Ok(m.clone())
            })
            .collect()
    }
}

/// The human-readable report: every metric by name with unit and sample
/// count, then the checks.
pub fn print_human(r: &WorkloadResult) {
    let mode = if r.traced { "traced" } else { "untraced" };
    println!("== {} seed {} ({mode})", r.workload, r.seed);
    for m in &r.metrics {
        println!("  {:<36} {:>16.6} {:<9} n={}", m.name, m.value, m.unit, m.n);
    }
    for m in &r.extra {
        println!(
            "  ({:<34}) {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "  checks: {} attempted, {} failed (failed_frac {})",
        r.attempted,
        r.failed,
        r.failed_frac()
    );
    for note in &r.notes {
        println!("  FAILED: {note}");
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// the mode's metrics with their units.
pub fn final_line(r: &WorkloadResult) -> String {
    Json::obj([
        ("correct", r.correct().to_json()),
        ("attempted", r.attempted.to_json()),
        ("failed", r.failed.to_json()),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", m.value.to_json()), ("unit", m.unit.to_json())]),
                )
            })),
        ),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "serve_mixed".into(),
            seed: 7,
            traced: false,
            attempted: 1600,
            failed: 0,
            notes: vec![],
            metrics: vec![
                Metric::new("batch_ms_p50", 181.25390625, "ms", 200),
                Metric::new("minstr_per_s", 8.8125, "Minstr/s", 200),
            ],
            extra: vec![Metric::new("serve.computed_frac", 0.0975, "ratio", 1600)],
        }
    }

    #[test]
    fn run_json_round_trips() {
        let results = vec![sample(), {
            let mut r = sample();
            r.workload = "figs_all".into();
            r.traced = true;
            r.failed = 2;
            r.notes = vec!["fig01_conflicts: digest mismatch".into()];
            r
        }];
        let text = run_doc(&results).pretty();
        let back = parse_run_doc(&text).expect("parses");
        assert_eq!(back, results);
        assert_eq!(run_doc(&back).pretty(), text, "byte-identical re-render");
        assert!(parse_run_doc("{\"workloads\": 3}").is_err());
    }

    #[test]
    fn catalogue_select_checks_presence_and_units() {
        let cat = Catalogue::parse(
            r#"{"workloads": [{"name": "serve_mixed", "why": "x"}],
                "end_to_end": [{"name": "minstr_per_s", "unit": "Minstr/s", "better": "higher", "bound": 0.1},
                               {"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "emu.calls", "unit": "count", "better": "lower"}]}"#,
        )
        .expect("parses");
        let picked = cat.select(false, &sample().metrics).expect("all present");
        assert_eq!(picked[0].name, "minstr_per_s", "catalogue order");
        assert!(
            cat.select(true, &sample().metrics).is_err(),
            "missing per-layer"
        );
        let mut wrong_unit = sample().metrics;
        wrong_unit[0].unit = "s".into();
        assert!(cat.select(false, &wrong_unit).is_err());
        assert_eq!(cat.find("emu.calls").map(|m| m.bound), Some(None));
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let line = final_line(&sample());
        let j = Json::parse(&line).expect("valid JSON");
        match &j {
            Json::Object(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            _ => panic!("not an object"),
        }
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("batch_ms_p50"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(181.25390625)
        );
    }
}
