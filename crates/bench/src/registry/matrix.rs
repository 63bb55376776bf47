//! The matrix runner and its `bench-matrix/v1` report.
//!
//! `experiments matrix` executes every selected scenario through
//! [`run::execute`] and emits one JSON document
//! with per-scenario pass/fail, the extracted deterministic counters
//! and the registry totals.  `bench-compare` knows the family: the
//! committed `BENCH_matrix.json` baseline gates every recorded counter
//! of every scenario at tolerance 0 in CI (the `matrix-smoke` job),
//! replacing the per-family python gate blocks.

use super::run;
use super::spec::{Spec, Workload};
use crate::json::Json;

/// One executed (or failed-to-execute) scenario in the matrix.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Its workload.
    pub workload: Workload,
    /// Whether the run completed with every expectation met.
    pub passed: bool,
    /// Failed expectations, or the driver error when it could not run.
    pub failures: Vec<String>,
    /// Deterministic counters extracted from the driver report.
    pub counters: Vec<(String, f64)>,
}

/// The full matrix result.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Per-scenario outcomes, in registry (name) order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl MatrixReport {
    /// Scenarios that passed.
    pub fn passed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.passed).count()
    }

    /// Scenarios that failed.
    pub fn failed_count(&self) -> usize {
        self.outcomes.len() - self.passed_count()
    }

    /// Whether every scenario passed.
    pub fn passed(&self) -> bool {
        self.failed_count() == 0
    }

    /// The `bench-matrix/v1` JSON document.
    pub fn to_json(&self) -> String {
        let scenarios: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(o.name.clone())),
                    ("workload".to_string(), Json::Str(o.workload.to_string())),
                    ("passed".to_string(), Json::Bool(o.passed)),
                    (
                        "failures".to_string(),
                        Json::Arr(o.failures.iter().cloned().map(Json::Str).collect()),
                    ),
                    (
                        "counters".to_string(),
                        Json::Obj(
                            o.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str("bench-matrix/v1".to_string()),
            ),
            ("total".to_string(), Json::Num(self.outcomes.len() as f64)),
            ("passed".to_string(), Json::Num(self.passed_count() as f64)),
            ("failed".to_string(), Json::Num(self.failed_count() as f64)),
            ("scenarios".to_string(), Json::Arr(scenarios)),
        ]);
        let mut text = doc.to_json_string();
        text.push('\n');
        text
    }

    /// Human-readable verdict table.
    pub fn format(&self) -> String {
        let mut rows: Vec<[String; 4]> = vec![[
            "scenario".to_string(),
            "workload".to_string(),
            "counters".to_string(),
            "verdict".to_string(),
        ]];
        for o in &self.outcomes {
            rows.push([
                o.name.clone(),
                o.workload.to_string(),
                o.counters.len().to_string(),
                if o.passed {
                    "ok".to_string()
                } else {
                    "FAILED".to_string()
                },
            ]);
        }
        let mut out = align(&rows);
        for o in &self.outcomes {
            for failure in &o.failures {
                out.push_str(&format!("  {}: {failure}\n", o.name));
            }
        }
        out.push_str(&format!(
            "matrix: {} scenario(s), {} passed, {} failed\n",
            self.outcomes.len(),
            self.passed_count(),
            self.failed_count()
        ));
        out
    }
}

/// The `--dry-run` enumeration listing: deterministic, sorted by name
/// (registry order), golden-tested.
pub fn format_listing(scenarios: &[&Spec]) -> String {
    let mut rows: Vec<[String; 3]> = vec![[
        "scenario".to_string(),
        "workload".to_string(),
        "tags".to_string(),
    ]];
    for s in scenarios {
        let workload = s.job.workload().to_string();
        rows.push([s.name.to_string(), workload, s.tags.join(",")]);
    }
    let mut out = align(&rows);
    out.push_str(&format!("matrix: {} scenario(s)\n", scenarios.len()));
    out
}

/// Column-aligns rows with two-space gutters.
fn align<const N: usize>(rows: &[[String; N]]) -> String {
    let mut widths = [0usize; N];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (w, cell) in widths.iter().zip(row.iter()) {
            line.push_str(&format!("{cell:w$}  ", w = *w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Executes every selected scenario, reporting progress through
/// `progress` (one line before each run, one after).  A driver that
/// cannot run at all becomes a failed outcome, not an abort — the
/// matrix always reports the full registry surface.
pub fn run_matrix(scenarios: &[&Spec], progress: &mut dyn FnMut(&str)) -> MatrixReport {
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for spec in scenarios {
        let workload = spec.job.workload();
        progress(&format!("running {} ({workload}) ...", spec.name));
        let outcome = match run::execute(spec) {
            Ok(executed) => ScenarioOutcome {
                name: spec.name.to_string(),
                workload,
                passed: executed.passed(),
                failures: executed.failures,
                counters: executed.counters,
            },
            Err(message) => ScenarioOutcome {
                name: spec.name.to_string(),
                workload,
                passed: false,
                failures: vec![message],
                counters: Vec::new(),
            },
        };
        progress(&format!(
            "  {} {}",
            spec.name,
            if outcome.passed { "ok" } else { "FAILED" }
        ));
        outcomes.push(outcome);
    }
    MatrixReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare;

    fn outcome(name: &str, passed: bool) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.to_string(),
            workload: Workload::Parbench,
            passed,
            failures: if passed {
                Vec::new()
            } else {
                vec!["x: expected 1, got 2".to_string()]
            },
            counters: vec![
                ("counts.triangles".to_string(), 1234.0),
                ("peel.dp_calls".to_string(), 400.0),
            ],
        }
    }

    #[test]
    fn report_json_is_a_gateable_bench_matrix_document() {
        let report = MatrixReport {
            outcomes: vec![outcome("a", true), outcome("b", false)],
        };
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench-matrix/v1")
        );
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("passed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let scenarios = doc.get("scenarios").and_then(Json::as_array).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(
            scenarios[0]
                .path(&["counters", "peel.dp_calls"])
                .and_then(Json::as_f64),
            Some(400.0)
        );
        // The document gates against itself cleanly through bench-compare.
        let diff = compare::compare(&doc, &doc, 0.0).unwrap();
        assert!(diff.regressions().is_empty(), "{:?}", diff.regressions());
    }

    #[test]
    fn format_lists_failures_and_totals() {
        let report = MatrixReport {
            outcomes: vec![outcome("a", true), outcome("b", false)],
        };
        let text = report.format();
        assert!(
            text.contains("matrix: 2 scenario(s), 1 passed, 1 failed"),
            "{text}"
        );
        assert!(text.contains("b: x: expected 1, got 2"), "{text}");
    }
}
