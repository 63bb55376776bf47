//! The matrix runner and its `bench-matrix/v2` report.
//!
//! `experiments matrix` executes every selected scenario through
//! [`run::execute`] and emits one tagged [`Report`] with the registry
//! totals and, per scenario, its pass flag and the deterministic
//! counters of its run, every number tagged `exact`.  `bench-compare`
//! gates it like any other report: the committed `BENCH_matrix.json`
//! baseline pins every scenario and every counter at tolerance 0 in CI
//! (the `matrix-smoke` job).

use super::run;
use super::spec::{Spec, Workload};
use crate::compare::Gate::Exact;
use crate::json::Json;
use crate::report::Report;

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

    /// The `bench-matrix/v2` report: `total`, `passed` and `failed`,
    /// then per scenario `scenarios.<name>.workload`, `.passed` (1 or
    /// 0), `.failures` and `.counters.<path>`.
    pub fn report(&self) -> Report {
        let mut r = Report::new("bench-matrix/v2");
        r.gate("total", self.outcomes.len(), Exact);
        r.gate("passed", self.passed_count(), Exact);
        r.gate("failed", self.failed_count(), Exact);
        for o in &self.outcomes {
            let at = format!("scenarios.{}", o.name);
            r.set(&format!("{at}.workload"), Json::str(o.workload.to_string()));
            r.gate(&format!("{at}.passed"), u32::from(o.passed), Exact);
            let failures = o.failures.iter().map(Json::str);
            r.set(&format!("{at}.failures"), Json::Arr(failures.collect()));
            for (path, value) in &o.counters {
                r.gate(&format!("{at}.counters.{path}"), *value, Exact);
            }
        }
        r
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
    use crate::{compare, report};

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
        let doc = Json::parse(&report.report().into_json()).unwrap();
        let text = |path| report::at(&doc, path).and_then(Json::as_str);
        assert_eq!(text("schema"), Some("bench-matrix/v2"));
        assert_eq!(text("scenarios.b.workload"), Some("parbench"));
        let failures = report::at(&doc, "scenarios.b.failures").and_then(Json::as_array);
        assert_eq!(failures, Some(&[Json::str("x: expected 1, got 2")][..]));
        // Every number is a counter, tagged exact.
        let gates = report::gates(&doc).unwrap();
        assert!(gates.iter().all(|(_, gate, _)| *gate == Exact), "{gates:?}");
        let counters = report::counters(&doc).unwrap();
        let counters: Vec<(&str, f64)> = counters.iter().map(|(p, v)| (p.as_str(), *v)).collect();
        assert_eq!(
            counters,
            [
                ("total", 2.0),
                ("passed", 1.0),
                ("failed", 1.0),
                ("scenarios.a.passed", 1.0),
                ("scenarios.a.counters.counts.triangles", 1234.0),
                ("scenarios.a.counters.peel.dp_calls", 400.0),
                ("scenarios.b.passed", 0.0),
                ("scenarios.b.counters.counts.triangles", 1234.0),
                ("scenarios.b.counters.peel.dp_calls", 400.0),
            ]
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
