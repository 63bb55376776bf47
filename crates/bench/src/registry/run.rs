//! Scenario execution: one dispatch path from a [`Spec`]'s [`Job`] to
//! the driver entry points.
//!
//! The `experiments` binary's bench subcommands and the matrix runner
//! both run a [`Job`] through here, so a registered scenario and a
//! subcommand whose flags parse to the same job are the same run —
//! `tests/matrix_differential.rs` pins that each builtin is what its
//! subcommand's flags parse to.
//!
//! A bench driver returns its [`Report`](crate::report::Report); its
//! text is that report through [`report::render`], and its
//! deterministic counters are [`report::counters`]: every path the
//! report tags `exact` or `lower-is-better`, never the walls, ratios and
//! RSS probes tagged otherwise.  Each expectation the spec declares
//! must match its counter exactly.

use super::spec::{Job, Spec, Workload};
use crate::json::Json;
use crate::runner::ExperimentContext;
use crate::{
    ablation, fig4, fig5, fig6, fig7, fig8, million, parbench, report, serve, table1, table2,
    table3, thetasweep, updates,
};
use nd_datasets::PaperDataset;

/// The result of executing one scenario.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Human-readable driver output: the rendered report, or the paper
    /// experiment's full printed block.
    pub text: String,
    /// The driver's raw JSON report, byte-identical to what the direct
    /// subcommand would have written with `--out` (bench drivers only).
    pub raw_json: Option<String>,
    /// Deterministic counters read from the report's tags, in emission
    /// order.
    pub counters: Vec<(String, f64)>,
    /// Every failed expectation (empty means the scenario passed).
    pub failures: Vec<String>,
}

impl Executed {
    /// Whether every declared expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------
// Paper experiments
// ---------------------------------------------------------------------

/// One paper table/figure run: the exact text block the `experiments`
/// binary prints for it, plus the deterministic row/shape counters.
pub struct PaperOutput {
    /// The full printed block (format + shape-check lines), with every
    /// newline the subcommand path emits.
    pub text: String,
    /// Datasets (or ablation points) the experiment processed.
    pub rows: usize,
    /// `check_shape()` deviations, for experiments whose shape checks
    /// are deterministic.
    pub shape_violations: Option<usize>,
}

fn shape_block(text: String, violations: Vec<String>, rows: usize) -> PaperOutput {
    let mut out = format!("{text}\n");
    if violations.is_empty() {
        out.push_str("shape check: OK (matches the paper's qualitative claims)\n");
    } else {
        out.push_str(&format!(
            "shape check: {} deviation(s):\n",
            violations.len()
        ));
        for v in &violations {
            out.push_str(&format!("  - {v}\n"));
        }
    }
    out.push('\n');
    PaperOutput {
        text: out,
        rows,
        shape_violations: Some(violations.len()),
    }
}

/// [`shape_block`] for experiments whose checks compare wall times (fig4:
/// AP vs DP seconds; fig5: FG vs WG seconds).  The checks are still
/// printed, but no `shape_violations` count is reported: at tiny scale
/// the timings are sub-millisecond and flip the count from run to run,
/// so it cannot be gated.
fn timed_shape_block(text: String, violations: Vec<String>, rows: usize) -> PaperOutput {
    PaperOutput {
        shape_violations: None,
        ..shape_block(text, violations, rows)
    }
}

/// Runs one paper experiment through its driver — the single dispatch
/// the `experiments` paper arm and the matrix both use.  Panics if
/// `workload` is a bench driver.
pub fn run_paper(ctx: &ExperimentContext, workload: Workload) -> PaperOutput {
    let all = |requested: &[PaperDataset]| ctx.effective_datasets(requested);
    match workload {
        Workload::Table1 => {
            let datasets = all(&PaperDataset::all());
            let rows = datasets.len();
            PaperOutput {
                text: format!("{}\n", table1::run(ctx, &datasets).format()),
                rows,
                shape_violations: None,
            }
        }
        Workload::Table2 => {
            let datasets = all(&PaperDataset::all());
            let rows = datasets.len();
            let t = table2::run(ctx, &datasets);
            shape_block(t.format(), t.check_shape(), rows)
        }
        Workload::Table3 => {
            let datasets = all(&[
                PaperDataset::Dblp,
                PaperDataset::Pokec,
                PaperDataset::Biomine,
            ]);
            let rows = datasets.len();
            let t = table3::run(ctx, &datasets);
            shape_block(t.format(), t.check_shape(), rows)
        }
        Workload::Fig4 => {
            let datasets = all(&PaperDataset::all());
            let rows = datasets.len();
            let fig = fig4::run(ctx, &datasets);
            timed_shape_block(fig.format(), fig.check_shape(), rows)
        }
        Workload::Fig5 => {
            let datasets = all(&PaperDataset::all());
            let rows = datasets.len();
            let fig = fig5::run(ctx, &datasets, 2, 200);
            timed_shape_block(fig.format(), fig.check_shape(), rows)
        }
        Workload::Fig6 => {
            let fig = fig6::run(ctx, fig6::SAMPLES);
            shape_block(fig.format(), fig.check_shape(), 1)
        }
        Workload::Fig7 => {
            let fig = fig7::run(ctx, PaperDataset::Flickr);
            shape_block(fig.format(), fig.check_shape(), 1)
        }
        Workload::Fig8 => {
            let datasets = all(&[
                PaperDataset::Krogan,
                PaperDataset::Flickr,
                PaperDataset::Dblp,
            ]);
            let rows = datasets.len();
            let fig = fig8::run(ctx, &datasets, 3, 200);
            shape_block(fig.format(), fig.check_shape(), rows)
        }
        Workload::Ablation => {
            let sample_points: &[usize] = &[50, 150, 500, 1500, 5000];
            let cost_points: &[usize] = &[16, 64, 256, 1024];
            let samples = ablation::run_sample_ablation(ctx, sample_points);
            let cost = ablation::run_scoring_cost(ctx, cost_points, 200);
            PaperOutput {
                text: format!(
                    "{}\n\n{}\n",
                    samples.format(),
                    ablation::format_scoring_cost(&cost)
                ),
                rows: sample_points.len() + cost_points.len(),
                shape_violations: None,
            }
        }
        bench => panic!("run_paper called with bench workload {bench}"),
    }
}

// ---------------------------------------------------------------------
// Execution + expectation judging
// ---------------------------------------------------------------------

/// Checks every declared expectation against the extracted counters:
/// a counter that is missing or differs from its expected value is a
/// failure.
fn check_expectations(spec: &Spec, counters: &[(String, f64)], failures: &mut Vec<String>) {
    for &(path, expected) in spec.expect {
        match counters.iter().find(|(p, _)| p == path) {
            None => failures.push(format!(
                "{path}: expected counter is missing from the report"
            )),
            Some(&(_, actual)) if actual != expected => {
                failures.push(format!("{path}: expected {expected}, got {actual}"))
            }
            Some(_) => {}
        }
    }
}

/// Executes one scenario through its driver.  `Err` means the driver
/// could not run at all (unloadable input); a run that completes but
/// misses an expectation, or a serve run whose `oneshot.passed` is
/// false, is `Ok` with `failures`.
pub fn execute(spec: &Spec) -> Result<Executed, String> {
    let report = match &spec.job {
        Job::Parbench(config) => parbench::run(config).map_err(|e| e.to_string())?,
        Job::Thetasweep(config) => thetasweep::run_bench(config).map_err(|e| e.to_string())?,
        Job::Updates(config) => updates::run(config).map_err(|e| e.to_string())?,
        Job::Serve(config) => serve::run(config).map_err(|e| e.to_string())?,
        Job::Million(config) => million::run(config),
        Job::Paper {
            workload,
            scale,
            seed,
        } => {
            let output = run_paper(&ExperimentContext::new(*scale, *seed), *workload);
            let mut counters = vec![("rows".to_string(), output.rows as f64)];
            if let Some(violations) = output.shape_violations {
                counters.push(("shape_violations".to_string(), violations as f64));
            }
            let mut failures = Vec::new();
            check_expectations(spec, &counters, &mut failures);
            return Ok(Executed {
                text: output.text,
                raw_json: None,
                counters,
                failures,
            });
        }
    };
    let raw_json = report.into_json();
    let doc =
        Json::parse(&raw_json).map_err(|e| format!("{}: emitted invalid JSON: {e}", spec.name))?;
    let counters = report::counters(&doc).map_err(|e| format!("{}: {e}", spec.name))?;
    let mut failures = Vec::new();
    if doc.path(&["oneshot", "passed"]).and_then(Json::as_bool) == Some(false) {
        failures.push("serve oneshot self-test failed (see report failures)".to_string());
    }
    check_expectations(spec, &counters, &mut failures);
    Ok(Executed {
        text: report::render(&doc),
        raw_json: Some(raw_json),
        counters,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::scenarios;

    #[test]
    fn expectations_match_mismatch_or_go_missing() {
        let spec = Spec {
            name: "x",
            tags: &[],
            job: Job::Thetasweep(thetasweep::SweepBenchConfig::default()),
            expect: &[
                ("sweep.dp_calls_total", 500.0),
                ("sweep.support_builds", 1.0),
            ],
        };
        let counters = vec![
            ("sweep.support_builds".to_string(), 1.0),
            ("sweep.dp_calls_total".to_string(), 500.0),
        ];
        let mut failures = Vec::new();
        check_expectations(&spec, &counters, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        // Any difference fails, a decrease as much as an increase.
        let counters = vec![
            ("sweep.support_builds".to_string(), 2.0),
            ("sweep.dp_calls_total".to_string(), 400.0),
        ];
        let mut failures = Vec::new();
        check_expectations(&spec, &counters, &mut failures);
        assert_eq!(
            failures,
            [
                "sweep.dp_calls_total: expected 500, got 400",
                "sweep.support_builds: expected 1, got 2"
            ]
        );
        // A missing counter is its own failure.
        let mut failures = Vec::new();
        check_expectations(&spec, &[], &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn headers_match_the_subcommand_format() {
        let header = |name: &str| {
            let spec = scenarios().into_iter().find(|s| s.name == name);
            spec.expect("a builtin scenario").job.header()
        };
        assert_eq!(
            header("updates-truss-smoke"),
            "# experiment: updates  rank: truss  vertices: 160  edges: 4000  \
             grid: [0.05, 0.1, 0.3]  batch: 16  seed: 42\n"
        );
        assert_eq!(
            header("file-parbench-tiny"),
            concat!(
                "# experiment: parbench  input: ",
                env!("CARGO_MANIFEST_DIR"),
                "/scenarios/data/tiny.txt (snap)  threads: [2]  repeats: 1\n"
            )
        );
    }
}
