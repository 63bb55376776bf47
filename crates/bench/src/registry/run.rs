//! Scenario execution: one dispatch path from a validated
//! [`Spec`] to the existing driver entry points.
//!
//! The `experiments` binary's subcommand arms and the matrix runner
//! both go through here, so a registry-driven run is *the same run* as
//! a direct subcommand invocation — the differential tests pin that
//! bit-identically (counters, counts, method_counts).
//!
//! After a driver finishes, the deterministic counters are extracted
//! from its own JSON report (never from wall-clock fields —
//! `peak_rss_bytes`, `*_s` timings and the reload/mmap speedups are
//! deliberately absent from the probe tables below) and the spec's
//! declared expectations are judged with the same
//! [`Gate`](crate::compare::Gate) semantics `bench-compare` applies.

use super::spec::{DatasetSpec, Spec, Workload};
use crate::json::Json;
use crate::runner::ExperimentContext;
use crate::{
    ablation, fig4, fig5, fig6, fig7, fig8, million, parbench, serve, table1, table2, table3,
    thetasweep, updates,
};
use nd_datasets::{ExternalDataset, PaperDataset};

/// The result of executing one scenario.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Human-readable driver output (`format()`, or the paper
    /// experiment's full printed block).
    pub text: String,
    /// The driver's raw JSON report, byte-identical to what the direct
    /// subcommand would have written with `--out` (bench drivers only).
    pub raw_json: Option<String>,
    /// Deterministic counters extracted from the report, in path order.
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
// Spec -> driver config
// ---------------------------------------------------------------------

fn file_dataset(dataset: &DatasetSpec) -> Option<ExternalDataset> {
    match dataset {
        DatasetSpec::File {
            path,
            format,
            prob_model,
        } => Some(ExternalDataset::new(
            path.clone(),
            *format,
            prob_model.clone(),
        )),
        _ => None,
    }
}

/// Applies a `kind = "generated"` dataset's size to a config's
/// vertices/edges/seed fields (the `--edges`-derives-vertices rule of
/// the CLI lives in the spec layer too, via [`crate::cli::derive_vertices`]).
fn generated_dims(dataset: &DatasetSpec) -> Option<(usize, usize, u64)> {
    match dataset {
        DatasetSpec::Generated {
            edges,
            vertices,
            seed,
        } => Some((
            vertices.unwrap_or_else(|| crate::cli::derive_vertices(*edges)),
            *edges,
            *seed,
        )),
        _ => None,
    }
}

/// The parallel-substrate config a spec describes.
pub fn parbench_config(spec: &Spec) -> Result<parbench::ParBenchConfig, String> {
    let mut config = parbench::ParBenchConfig::default();
    if let Some((vertices, edges, seed)) = generated_dims(&spec.dataset) {
        config.vertices = vertices;
        config.edges = edges;
        config.seed = seed;
    }
    if let Some(repeats) = spec.params.repeats {
        config.repeats = repeats;
    }
    if let Some(threads) = &spec.params.threads {
        config.threads = threads.clone();
    }
    config.input = file_dataset(&spec.dataset);
    Ok(config)
}

/// The θ-sweep config a spec describes.
pub fn thetasweep_config(spec: &Spec) -> Result<thetasweep::SweepBenchConfig, String> {
    let mut config = thetasweep::SweepBenchConfig::default();
    if let Some(rank) = spec.params.rank {
        config.rank = rank;
    }
    if let Some((vertices, edges, seed)) = generated_dims(&spec.dataset) {
        config.vertices = vertices;
        config.edges = edges;
        config.seed = seed;
    }
    if let Some(thetas) = &spec.params.thetas {
        config.thetas = thetas.clone();
    }
    if let Some(repeats) = spec.params.repeats {
        config.repeats = repeats;
    }
    validate_grid("thetasweep", &config.thetas)?;
    config.input = file_dataset(&spec.dataset);
    Ok(config)
}

/// The incremental-update config a spec describes.
pub fn updates_config(spec: &Spec) -> Result<updates::UpdateBenchConfig, String> {
    let mut config = updates::UpdateBenchConfig::default();
    if let Some(rank) = spec.params.rank {
        config.rank = rank;
    }
    if let Some((vertices, edges, seed)) = generated_dims(&spec.dataset) {
        config.vertices = vertices;
        config.edges = edges;
        config.seed = seed;
    }
    if let Some(thetas) = &spec.params.thetas {
        config.thetas = thetas.clone();
    }
    if let Some(batch) = spec.params.batch {
        config.batch = batch;
    }
    validate_grid("updates", &config.thetas)?;
    config.input = file_dataset(&spec.dataset);
    Ok(config)
}

/// The oneshot serve config a spec describes.
pub fn serve_config(spec: &Spec) -> Result<serve::ServeBenchConfig, String> {
    let mut config = serve::ServeBenchConfig::default();
    if let Some((vertices, edges, seed)) = generated_dims(&spec.dataset) {
        config.vertices = vertices;
        config.edges = edges;
        config.seed = seed;
    }
    if let Some(cache) = spec.params.cache {
        config.cache_capacity = cache;
    }
    if let Some(pool) = spec.params.pool {
        config.threads = Some(pool);
    }
    if let Some(thetas) = &spec.params.thetas {
        if thetas.len() < 2 {
            return Err("serve: --thetas needs a grid of at least 2 points".to_string());
        }
        config.thetas = thetas.clone();
    }
    config.input = file_dataset(&spec.dataset);
    Ok(config)
}

/// The million-edge baseline config a spec describes.
pub fn million_config(spec: &Spec) -> Result<million::MillionBenchConfig, String> {
    let mut config = million::MillionBenchConfig::default();
    if let DatasetSpec::Ba {
        vertices,
        attach,
        seed,
    } = &spec.dataset
    {
        config.vertices = *vertices;
        config.attach = *attach;
        config.seed = *seed;
    }
    if let Some(pool) = spec.params.pool {
        config.threads = pool;
    }
    if let Some(chunk) = spec.params.chunk_edges {
        config.streaming_chunk_edges = chunk;
    }
    if let Some(thetas) = &spec.params.thetas {
        config.thetas = thetas.clone();
    }
    validate_grid("million", &config.thetas)?;
    Ok(config)
}

/// Pre-validates a θ-grid through the sweep engine so malformed grids
/// fail with the typed validation message before any work — the same
/// check (and error prefix) the subcommand arms always applied.
fn validate_grid(subcommand: &str, thetas: &[f64]) -> Result<(), String> {
    nucleus::ThetaSweep::new(nucleus::SweepConfig::exact(thetas.to_vec()))
        .map(|_| ())
        .map_err(|e| format!("{subcommand}: {e}"))
}

// ---------------------------------------------------------------------
// Headers (the exact `# experiment: …` lines the subcommands print)
// ---------------------------------------------------------------------

/// The `# experiment:` header a bench spec's run prints — reproduced
/// from the built config so the registry-driven subcommands emit the
/// same lines they always did.
pub fn header(spec: &Spec) -> Result<String, String> {
    Ok(match spec.workload {
        Workload::Parbench => {
            let config = parbench_config(spec)?;
            match &config.input {
                Some(input) => format!(
                    "# experiment: parbench  input: {} ({})  threads: {:?}  repeats: {}\n",
                    input.path.display(),
                    input.format,
                    config.threads,
                    config.repeats
                ),
                None => format!(
                    "# experiment: parbench  vertices: {}  edges: {}  threads: {:?}  repeats: {}  seed: {}\n",
                    config.vertices, config.edges, config.threads, config.repeats, config.seed
                ),
            }
        }
        Workload::Thetasweep => {
            let config = thetasweep_config(spec)?;
            match &config.input {
                Some(input) => format!(
                    "# experiment: thetasweep  rank: {}  input: {} ({})  grid: {:?}  repeats: {}\n",
                    config.rank,
                    input.path.display(),
                    input.format,
                    config.thetas,
                    config.repeats
                ),
                None => format!(
                    "# experiment: thetasweep  rank: {}  vertices: {}  edges: {}  grid: {:?}  repeats: {}  seed: {}\n",
                    config.rank,
                    config.vertices,
                    config.edges,
                    config.thetas,
                    config.repeats,
                    config.seed
                ),
            }
        }
        Workload::Updates => {
            let config = updates_config(spec)?;
            match &config.input {
                Some(input) => format!(
                    "# experiment: updates  rank: {}  input: {} ({})  grid: {:?}  batch: {}\n",
                    config.rank,
                    input.path.display(),
                    input.format,
                    config.thetas,
                    config.batch
                ),
                None => format!(
                    "# experiment: updates  rank: {}  vertices: {}  edges: {}  grid: {:?}  batch: {}  seed: {}\n",
                    config.rank,
                    config.vertices,
                    config.edges,
                    config.thetas,
                    config.batch,
                    config.seed
                ),
            }
        }
        Workload::Serve => {
            let config = serve_config(spec)?;
            match &config.input {
                Some(input) => format!(
                    "# experiment: serve --oneshot  input: {} ({})  grid: {:?}\n",
                    input.path.display(),
                    input.format,
                    config.thetas
                ),
                None => format!(
                    "# experiment: serve --oneshot  vertices: {}  edges: {}  grid: {:?}  seed: {}\n",
                    config.vertices, config.edges, config.thetas, config.seed
                ),
            }
        }
        Workload::Million => {
            let config = million_config(spec)?;
            format!(
                "# experiment: million  vertices: {}  attach: {}  (~{} edges)  threads: {}  grid: {:?}  seed: {}\n",
                config.vertices,
                config.attach,
                config.expected_edges(),
                config.threads,
                config.thetas,
                config.seed
            )
        }
        paper => format!("# experiment: {paper}\n"),
    })
}

// ---------------------------------------------------------------------
// Counter extraction
// ---------------------------------------------------------------------

/// One extraction probe into a report's JSON.
enum Probe {
    /// A single dotted path.
    Path(&'static [&'static str]),
    /// Every numeric direct child of one object (e.g. `stats`).
    AllUnder(&'static str),
}

/// The deterministic counter surface of each bench report.  Wall-clock
/// fields, `peak_rss_bytes` (process-global high-water mark) and the
/// reload/mmap speedups are environment-dependent and stay out.
fn probes(workload: Workload) -> &'static [Probe] {
    use Probe::{AllUnder, Path};
    match workload {
        Workload::Parbench => &[
            Path(&["vertices"]),
            Path(&["edges"]),
            AllUnder("counts"),
            Path(&["peel", "dp_calls"]),
            Path(&["peel", "recompute_skips"]),
            Path(&["peel", "buckets_touched"]),
            Path(&["peel", "peak_scratch_bytes"]),
            Path(&["peel", "reference_dp_calls"]),
            Path(&["peel", "max_score"]),
        ],
        Workload::Thetasweep => &[
            Path(&["vertices"]),
            Path(&["edges"]),
            AllUnder("counts"),
            Path(&["sweep", "grid_size"]),
            Path(&["sweep", "support_builds"]),
            Path(&["sweep", "independent_support_builds"]),
            Path(&["sweep", "dp_calls_total"]),
            Path(&["sweep", "independent_dp_calls_total"]),
        ],
        Workload::Updates => &[
            Path(&["vertices"]),
            Path(&["edges"]),
            Path(&["edges_after"]),
            AllUnder("batch"),
            AllUnder("repair"),
        ],
        Workload::Serve => &[Path(&["vertices"]), Path(&["edges"]), AllUnder("stats")],
        Workload::Million => &[
            Path(&["vertices"]),
            Path(&["edges"]),
            AllUnder("counts"),
            Path(&["million", "snapshot_bytes"]),
            Path(&["million", "streaming_chunk_edges"]),
            Path(&["sweep", "grid_size"]),
            Path(&["sweep", "support_builds"]),
            Path(&["sweep", "dp_calls_total"]),
        ],
        _ => &[],
    }
}

/// Runs the probe table against a parsed report.  Extraction is
/// presence-based (a missing path is skipped, not an error): the
/// committed `BENCH_matrix.json` baseline pins which counters exist,
/// and `bench-compare` regresses any that vanish.
fn extract(report: &Json, workload: Workload) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for probe in probes(workload) {
        match probe {
            Probe::Path(path) => {
                if let Some(v) = report.path(path).and_then(Json::as_f64) {
                    out.push((path.join("."), v));
                }
            }
            Probe::AllUnder(key) => {
                if let Some(Json::Obj(members)) = report.get(key) {
                    for (name, value) in members {
                        if let Some(v) = value.as_f64() {
                            out.push((format!("{key}.{name}"), v));
                        }
                    }
                }
            }
        }
    }
    out
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

/// Builds the experiment context a paper spec describes (loading the
/// external graph through the snapshot cache for `kind = "file"`).
pub fn paper_context(spec: &Spec) -> Result<ExperimentContext, String> {
    match &spec.dataset {
        DatasetSpec::Paper { scale, seed } => Ok(ExperimentContext::new(*scale, *seed)),
        DatasetSpec::File { .. } => {
            let input = file_dataset(&spec.dataset).expect("file dataset");
            let graph = input
                .load_cached()
                .map_err(|e| format!("cannot load {}: {e}", input.path.display()))?;
            Ok(ExperimentContext::new(nd_datasets::Scale::Tiny, 42)
                .with_external_graph(input.name.clone(), graph))
        }
        other => Err(format!("paper workloads cannot run on {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Execution + expectation judging
// ---------------------------------------------------------------------

/// Judges every declared expectation against the extracted counters,
/// with the same gate semantics `bench-compare` applies (expected value
/// as the baseline side, at the spec's tolerance).
fn check_expectations(spec: &Spec, counters: &[(String, f64)], failures: &mut Vec<String>) {
    for e in &spec.expect {
        let Some(&(_, actual)) = counters.iter().find(|(path, _)| *path == e.path) else {
            failures.push(format!(
                "{}: expected counter is missing from the report",
                e.path
            ));
            continue;
        };
        let (regression, _) =
            crate::compare::judge(e.gate, Some(e.value), Some(actual), spec.tolerance);
        if let Some(reason) = regression {
            failures.push(format!("{}: {reason}", e.path));
        }
    }
}

/// Executes one scenario through its driver.  `Err` means the driver
/// could not run at all (bad config, unloadable input); a run that
/// completes but misses an expectation is `Ok` with `failures`.
pub fn execute(spec: &Spec) -> Result<Executed, String> {
    let (text, raw_json, mut extra_failures) = match spec.workload {
        Workload::Parbench => {
            let config = parbench_config(spec)?;
            let report = parbench::run(&config).map_err(|e| e.to_string())?;
            (report.format(), Some(report.to_json()), Vec::new())
        }
        Workload::Thetasweep => {
            let config = thetasweep_config(spec)?;
            let report = thetasweep::run_bench(&config).map_err(|e| e.to_string())?;
            (report.format(), Some(report.to_json()), Vec::new())
        }
        Workload::Updates => {
            let config = updates_config(spec)?;
            let report = updates::run(&config).map_err(|e| e.to_string())?;
            (report.format(), Some(report.to_json()), Vec::new())
        }
        Workload::Serve => {
            let config = serve_config(spec)?;
            let report = serve::run(&config).map_err(|e| e.to_string())?;
            let mut failures = Vec::new();
            if !report.passed() {
                failures.push("serve oneshot self-test failed (see report failures)".to_string());
            }
            (report.format(), Some(report.to_json()), failures)
        }
        Workload::Million => {
            let config = million_config(spec)?;
            let report = million::run(&config);
            (report.format(), Some(report.to_json()), Vec::new())
        }
        paper => {
            let ctx = paper_context(spec)?;
            let output = run_paper(&ctx, paper);
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
    let raw = raw_json.as_deref().expect("bench drivers emit JSON");
    let report =
        Json::parse(raw).map_err(|e| format!("{}: emitted invalid JSON: {e}", spec.name))?;
    let counters = extract(&report, spec.workload);
    let mut failures = std::mem::take(&mut extra_failures);
    check_expectations(spec, &counters, &mut failures);
    Ok(Executed {
        text,
        raw_json,
        counters,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Gate;
    use crate::registry::spec;

    fn parse(text: &str) -> Spec {
        spec::parse(text).unwrap().spec
    }

    #[test]
    fn generated_specs_build_the_cli_equivalent_configs() {
        let spec = parse(
            "name = \"x\"\nworkload = \"thetasweep\"\n\n\
             [dataset]\nkind = \"generated\"\nedges = 5000\nseed = 7\n\n\
             [params]\nrank = \"truss\"\nthetas = [0.1, 0.5]\nrepeats = 2\n",
        );
        let config = thetasweep_config(&spec).unwrap();
        // Same derivation the CLI applies for --edges without --vertices.
        assert_eq!(config.vertices, 200);
        assert_eq!(config.edges, 5000);
        assert_eq!(config.seed, 7);
        assert_eq!(config.rank, nucleus::Rank::Truss);
        assert_eq!(config.thetas, vec![0.1, 0.5]);
        assert_eq!(config.repeats, 2);
        assert!(config.input.is_none());
    }

    #[test]
    fn unset_params_keep_driver_defaults() {
        let spec = parse(
            "name = \"x\"\nworkload = \"parbench\"\n\n\
             [dataset]\nkind = \"generated\"\nedges = 50000\n",
        );
        let config = parbench_config(&spec).unwrap();
        let default = parbench::ParBenchConfig::default();
        assert_eq!(config.repeats, default.repeats);
        assert_eq!(config.threads, default.threads);
        assert_eq!(config.vertices, default.vertices);
    }

    #[test]
    fn expectations_judge_with_gate_semantics() {
        let spec = parse(
            "name = \"x\"\nworkload = \"thetasweep\"\n\n\
             [dataset]\nkind = \"generated\"\nedges = 100\n\n\
             [expect]\n\"sweep.support_builds\" = 1\n\"sweep.dp_calls_total\" = 500\n\n\
             [gates]\n\"sweep.dp_calls_total\" = \"lower-is-better\"\n",
        );
        assert_eq!(spec.expect[0].gate, Gate::LowerIsBetter);
        let counters = vec![
            ("sweep.support_builds".to_string(), 1.0),
            ("sweep.dp_calls_total".to_string(), 400.0),
        ];
        let mut failures = Vec::new();
        check_expectations(&spec, &counters, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        // Exact mismatch and a lower-is-better increase both fail.
        let counters = vec![
            ("sweep.support_builds".to_string(), 2.0),
            ("sweep.dp_calls_total".to_string(), 600.0),
        ];
        let mut failures = Vec::new();
        check_expectations(&spec, &counters, &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
        // A missing counter is its own failure.
        let mut failures = Vec::new();
        check_expectations(&spec, &[], &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn headers_match_the_subcommand_format() {
        let spec = parse(
            "name = \"x\"\nworkload = \"updates\"\n\n\
             [dataset]\nkind = \"generated\"\nedges = 4000\nseed = 42\n\n\
             [params]\nrank = \"truss\"\nthetas = [0.05, 0.1, 0.3]\nbatch = 16\n",
        );
        assert_eq!(
            header(&spec).unwrap(),
            "# experiment: updates  rank: truss  vertices: 160  edges: 4000  \
             grid: [0.05, 0.1, 0.3]  batch: 16  seed: 42\n"
        );
    }
}
