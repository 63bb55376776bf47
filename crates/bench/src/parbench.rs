//! Parallel-substrate benchmark with machine-readable JSON output.
//!
//! The paper's experiments (Section 7) are dominated by triangle and
//! 4-clique enumeration and support computation; `ugraph::par` makes those
//! hot paths multi-threaded.  This module measures them at a range of
//! thread counts against the sequential baseline on a seeded random graph
//! and emits a `BENCH_parallel.json` report, so the performance trajectory
//! of the substrate becomes a tracked, diffable artifact instead of a
//! number in a PR description.
//!
//! The JSON schema (`bench-parallel/v6` — the documented field-by-field
//! reference of every bench report family lives in
//! `docs/BENCH_SCHEMAS.md`):
//!
//! ```json
//! {
//!   "schema": "bench-parallel/v6",
//!   "source": { "kind": "generated", "generator": "gnm-uniform",
//!               "requested_vertices": 2000, "requested_edges": 50000,
//!               "seed": 42 },
//!   "vertices": 5000, "edges": 50000, "seed": 42, "repeats": 3,
//!   "available_parallelism": 8,
//!   "counts": { "triangles": 16500, "four_cliques": 120 },
//!   "peel": { "theta": 0.1, "dp_calls": 8, "recompute_skips": 120,
//!             "buckets_touched": 3, "peak_scratch_bytes": 1840,
//!             "peak_rss_bytes": 73400320,
//!             "reference_dp_calls": 150, "dp_calls_saved_pct": 94.7,
//!             "max_score": 2,
//!             "method_counts": [ { "method": "DP", "count": 16500 } ],
//!             "peel_s": 0.09, "reference_peel_s": 0.15 },
//!   "baseline": { "threads": 1, "triangles_s": 0.21, "four_cliques_s": 0.26,
//!                 "support_s": 0.34, "total_s": 0.34, "speedup": 1.0,
//!                 "deadline_exceeded": false },
//!   "runs": [ { "threads": 4, "triangles_s": 0.11, ... , "speedup": 3.6,
//!               "deadline_exceeded": false } ]
//! }
//! ```
//!
//! The `peel` object carries the deterministic perf counters of the
//! ℓ-NuDecomp peeling engine ([`nucleus::PeelStats`]) next to the frozen
//! reference engine's `reference_dp_calls`; `method_counts` is emitted as
//! an array **sorted by method name** so the JSON is byte-stable (a
//! `HashMap` iteration order must never leak into a tracked artifact).
//! `experiments bench-compare` diffs two such files and gates CI on the
//! counters, never on the wall-clock fields (`*_s`, `speedup`).
//!
//! With `--input` the `source` object records the ingested file instead —
//! its path, format and probability model plus the ingestion timings
//! (text parse vs `.ugsnap` snapshot reload), so the dataset provenance
//! and the snapshot-cache speedup are part of the tracked artifact:
//!
//! ```json
//! "source": { "kind": "file", "path": "graphs/soc.txt", "format": "snap",
//!             "prob_model": "column",
//!             "ingest": { "parse_s": 1.21, "snapshot_write_s": 0.05,
//!                         "snapshot_reload_s": 0.07,
//!                         "reload_speedup": 17.3,
//!                         "snapshot_mmap_s": 0.004, "mmap_speedup": 17.5,
//!                         "mmap_used": true } }
//! ```
//!
//! Timings are best-of-`repeats` wall-clock seconds per phase.
//! `triangles_s` and `four_cliques_s` are standalone enumeration probes;
//! the support build runs its own triangle pass and 4-clique extension,
//! so `total_s` is the support build alone (`support_s`) and `speedup`
//! is the sequential `total_s` divided by the run's.  Every run is
//! guarded by a condvar-based deadline watchdog
//! ([`crate::runner::run_with_deadline`]) whose overrun flag lands in the
//! JSON rather than hanging CI.

use std::time::Duration;

use nd_datasets::ExternalDataset;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::cliques::FourCliqueEnumerator;
use ugraph::generators::{assign_probabilities, gnm_edges, ProbabilityModel};
use ugraph::io;
use ugraph::par::Parallelism;
use ugraph::triangles::enumerate_triangles_with;
use ugraph::UncertainGraph;

use nucleus::local::reference;
use nucleus::{LocalConfig, LocalNucleusDecomposition, PeelStats, SupportStructure};

use crate::runner::{format_table, run_with_deadline, Timing};

/// Configuration of the parallel-substrate benchmark.
#[derive(Debug, Clone)]
pub struct ParBenchConfig {
    /// Number of vertices of the generated G(n, m) graph.
    pub vertices: usize,
    /// Number of edges of the generated G(n, m) graph.
    pub edges: usize,
    /// RNG seed for structure and probability generation.
    pub seed: u64,
    /// Thread counts to measure (the sequential baseline always runs).
    pub threads: Vec<usize>,
    /// Repetitions per configuration; best (minimum) time is reported.
    pub repeats: usize,
    /// Wall-clock budget per measured configuration.
    pub deadline: Duration,
    /// Ingested input overriding the generator: the benchmark then also
    /// measures text-parse vs snapshot-reload and records the file as the
    /// dataset provenance.
    pub input: Option<ExternalDataset>,
}

impl Default for ParBenchConfig {
    /// 50k edges over 2k vertices (average degree 50, so triangles *and*
    /// 4-cliques are plentiful) — the scale the acceptance bar of the
    /// parallel substrate is measured at.
    fn default() -> Self {
        ParBenchConfig {
            vertices: 2_000,
            edges: 50_000,
            seed: 42,
            threads: vec![2, 4],
            repeats: 3,
            deadline: Duration::from_secs(600),
            input: None,
        }
    }
}

/// Why ingesting an `--input` file failed.  Every `experiments`
/// subcommand that takes `--input` funnels through this one type, so a
/// missing or unreadable file produces the same message and the same
/// non-zero exit no matter which subcommand it was passed to.
#[derive(Debug)]
pub enum IngestError {
    /// The input file could not be parsed or read.
    Load {
        /// The file that failed.
        path: std::path::PathBuf,
        /// The underlying parse/IO error.
        error: ugraph::GraphError,
    },
    /// A snapshot cache we just wrote failed to read back.
    SnapshotReload {
        /// The cache file that failed.
        path: std::path::PathBuf,
        /// The underlying reload error.
        error: ugraph::GraphError,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Same wording as the generic experiments' --input path, so
            // the operator-visible message is subcommand-independent.
            IngestError::Load { path, error } => {
                write!(f, "cannot load {}: {error}", path.display())
            }
            IngestError::SnapshotReload { path, error } => {
                write!(f, "cannot reload snapshot {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Wall-clock costs of ingesting the `--input` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestTimings {
    /// Seconds to parse the source file (text parse for SNAP/Konect,
    /// snapshot read when the source already is a snapshot).
    pub parse_s: f64,
    /// Seconds to write the `.ugsnap` snapshot cache.
    pub snapshot_write_s: f64,
    /// Seconds to reload the graph from that snapshot through the owned
    /// byte-copying decoder.
    pub snapshot_reload_s: f64,
    /// Seconds to open the same snapshot through
    /// [`ugraph::io::open_snapshot`], which memory-maps and borrows the
    /// sections in place when the platform allows it.
    pub snapshot_mmap_s: f64,
    /// Whether the open actually took the zero-copy mapped path (`false`
    /// means the platform or file forced the owned fallback, so
    /// `snapshot_mmap_s` measures a second owned decode).
    pub mmap_used: bool,
}

impl IngestTimings {
    /// How much faster the snapshot reload is than the original parse —
    /// the figure of merit of the snapshot cache.
    pub fn reload_speedup(&self) -> f64 {
        self.parse_s / self.snapshot_reload_s.max(1e-9)
    }

    /// How much faster the zero-copy open is than the owned decode —
    /// the figure of merit of the mmap reader.
    pub fn mmap_speedup(&self) -> f64 {
        self.snapshot_reload_s / self.snapshot_mmap_s.max(1e-9)
    }
}

/// Perf-counter measurement of the peeling engine: the production engine
/// and the frozen reference engine run on the same support structure
/// (sanity-asserting bit-identical scores on the way), so the report can
/// record the deferred engine's DP savings as a tracked number.
#[derive(Debug, Clone)]
pub struct PeelBench {
    /// θ the decomposition ran at ([`LocalConfig::default`]).
    pub theta: f64,
    /// Deterministic counters of the production engine.
    pub stats: PeelStats,
    /// The process's peak resident set size in bytes
    /// ([`ugraph::metrics::peak_rss_bytes`]), read right after the
    /// production engine's decomposition: an environment probe, not a
    /// counter (0 where the platform has no `VmHWM`).
    pub peak_rss_bytes: u64,
    /// Peeling-time score recomputations of the reference engine — the
    /// denominator of the advertised savings.
    pub reference_dp_calls: usize,
    /// Largest ℓ-nucleusness in the graph.
    pub max_score: u32,
    /// Initial-pass evaluation methods, sorted by method name so the
    /// JSON is byte-stable.
    pub method_counts: Vec<(String, usize)>,
    /// Wall-clock seconds of the production engine (reported, not gated).
    pub peel_s: f64,
    /// Wall-clock seconds of the reference engine (reported, not gated).
    pub reference_peel_s: f64,
}

impl PeelBench {
    /// Percentage of the reference engine's recomputations the deferred
    /// engine avoided (0 when the reference did none).
    pub fn dp_calls_saved_pct(&self) -> f64 {
        if self.reference_dp_calls == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.stats.dp_calls as f64 / self.reference_dp_calls as f64)
    }
}

/// Best-of-repeats wall-clock seconds for each measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTimings {
    /// Standalone triangle enumeration probe.
    pub triangles_s: f64,
    /// Standalone 4-clique enumeration probe.
    pub four_cliques_s: f64,
    /// Full support-structure construction: its own triangle pass,
    /// 4-clique extension and assembly.
    pub support_s: f64,
}

impl PhaseTimings {
    /// The support build alone.  The two enumeration probes measure work
    /// the build does itself, so adding them would count it twice.
    pub fn total_s(&self) -> f64 {
        self.support_s
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ThreadRun {
    /// Worker threads used (1 = the sequential baseline).
    pub threads: usize,
    /// Best-of-repeats phase timings.
    pub timings: PhaseTimings,
    /// Sequential total divided by this run's total.
    pub speedup: f64,
    /// `true` when the configuration blew its wall-clock budget.
    pub deadline_exceeded: bool,
}

/// Full report of a parallel-substrate benchmark run.
#[derive(Debug, Clone)]
pub struct ParBenchReport {
    /// The configuration the report was produced with.
    pub config: ParBenchConfig,
    /// Actual number of vertices of the measured graph.
    pub actual_vertices: usize,
    /// Actual number of edges of the measured graph (G(n, m) can emit
    /// slightly fewer than requested on dense inputs; files have whatever
    /// they have).
    pub actual_edges: usize,
    /// Ingestion timings when the graph came from `--input`.
    pub ingest: Option<IngestTimings>,
    /// Number of triangles of the graph.
    pub num_triangles: usize,
    /// Number of 4-cliques of the graph.
    pub num_four_cliques: usize,
    /// `std::thread::available_parallelism()` of the measuring host —
    /// needed to interpret speedups (a 1-core host cannot speed up).
    pub available_parallelism: usize,
    /// Peeling-engine perf counters (production vs reference engine).
    pub peel: PeelBench,
    /// The sequential baseline.
    pub baseline: ThreadRun,
    /// The parallel runs, in the order of `config.threads`.
    pub runs: Vec<ThreadRun>,
}

/// Generates the benchmark graph: G(n, m) structure with uniform edge
/// probabilities in `[0.2, 1.0]`, fully determined by `seed`.
pub fn generate_graph(vertices: usize, edges: usize, seed: u64) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let structure = gnm_edges(vertices, edges, &mut rng);
    assign_probabilities(
        &structure,
        vertices,
        &ProbabilityModel::Uniform {
            low: 0.2,
            high: 1.0,
        },
        &mut rng,
    )
}

fn measure_config(
    graph: &UncertainGraph,
    parallelism: Parallelism,
    repeats: usize,
    deadline: Duration,
) -> (PhaseTimings, bool, usize, usize) {
    let mut best = PhaseTimings {
        triangles_s: f64::INFINITY,
        four_cliques_s: f64::INFINITY,
        support_s: f64::INFINITY,
    };
    let mut num_triangles = 0usize;
    let mut num_cliques = 0usize;
    let ((), _total, exceeded) = run_with_deadline(deadline, || {
        for _ in 0..repeats.max(1) {
            let (tris, t1) = Timing::measure(|| enumerate_triangles_with(graph, parallelism));
            let (cliques, t2) =
                Timing::measure(|| FourCliqueEnumerator::with_parallelism(graph, parallelism));
            let (support, t3) =
                Timing::measure(|| SupportStructure::build_with(graph, parallelism));
            num_triangles = tris.len();
            num_cliques = cliques.len();
            assert_eq!(
                support.num_triangles(),
                num_triangles,
                "support structure disagrees with the triangle enumeration"
            );
            best.triangles_s = best.triangles_s.min(t1.seconds());
            best.four_cliques_s = best.four_cliques_s.min(t2.seconds());
            best.support_s = best.support_s.min(t3.seconds());
        }
    });
    (best, exceeded, num_triangles, num_cliques)
}

/// Runs the ℓ-NuDecomp peeling engine and the frozen reference engine on
/// the benchmark graph at [`LocalConfig::default`] (exact DP, θ = 0.1)
/// and returns their perf counters.  Wall times are best-of-`repeats`
/// like every other phase, so neither engine is billed for cold caches.
/// Panics if the engines disagree on a single score — the benchmark
/// doubles as a CI-enforced bit-identity check at real scale.
fn measure_peel(graph: &UncertainGraph, repeats: usize) -> PeelBench {
    let config = LocalConfig::default();
    let mut support = Some(SupportStructure::build_with(graph, Parallelism::Auto));
    let mut reference_s = f64::INFINITY;
    let mut engine_s = f64::INFINITY;
    let mut peak_rss_bytes = 0;
    let mut last = None;
    for r in 0..repeats.max(1) {
        let borrowed = support
            .as_ref()
            .expect("support consumed only on the last repeat");
        let (oracle, reference_t) = Timing::measure(|| {
            reference::decompose(borrowed, &config).expect("default config is valid")
        });
        reference_s = reference_s.min(reference_t.seconds());
        // The last repeat moves the support into the engine; earlier
        // repeats clone it *outside* the measured closure.
        let engine_input = if r + 1 == repeats.max(1) {
            support.take().expect("support still present")
        } else {
            borrowed.clone()
        };
        let (decomp, engine_t) = Timing::measure(|| {
            LocalNucleusDecomposition::with_support(engine_input, &config)
                .expect("default config is valid")
        });
        peak_rss_bytes = ugraph::metrics::peak_rss_bytes();
        engine_s = engine_s.min(engine_t.seconds());
        last = Some((decomp, oracle));
    }
    let (decomp, oracle) = last.expect("at least one repeat ran");
    assert_eq!(
        decomp.scores(),
        &oracle.scores[..],
        "peeling engine diverged from the reference implementation"
    );
    assert_eq!(decomp.initial_scores(), &oracle.initial_scores[..]);
    assert_eq!(decomp.method_counts(), &oracle.method_counts);

    let mut method_counts: Vec<(String, usize)> = decomp
        .method_counts()
        .iter()
        .map(|(m, &n)| (m.name().to_string(), n))
        .collect();
    method_counts.sort();

    PeelBench {
        theta: config.theta,
        stats: *decomp.peel_stats(),
        peak_rss_bytes,
        reference_dp_calls: oracle.dp_calls,
        max_score: decomp.max_score(),
        method_counts,
        peel_s: engine_s,
        reference_peel_s: reference_s,
    }
}

/// Ingests `config.input`, measuring text parse, snapshot-cache write and
/// snapshot reload, and verifying the reloaded graph is identical.
///
/// Sources that already are snapshots skip the cache round-trip (it would
/// measure snapshot-vs-snapshot and litter the dataset directory), and an
/// unwritable dataset directory degrades to a temp-dir cache — or, if
/// even that fails, to running the benchmark without ingest timings.
pub(crate) fn ingest(
    input: &ExternalDataset,
) -> Result<(UncertainGraph, Option<IngestTimings>), IngestError> {
    let (parsed, parse_t) = Timing::measure(|| input.load());
    let graph = parsed.map_err(|error| IngestError::Load {
        path: input.path.clone(),
        error,
    })?;
    if input.format == ugraph::InputFormat::Snapshot {
        return Ok((graph, None));
    }
    let preferred = input.snapshot_cache_path();
    let (written, write_t) = Timing::measure(|| io::write_snapshot_file(&graph, &preferred));
    let (cache, write_t) = match written {
        Ok(()) => (preferred, write_t),
        Err(_) => {
            // Read-only dataset directory (load_cached tolerates this
            // too); fall back to the temp dir before giving up.
            let fallback = std::env::temp_dir().join(
                preferred
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "parbench_cache.ugsnap".to_string()),
            );
            let (retried, retry_t) = Timing::measure(|| io::write_snapshot_file(&graph, &fallback));
            match retried {
                Ok(()) => (fallback, retry_t),
                Err(e) => {
                    eprintln!(
                        "warning: cannot write a snapshot cache for {} ({e}); \
                         benchmarking without ingest timings",
                        input.path.display()
                    );
                    return Ok((graph, None));
                }
            }
        }
    };
    let (reloaded, reload_t) = Timing::measure(|| io::read_snapshot_file(&cache));
    let reloaded = reloaded.map_err(|error| IngestError::SnapshotReload {
        path: cache.clone(),
        error,
    })?;
    assert_eq!(
        graph,
        reloaded,
        "snapshot reload of {} diverged from the parsed graph",
        input.path.display()
    );
    // Differential check of the zero-copy path: the mapped graph must be
    // bit-identical to the parsed one, and its open time is the tracked
    // figure of merit of the mmap reader.
    let (mapped, mmap_t) = Timing::measure(|| io::open_snapshot(&cache));
    let mapped = mapped.map_err(|error| IngestError::SnapshotReload {
        path: cache.clone(),
        error,
    })?;
    let mmap_used = mapped.is_mapped();
    assert_eq!(
        graph,
        *mapped.graph(),
        "zero-copy snapshot open of {} diverged from the parsed graph",
        cache.display()
    );
    Ok((
        graph,
        Some(IngestTimings {
            parse_s: parse_t.seconds(),
            snapshot_write_s: write_t.seconds(),
            snapshot_reload_s: reload_t.seconds(),
            snapshot_mmap_s: mmap_t.seconds(),
            mmap_used,
        }),
    ))
}

/// Runs the benchmark: sequential baseline first, then every requested
/// thread count, verifying on the way that the parallel results agree with
/// the sequential ones.
pub fn run(config: &ParBenchConfig) -> Result<ParBenchReport, IngestError> {
    let (graph, ingest_timings) = match &config.input {
        Some(input) => ingest(input)?,
        None => (
            generate_graph(config.vertices, config.edges, config.seed),
            None,
        ),
    };
    let (baseline_timings, baseline_exceeded, num_triangles, num_four_cliques) = measure_config(
        &graph,
        Parallelism::Sequential,
        config.repeats,
        config.deadline,
    );
    let baseline_total = baseline_timings.total_s();
    let baseline = ThreadRun {
        threads: 1,
        timings: baseline_timings,
        speedup: 1.0,
        deadline_exceeded: baseline_exceeded,
    };

    let mut runs = Vec::with_capacity(config.threads.len());
    for &threads in &config.threads {
        let (timings, exceeded, tris, cliques) = measure_config(
            &graph,
            Parallelism::fixed(threads),
            config.repeats,
            config.deadline,
        );
        assert_eq!(tris, num_triangles, "parallel triangle count diverged");
        assert_eq!(
            cliques, num_four_cliques,
            "parallel 4-clique count diverged"
        );
        let total = timings.total_s();
        runs.push(ThreadRun {
            threads,
            timings,
            speedup: if total > 0.0 {
                baseline_total / total
            } else {
                1.0
            },
            deadline_exceeded: exceeded,
        });
    }

    let peel = measure_peel(&graph, config.repeats);

    Ok(ParBenchReport {
        config: config.clone(),
        actual_vertices: graph.num_vertices(),
        actual_edges: graph.num_edges(),
        ingest: ingest_timings,
        num_triangles,
        num_four_cliques,
        available_parallelism: Parallelism::Auto.num_threads(),
        peel,
        baseline,
        runs,
    })
}

fn json_run(run: &ThreadRun) -> String {
    format!(
        "{{ \"threads\": {}, \"triangles_s\": {:.6}, \"four_cliques_s\": {:.6}, \
         \"support_s\": {:.6}, \"total_s\": {:.6}, \"speedup\": {:.3}, \
         \"deadline_exceeded\": {} }}",
        run.threads,
        run.timings.triangles_s,
        run.timings.four_cliques_s,
        run.timings.support_s,
        run.timings.total_s(),
        run.speedup,
        run.deadline_exceeded
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// the path and model fields of the provenance object.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `source` provenance object shared by the bench JSON reports
/// (`parbench` and `thetasweep`): the ingested file plus its timings, or
/// the generator parameters.
pub(crate) fn json_source_object(
    input: Option<&ExternalDataset>,
    ingest: Option<&IngestTimings>,
    requested_vertices: usize,
    requested_edges: usize,
    seed: u64,
) -> String {
    match (input, ingest) {
        (Some(input), Some(t)) => format!(
            "{{ \"kind\": \"file\", \"path\": \"{}\", \"format\": \"{}\", \
                 \"prob_model\": \"{}\",\n             \"ingest\": {{ \"parse_s\": {:.6}, \
                 \"snapshot_write_s\": {:.6}, \"snapshot_reload_s\": {:.6}, \
                 \"reload_speedup\": {:.3},\n                         \
                 \"snapshot_mmap_s\": {:.6}, \"mmap_speedup\": {:.3}, \
                 \"mmap_used\": {} }} }}",
            json_escape(&input.path.display().to_string()),
            input.format,
            json_escape(&input.probability.to_string()),
            t.parse_s,
            t.snapshot_write_s,
            t.snapshot_reload_s,
            t.reload_speedup(),
            t.snapshot_mmap_s,
            t.mmap_speedup(),
            t.mmap_used
        ),
        // Snapshot sources (or an unwritable cache) have no ingest
        // timings, but the provenance is still the file.
        (Some(input), None) => format!(
            "{{ \"kind\": \"file\", \"path\": \"{}\", \"format\": \"{}\", \
             \"prob_model\": \"{}\" }}",
            json_escape(&input.path.display().to_string()),
            input.format,
            json_escape(&input.probability.to_string()),
        ),
        (None, _) => format!(
            "{{ \"kind\": \"generated\", \"generator\": \"gnm-uniform\", \
             \"requested_vertices\": {requested_vertices}, \
             \"requested_edges\": {requested_edges}, \"seed\": {seed} }}"
        ),
    }
}

impl ParBenchReport {
    /// The `source` provenance object of the JSON report.
    fn json_source(&self) -> String {
        json_source_object(
            self.config.input.as_ref(),
            self.ingest.as_ref(),
            self.config.vertices,
            self.config.edges,
            self.config.seed,
        )
    }

    /// The `peel` perf-counter object of the JSON report.  The method
    /// counts are a sorted array — never a map in hash order — so the
    /// serialization is byte-stable across runs and toolchains.
    fn json_peel(&self) -> String {
        let methods: Vec<String> = self
            .peel
            .method_counts
            .iter()
            .map(|(name, count)| {
                format!(
                    "{{ \"method\": \"{}\", \"count\": {} }}",
                    json_escape(name),
                    count
                )
            })
            .collect();
        format!(
            "{{ \"theta\": {:.6}, \"dp_calls\": {}, \"recompute_skips\": {}, \
             \"buckets_touched\": {}, \"peak_scratch_bytes\": {}, \
             \"peak_rss_bytes\": {},\n            \
             \"reference_dp_calls\": {}, \"dp_calls_saved_pct\": {:.3}, \"max_score\": {},\n            \
             \"method_counts\": [ {} ],\n            \
             \"peel_s\": {:.6}, \"reference_peel_s\": {:.6} }}",
            self.peel.theta,
            self.peel.stats.dp_calls,
            self.peel.stats.recompute_skips,
            self.peel.stats.buckets_touched,
            self.peel.stats.peak_scratch_bytes,
            self.peel.peak_rss_bytes,
            self.peel.reference_dp_calls,
            self.peel.dp_calls_saved_pct(),
            self.peel.max_score,
            methods.join(", "),
            self.peel.peel_s,
            self.peel.reference_peel_s,
        )
    }

    /// Serializes the report to the `bench-parallel/v6` JSON schema.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("    {}", json_run(r)))
            .collect();
        format!(
            "{{\n  \"schema\": \"bench-parallel/v6\",\n  \"source\": {},\n  \
             \"vertices\": {},\n  \"edges\": {},\n  \"seed\": {},\n  \"repeats\": {},\n  \
             \"available_parallelism\": {},\n  \"counts\": {{ \"triangles\": {}, \
             \"four_cliques\": {} }},\n  \"peel\": {},\n  \"baseline\": {},\n  \
             \"runs\": [\n{}\n  ]\n}}\n",
            self.json_source(),
            self.actual_vertices,
            self.actual_edges,
            self.config.seed,
            self.config.repeats,
            self.available_parallelism,
            self.num_triangles,
            self.num_four_cliques,
            self.json_peel(),
            json_run(&self.baseline),
            runs.join(",\n")
        )
    }

    /// Human-readable table of the same measurements.
    pub fn format(&self) -> String {
        let mut rows = Vec::new();
        for run in std::iter::once(&self.baseline).chain(self.runs.iter()) {
            rows.push(vec![
                run.threads.to_string(),
                format!("{:.4}", run.timings.triangles_s),
                format!("{:.4}", run.timings.four_cliques_s),
                format!("{:.4}", run.timings.support_s),
                format!("{:.4}", run.timings.total_s()),
                format!("{:.2}x", run.speedup),
                if run.deadline_exceeded { "YES" } else { "no" }.to_string(),
            ]);
        }
        let source = match (&self.config.input, &self.ingest) {
            (Some(input), Some(t)) => format!(
                "\ningest: {} ({}, {}) — parse {:.3}s, snapshot write {:.3}s, \
                 reload {:.3}s ({:.1}x faster than parsing), \
                 mmap open {:.3}s ({:.1}x faster than the owned reload{})",
                input.path.display(),
                input.format,
                input.probability,
                t.parse_s,
                t.snapshot_write_s,
                t.snapshot_reload_s,
                t.reload_speedup(),
                t.snapshot_mmap_s,
                t.mmap_speedup(),
                if t.mmap_used { "" } else { "; owned fallback" }
            ),
            (Some(input), None) => format!(
                "\ningest: {} ({}, {})",
                input.path.display(),
                input.format,
                input.probability
            ),
            (None, _) => String::new(),
        };
        let peel = format!(
            "\npeel (theta {:.2}): dp_calls {} vs reference {} ({:.1}% saved), \
             {} skips, {} buckets, {} scratch bytes peak, max score {} — \
             {:.3}s vs {:.3}s",
            self.peel.theta,
            self.peel.stats.dp_calls,
            self.peel.reference_dp_calls,
            self.peel.dp_calls_saved_pct(),
            self.peel.stats.recompute_skips,
            self.peel.stats.buckets_touched,
            self.peel.stats.peak_scratch_bytes,
            self.peel.max_score,
            self.peel.peel_s,
            self.peel.reference_peel_s,
        );
        format!(
            "parallel substrate bench — {} vertices, {} edges (seed {}), \
             {} triangles, {} 4-cliques, host parallelism {}{}{}\n{}",
            self.actual_vertices,
            self.actual_edges,
            self.config.seed,
            self.num_triangles,
            self.num_four_cliques,
            self.available_parallelism,
            source,
            peel,
            format_table(
                &[
                    "threads",
                    "triangles_s",
                    "4cliques_s",
                    "support_s",
                    "total_s",
                    "speedup",
                    "overrun"
                ],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ParBenchConfig {
        ParBenchConfig {
            vertices: 60,
            edges: 400,
            seed: 7,
            threads: vec![2],
            repeats: 1,
            deadline: Duration::from_secs(120),
            input: None,
        }
    }

    #[test]
    fn report_is_consistent() {
        let report = run(&tiny_config()).unwrap();
        assert!(report.actual_edges > 0);
        assert!(report.num_triangles > 0);
        assert_eq!(report.baseline.threads, 1);
        assert_eq!(report.baseline.speedup, 1.0);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].threads, 2);
        assert!(report.runs[0].speedup > 0.0);
        assert!(!report.baseline.deadline_exceeded);
    }

    #[test]
    fn json_has_schema_and_parses_shape() {
        let report = run(&tiny_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bench-parallel/v6\""));
        assert!(json.contains("\"kind\": \"generated\""));
        assert!(json.contains("\"counts\""));
        assert!(json.contains("\"peel\""));
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"runs\""));
        // The report must parse with the crate's own JSON reader — the
        // bench-compare gate depends on it.
        let doc = crate::json::Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["counts", "triangles"])
                .and_then(crate::json::Json::as_f64),
            Some(report.num_triangles as f64)
        );
        assert_eq!(
            doc.path(&["peel", "dp_calls"])
                .and_then(crate::json::Json::as_f64),
            Some(report.peel.stats.dp_calls as f64)
        );
        assert_eq!(
            doc.path(&["peel", "peak_rss_bytes"])
                .and_then(crate::json::Json::as_f64),
            Some(report.peel.peak_rss_bytes as f64)
        );
        if cfg!(target_os = "linux") {
            assert!(report.peel.peak_rss_bytes > 0, "parbench reads the probe");
        }
        assert_eq!(
            doc.path(&["peel", "reference_dp_calls"])
                .and_then(crate::json::Json::as_f64),
            Some(report.peel.reference_dp_calls as f64)
        );
    }

    #[test]
    fn peel_counters_are_deterministic_and_method_counts_sorted() {
        let a = run(&tiny_config()).unwrap();
        let b = run(&tiny_config()).unwrap();
        assert_eq!(a.peel.stats, b.peel.stats);
        assert_eq!(a.peel.reference_dp_calls, b.peel.reference_dp_calls);
        assert_eq!(a.peel.method_counts, b.peel.method_counts);
        // Exact-DP default: every triangle counted once, as DP.
        assert_eq!(
            a.peel.method_counts,
            vec![("DP".to_string(), a.num_triangles)]
        );
        let sorted = {
            let mut s = a.peel.method_counts.clone();
            s.sort();
            s
        };
        assert_eq!(a.peel.method_counts, sorted);
        // The deferred engine never does more work than the reference.
        assert!(a.peel.stats.dp_calls <= a.peel.reference_dp_calls);
        assert!(a.peel.dp_calls_saved_pct() >= 0.0);
    }

    #[test]
    fn table_lists_every_run() {
        let report = run(&tiny_config()).unwrap();
        let text = report.format();
        assert!(text.contains("threads"));
        assert!(text.contains("speedup"));
        // Header + separator + baseline + one run.
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn generated_graph_is_deterministic() {
        let a = generate_graph(50, 200, 3);
        let b = generate_graph(50, 200, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn input_mode_records_provenance_and_ingest_timings() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("parbench_input_mode_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.txt");
        ugraph::io::write_edge_list_file(&generate_graph(60, 400, 7), &path).unwrap();

        let mut config = tiny_config();
        config.input = Some(nd_datasets::ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        ));
        let report = run(&config).unwrap();
        let ingest = report.ingest.expect("input mode records ingest timings");
        assert!(ingest.parse_s > 0.0);
        assert!(ingest.snapshot_reload_s > 0.0);
        assert!(ingest.snapshot_mmap_s > 0.0);
        // Linux hosts must exercise the zero-copy path, not the fallback.
        if cfg!(target_os = "linux") {
            assert!(ingest.mmap_used, "mmap open fell back to the owned path");
        }
        // The measured graph is the file's, not the generator's.
        assert_eq!(report.actual_edges, 400);

        let json = report.to_json();
        assert!(json.contains("\"kind\": \"file\""));
        assert!(json.contains("\"format\": \"snap\""));
        assert!(json.contains("\"prob_model\": \"column\""));
        assert!(json.contains("\"reload_speedup\""));
        assert!(json.contains("\"mmap_speedup\""));
        assert!(json.contains("\"mmap_used\""));
        assert!(json.contains("\"schema\": \"bench-parallel/v6\""));
        assert!(report.format().contains("ingest:"));
        assert!(report.format().contains("peel (theta"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_inputs_skip_the_cache_round_trip() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("parbench_snapshot_input_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.ugsnap");
        ugraph::io::write_snapshot_file(&generate_graph(60, 400, 7), &path).unwrap();

        let mut config = tiny_config();
        config.input = Some(nd_datasets::ExternalDataset::new(
            &path,
            InputFormat::Snapshot,
            EdgeProbabilityModel::Column,
        ));
        let report = run(&config).unwrap();
        assert!(report.ingest.is_none(), "no snapshot-vs-snapshot timing");
        assert_eq!(report.actual_edges, 400);
        // No second snapshot appears beside the source.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "dataset directory must not be littered"
        );
        // Provenance still records the file, without an ingest object.
        let json = report.to_json();
        assert!(json.contains("\"kind\": \"file\""));
        assert!(json.contains("\"format\": \"ugsnap\""));
        assert!(!json.contains("\"ingest\""), "{json}");
        assert!(report.format().contains("ingest: "));
        std::fs::remove_dir_all(&dir).ok();
    }
}
