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
//! The JSON schema (`bench-parallel/v7` — the documented field-by-field
//! reference of every bench report family lives in
//! `docs/BENCH_SCHEMAS.md`), compact on one line, shown spread out:
//!
//! ```json
//! {
//!   "schema": "bench-parallel/v7",
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
//!               "deadline_exceeded": false } ],
//!   "gates": { "vertices": "exact", ..., "peel.dp_calls": "lower-is-better",
//!              "peel.peak_rss_bytes": "within-factor:2", ... }
//! }
//! ```
//!
//! The `peel` object carries the deterministic perf counters of the
//! ℓ-NuDecomp peeling engine ([`nucleus::PeelStats`]) next to the frozen
//! reference engine's `reference_dp_calls`; `method_counts` is emitted as
//! an array **sorted by method name** so the JSON is byte-stable (a
//! `HashMap` iteration order must never leak into a tracked artifact).
//! Each number's `bench-compare` gate is tagged where [`crate::report`]
//! places it; the counters gate, the wall-clock fields (`*_s`,
//! `speedup`) never do.
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
//! Timings are best-of-`repeats` wall-clock seconds per phase, the four
//! ingest steps (parse, snapshot write, owned reload, mapped open)
//! included.
//! `triangles_s` and `four_cliques_s` are standalone enumeration probes;
//! the support build runs its own triangle pass and 4-clique extension,
//! so `total_s` is the support build alone (`support_s`) and `speedup`
//! is the sequential `total_s` divided by the run's.  Every run is
//! guarded by a condvar-based deadline watchdog
//! ([`crate::runner::run_with_deadline`]) whose overrun flag lands in the
//! JSON rather than hanging CI.

use std::sync::Arc;
use std::time::Duration;

use ugraph::cliques::FourCliqueEnumerator;
use ugraph::par::Parallelism;
use ugraph::triangles::enumerate_triangles_with;
use ugraph::UncertainGraph;

use nucleus::reference;
use nucleus::{DecompConfig, DecompHandle, PeelStats, RankSupport, SupportStructure};

use crate::compare::Gate::{Exact, LowerIsBetter, ReportOnly, WithinFactor};
use crate::json::Json;
use crate::report::{num, object, Report};
use crate::runner::{format_table, run_with_deadline, Timing};
use crate::source::{GraphSource, IngestError, IngestTimings};

/// Wall-clock budget per measured configuration.
const DEADLINE: Duration = Duration::from_secs(600);

/// Configuration of the parallel-substrate benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ParBenchConfig {
    /// The measured graph.  A file's ingest is measured too (text parse
    /// vs snapshot reload) and recorded as the dataset provenance.
    pub source: GraphSource,
    /// RNG seed of a generated graph.
    pub seed: u64,
    /// Thread counts to measure (the sequential baseline always runs).
    pub threads: Vec<usize>,
    /// Repetitions per configuration; best (minimum) time is reported.
    pub repeats: usize,
}

impl Default for ParBenchConfig {
    /// The default 50k-edge graph: the scale the acceptance bar of the
    /// parallel substrate is measured at.
    fn default() -> Self {
        ParBenchConfig {
            source: GraphSource::default(),
            seed: 42,
            threads: vec![2, 4],
            repeats: 3,
        }
    }
}

impl ParBenchConfig {
    /// The `# experiment:` line the `parbench` subcommand prints.
    pub fn header(&self) -> String {
        let knobs = format!("threads: {:?}  repeats: {}", self.threads, self.repeats);
        self.source.header("parbench", &knobs, self.seed)
    }
}

/// Perf-counter measurement of the peeling engine: the production engine
/// and the frozen reference engine run on the same support structure
/// (sanity-asserting bit-identical scores on the way), so the report can
/// record the deferred engine's DP savings as a tracked number.
#[derive(Debug, Clone)]
pub struct PeelBench {
    /// θ the decomposition ran at (0.1).
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

fn measure_config(
    graph: &UncertainGraph,
    parallelism: Parallelism,
    repeats: usize,
) -> (PhaseTimings, bool, usize, usize) {
    let mut best = PhaseTimings {
        triangles_s: f64::INFINITY,
        four_cliques_s: f64::INFINITY,
        support_s: f64::INFINITY,
    };
    let mut num_triangles = 0usize;
    let mut num_cliques = 0usize;
    let ((), _total, exceeded) = run_with_deadline(DEADLINE, || {
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
/// the benchmark graph at θ = 0.1 (exact DP) and returns their perf
/// counters.  Wall times are best-of-`repeats` like every other phase,
/// so neither engine is billed for cold caches.
/// Panics if the engines disagree on a single score — the benchmark
/// doubles as a CI-enforced bit-identity check at real scale.
fn measure_peel(graph: &UncertainGraph, repeats: usize) -> PeelBench {
    let config = DecompConfig::nucleus(0.1);
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
        // repeats clone it *outside* the measured closure.  Each repeat
        // gets a fresh handle, so each builds its own tail table.
        let engine_input = if r + 1 == repeats.max(1) {
            support.take().expect("support still present")
        } else {
            borrowed.clone()
        };
        let (decomp, engine_t) = Timing::measure(|| {
            DecompHandle::from_support(Arc::new(RankSupport::Nucleus(engine_input)))
                .compute_at(&config)
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
        theta: config.threshold,
        stats: *decomp.peel_stats(),
        peak_rss_bytes,
        reference_dp_calls: oracle.dp_calls,
        max_score: decomp.max_score(),
        method_counts,
        peel_s: engine_s,
        reference_peel_s: reference_s,
    }
}

/// Runs the benchmark: sequential baseline first, then every requested
/// thread count, verifying on the way that the parallel results agree with
/// the sequential ones.
pub fn run(config: &ParBenchConfig) -> Result<ParBenchReport, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, config.repeats)?;
    let (baseline_timings, baseline_exceeded, num_triangles, num_four_cliques) =
        measure_config(&graph, Parallelism::Sequential, config.repeats);
    let baseline_total = baseline_timings.total_s();
    let baseline = ThreadRun {
        threads: 1,
        timings: baseline_timings,
        speedup: 1.0,
        deadline_exceeded: baseline_exceeded,
    };

    let mut runs = Vec::with_capacity(config.threads.len());
    for &threads in &config.threads {
        let (timings, exceeded, tris, cliques) =
            measure_config(&graph, Parallelism::fixed(threads), config.repeats);
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

impl ParBenchReport {
    /// Serializes the report to the `bench-parallel/v7` JSON schema.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let p = &self.peel;
        let mut r = Report::new("bench-parallel/v7");
        r.source(&c.source, c.seed);
        r.ingest(self.ingest.as_ref());
        r.gate("vertices", self.actual_vertices, Exact);
        r.gate("edges", self.actual_edges, Exact);
        r.set("seed", num(c.seed));
        r.set("repeats", num(c.repeats));
        r.set("available_parallelism", num(self.available_parallelism));
        r.gate("counts.triangles", self.num_triangles, Exact);
        r.gate("counts.four_cliques", self.num_four_cliques, Exact);
        r.set("peel.theta", num(p.theta));
        r.gate("peel.dp_calls", p.stats.dp_calls, LowerIsBetter);
        r.gate("peel.recompute_skips", p.stats.recompute_skips, Exact);
        r.gate("peel.buckets_touched", p.stats.buckets_touched, Exact);
        r.gate(
            "peel.peak_scratch_bytes",
            p.stats.peak_scratch_bytes,
            LowerIsBetter,
        );
        // The kernel's VmHWM probe: noisy across allocators and hosts, so
        // only gross growth fails.
        r.gate("peel.peak_rss_bytes", p.peak_rss_bytes, WithinFactor(2));
        r.gate("peel.reference_dp_calls", p.reference_dp_calls, Exact);
        r.set("peel.dp_calls_saved_pct", num(p.dp_calls_saved_pct()));
        r.gate("peel.max_score", p.max_score, Exact);
        let methods = p
            .method_counts
            .iter()
            .map(|(name, count)| object([("method", Json::str(name)), ("count", num(*count))]));
        r.set("peel.method_counts", Json::Arr(methods.collect()));
        r.gate("peel.peel_s", p.peel_s, ReportOnly);
        r.gate("peel.reference_peel_s", p.reference_peel_s, ReportOnly);
        let run = |t: &ThreadRun| {
            object([
                ("threads", num(t.threads)),
                ("triangles_s", num(t.timings.triangles_s)),
                ("four_cliques_s", num(t.timings.four_cliques_s)),
                ("support_s", num(t.timings.support_s)),
                ("total_s", num(t.timings.total_s())),
                ("speedup", num(t.speedup)),
                ("deadline_exceeded", Json::Bool(t.deadline_exceeded)),
            ])
        };
        r.set("baseline", run(&self.baseline));
        r.gate(
            "baseline.total_s",
            self.baseline.timings.total_s(),
            ReportOnly,
        );
        r.set("runs", Json::Arr(self.runs.iter().map(run).collect()));
        r.into_json()
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
        let source = match (&self.config.source, &self.ingest) {
            (GraphSource::File(input), Some(t)) => format!(
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
            (GraphSource::File(input), None) => format!(
                "\ningest: {} ({}, {})",
                input.path.display(),
                input.format,
                input.probability
            ),
            (GraphSource::Generated { .. }, _) => String::new(),
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

    use crate::source::generate_graph;

    fn tiny_config() -> ParBenchConfig {
        ParBenchConfig {
            source: GraphSource::Generated {
                vertices: 60,
                edges: 400,
            },
            seed: 7,
            threads: vec![2],
            repeats: 1,
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
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(json.contains(r#""kind":"generated""#));
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

        let input = nd_datasets::ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        let mut config = tiny_config();
        config.source = GraphSource::File(input.clone());
        let report = run(&config).unwrap();
        // The cache the ingest writes is the one the loader serves: it
        // carries the loader's tag and is reused as it stands.
        let (cache, tag) = input.snapshot_cache(&std::fs::read(&path).unwrap());
        let (_, written_tag) = ugraph::io::read_snapshot_file_tagged(&cache).unwrap();
        assert_ne!(written_tag, ugraph::io::UNTAGGED);
        assert_eq!(written_tag, tag);
        let written = std::fs::read(&cache).unwrap();
        input.load_cached().unwrap();
        assert_eq!(std::fs::read(&cache).unwrap(), written);
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
        assert!(json.contains(r#""kind":"file""#));
        assert!(json.contains(r#""format":"snap""#));
        assert!(json.contains(r#""prob_model":"column""#));
        assert!(json.contains("\"reload_speedup\""));
        assert!(json.contains("\"mmap_speedup\""));
        assert!(json.contains("\"mmap_used\""));
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(json.contains(r#""source.ingest.reload_speedup":"higher-is-better""#));
        assert!(json.contains(r#""source.ingest.mmap_speedup":"report-only""#));
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
        config.source = GraphSource::File(nd_datasets::ExternalDataset::new(
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
        assert!(json.contains(r#""kind":"file""#));
        assert!(json.contains(r#""format":"ugsnap""#));
        assert!(!json.contains("\"ingest\""), "{json}");
        assert!(report.format().contains("ingest: "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_tags_every_gated_number() {
        let json = run(&tiny_config()).unwrap().to_json();
        crate::report::assert_tagged(
            &json,
            &[
                ("vertices", Exact),
                ("edges", Exact),
                ("counts.triangles", Exact),
                ("counts.four_cliques", Exact),
                ("peel.dp_calls", LowerIsBetter),
                ("peel.recompute_skips", Exact),
                ("peel.buckets_touched", Exact),
                ("peel.peak_scratch_bytes", LowerIsBetter),
                ("peel.peak_rss_bytes", WithinFactor(2)),
                ("peel.reference_dp_calls", Exact),
                ("peel.max_score", Exact),
                ("peel.peel_s", ReportOnly),
                ("peel.reference_peel_s", ReportOnly),
                ("baseline.total_s", ReportOnly),
            ],
        );
        // Ingest tags appear only on ingested runs; the input-mode test
        // checks them there.
        assert!(!json.contains("source.ingest"), "{json}");
    }
}
