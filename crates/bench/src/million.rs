//! Million-edge memory-scaling baseline (`experiments million`).
//!
//! The other benchmarks measure a 50k-edge graph where everything fits
//! comfortably; this one exists to pin down how the substrate behaves at
//! the scale the paper's real datasets start at (Table 1's Flickr has
//! 2.3M edges).  It generates a seeded power-law graph of ≥1M edges
//! (Barabási–Albert preferential attachment, uniform probabilities),
//! then measures the memory-relevant paths end to end:
//!
//! * **Snapshot round trip** — write the `.ugsnap`, reload it through
//!   the owned byte-copying decoder *and* through the zero-copy
//!   [`ugraph::io::open_snapshot`] path, asserting both graphs are
//!   bit-identical to the generated one.  `mmap_speedup` is the
//!   owned-reload time over the mmap-open time.
//! * **Triangle phase scaling** — enumeration at 1 thread and at
//!   `config.threads`, with the count asserted identical.
//! * **Streaming index build** — [`TriangleIndex::try_build_streaming`]
//!   in fixed chunks of `streaming_chunk_edges`, asserted identical to
//!   the all-at-once index, so the chunked path (whose scratch is one
//!   forward offset and one mark per vertex, whatever the chunk size) is
//!   exercised at a scale where memory matters.
//! * **Truss-rank sweep** — one [`DecompSweep`] over a small γ grid,
//!   recording the deterministic [`nucleus::PeelStats`] per threshold.
//!   Unlike `experiments thetasweep` there is no independent
//!   per-threshold rerun: at this scale the comparison engine would
//!   dominate the budget, and the sweep-vs-independent identity is
//!   already pinned by the 50k bench.
//!
//! The report (`bench-million/v2`) reuses the `counts` and `sweep`
//! objects of the parallel family with the same gates, and adds a
//! `million` object with the snapshot size (Exact — a format change
//! shows up as a byte drift), the wall figures (report-only) and the
//! process-wide [`ugraph::metrics::peak_rss_bytes`] probe
//! (bounded-factor gate).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::generators::{assign_probabilities, barabasi_albert_edges, ProbabilityModel};
use ugraph::io;
use ugraph::par::Parallelism;
use ugraph::triangles::enumerate_triangles_with;
use ugraph::{TriangleIndex, UncertainGraph};

use nucleus::{DecompSweep, Rank, SweepConfig};

use crate::compare::Gate::{Exact, LowerIsBetter, ReportOnly, WithinFactor};
use crate::json::Json;
use crate::report::{num, object, Report};
use crate::runner::Timing;

/// Wall-clock budget for the sweep phase.
const DEADLINE: Duration = Duration::from_secs(1_800);

/// Configuration of the million-edge baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MillionBenchConfig {
    /// Number of vertices of the Barabási–Albert graph.
    pub vertices: usize,
    /// Edges each new vertex attaches with (the BA `m` parameter).
    pub attach: usize,
    /// RNG seed for structure and probability generation.
    pub seed: u64,
    /// Thread count of the scaled triangle run (1-thread always runs).
    pub threads: usize,
    /// Chunk size of the streaming triangle-index build, in edges.
    pub streaming_chunk_edges: usize,
    /// The γ grid of the truss-rank sweep.
    pub thetas: Vec<f64>,
}

impl Default for MillionBenchConfig {
    /// 200_005 vertices attaching 5 edges each: 15 clique edges plus
    /// 5·199_999 attachment edges — 1_000_010 edges, just past the
    /// million-edge bar the baseline exists to hold.
    fn default() -> Self {
        MillionBenchConfig {
            vertices: 200_005,
            attach: 5,
            seed: 42,
            threads: 4,
            streaming_chunk_edges: 65_536,
            thetas: vec![0.1, 0.5],
        }
    }
}

impl MillionBenchConfig {
    /// Edge count the BA generator will produce for this configuration:
    /// a clique on `attach + 1` seed vertices plus `attach` edges per
    /// later vertex.
    pub fn expected_edges(&self) -> usize {
        let k = self.attach;
        if self.vertices <= k + 1 {
            return self.vertices * self.vertices.saturating_sub(1) / 2;
        }
        k * (k + 1) / 2 + k * (self.vertices - k - 1)
    }

    /// The `# experiment:` line the `million` subcommand prints.
    pub fn header(&self) -> String {
        format!(
            "# experiment: million  vertices: {}  attach: {}  (~{} edges)  threads: {}  \
             grid: {:?}  seed: {}\n",
            self.vertices,
            self.attach,
            self.expected_edges(),
            self.threads,
            self.thetas,
            self.seed
        )
    }
}

const GENERATOR_NAME: &str = "barabasi-albert-uniform";

/// Generates the baseline graph: BA structure, uniform probabilities in
/// `[0.2, 1.0]`, fully determined by the configuration.
pub fn generate_million_graph(config: &MillionBenchConfig) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let structure = barabasi_albert_edges(config.vertices, config.attach, &mut rng);
    assign_probabilities(
        &structure,
        config.vertices,
        &ProbabilityModel::Uniform {
            low: 0.2,
            high: 1.0,
        },
        &mut rng,
    )
}

/// Runs the baseline.  Every differential assertion (snapshot reloads,
/// parallel counts, streaming index) panics on divergence — the bench
/// doubles as a correctness check at a scale the unit tests never reach.
pub fn run(config: &MillionBenchConfig) -> Report {
    let (graph, generate_t) = Timing::measure(|| generate_million_graph(config));

    // Snapshot round trip: owned decode vs zero-copy open, both asserted
    // bit-identical to the generated graph.  The file name is unique per
    // call, because one process can run several of these at once (the
    // unit tests do) and one run's cleanup must not delete another's file.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "bench_million_{}_{}_{}.ugsnap",
        config.seed,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let (written, write_t) = Timing::measure(|| io::write_snapshot_file(&graph, &path));
    written.expect("snapshot write to the temp dir succeeds");
    let snapshot_bytes = std::fs::metadata(&path)
        .map(|m| m.len())
        .expect("snapshot file exists after writing");
    let (owned, owned_t) = Timing::measure(|| io::read_snapshot_file(&path));
    let owned = owned.expect("owned snapshot reload succeeds");
    assert_eq!(graph, owned, "owned snapshot reload diverged");
    drop(owned);
    let (mapped, mmap_t) = Timing::measure(|| io::open_snapshot(&path));
    let mapped = mapped.expect("zero-copy snapshot open succeeds");
    let mmap_used = mapped.is_mapped();
    assert_eq!(
        graph,
        *mapped.graph(),
        "zero-copy snapshot open diverged from the generated graph"
    );
    drop(mapped);
    std::fs::remove_file(&path).ok();

    // Triangle phase at 1 thread and at the configured count.
    let (tris_1t, t1) = Timing::measure(|| enumerate_triangles_with(&graph, Parallelism::fixed(1)));
    let (tris_nt, tn) =
        Timing::measure(|| enumerate_triangles_with(&graph, Parallelism::fixed(config.threads)));
    assert_eq!(
        tris_1t.len(),
        tris_nt.len(),
        "parallel triangle count diverged"
    );
    let num_triangles = tris_1t.len();
    drop(tris_nt);

    // Streaming index build in fixed chunks, asserted identical to the
    // index over the full enumeration.
    let reference = TriangleIndex::from_triangles(tris_1t);
    let streamed = TriangleIndex::try_build_streaming(&graph, config.streaming_chunk_edges)
        .expect("triangle count fits the u32 id space");
    assert_eq!(streamed.len(), reference.len(), "streaming index diverged");
    assert!(
        (0..streamed.len()).all(|i| streamed.triangle(i as u32) == reference.triangle(i as u32)),
        "streaming index diverged from the all-at-once build"
    );
    drop((reference, streamed));

    // Truss-rank sweep: one support build over the whole grid.
    let sweep_config = SweepConfig::exact(config.thetas.clone()).with_rank(Rank::Truss);
    let (index, sweep_t) = Timing::measure(|| {
        DecompSweep::compute(&graph, &sweep_config).expect("valid sweep config")
    });
    let sweep_peak_rss = ugraph::metrics::peak_rss_bytes();
    assert_eq!(index.support_builds(), 1, "sweep must build support once");
    // The thetasweep row keys, with the process's peak RSS read right
    // after the sweep (an environment probe; 0 where unsupported).
    let rows = index.points().iter().map(|point| {
        let stats = point.peel_stats();
        object([
            ("theta", num(point.config().threshold)),
            ("dp_calls", num(stats.dp_calls)),
            ("recompute_skips", num(stats.recompute_skips)),
            ("buckets_touched", num(stats.buckets_touched)),
            ("peak_scratch_bytes", num(stats.peak_scratch_bytes)),
            ("peak_rss_bytes", num(sweep_peak_rss)),
            ("max_score", num(point.max_score())),
        ])
    });
    let rows: Vec<Json> = rows.collect();

    let c = config;
    let mut r = Report::new("bench-million/v2");
    r.set("rank", Json::str("truss"));
    let source = object([
        ("kind", Json::str("generated")),
        ("generator", Json::str(GENERATOR_NAME)),
        ("requested_vertices", num(c.vertices)),
        ("attach", num(c.attach)),
        ("seed", num(c.seed)),
    ]);
    r.set("source", source);
    r.gate("vertices", graph.num_vertices(), Exact);
    r.gate("edges", graph.num_edges(), Exact);
    r.set("seed", num(c.seed));
    let available = Parallelism::Auto.num_threads();
    r.set("available_parallelism", num(available));
    r.gate("counts.triangles", num_triangles, Exact);
    // A pure function of (n, m): a format change shows up as a byte
    // drift.
    r.gate("million.snapshot_bytes", snapshot_bytes, Exact);
    let chunk = c.streaming_chunk_edges;
    r.gate("million.streaming_chunk_edges", chunk, Exact);
    // Walls and their ratios are gated by CI on a fresh run, never
    // against a baseline measured on other hardware.
    r.set("million.generate_s", num(generate_t.seconds()));
    r.gate("million.snapshot_write_s", write_t.seconds(), ReportOnly);
    r.gate("million.owned_reload_s", owned_t.seconds(), ReportOnly);
    r.gate("million.mmap_open_s", mmap_t.seconds(), ReportOnly);
    let mmap_speedup = owned_t.seconds() / mmap_t.seconds().max(1e-9);
    r.gate("million.mmap_speedup", mmap_speedup, ReportOnly);
    r.set("million.mmap_used", Json::Bool(mmap_used));
    r.set("million.threads", num(c.threads));
    r.gate("million.triangles_1t_s", t1.seconds(), ReportOnly);
    r.gate("million.triangles_nt_s", tn.seconds(), ReportOnly);
    let triangle_speedup = t1.seconds() / tn.seconds().max(1e-9);
    r.gate("million.triangle_speedup", triangle_speedup, ReportOnly);
    // Process-wide peak RSS at the end of the run (`VmHWM`).
    r.gate(
        "million.peak_rss_bytes",
        ugraph::metrics::peak_rss_bytes(),
        WithinFactor(2),
    );
    let grid = c.thetas.iter().map(|&theta| num(theta));
    r.set("sweep.grid", Json::Arr(grid.collect()));
    r.gate("sweep.grid_size", rows.len(), Exact);
    r.gate("sweep.support_builds", index.support_builds(), Exact);
    r.gate(
        "sweep.dp_calls_total",
        index.total_dp_calls(),
        LowerIsBetter,
    );
    r.gate("sweep.sweep_s", sweep_t.seconds(), ReportOnly);
    r.set(
        "sweep.deadline_exceeded",
        Json::Bool(sweep_t.exceeded(DEADLINE)),
    );
    r.set("sweep.per_theta", Json::Arr(rows));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_tagged, at, counters, num_at, parsed};

    fn tiny_config() -> MillionBenchConfig {
        MillionBenchConfig {
            vertices: 300,
            attach: 4,
            seed: 7,
            threads: 2,
            streaming_chunk_edges: 64,
            thetas: vec![0.1, 0.5],
        }
    }

    #[test]
    fn default_config_clears_the_million_edge_bar() {
        let config = MillionBenchConfig::default();
        assert!(
            config.expected_edges() >= 1_000_000,
            "default must reach 1M edges, got {}",
            config.expected_edges()
        );
    }

    #[test]
    fn expected_edges_matches_the_generator() {
        let config = tiny_config();
        let graph = generate_million_graph(&config);
        assert_eq!(graph.num_edges(), config.expected_edges());
        // And is deterministic.
        assert_eq!(graph, generate_million_graph(&config));
    }

    #[test]
    fn report_is_consistent_and_gated_paths_parse() {
        let doc = parsed(run(&tiny_config()));
        assert_eq!(num_at(&doc, "edges"), tiny_config().expected_edges() as f64);
        assert!(
            num_at(&doc, "counts.triangles") > 0.0,
            "BA graphs are triangle-rich"
        );
        assert_eq!(num_at(&doc, "sweep.support_builds"), 1.0);
        assert_eq!(num_at(&doc, "sweep.grid_size"), 2.0);
        let flag = |path| at(&doc, path).and_then(Json::as_bool);
        assert_eq!(flag("sweep.deadline_exceeded"), Some(false));
        if cfg!(target_os = "linux") {
            assert_eq!(flag("million.mmap_used"), Some(true), "mmap fell back");
            assert!(num_at(&doc, "million.peak_rss_bytes") > 0.0);
            let rows = at(&doc, "sweep.per_theta").and_then(Json::as_array);
            assert!(rows
                .unwrap()
                .iter()
                .all(|p| num_at(p, "peak_rss_bytes") > 0.0));
        }
        assert_eq!(
            at(&doc, "schema").and_then(Json::as_str),
            Some("bench-million/v2")
        );
        assert_eq!(at(&doc, "rank").and_then(Json::as_str), Some("truss"));
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = parsed(run(&tiny_config()));
        let b = parsed(run(&tiny_config()));
        assert_eq!(counters(&a).unwrap(), counters(&b).unwrap());
        let scores = |doc: &Json| {
            let rows = at(doc, "sweep.per_theta").and_then(Json::as_array);
            let rows = rows.expect("per_theta rows").iter();
            rows.map(|row| num_at(row, "max_score")).collect::<Vec<_>>()
        };
        assert_eq!(scores(&a), scores(&b));
    }

    #[test]
    fn report_compares_cleanly_against_itself() {
        let doc = parsed(run(&tiny_config()));
        let compared = crate::compare::compare(&doc, &doc, 0.0).unwrap();
        assert!(compared.regressions().is_empty(), "{}", compared.format());
    }

    #[test]
    fn report_tags_every_gated_number() {
        let doc = parsed(run(&tiny_config()));
        assert_tagged(
            &doc,
            &[
                ("vertices", Exact),
                ("edges", Exact),
                ("counts.triangles", Exact),
                ("million.snapshot_bytes", Exact),
                ("million.streaming_chunk_edges", Exact),
                ("million.snapshot_write_s", ReportOnly),
                ("million.owned_reload_s", ReportOnly),
                ("million.mmap_open_s", ReportOnly),
                ("million.mmap_speedup", ReportOnly),
                ("million.triangles_1t_s", ReportOnly),
                ("million.triangles_nt_s", ReportOnly),
                ("million.triangle_speedup", ReportOnly),
                ("million.peak_rss_bytes", WithinFactor(2)),
                ("sweep.grid_size", Exact),
                ("sweep.support_builds", Exact),
                ("sweep.dp_calls_total", LowerIsBetter),
                ("sweep.sweep_s", ReportOnly),
            ],
        );
        // The top-level vertex and edge counts are the gated ones.
        assert_eq!(doc.path(&["million", "vertices"]), None);
        assert_eq!(doc.path(&["million", "edges"]), None);
    }
}
