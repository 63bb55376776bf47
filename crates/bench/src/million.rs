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
//!   the all-at-once index, so the bounded-scratch path is exercised at
//!   a scale where the bound matters.
//! * **Truss-rank sweep** — one [`DecompSweep`] over a small γ grid,
//!   recording the deterministic [`PeelStats`] per threshold.  Unlike
//!   `experiments thetasweep` there is no independent per-threshold
//!   rerun: at this scale the comparison engine would dominate the
//!   budget, and the sweep-vs-independent identity is already pinned by
//!   the 50k bench.
//!
//! The report (`bench-million/v1`) reuses the `counts` and `sweep`
//! objects of the parallel family so `bench-compare` gates the shared
//! counters with the same table, and adds a `million` object with the
//! snapshot size (Exact — a format change shows up as a byte drift),
//! the wall figures (report-only) and the process-wide
//! [`ugraph::metrics::peak_rss_bytes`] probe (bounded-factor gate).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::generators::{assign_probabilities, barabasi_albert_edges, ProbabilityModel};
use ugraph::io;
use ugraph::par::Parallelism;
use ugraph::triangles::enumerate_triangles_with;
use ugraph::{TriangleIndex, UncertainGraph};

use nucleus::{DecompSweep, PeelStats, Rank, SweepConfig};

use crate::parbench::json_escape;
use crate::runner::{run_with_deadline, Timing};

/// Configuration of the million-edge baseline.
#[derive(Debug, Clone)]
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
    /// Wall-clock budget for the sweep phase.
    pub deadline: Duration,
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
            deadline: Duration::from_secs(1_800),
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
}

/// Counters of one sweep grid point (same keys as the thetasweep rows).
#[derive(Debug, Clone, Copy)]
pub struct MillionPerTheta {
    /// The threshold.
    pub theta: f64,
    /// Deterministic peel counters at this threshold.
    pub stats: PeelStats,
    /// The process's peak resident set size in bytes, read right after
    /// the sweep (an environment probe; 0 where unsupported).
    pub peak_rss_bytes: u64,
    /// Largest truss score at this threshold.
    pub max_score: u32,
}

/// Full report of a million-edge baseline run.
#[derive(Debug, Clone)]
pub struct MillionBenchReport {
    /// The configuration the report was produced with.
    pub config: MillionBenchConfig,
    /// Actual vertex count of the generated graph.
    pub vertices: usize,
    /// Actual edge count of the generated graph.
    pub edges: usize,
    /// Number of triangles.
    pub num_triangles: usize,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub available_parallelism: usize,
    /// Seconds to generate the graph (reported only).
    pub generate_s: f64,
    /// Size of the written `.ugsnap` file in bytes — a pure function of
    /// the vertex and edge counts, so it gates exactly.
    pub snapshot_bytes: u64,
    /// Seconds to write the snapshot.
    pub snapshot_write_s: f64,
    /// Seconds to reload it through the owned byte-copying decoder.
    pub owned_reload_s: f64,
    /// Seconds to open it through the zero-copy path.
    pub mmap_open_s: f64,
    /// Whether the open actually mapped (false: owned fallback).
    pub mmap_used: bool,
    /// Seconds of the 1-thread triangle enumeration.
    pub triangles_1t_s: f64,
    /// Seconds of the `config.threads`-thread enumeration.
    pub triangles_nt_s: f64,
    /// Deterministic truss-sweep counters, in grid order.
    pub per_theta: Vec<MillionPerTheta>,
    /// Support builds of the sweep (must be 1).
    pub support_builds: usize,
    /// Wall seconds of the sweep phase.
    pub sweep_s: f64,
    /// Whether the sweep blew its deadline.
    pub deadline_exceeded: bool,
    /// Process-wide peak RSS at the end of the run (`VmHWM`; 0 when the
    /// platform lacks the probe).
    pub peak_rss_bytes: u64,
}

impl MillionBenchReport {
    /// Owned-reload time over mmap-open time.
    pub fn mmap_speedup(&self) -> f64 {
        self.owned_reload_s / self.mmap_open_s.max(1e-9)
    }

    /// 1-thread enumeration time over the scaled run's time.
    pub fn triangle_speedup(&self) -> f64 {
        self.triangles_1t_s / self.triangles_nt_s.max(1e-9)
    }

    /// Summed `dp_calls` across the grid.
    pub fn dp_calls_total(&self) -> usize {
        self.per_theta.iter().map(|p| p.stats.dp_calls).sum()
    }

    /// Serializes the report to the `bench-million/v1` JSON schema.
    pub fn to_json(&self) -> String {
        let grid: Vec<String> = self
            .per_theta
            .iter()
            .map(|p| format!("{:.6}", p.theta))
            .collect();
        let rows: Vec<String> = self
            .per_theta
            .iter()
            .map(|p| {
                format!(
                    "      {{ \"theta\": {:.6}, \"dp_calls\": {}, \"recompute_skips\": {}, \
                     \"buckets_touched\": {}, \"peak_scratch_bytes\": {}, \
                     \"peak_rss_bytes\": {}, \"max_score\": {} }}",
                    p.theta,
                    p.stats.dp_calls,
                    p.stats.recompute_skips,
                    p.stats.buckets_touched,
                    p.stats.peak_scratch_bytes,
                    p.peak_rss_bytes,
                    p.max_score,
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"bench-million/v1\",\n  \"rank\": \"truss\",\n  \
             \"source\": {{ \"kind\": \"generated\", \
             \"generator\": \"{}\", \"requested_vertices\": {}, \
             \"attach\": {}, \"seed\": {} }},\n  \
             \"vertices\": {},\n  \"edges\": {},\n  \"seed\": {},\n  \
             \"available_parallelism\": {},\n  \
             \"counts\": {{ \"triangles\": {} }},\n  \
             \"million\": {{ \"vertices\": {}, \"edges\": {}, \
             \"snapshot_bytes\": {},\n               \
             \"streaming_chunk_edges\": {},\n               \
             \"generate_s\": {:.6}, \"snapshot_write_s\": {:.6},\n               \
             \"owned_reload_s\": {:.6}, \"mmap_open_s\": {:.6}, \
             \"mmap_speedup\": {:.3}, \"mmap_used\": {},\n               \
             \"threads\": {}, \"triangles_1t_s\": {:.6}, \
             \"triangles_nt_s\": {:.6}, \"triangle_speedup\": {:.3},\n               \
             \"peak_rss_bytes\": {} }},\n  \
             \"sweep\": {{\n    \"grid\": [ {} ],\n    \"grid_size\": {},\n    \
             \"support_builds\": {},\n    \"dp_calls_total\": {},\n    \
             \"sweep_s\": {:.6},\n    \"deadline_exceeded\": {},\n    \
             \"per_theta\": [\n{}\n    ]\n  }}\n}}\n",
            json_escape(GENERATOR_NAME),
            self.config.vertices,
            self.config.attach,
            self.config.seed,
            self.vertices,
            self.edges,
            self.config.seed,
            self.available_parallelism,
            self.num_triangles,
            self.vertices,
            self.edges,
            self.snapshot_bytes,
            self.config.streaming_chunk_edges,
            self.generate_s,
            self.snapshot_write_s,
            self.owned_reload_s,
            self.mmap_open_s,
            self.mmap_speedup(),
            self.mmap_used,
            self.config.threads,
            self.triangles_1t_s,
            self.triangles_nt_s,
            self.triangle_speedup(),
            self.peak_rss_bytes,
            grid.join(", "),
            self.per_theta.len(),
            self.support_builds,
            self.dp_calls_total(),
            self.sweep_s,
            self.deadline_exceeded,
            rows.join(",\n")
        )
    }

    /// Human-readable summary of the same measurements.
    pub fn format(&self) -> String {
        let mut out = format!(
            "million-edge baseline — {} vertices, {} edges (BA attach {}, seed {}), \
             {} triangles, host parallelism {}\n\
             snapshot: {} bytes, write {:.3}s, owned reload {:.3}s, \
             mmap open {:.3}s ({:.1}x faster{})\n\
             triangles: {:.3}s at 1 thread, {:.3}s at {} threads ({:.2}x)\n\
             peak RSS: {} bytes",
            self.vertices,
            self.edges,
            self.config.attach,
            self.config.seed,
            self.num_triangles,
            self.available_parallelism,
            self.snapshot_bytes,
            self.snapshot_write_s,
            self.owned_reload_s,
            self.mmap_open_s,
            self.mmap_speedup(),
            if self.mmap_used {
                ""
            } else {
                "; owned fallback"
            },
            self.triangles_1t_s,
            self.triangles_nt_s,
            self.config.threads,
            self.triangle_speedup(),
            self.peak_rss_bytes,
        );
        out.push_str(&format!(
            "\ntruss sweep ({} thresholds, {} support build(s), {:.3}s{}):",
            self.per_theta.len(),
            self.support_builds,
            self.sweep_s,
            if self.deadline_exceeded {
                ", DEADLINE EXCEEDED"
            } else {
                ""
            }
        ));
        for p in &self.per_theta {
            out.push_str(&format!(
                "\n  gamma {:.2}: dp_calls {}, skips {}, buckets {}, \
                 scratch peak {} bytes, max score {}",
                p.theta,
                p.stats.dp_calls,
                p.stats.recompute_skips,
                p.stats.buckets_touched,
                p.stats.peak_scratch_bytes,
                p.max_score,
            ));
        }
        out
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
pub fn run(config: &MillionBenchConfig) -> MillionBenchReport {
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
    let mut index = None;
    let mut sweep_s = f64::INFINITY;
    let (_, _, deadline_exceeded) = run_with_deadline(config.deadline, || {
        let (built, t) = Timing::measure(|| {
            DecompSweep::compute(&graph, &sweep_config).expect("valid sweep config")
        });
        sweep_s = t.seconds();
        index = Some(built);
    });
    let sweep_peak_rss = ugraph::metrics::peak_rss_bytes();
    let index = index.expect("the sweep ran");
    assert_eq!(index.support_builds(), 1, "sweep must build support once");
    let stats_grid = index.peel_stats();
    let per_theta: Vec<MillionPerTheta> = config
        .thetas
        .iter()
        .enumerate()
        .map(|(gi, &theta)| MillionPerTheta {
            theta,
            stats: stats_grid[gi],
            peak_rss_bytes: sweep_peak_rss,
            max_score: index.scores_at_index(gi).iter().copied().max().unwrap_or(0),
        })
        .collect();

    MillionBenchReport {
        config: config.clone(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        num_triangles,
        available_parallelism: Parallelism::Auto.num_threads(),
        generate_s: generate_t.seconds(),
        snapshot_bytes,
        snapshot_write_s: write_t.seconds(),
        owned_reload_s: owned_t.seconds(),
        mmap_open_s: mmap_t.seconds(),
        mmap_used,
        triangles_1t_s: t1.seconds(),
        triangles_nt_s: tn.seconds(),
        per_theta,
        support_builds: index.support_builds(),
        sweep_s,
        deadline_exceeded,
        peak_rss_bytes: ugraph::metrics::peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MillionBenchConfig {
        MillionBenchConfig {
            vertices: 300,
            attach: 4,
            seed: 7,
            threads: 2,
            streaming_chunk_edges: 64,
            thetas: vec![0.1, 0.5],
            deadline: Duration::from_secs(120),
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
        let report = run(&tiny_config());
        assert_eq!(report.edges, tiny_config().expected_edges());
        assert!(report.num_triangles > 0, "BA graphs are triangle-rich");
        assert_eq!(report.support_builds, 1);
        assert_eq!(report.per_theta.len(), 2);
        assert!(!report.deadline_exceeded);
        if cfg!(target_os = "linux") {
            assert!(report.mmap_used, "mmap open fell back to the owned path");
            assert!(report.peak_rss_bytes > 0);
            assert!(report.per_theta.iter().all(|p| p.peak_rss_bytes > 0));
        }

        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bench-million/v1\""));
        assert!(json.contains("\"rank\": \"truss\""));
        let doc = crate::json::Json::parse(&json).expect("report JSON parses");
        // Every gated path of the bench-compare table must be present.
        for path in [
            vec!["counts", "triangles"],
            vec!["million", "vertices"],
            vec!["million", "edges"],
            vec!["million", "snapshot_bytes"],
            vec!["million", "streaming_chunk_edges"],
            vec!["million", "peak_rss_bytes"],
            vec!["sweep", "support_builds"],
            vec!["sweep", "grid_size"],
            vec!["sweep", "dp_calls_total"],
        ] {
            assert!(
                doc.path(&path)
                    .and_then(crate::json::Json::as_f64)
                    .is_some(),
                "gated path {path:?} missing from the report"
            );
        }
        assert_eq!(
            doc.path(&["sweep", "support_builds"])
                .and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.path(&["million", "edges"])
                .and_then(crate::json::Json::as_f64),
            Some(report.edges as f64)
        );
        assert!(report.format().contains("truss sweep"));
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run(&tiny_config());
        let b = run(&tiny_config());
        assert_eq!(a.num_triangles, b.num_triangles);
        assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
        assert_eq!(a.dp_calls_total(), b.dp_calls_total());
        for (x, y) in a.per_theta.iter().zip(&b.per_theta) {
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.max_score, y.max_score);
        }
    }

    #[test]
    fn report_compares_cleanly_against_itself() {
        let report = run(&tiny_config());
        let doc = crate::json::Json::parse(&report.to_json()).unwrap();
        let compared = crate::compare::compare(&doc, &doc, 0.0).unwrap();
        assert!(compared.regressions().is_empty(), "{}", compared.format());
        assert_eq!(compared.generation_skew(), None);
    }
}
