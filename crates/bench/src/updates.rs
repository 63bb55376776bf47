//! Incremental-update benchmark (`experiments updates`): repair vs
//! rebuild after a seeded edge-update batch, as machine-readable
//! `bench-updates/v2` JSON.
//!
//! The tentpole claim of the incremental-maintenance path is that
//! [`DecompSweep::apply_updates`] answers an edge-update batch with a
//! bounded re-peel — fresh score evaluations for the affected set only,
//! a region-local peel — while staying bit-identical to a from-scratch
//! sweep on the updated graph.  This module makes both halves of the
//! claim CI-gateable:
//!
//! * the repaired sweep's scores and initial scores are asserted equal
//!   to a fresh [`DecompSweep::compute`] on the updated graph at every
//!   grid point (the benchmark doubles as a differential check at real
//!   scale, like the thetasweep bench), and
//! * the deterministic work counters are emitted side by side:
//!   `repair_dp_calls` (score evaluations the repair spent, initial +
//!   peel, summed over the grid) vs `rebuild_dp_calls` (what the fresh
//!   sweep spent: `grid · elements` initial evaluations plus its peel
//!   recomputations), plus `dp_calls_excess = max(0, repair − rebuild)`.
//!   Every committed baseline has excess 0, and `bench-compare` gates
//!   the field Exact at tolerance 0 — so "repair never does more work
//!   than rebuild" is enforced on every CI run, and `repair_dp_calls`
//!   itself must never increase.
//!
//! ```json
//! {
//!   "schema": "bench-updates/v2",
//!   "rank": "truss",
//!   "source": { "kind": "generated", ... },
//!   "vertices": 2000, "edges": 50000, "edges_after": 50000, "seed": 42,
//!   "thetas": [ 0.02, 0.05, 0.1, 0.25, 0.5 ],
//!   "batch": { "inserts": 64, "deletes": 64, "reweights": 64 },
//!   "repair": { "affected_elements": 931, "region_elements": 1210,
//!               "repaired_points": 5, "recomputed_points": 0,
//!               "repair_dp_calls": 5063, "rebuild_dp_calls": 251172,
//!               "dp_calls_excess": 0 },
//!   "gates": { "vertices": "exact", ...,
//!              "repair.repair_dp_calls": "lower-is-better", ... }
//! }
//! ```
//!
//! Wall-clock timings are deliberately absent, like the serve report:
//! every field diffs at tolerance 0.

use std::collections::HashSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ugraph::{EdgeUpdate, UncertainGraph, VertexId};

use nucleus::{DecompSweep, Rank, SweepConfig, UpdateReport};

use crate::compare::Gate::{Exact, LowerIsBetter};
use crate::json::Json;
use crate::report::{num, Report};
use crate::source::{GraphSource, IngestError, IngestTimings};
use crate::thetasweep::DEFAULT_GRID;

/// Configuration of the incremental-update benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBenchConfig {
    /// The (r,s) rank to maintain: core, truss or nucleus.
    pub rank: Rank,
    /// The graph the batch applies to (a file's ingest is timed as in
    /// `parbench`).
    pub source: GraphSource,
    /// RNG seed of a generated graph; the batch is drawn from an
    /// independent stream seeded `seed + 1`, whatever the source.
    pub seed: u64,
    /// The threshold grid the sweep maintains across the update.
    pub thetas: Vec<f64>,
    /// Target number of updates *per operation kind* (clamped on small
    /// or saturated graphs; the report records the realized sizes).
    pub batch: usize,
}

impl Default for UpdateBenchConfig {
    /// The graph of the parbench/thetasweep/serve defaults, so every
    /// report describes the same workload.  The truss rank is the
    /// default: its elements are the edges the batch touches directly,
    /// the densest interplay between batch and damage region.
    fn default() -> Self {
        UpdateBenchConfig {
            rank: Rank::Truss,
            source: GraphSource::default(),
            seed: 42,
            thetas: DEFAULT_GRID.to_vec(),
            batch: 64,
        }
    }
}

impl UpdateBenchConfig {
    /// The `# experiment:` line the `updates` subcommand prints.
    pub fn header(&self) -> String {
        let knobs = format!("grid: {:?}  batch: {}", self.thetas, self.batch);
        let experiment = format!("updates  rank: {}", self.rank);
        self.source.header(&experiment, &knobs, self.seed)
    }
}

/// Full report of an update-benchmark run.
#[derive(Debug, Clone)]
pub struct UpdateBenchReport {
    /// The configuration the report was produced with.
    pub config: UpdateBenchConfig,
    /// Actual vertex count of the measured graph.
    pub actual_vertices: usize,
    /// Actual edge count before the batch.
    pub actual_edges: usize,
    /// Edge count after the batch.
    pub edges_after: usize,
    /// Ingestion timings when the graph came from `--input`.
    pub ingest: Option<IngestTimings>,
    /// Realized insert count of the batch.
    pub inserts: usize,
    /// Realized delete count of the batch.
    pub deletes: usize,
    /// Realized reweight count of the batch.
    pub reweights: usize,
    /// The repair's deterministic counters.
    pub report: UpdateReport,
    /// What the verifying rebuild spent: `grid · elements` initial
    /// score evaluations plus its peeling recomputations.
    pub rebuild_dp_calls: usize,
}

impl UpdateBenchReport {
    /// Score evaluations the repair spent beyond a full rebuild — 0
    /// whenever the bounded re-peel actually pays off, and the Exact
    /// `bench-compare` gate keeping it that way.
    pub fn dp_calls_excess(&self) -> usize {
        self.report
            .repair_dp_calls
            .saturating_sub(self.rebuild_dp_calls)
    }

    /// Serializes the report to the `bench-updates/v2` JSON schema.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let rep = &self.report;
        let mut r = Report::new("bench-updates/v2");
        r.set("rank", Json::str(c.rank.to_string()));
        r.source(&c.source, c.seed);
        r.ingest(self.ingest.as_ref());
        r.gate("vertices", self.actual_vertices, Exact);
        r.gate("edges", self.actual_edges, Exact);
        r.gate("edges_after", self.edges_after, Exact);
        r.set("seed", num(c.seed));
        let thetas = c.thetas.iter().map(|&t| num(t));
        r.set("thetas", Json::Arr(thetas.collect()));
        r.gate("batch.inserts", self.inserts, Exact);
        r.gate("batch.deletes", self.deletes, Exact);
        r.gate("batch.reweights", self.reweights, Exact);
        r.gate("repair.affected_elements", rep.affected_elements, Exact);
        r.gate("repair.region_elements", rep.region_elements, Exact);
        r.gate("repair.repaired_points", rep.repaired_points, Exact);
        r.gate("repair.recomputed_points", rep.recomputed_points, Exact);
        r.gate("repair.repair_dp_calls", rep.repair_dp_calls, LowerIsBetter);
        r.gate("repair.rebuild_dp_calls", self.rebuild_dp_calls, Exact);
        // 0 in every committed baseline: exact at tolerance 0 *is* the
        // "repair never costs more than a rebuild" guarantee.
        r.gate("repair.dp_calls_excess", self.dp_calls_excess(), Exact);
        r.into_json()
    }

    /// Human-readable summary of the same run.
    pub fn format(&self) -> String {
        format!(
            "{} update bench — {} vertices, {} edges -> {} after batch \
             ({} inserts, {} deletes, {} reweights), grid {:?}\n\
             damage: {} affected elements, {} re-peeled (region)\n\
             work: repair {} dp_calls vs rebuild {} ({}x saved, excess {})\n\
             bit-identity vs fresh sweep on the updated graph: verified at every grid point",
            self.config.rank,
            self.actual_vertices,
            self.actual_edges,
            self.edges_after,
            self.inserts,
            self.deletes,
            self.reweights,
            self.config.thetas,
            self.report.affected_elements,
            self.report.region_elements,
            self.report.repair_dp_calls,
            self.rebuild_dp_calls,
            self.rebuild_dp_calls / self.report.repair_dp_calls.max(1),
            self.dp_calls_excess(),
        )
    }
}

/// Draws a valid-by-construction batch against `graph` from a dedicated
/// RNG stream: `batch` deletes and `batch` reweights over distinct
/// existing edges, `batch` inserts of fresh non-edges (clamped when the
/// graph is small or near-complete).  Every touched pair is distinct, so
/// the batch is valid in any order and its net effect is exactly its
/// face value.
pub fn seeded_batch(graph: &UncertainGraph, batch: usize, seed: u64) -> Vec<EdgeUpdate> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = graph.num_vertices();
    let edges = graph.edges();
    let existing: HashSet<(VertexId, VertexId)> = edges.iter().map(|e| (e.u, e.v)).collect();

    // Deletes and reweights: a seeded sample of distinct edge indices,
    // first half deleted, second half reweighted.
    let per_kind = batch.min(edges.len() / 4);
    let mut picked = HashSet::new();
    let mut updates = Vec::new();
    while picked.len() < 2 * per_kind {
        let i = rng.gen_range(0..edges.len());
        if !picked.insert(i) {
            continue;
        }
        let e = &edges[i];
        if picked.len() <= per_kind {
            updates.push(EdgeUpdate::Delete { u: e.u, v: e.v });
        } else {
            // Exact binary halving: survives the f64 wire round-trip and
            // stays within (0, 1].
            updates.push(EdgeUpdate::Reweight {
                u: e.u,
                v: e.v,
                p: e.p * 0.5,
            });
        }
    }

    // Inserts: rejection-sample fresh non-edges.  The attempt budget
    // only binds on near-complete graphs, where fewer inserts are fine.
    let mut fresh = HashSet::new();
    let mut attempts = 0usize;
    while fresh.len() < per_kind && attempts < 64 * batch.max(1) {
        attempts += 1;
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        let (a, b) = (u.min(v), u.max(v));
        if a == b || existing.contains(&(a, b)) || !fresh.insert((a, b)) {
            continue;
        }
        updates.push(EdgeUpdate::Insert {
            u: a,
            v: b,
            p: rng.gen_range(0.2..=0.9),
        });
    }
    updates
}

/// Runs the benchmark: build the sweep, apply the seeded batch through
/// the incremental path, rebuild from scratch on the updated graph,
/// assert bit-identity at every grid point, and report both sides' work
/// counters.
///
/// Panics if the repaired sweep and the fresh rebuild disagree on a
/// single score or initial score — the benchmark doubles as a
/// CI-enforced differential check at real scale.
pub fn run(config: &UpdateBenchConfig) -> Result<UpdateBenchReport, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, 1)?;
    let sweep_config = SweepConfig::exact(config.thetas.clone()).with_rank(config.rank);
    let mut sweep = DecompSweep::compute(&graph, &sweep_config).expect("valid sweep config");

    let batch = seeded_batch(&graph, config.batch, config.seed + 1);
    let (inserts, deletes, reweights) = batch.iter().fold((0, 0, 0), |(i, d, r), u| match u {
        EdgeUpdate::Insert { .. } => (i + 1, d, r),
        EdgeUpdate::Delete { .. } => (i, d + 1, r),
        EdgeUpdate::Reweight { .. } => (i, d, r + 1),
    });
    let outcome = sweep
        .apply_updates(&graph, &batch)
        .expect("seeded batch is valid by construction");

    // The verifying rebuild: one fresh sweep on the updated graph.  Its
    // total score evaluations are `grid · elements` initial passes plus
    // the peel's recomputations.
    let rebuilt = DecompSweep::compute(&outcome.graph, &sweep_config).expect("valid sweep config");
    for gi in 0..config.thetas.len() {
        assert_eq!(
            sweep.scores_at_index(gi),
            rebuilt.scores_at_index(gi),
            "repaired {} sweep diverged from the rebuild at threshold {}",
            config.rank,
            config.thetas[gi]
        );
        assert_eq!(
            sweep.initial_scores_at_index(gi),
            rebuilt.initial_scores_at_index(gi),
            "repaired {} initial scores diverged at threshold {}",
            config.rank,
            config.thetas[gi]
        );
    }
    let rebuild_dp_calls = config.thetas.len() * rebuilt.num_elements() + rebuilt.total_dp_calls();

    Ok(UpdateBenchReport {
        config: config.clone(),
        actual_vertices: graph.num_vertices(),
        actual_edges: graph.num_edges(),
        edges_after: outcome.graph.num_edges(),
        ingest: ingest_timings,
        inserts,
        deletes,
        reweights,
        report: outcome.report,
        rebuild_dp_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::source::generate_graph;

    fn tiny_config() -> UpdateBenchConfig {
        UpdateBenchConfig {
            rank: Rank::Truss,
            source: GraphSource::Generated {
                vertices: 60,
                edges: 400,
            },
            seed: 7,
            thetas: vec![0.05, 0.1, 0.3],
            batch: 8,
        }
    }

    #[test]
    fn seeded_batch_is_valid_and_deterministic() {
        let graph = generate_graph(60, 400, 7);
        let a = seeded_batch(&graph, 8, 8);
        let b = seeded_batch(&graph, 8, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.endpoints(), y.endpoints());
            assert_eq!(x.op(), y.op());
        }
        assert_eq!(a.len(), 24, "8 deletes + 8 reweights + 8 inserts");
        // Valid against the graph: the net-delta application accepts it.
        ugraph::apply_edge_updates(&graph, &a).expect("batch is valid");
        // Every touched pair is distinct.
        let pairs: HashSet<_> = a.iter().map(EdgeUpdate::endpoints).collect();
        assert_eq!(pairs.len(), a.len());
    }

    #[test]
    fn report_is_bit_identical_and_repair_beats_rebuild() {
        let report = run(&tiny_config()).unwrap();
        assert_eq!(report.inserts, 8);
        assert_eq!(report.deletes, 8);
        assert_eq!(report.reweights, 8);
        assert_eq!(report.edges_after, 400);
        assert_eq!(report.report.repaired_points, 3);
        assert_eq!(report.report.recomputed_points, 0);
        // The acceptance inequality itself, at test scale.
        assert!(
            report.report.repair_dp_calls <= report.rebuild_dp_calls,
            "repair {} > rebuild {}",
            report.report.repair_dp_calls,
            report.rebuild_dp_calls
        );
        assert_eq!(report.dp_calls_excess(), 0);
        assert!(report.format().contains("bit-identity"));
    }

    #[test]
    fn json_has_v1_schema_and_gated_fields() {
        let report = run(&tiny_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains(r#""schema":"bench-updates/v2""#));
        assert!(json.contains(r#""rank":"truss""#));
        assert!(json.contains(r#""kind":"generated""#));
        let doc = Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["batch", "deletes"]).and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(
            doc.path(&["repair", "dp_calls_excess"])
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            doc.path(&["repair", "repair_dp_calls"])
                .and_then(Json::as_f64),
            Some(report.report.repair_dp_calls as f64)
        );
        assert_eq!(
            doc.path(&["repair", "rebuild_dp_calls"])
                .and_then(Json::as_f64),
            Some(report.rebuild_dp_calls as f64)
        );
        // The emitted report self-compares clean under the gate.
        let diff = crate::compare::compare(&doc, &doc, 0.0).unwrap();
        assert!(diff.regressions().is_empty(), "{}", diff.format());
    }

    #[test]
    fn counters_are_deterministic_across_runs_and_ranks() {
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let mut config = tiny_config();
            config.rank = rank;
            let a = run(&config).unwrap();
            let b = run(&config).unwrap();
            assert_eq!(a.report, b.report, "{rank}");
            assert_eq!(a.to_json(), b.to_json(), "{rank}");
            assert!(a.report.repair_dp_calls <= a.rebuild_dp_calls, "{rank}");
        }
    }

    #[test]
    fn report_tags_every_gated_number() {
        let json = run(&tiny_config()).unwrap().to_json();
        crate::report::assert_tagged(
            &json,
            &[
                ("vertices", Exact),
                ("edges", Exact),
                ("edges_after", Exact),
                ("batch.inserts", Exact),
                ("batch.deletes", Exact),
                ("batch.reweights", Exact),
                ("repair.affected_elements", Exact),
                ("repair.region_elements", Exact),
                ("repair.repaired_points", Exact),
                ("repair.recomputed_points", Exact),
                ("repair.repair_dp_calls", LowerIsBetter),
                ("repair.rebuild_dp_calls", Exact),
                ("repair.dp_calls_excess", Exact),
            ],
        );
    }
}
