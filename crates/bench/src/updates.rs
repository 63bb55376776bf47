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

use nucleus::{DecompSweep, Rank, SweepConfig};

use crate::compare::Gate::{Exact, LowerIsBetter};
use crate::json::Json;
use crate::report::{num, Report};
use crate::source::{GraphSource, IngestError};
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
pub fn run(config: &UpdateBenchConfig) -> Result<Report, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, 1)?;
    let sweep_config = SweepConfig::exact(config.thetas.clone()).with_rank(config.rank);
    let mut sweep = DecompSweep::compute(&graph, &sweep_config).expect("valid sweep config");

    let batch = seeded_batch(&graph, config.batch, config.seed + 1);
    let (inserts, deletes, reweights) =
        batch
            .iter()
            .fold((0usize, 0usize, 0usize), |(i, d, r), u| match u {
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
    for (point, fresh) in sweep.points().iter().zip(rebuilt.points()) {
        let (rank, theta) = (config.rank, point.config().threshold);
        assert_eq!(
            point.scores(),
            fresh.scores(),
            "repaired {rank} sweep diverged from the rebuild at threshold {theta}"
        );
        assert_eq!(
            point.initial_scores(),
            fresh.initial_scores(),
            "repaired {rank} initial scores diverged at threshold {theta}"
        );
    }
    let rebuild_dp_calls =
        config.thetas.len() * rebuilt.support().num_elements() + rebuilt.total_dp_calls();

    let c = config;
    let rep = &outcome.report;
    let mut r = Report::new("bench-updates/v2");
    r.set("rank", Json::str(c.rank.to_string()));
    r.source(&c.source, c.seed);
    r.ingest(ingest_timings.as_ref());
    r.gate("vertices", graph.num_vertices(), Exact);
    r.gate("edges", graph.num_edges(), Exact);
    r.gate("edges_after", outcome.graph.num_edges(), Exact);
    r.set("seed", num(c.seed));
    let thetas = c.thetas.iter().map(|&t| num(t));
    r.set("thetas", Json::Arr(thetas.collect()));
    r.gate("batch.inserts", inserts, Exact);
    r.gate("batch.deletes", deletes, Exact);
    r.gate("batch.reweights", reweights, Exact);
    r.gate("repair.affected_elements", rep.affected_elements, Exact);
    r.gate("repair.region_elements", rep.region_elements, Exact);
    r.gate("repair.repaired_points", rep.repaired_points, Exact);
    r.gate("repair.recomputed_points", rep.recomputed_points, Exact);
    r.gate("repair.repair_dp_calls", rep.repair_dp_calls, LowerIsBetter);
    r.gate("repair.rebuild_dp_calls", rebuild_dp_calls, Exact);
    // Score evaluations the repair spent beyond a full rebuild: 0 in
    // every committed baseline, so exact at tolerance 0 *is* the "repair
    // never costs more than a rebuild" guarantee.
    let excess = rep.repair_dp_calls.saturating_sub(rebuild_dp_calls);
    r.gate("repair.dp_calls_excess", excess, Exact);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_tagged, num_at, parsed};
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
        let doc = parsed(run(&tiny_config()).unwrap());
        for kind in ["inserts", "deletes", "reweights"] {
            assert_eq!(num_at(&doc, &format!("batch.{kind}")), 8.0, "{kind}");
        }
        assert_eq!(num_at(&doc, "edges_after"), 400.0);
        assert_eq!(num_at(&doc, "repair.repaired_points"), 3.0);
        assert_eq!(num_at(&doc, "repair.recomputed_points"), 0.0);
        // The acceptance inequality itself, at test scale.
        let repair = num_at(&doc, "repair.repair_dp_calls");
        let rebuild = num_at(&doc, "repair.rebuild_dp_calls");
        assert!(repair <= rebuild, "repair {repair} > rebuild {rebuild}");
        assert_eq!(num_at(&doc, "repair.dp_calls_excess"), 0.0);
    }

    #[test]
    fn json_has_v1_schema_and_gated_fields() {
        let json = run(&tiny_config()).unwrap().into_json();
        assert!(json.contains(r#""schema":"bench-updates/v2""#));
        assert!(json.contains(r#""rank":"truss""#));
        assert!(json.contains(r#""kind":"generated""#));
        // The emitted report self-compares clean under the gate.
        let doc = Json::parse(&json).expect("report JSON parses");
        let diff = crate::compare::compare(&doc, &doc, 0.0).unwrap();
        assert!(diff.regressions().is_empty(), "{}", diff.format());
    }

    #[test]
    fn counters_are_deterministic_across_runs_and_ranks() {
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let mut config = tiny_config();
            config.rank = rank;
            let a = run(&config).unwrap().into_json();
            assert_eq!(a, run(&config).unwrap().into_json(), "{rank}");
            let doc = Json::parse(&a).unwrap();
            assert_eq!(num_at(&doc, "repair.dp_calls_excess"), 0.0, "{rank}");
        }
    }

    #[test]
    fn report_tags_every_gated_number() {
        assert_tagged(
            &parsed(run(&tiny_config()).unwrap()),
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
