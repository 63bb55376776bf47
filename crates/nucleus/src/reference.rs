//! The frozen eager peeling engines, kept as oracles.
//!
//! One engine per rank of the (r,s)-nucleus family, each the
//! heap-based original its rank shipped before the generic
//! [`ugraph::rs`] engine: a `BinaryHeap<Reverse<(κ, id)>>` with lazy
//! deletion, an **eager** full score recomputation for every affected
//! element, and a fresh allocation per gather and per DP table.
//!
//! * [`decompose`] — ℓ-NuDecomp (3,4), for both scorers.  The one
//!   deliberate edit since it was frozen is `method_counts`, which counts
//!   the initial pass only (one entry per triangle), matching
//!   [`Decomposition::method_counts`](crate::Decomposition::method_counts)
//!   so the two engines report comparable values.
//! * [`eta_core_numbers`] — the probabilistic (k,η)-core (1,2).
//! * [`gamma_truss_numbers`] — the local probabilistic (k,γ)-truss (2,3).
//!
//! The core and truss engines score through [`ugraph::rs::dp::max_k`]:
//! the same pmf and tail loops and the same `scale · tail ≥ threshold`
//! cut as the DP copy they were frozen with, so their outputs are
//! unchanged.  The engines exist for two reasons:
//!
//! * **bit-identity testing**: the property suites peel random graphs
//!   with both engines and require identical scores, initial scores and
//!   method counts;
//! * **perf-counter baselines**: `experiments parbench` runs
//!   [`decompose`] next to the production engine and records
//!   `reference_dp_calls`, the denominator of the deferred engine's
//!   advertised DP savings.
//!
//! They are not part of the supported API surface and make no
//! performance claims.  Do not "improve" them — any edit here
//! invalidates the equivalence baseline.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ugraph::rs::dp;
use ugraph::{EdgeId, TriangleId, UncertainGraph, VertexId};

use crate::approx::{self, ApproxMethod};
use crate::config::ScoreMethod;
use crate::decomp::DecompConfig;
use crate::error::Result;
use crate::support::SupportStructure;

/// Output of the reference engine.
#[derive(Debug, Clone)]
pub struct ReferenceDecomposition {
    /// κ(△) before peeling, indexed by triangle id.
    pub initial_scores: Vec<u32>,
    /// ℓ-nucleusness ν(△), indexed by triangle id.
    pub scores: Vec<u32>,
    /// Evaluation method of each triangle's initial κ computation (the
    /// same initial-pass semantics the production engine reports).
    pub method_counts: HashMap<ApproxMethod, usize>,
    /// Full score recomputations performed during peeling — the eager
    /// engine's equivalent of [`PeelStats::dp_calls`](crate::PeelStats::dp_calls).
    pub dp_calls: usize,
}

/// Runs the original eager ℓ-NuDecomp peeling over a prebuilt support
/// structure, at `config`'s threshold and scoring method.
pub fn decompose(
    support: &SupportStructure,
    config: &DecompConfig,
) -> Result<ReferenceDecomposition> {
    config.validate()?;
    let theta = config.threshold;
    let nt = support.num_triangles();
    let nc = support.num_cliques();
    let mut method_counts: HashMap<ApproxMethod, usize> = HashMap::new();
    let mut dp_calls = 0usize;

    let score_of = |probs: &[f64], tri_prob: f64| -> (u32, ApproxMethod) {
        match config.method {
            ScoreMethod::DynamicProgramming => (
                dp::max_k(tri_prob, probs, theta),
                ApproxMethod::DynamicProgramming,
            ),
            ScoreMethod::Hybrid(thresholds) => {
                approx::hybrid_max_k(tri_prob, probs, theta, &thresholds)
            }
        }
    };

    // Initial κ scores over all cliques (sequential, one allocation per
    // triangle — exactly the original code path).
    let mut kappa = vec![0u32; nt];
    for t in 0..nt as TriangleId {
        let probs = support.completion_probs(t);
        let (k, method) = score_of(&probs, support.triangle_prob(t));
        kappa[t as usize] = k;
        *method_counts.entry(method).or_insert(0) += 1;
    }
    let initial_scores = kappa.clone();

    // Peeling with eager recomputation.
    let mut processed = vec![false; nt];
    let mut clique_dead = vec![false; nc];
    let mut scores = vec![0u32; nt];
    let mut heap: BinaryHeap<Reverse<(u32, TriangleId)>> = (0..nt)
        .map(|t| Reverse((kappa[t], t as TriangleId)))
        .collect();
    let mut level = 0u32;

    while let Some(Reverse((s, t))) = heap.pop() {
        let ti = t as usize;
        if processed[ti] || s != kappa[ti] {
            continue;
        }
        processed[ti] = true;
        level = level.max(s);
        scores[ti] = level;

        for &c in support.cliques_of(t) {
            if clique_dead[c as usize] {
                continue;
            }
            clique_dead[c as usize] = true;
            for &other in &support.clique(c).triangles {
                let oi = other as usize;
                if other == t || processed[oi] || kappa[oi] <= level {
                    continue;
                }
                let probs =
                    support.completion_probs_filtered(other, |cc| !clique_dead[cc as usize]);
                let (fresh, _) = score_of(&probs, support.triangle_prob(other));
                dp_calls += 1;
                let recomputed = fresh.max(level);
                if recomputed < kappa[oi] {
                    kappa[oi] = recomputed;
                    heap.push(Reverse((recomputed, other)));
                }
            }
        }
    }

    Ok(ReferenceDecomposition {
        initial_scores,
        scores,
        method_counts,
        dp_calls,
    })
}

/// η-core numbers of every vertex, computed by the frozen eager
/// heap-based peel (probabilistic Batagelj–Zaveršnik).
pub fn eta_core_numbers(graph: &UncertainGraph, eta: f64) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut alive = vec![true; n];
    let mut score = vec![0u32; n];

    let eta_degree = |graph: &UncertainGraph, v: VertexId, alive: &[bool]| -> u32 {
        let probs: Vec<f64> = graph
            .neighbor_entries(v)
            .filter(|(w, _, _)| alive[*w as usize])
            .map(|(_, p, _)| p)
            .collect();
        dp::max_k(1.0, &probs, eta)
    };

    for v in 0..n as VertexId {
        score[v as usize] = eta_degree(graph, v, &alive);
    }

    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> =
        (0..n).map(|v| Reverse((score[v], v as VertexId))).collect();
    let mut core = vec![0u32; n];
    let mut level = 0u32;

    while let Some(Reverse((s, v))) = heap.pop() {
        let vi = v as usize;
        if !alive[vi] || s != score[vi] {
            continue;
        }
        alive[vi] = false;
        level = level.max(s);
        core[vi] = level;
        for &u in graph.neighbors(v) {
            let ui = u as usize;
            if !alive[ui] {
                continue;
            }
            let new_score = eta_degree(graph, u, &alive);
            // Scores never rise above the current peeling level when
            // they are already below it.
            let new_score = new_score.max(level.min(score[ui]));
            if new_score < score[ui] {
                score[ui] = new_score;
                heap.push(Reverse((new_score, u)));
            }
        }
    }
    core
}

/// Probabilistic truss numbers of every edge, computed by the frozen
/// eager heap-based peel (Huang et al., SIGMOD 2016 convention).
pub fn gamma_truss_numbers(graph: &UncertainGraph, gamma: f64) -> Vec<u32> {
    let m = graph.num_edges();
    let mut alive = vec![true; m];
    let mut score = vec![0u32; m];

    let gamma_support = |graph: &UncertainGraph, e: EdgeId, alive: &[bool]| -> u32 {
        let edge = graph.edge(e);
        let (u, v) = (edge.u, edge.v);
        let mut wedge_probs = Vec::new();
        for w in graph.common_neighbors(u, v) {
            let euw = graph.edge_id(u, w).expect("edge exists");
            let evw = graph.edge_id(v, w).expect("edge exists");
            if alive[euw as usize] && alive[evw as usize] {
                wedge_probs.push(graph.edge(euw).p * graph.edge(evw).p);
            }
        }
        dp::max_k(edge.p, &wedge_probs, gamma)
    };

    for (e, s) in score.iter_mut().enumerate() {
        *s = gamma_support(graph, e as EdgeId, &alive);
    }

    let mut heap: BinaryHeap<Reverse<(u32, EdgeId)>> =
        (0..m).map(|e| Reverse((score[e], e as EdgeId))).collect();
    let mut truss = vec![0u32; m];
    let mut level = 0u32;

    while let Some(Reverse((s, e))) = heap.pop() {
        let ei = e as usize;
        if !alive[ei] || s != score[ei] {
            continue;
        }
        alive[ei] = false;
        level = level.max(s);
        truss[ei] = level;
        let edge = graph.edge(e);
        let (u, v) = (edge.u, edge.v);
        for w in graph.common_neighbors(u, v) {
            let euw = graph.edge_id(u, w).expect("edge exists");
            let evw = graph.edge_id(v, w).expect("edge exists");
            if !alive[euw as usize] || !alive[evw as usize] {
                continue;
            }
            for f in [euw, evw] {
                let fi = f as usize;
                if score[fi] > level {
                    let new_score = gamma_support(graph, f, &alive).max(level);
                    if new_score < score[fi] {
                        score[fi] = new_score;
                        heap.push(Reverse((new_score, f)));
                    }
                }
            }
        }
    }
    truss
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn complete(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn reference_core_matches_known_values() {
        // Certain K5: every vertex has deterministic core number 4.
        let core = eta_core_numbers(&complete(5, 1.0), 0.5);
        assert_eq!(core, vec![4; 5]);
    }

    #[test]
    fn reference_truss_matches_known_values() {
        // Certain K5: every edge sits in 3 triangles (support convention).
        let truss = gamma_truss_numbers(&complete(5, 1.0), 0.5);
        assert_eq!(truss, vec![3; 10]);
    }
}
