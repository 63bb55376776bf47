//! Deterministic k-truss decomposition.
//!
//! The *support* of an edge is the number of triangles containing it.  A
//! k-truss is a maximal subgraph in which every edge has support ≥ k
//! (support convention, matching `k-(2,3)`-nucleus).  The decomposition
//! assigns every edge its *truss number*: the largest `k` such that the
//! edge belongs to a k-truss.
//!
//! The algorithm is the classic support-peeling: repeatedly remove an edge
//! of minimum current support; its truss number is that support; removing
//! it destroys the triangles through it.  Since the (r,s)-nucleus API
//! redesign the peel runs on the generic deferred bucket-queue engine of
//! `ugraph::rs` at rank (2,3), with a cell-counting rescore; the
//! pre-redesign eager heap loop is frozen in
//! [`crate::reference::truss_numbers`] and the two are pinned identical
//! by the differential test suite (truss numbers are canonical, so any
//! correct peel order yields the same output).

use ugraph::rs::{peel_deferred, RsSupport, TrussSupport};
use ugraph::{EdgeId, Parallelism, UncertainGraph};

/// Result of a k-truss decomposition: the truss number of every edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrussDecomposition {
    truss_numbers: Vec<u32>,
}

impl TrussDecomposition {
    /// Runs the decomposition on the structure of `graph`.
    pub fn compute(graph: &UncertainGraph) -> Self {
        let support = TrussSupport::deterministic(graph, Parallelism::Sequential);
        let kappa: Vec<u32> = (0..support.num_elements())
            .map(|e| support.support(e as u32) as u32)
            .collect();
        let (truss_numbers, _stats) = peel_deferred(&support, kappa, |e, triangle_dead| {
            support
                .cells_of(e)
                .iter()
                .filter(|&&t| !triangle_dead[t as usize])
                .count() as u32
        });
        TrussDecomposition { truss_numbers }
    }

    /// Truss number of edge `e`.
    pub fn truss_number(&self, e: EdgeId) -> u32 {
        self.truss_numbers[e as usize]
    }

    /// Truss numbers of all edges, indexed by edge id.
    pub fn truss_numbers(&self) -> &[u32] {
        &self.truss_numbers
    }

    /// Largest truss number in the graph; `0` when triangle-free or empty.
    pub fn max_truss(&self) -> u32 {
        self.truss_numbers.iter().copied().max().unwrap_or(0)
    }

    /// Edges whose truss number is at least `k`.
    pub fn edges_in_k_truss(&self, k: u32) -> Vec<EdgeId> {
        self.truss_numbers
            .iter()
            .enumerate()
            .filter_map(|(e, &t)| (t >= k).then_some(e as EdgeId))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn complete(n: u32) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
        b.build()
    }

    /// Brute-force truss numbers by repeated subgraph filtering.
    fn naive_truss_numbers(graph: &UncertainGraph) -> Vec<u32> {
        let m = graph.num_edges();
        let mut truss = vec![0u32; m];
        let max_possible = graph.max_degree() as u32;
        for k in 1..=max_possible {
            let mut alive: Vec<bool> = vec![true; m];
            loop {
                let mut changed = false;
                for e in 0..m {
                    if !alive[e] {
                        continue;
                    }
                    let edge = graph.edge(e as EdgeId);
                    let sup = graph
                        .common_neighbors(edge.u, edge.v)
                        .iter()
                        .filter(|&&w| {
                            let euw = graph.edge_id(edge.u, w).unwrap();
                            let evw = graph.edge_id(edge.v, w).unwrap();
                            alive[euw as usize] && alive[evw as usize]
                        })
                        .count() as u32;
                    if sup < k {
                        alive[e] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for e in 0..m {
                if alive[e] {
                    truss[e] = k;
                }
            }
        }
        truss
    }

    #[test]
    fn complete_graph_truss() {
        // In K5 every edge is in 3 triangles.
        let g = complete(5);
        let d = TrussDecomposition::compute(&g);
        assert!(d.truss_numbers().iter().all(|&t| t == 3));
        assert_eq!(d.max_truss(), 3);
    }

    #[test]
    fn triangle_free_graph_has_zero_truss() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        let d = TrussDecomposition::compute(&g);
        assert!(d.truss_numbers().iter().all(|&t| t == 0));
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::empty(4);
        let d = TrussDecomposition::compute(&g);
        assert_eq!(d.max_truss(), 0);
        assert!(d.truss_numbers().is_empty());
    }

    #[test]
    fn clique_with_pendant_triangle() {
        // K4 {0,1,2,3} plus triangle {3,4,5}.
        let mut b = GraphBuilder::new();
        for &(u, v) in &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (3, 5),
        ] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        let d = TrussDecomposition::compute(&g);
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(
                d.truss_number(g.edge_id(u, v).unwrap()),
                2,
                "edge ({u},{v})"
            );
        }
        for &(u, v) in &[(3, 4), (4, 5), (3, 5)] {
            assert_eq!(
                d.truss_number(g.edge_id(u, v).unwrap()),
                1,
                "edge ({u},{v})"
            );
        }
        assert_eq!(d.edges_in_k_truss(2).len(), 6);
        assert_eq!(d.edges_in_k_truss(1).len(), 9);
    }

    #[test]
    fn matches_naive_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let edges = ugraph::generators::gnm_edges(30, 120, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            30,
            &ugraph::generators::ProbabilityModel::Constant(1.0),
            &mut rng,
        );
        let fast = TrussDecomposition::compute(&g);
        let naive = naive_truss_numbers(&g);
        assert_eq!(fast.truss_numbers(), naive.as_slice());
        assert_eq!(
            fast.truss_numbers(),
            crate::reference::truss_numbers(&g).as_slice(),
            "generic engine must match the frozen eager heap peel"
        );
    }
}
