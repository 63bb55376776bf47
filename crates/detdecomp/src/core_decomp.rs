//! Deterministic k-core decomposition.
//!
//! Vertices are peeled in non-decreasing order of their *current* degree;
//! when a vertex is removed its core number is the current peeling level,
//! and the degrees of its unprocessed neighbours decrease by one.  Since
//! the (r,s)-nucleus API redesign the peel runs on the generic deferred
//! bucket-queue engine of `ugraph::rs` at rank (1,2), with a cell-counting
//! rescore; the pre-redesign Batagelj–Zaveršnik loop is frozen in
//! [`crate::reference::core_numbers`] and the two are pinned identical by
//! the differential test suite (core numbers are canonical, so any
//! correct peel order yields the same output).

use ugraph::rs::{peel_deferred, CoreSupport, RsSupport};
use ugraph::{UncertainGraph, VertexId};

/// Result of a k-core decomposition: the core number of every vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    core_numbers: Vec<u32>,
}

impl CoreDecomposition {
    /// Runs the decomposition on the structure of `graph` (probabilities
    /// are ignored).
    pub fn compute(graph: &UncertainGraph) -> Self {
        let support = CoreSupport::deterministic(graph);
        let kappa: Vec<u32> = (0..support.num_elements())
            .map(|v| support.support(v as u32) as u32)
            .collect();
        let (core_numbers, _stats) = peel_deferred(&support, kappa, |v, edge_dead| {
            support
                .cells_of(v)
                .iter()
                .filter(|&&e| !edge_dead[e as usize])
                .count() as u32
        });
        CoreDecomposition { core_numbers }
    }

    /// Core number of vertex `v`.
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.core_numbers[v as usize]
    }

    /// Core numbers of all vertices, indexed by vertex id.
    pub fn core_numbers(&self) -> &[u32] {
        &self.core_numbers
    }

    /// Largest core number in the graph (the degeneracy); `0` for an empty
    /// graph.
    pub fn max_core(&self) -> u32 {
        self.core_numbers.iter().copied().max().unwrap_or(0)
    }

    /// Vertices whose core number is at least `k`.
    pub fn vertices_in_k_core(&self, k: u32) -> Vec<VertexId> {
        self.core_numbers
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| (c >= k).then_some(v as VertexId))
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

    /// Brute-force core number: iteratively remove vertices of degree < k
    /// and check membership for each k.
    fn naive_core_numbers(graph: &UncertainGraph) -> Vec<u32> {
        let n = graph.num_vertices();
        let mut core = vec![0u32; n];
        for k in 1..=graph.max_degree() as u32 {
            let mut alive = vec![true; n];
            loop {
                let mut changed = false;
                for v in 0..n as VertexId {
                    if alive[v as usize] {
                        let deg = graph
                            .neighbors(v)
                            .iter()
                            .filter(|&&u| alive[u as usize])
                            .count();
                        if (deg as u32) < k {
                            alive[v as usize] = false;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for v in 0..n {
                if alive[v] {
                    core[v] = k;
                }
            }
        }
        core
    }

    #[test]
    fn empty_graph() {
        let g = UncertainGraph::empty(0);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.max_core(), 0);
        assert!(d.core_numbers().is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = UncertainGraph::empty(3);
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core_numbers(), &[0, 0, 0]);
    }

    #[test]
    fn complete_graph_core_numbers() {
        let g = complete(5);
        let d = CoreDecomposition::compute(&g);
        assert!(d.core_numbers().iter().all(|&c| c == 4));
        assert_eq!(d.max_core(), 4);
    }

    #[test]
    fn path_graph_core_numbers() {
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build();
        let d = CoreDecomposition::compute(&g);
        assert!(d.core_numbers().iter().all(|&c| c == 1));
    }

    #[test]
    fn clique_with_tail() {
        // K4 on {0,1,2,3} plus path 3-4-5.
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
        ] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.core_number(0), 3);
        assert_eq!(d.core_number(3), 3);
        assert_eq!(d.core_number(4), 1);
        assert_eq!(d.core_number(5), 1);
        assert_eq!(d.vertices_in_k_core(3), vec![0, 1, 2, 3]);
        assert_eq!(d.vertices_in_k_core(1).len(), 6);
    }

    #[test]
    fn matches_naive_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let edges = ugraph::generators::gnm_edges(40, 150, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            40,
            &ugraph::generators::ProbabilityModel::Constant(1.0),
            &mut rng,
        );
        let fast = CoreDecomposition::compute(&g);
        let naive = naive_core_numbers(&g);
        assert_eq!(fast.core_numbers(), naive.as_slice());
        assert_eq!(
            fast.core_numbers(),
            crate::reference::core_numbers(&g).as_slice(),
            "generic engine must match the frozen Batagelj–Zaveršnik peel"
        );
    }
}
