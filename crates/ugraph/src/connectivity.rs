//! Connectivity utilities: disjoint-set union (union-find) and connected
//! components over vertex or edge subsets.
//!
//! Every decomposition in this workspace reports *maximal connected*
//! subgraphs, so connectivity checks are on the hot path of the nuclei,
//! core and truss extraction code in `nucleus`.

use crate::graph::{UncertainGraph, VertexId};

/// Disjoint-set union with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates a structure over `n` singleton elements `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently tracked.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of the set containing `x` (with path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets containing `a` and `b`; returns `true` when they
    /// were previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// `true` when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all elements by representative, returning only groups that
    /// satisfy `keep` on the element id (useful for restricting to a
    /// subset of active elements).
    pub fn groups_filtered<F>(&mut self, keep: F) -> Vec<Vec<u32>>
    where
        F: Fn(u32) -> bool,
    {
        let n = self.len();
        let mut by_root: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for x in 0..n as u32 {
            if keep(x) {
                let r = self.find(x);
                by_root.entry(r).or_default().push(x);
            }
        }
        let mut groups: Vec<Vec<u32>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Groups all elements by representative.
    pub fn groups(&mut self) -> Vec<Vec<u32>> {
        self.groups_filtered(|_| true)
    }
}

/// Connected components of an [`UncertainGraph`], computed structurally
/// (edge probabilities are ignored).
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    /// `component[v]` is the component index of vertex `v`.
    component: Vec<usize>,
    /// Number of components.
    count: usize,
}

impl ConnectedComponents {
    /// Computes components over the whole graph.
    pub fn new(graph: &UncertainGraph) -> Self {
        Self::over_vertices(graph, |_| true)
    }

    /// Computes components of the subgraph induced by vertices satisfying
    /// `include`.  Excluded vertices are assigned `usize::MAX`.
    pub fn over_vertices<F>(graph: &UncertainGraph, include: F) -> Self
    where
        F: Fn(VertexId) -> bool,
    {
        let n = graph.num_vertices();
        let mut component = vec![usize::MAX; n];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for start in 0..n as VertexId {
            if !include(start) || component[start as usize] != usize::MAX {
                continue;
            }
            component[start as usize] = count;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &w in graph.neighbors(v) {
                    if include(w) && component[w as usize] == usize::MAX {
                        component[w as usize] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        ConnectedComponents { component, count }
    }

    /// Number of connected components (of the included vertices).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component index of `v`, or `None` for excluded vertices.
    pub fn component_of(&self, v: VertexId) -> Option<usize> {
        let c = self.component[v as usize];
        if c == usize::MAX {
            None
        } else {
            Some(c)
        }
    }

    /// `true` when every included vertex is in one component and at least
    /// one vertex was included.
    pub fn is_connected(&self) -> bool {
        self.count == 1
    }

    /// Vertices of each component, sorted by component index.
    pub fn vertex_sets(&self) -> Vec<Vec<VertexId>> {
        let mut sets = vec![Vec::new(); self.count];
        for (v, &c) in self.component.iter().enumerate() {
            if c != usize::MAX {
                sets[c].push(v as VertexId);
            }
        }
        sets
    }
}

/// Returns `true` when the deterministic structure of `graph` (ignoring
/// probabilities) is connected and non-empty.
pub fn is_connected(graph: &UncertainGraph) -> bool {
    if graph.num_vertices() == 0 {
        return false;
    }
    ConnectedComponents::new(graph).is_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_find_groups() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(3, 4);
        let groups = uf.groups();
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&3) && sizes.contains(&1));
    }

    #[test]
    fn union_find_groups_filtered() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        let groups = uf.groups_filtered(|x| x != 3);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().any(|g| g == &vec![0, 1]));
        assert!(groups.iter().any(|g| g == &vec![2]));
    }

    #[test]
    fn components_of_two_triangles() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build();
        let cc = ConnectedComponents::new(&g);
        assert_eq!(cc.count(), 2);
        assert!(!cc.is_connected());
        assert_eq!(cc.component_of(0), cc.component_of(2));
        assert_ne!(cc.component_of(0), cc.component_of(3));
        let sets = cc.vertex_sets();
        assert_eq!(sets[0], vec![0, 1, 2]);
        assert_eq!(sets[1], vec![3, 4, 5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_respect_isolated_vertices() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build();
        let cc = ConnectedComponents::new(&g);
        assert_eq!(cc.count(), 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn induced_components() {
        let mut b = GraphBuilder::new();
        // path 0-1-2-3
        for &(u, v) in &[(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        // removing vertex 1 separates 0 from {2,3}
        let cc = ConnectedComponents::over_vertices(&g, |v| v != 1);
        assert_eq!(cc.count(), 2);
        assert_eq!(cc.component_of(1), None);
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_graph_is_not_connected() {
        let g = crate::UncertainGraph::empty(0);
        assert!(!is_connected(&g));
    }
}
