//! Core probabilistic graph representation.
//!
//! [`UncertainGraph`] stores an undirected simple graph in compressed
//! sparse row (CSR) form.  Every undirected edge `{u, v}` is stored once in
//! a canonical edge table (with `u < v`) and twice in the adjacency arrays
//! (as `u → v` and `v → u`), so that neighbourhood scans and binary
//! searches are cache friendly while per-edge metadata (the existence
//! probability) is never duplicated as the source of truth.

use crate::error::GraphError;
use crate::mem::Section;
use crate::Result;

/// Identifier of a vertex; vertices are densely numbered `0..num_vertices`.
pub type VertexId = u32;

/// Identifier of an undirected edge; edges are densely numbered
/// `0..num_edges` in the canonical order produced by the builder
/// (lexicographic by `(min(u,v), max(u,v))`).
pub type EdgeId = u32;

/// A single undirected probabilistic edge with canonical orientation
/// `u < v`.
///
/// `#[repr(C)]` pins the layout to 16 bytes without padding (`u` at 0,
/// `v` at 4, `p` at 8) so the binary snapshot format can persist the
/// edge table verbatim and the zero-copy reader can borrow it in place.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Existence probability in `(0, 1]`.
    pub p: f64,
}

impl Edge {
    /// Returns the endpoint different from `w`, or `None` when `w` is not
    /// an endpoint of this edge.
    pub fn other(&self, w: VertexId) -> Option<VertexId> {
        if w == self.u {
            Some(self.v)
        } else if w == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// Returns both endpoints as a `(u, v)` pair with `u < v`.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }
}

/// An undirected simple graph with independent edge-existence
/// probabilities, stored in CSR form.
///
/// The probabilistic semantics follow the possible-world model of the
/// paper: a possible world `G ⊑ 𝒢` keeps each edge independently with its
/// probability, and `Pr(G) = Π_{e∈G} p_e · Π_{e∉G} (1 − p_e)` (Equation 1).
///
/// # Example
///
/// ```
/// use ugraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 0.9).unwrap();
/// b.add_edge(1, 2, 0.5).unwrap();
/// b.add_edge(0, 2, 1.0).unwrap();
/// let g = b.build();
///
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edge_probability(0, 1), Some(0.9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainGraph {
    /// CSR offsets: the neighbours of vertex `v` live at
    /// `neighbors[offsets[v]..offsets[v+1]]`.
    offsets: Section<usize>,
    /// Flattened adjacency lists, each sorted by neighbour id.
    neighbors: Section<VertexId>,
    /// Probability of the edge to the corresponding neighbour.
    neighbor_probs: Section<f64>,
    /// Canonical edge id of the edge to the corresponding neighbour.
    neighbor_edges: Section<EdgeId>,
    /// Canonical edge table (one entry per undirected edge, `u < v`).
    edges: Section<Edge>,
}

impl UncertainGraph {
    /// Builds the CSR of `n` vertices from a canonical edge table: every
    /// edge has `u < v < n`, and the table is sorted by `(u, v)` with no
    /// repeated key.  Edge ids are table positions.
    ///
    /// Two passes, no per-vertex allocation and no sort: count degrees,
    /// then fill each vertex's run in table order.  That order already
    /// sorts every run — vertex `w` first receives its smaller
    /// neighbours (as the `v` of earlier rows, ascending in `u`), then
    /// its larger ones (its own rows, ascending in `v`).
    ///
    /// Every graph constructor funnels through here, except the snapshot
    /// reader, which restores stored CSR arrays.  The table is kept at
    /// its exact length.
    pub(crate) fn from_sorted_edges(n: usize, mut edges: Vec<Edge>) -> Self {
        debug_assert!(edges.iter().all(|e| e.u < e.v && (e.v as usize) < n));
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].u, w[0].v) < (w[1].u, w[1].v)));
        edges.shrink_to_fit();
        let mut offsets = vec![0usize; n + 1];
        for e in &edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let total = 2 * edges.len();
        let mut neighbors = vec![0 as VertexId; total];
        let mut neighbor_probs = vec![0.0f64; total];
        let mut neighbor_edges = vec![0 as EdgeId; total];
        let mut cursor = offsets[..n].to_vec();
        for (id, e) in edges.iter().enumerate() {
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let slot = &mut cursor[from as usize];
                neighbors[*slot] = to;
                neighbor_probs[*slot] = e.p;
                neighbor_edges[*slot] = id as EdgeId;
                *slot += 1;
            }
        }
        Self::from_sections(
            offsets.into(),
            neighbors.into(),
            neighbor_probs.into(),
            neighbor_edges.into(),
            edges.into(),
        )
    }

    /// Constructs a graph from already-wrapped sections — the snapshot
    /// reader hands in decoded vectors or zero-copy [`Section::Mapped`]
    /// windows here.  The CSR invariants (sorted adjacency, symmetric
    /// edges, canonical edge table) must already hold.
    pub(crate) fn from_sections(
        offsets: Section<usize>,
        neighbors: Section<VertexId>,
        neighbor_probs: Section<f64>,
        neighbor_edges: Section<EdgeId>,
        edges: Section<Edge>,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), neighbor_probs.len());
        debug_assert_eq!(neighbors.len(), neighbor_edges.len());
        debug_assert_eq!(neighbors.len(), edges.len() * 2);
        UncertainGraph {
            offsets,
            neighbors,
            neighbor_probs,
            neighbor_edges,
            edges,
        }
    }

    /// `true` when any of the graph's arrays borrow a memory-mapped
    /// snapshot instead of owning heap buffers.
    pub fn is_memory_mapped(&self) -> bool {
        self.offsets.is_mapped()
            || self.neighbors.is_mapped()
            || self.neighbor_probs.is_mapped()
            || self.neighbor_edges.is_mapped()
            || self.edges.is_mapped()
    }

    /// The raw CSR arrays `(offsets, neighbors, neighbor_probs,
    /// neighbor_edges)` — used by the binary snapshot writer, which
    /// persists the graph exactly as it sits in memory.
    pub(crate) fn csr_parts(&self) -> (&[usize], &[VertexId], &[f64], &[EdgeId]) {
        (
            &self.offsets,
            &self.neighbors,
            &self.neighbor_probs,
            &self.neighbor_edges,
        )
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        UncertainGraph::from_sorted_edges(n, Vec::new())
    }

    /// Number of vertices (including isolated ones).
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Degree of vertex `v` (number of incident edges, probabilities are
    /// ignored).
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all vertices; `0` for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average edge probability; `0.0` for an edgeless graph.
    pub fn average_probability(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.iter().map(|e| e.p).sum::<f64>() / self.edges.len() as f64
    }

    /// Sum of all edge probabilities (the expected number of edges in a
    /// sampled possible world).
    pub fn expected_num_edges(&self) -> f64 {
        self.edges.iter().map(|e| e.p).sum()
    }

    /// Sorted neighbour ids of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator over `(neighbour, probability, edge id)` triples of `v`,
    /// sorted by neighbour id.
    pub fn neighbor_entries(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, f64, EdgeId)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        range.map(move |i| {
            (
                self.neighbors[i],
                self.neighbor_probs[i],
                self.neighbor_edges[i],
            )
        })
    }

    /// Returns `true` when the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_index(u, v).is_some()
    }

    /// Probability of the edge `{u, v}`, or `None` when absent.
    pub fn edge_probability(&self, u: VertexId, v: VertexId) -> Option<f64> {
        self.edge_index(u, v).map(|i| self.neighbor_probs[i])
    }

    /// Canonical edge id of `{u, v}`, or `None` when absent.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.edge_index(u, v).map(|i| self.neighbor_edges[i])
    }

    /// The canonical edge record for edge id `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e as usize]
    }

    /// Canonical edge table (one record per undirected edge, `u < v`,
    /// indexed by [`EdgeId`]).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Position of `v` inside `u`'s adjacency slice, if the edge exists.
    pub(crate) fn edge_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if (u as usize) >= self.num_vertices() || (v as usize) >= self.num_vertices() {
            return None;
        }
        let base = self.offsets[u as usize];
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|pos| base + pos)
    }

    /// Intersection of the neighbourhoods of `u` and `v` (sorted merge of
    /// two sorted lists), excluding `u` and `v` themselves.
    ///
    /// This is the set of vertices forming a triangle with the edge
    /// `{u, v}`.  Triangle and 4-clique enumeration do not use it: they
    /// run the marking pass of [`crate::triangles`] and extend its table.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let a = self.neighbors(u);
        let b = self.neighbors(v);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i] != u && a[i] != v {
                        out.push(a[i]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Common neighbours of three vertices `u`, `v`, `w` — the vertices
    /// completing a 4-clique over the triangle `(u, v, w)` when all edges
    /// exist.
    pub fn common_neighbors3(&self, u: VertexId, v: VertexId, w: VertexId) -> Vec<VertexId> {
        let uv = self.common_neighbors(u, v);
        let nw = self.neighbors(w);
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < uv.len() && j < nw.len() {
            match uv[i].cmp(&nw[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if uv[i] != w {
                        out.push(uv[i]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Probability that the triangle `(u, v, w)` exists, i.e. the product of
    /// its three edge probabilities.  Returns an error when one of the
    /// edges is missing.
    pub fn triangle_probability(&self, u: VertexId, v: VertexId, w: VertexId) -> Result<f64> {
        let puv = self
            .edge_probability(u, v)
            .ok_or(GraphError::MissingEdge { edge: (u, v) })?;
        let pvw = self
            .edge_probability(v, w)
            .ok_or(GraphError::MissingEdge { edge: (v, w) })?;
        let puw = self
            .edge_probability(u, w)
            .ok_or(GraphError::MissingEdge { edge: (u, w) })?;
        Ok(puv * pvw * puw)
    }

    /// Total number of `(u, v, w)` triangles in the graph, ignoring
    /// probabilities.  Convenience wrapper over the triangle enumerator.
    pub fn count_triangles(&self) -> usize {
        crate::triangles::enumerate_triangles(self).len()
    }

    /// Ignoring probabilities, checks structural equality with `other`
    /// (same vertex count and same edge set).
    pub fn same_structure(&self, other: &UncertainGraph) -> bool {
        if self.num_vertices() != other.num_vertices() || self.num_edges() != other.num_edges() {
            return false;
        }
        self.edges
            .iter()
            .zip(other.edges.iter())
            .all(|(a, b)| a.u == b.u && a.v == b.v)
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_graph() -> crate::UncertainGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.6).unwrap();
        b.add_edge(0, 2, 0.7).unwrap();
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_graph();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_probability() - 0.6).abs() < 1e-12);
        assert!((g.expected_num_edges() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = crate::UncertainGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_probability(), 0.0);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn adjacency_queries() {
        let g = triangle_graph();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edge_probability(2, 1), Some(0.6));
        assert_eq!(g.edge_probability(0, 3), None);
        let eid = g.edge_id(0, 2).unwrap();
        let e = g.edge(eid);
        assert_eq!((e.u, e.v), (0, 2));
        assert_eq!(e.p, 0.7);
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle_graph();
        let e = g.edge(g.edge_id(0, 1).unwrap());
        assert_eq!(e.other(0), Some(1));
        assert_eq!(e.other(1), Some(0));
        assert_eq!(e.other(2), None);
        assert_eq!(e.endpoints(), (0, 1));
    }

    #[test]
    fn common_neighbors_of_edge_and_triangle() {
        let mut b = GraphBuilder::new();
        // K4 on {0,1,2,3} plus a pendant vertex 4 attached to 0.
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        assert_eq!(g.common_neighbors(0, 1), vec![2, 3]);
        assert_eq!(g.common_neighbors3(0, 1, 2), vec![3]);
        assert_eq!(g.common_neighbors3(0, 1, 3), vec![2]);
        assert!(g.common_neighbors(0, 4).is_empty());
    }

    #[test]
    fn triangle_probability() {
        let g = triangle_graph();
        let p = g.triangle_probability(0, 1, 2).unwrap();
        assert!((p - 0.5 * 0.6 * 0.7).abs() < 1e-12);
        assert!(g.triangle_probability(0, 1, 5).is_err());
    }

    #[test]
    fn count_triangles_on_k4() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        let g = b.build();
        assert_eq!(g.count_triangles(), 4);
    }

    #[test]
    fn same_structure_ignores_probabilities() {
        let a = triangle_graph();
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.1).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(0, 2, 0.3).unwrap();
        let g2 = b.build();
        assert!(a.same_structure(&g2));

        let mut c = GraphBuilder::new();
        c.add_edge(0, 1, 0.1).unwrap();
        c.add_edge(1, 2, 0.2).unwrap();
        let g3 = c.build();
        assert!(!a.same_structure(&g3));
    }
}
