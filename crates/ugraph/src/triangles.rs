//! Triangle enumeration, indexing and the edge-ordered triangle table.
//!
//! Triangles are the `r = 3` cliques of the (3,4)-nucleus and the cells
//! of the (2,3)-truss.  Every triangle of a graph is found by one
//! **edge-ordered pass** that lists triangles by marking (Chiba and
//! Nishizeki, "Arboricity and subgraph listing algorithms", SIAM J.
//! Comput. 14(1), 1985), with every edge oriented from its smaller to its
//! larger id.  For each source vertex `u`, the pass marks `u`'s forward
//! neighbours (`w > u`) with their adjacency slots; then, for each
//! canonical edge `(u, v)` in edge-id order, it scans `v`'s forward
//! neighbours (`w > v`), ascending, and every marked one closes a
//! triangle; last it clears the marks.  Each triangle is reported once,
//! from its lexicographically smallest edge, and because the edge table
//! is sorted by `(u, v)` the pass emits triangles already in
//! lexicographic order — a triangle's dense id is simply its position in
//! the output, with no sort.
//!
//! Every vertex's first adjacency slot past itself (its *forward
//! offset*) is found once per pass, by one binary search per vertex.
//! The marks are one `u32` per vertex, allocated once per pass on the
//! sequential and streaming paths and once per worker thread on the
//! parallel one (`par::par_extend_init`): the pass splits the edge
//! table into chunks, and a chunk that begins inside a vertex's edge run
//! still marks all of that vertex's forward neighbours.
//!
//! Two products come out of that pass:
//!
//! * [`TriangleIndex`] — the compact id ↔ triangle map (12 bytes per
//!   triangle: the sorted triangle array, id lookups by binary search).
//!   An earlier revision kept a `HashMap<Triangle, TriangleId>`
//!   alongside, which more than quadrupled the per-triangle footprint.
//! * [`TriangleTable`] — the same triangles together with, per triangle,
//!   the ids of its three edges and the three probabilities
//!   [`UncertainGraph::edge_probability`] returns for them (read from the
//!   adjacency slots the pass visits), plus every edge's **run**: the
//!   contiguous id range of the triangles `(u, v, w)` the pass emitted
//!   from edge `(u, v)`, ascending in `w`.  The support builds of both
//!   the truss and the nucleus rank are assembled from this table alone:
//!   4-cliques are extensions of its triangles along the runs
//!   ([`crate::cliques::four_clique_extensions`]), so no triangle id or
//!   edge probability is ever looked up again.
//!
//! Dense ids are `u32` and every narrowing from a `usize` count goes
//! through the checked constructor ([`crate::error::checked_id`]), so a
//! graph with more than `2^32` triangles surfaces a typed [`IdOverflow`]
//! instead of wrapping.

use std::ops::Range;

use crate::error::{checked_id, IdOverflow};
use crate::graph::{EdgeId, UncertainGraph, VertexId};
use crate::par::{self, Parallelism};

/// Dense identifier of a triangle inside a [`TriangleIndex`].
pub type TriangleId = u32;

/// A triangle, stored with its vertices sorted increasingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triangle {
    vertices: [VertexId; 3],
}

impl Triangle {
    /// Creates a triangle from three distinct vertices (any order).
    ///
    /// # Panics
    ///
    /// Panics when the vertices are not pairwise distinct.
    pub fn new(a: VertexId, b: VertexId, c: VertexId) -> Self {
        assert!(
            a != b && b != c && a != c,
            "triangle vertices must be distinct"
        );
        let mut vertices = [a, b, c];
        vertices.sort_unstable();
        Triangle { vertices }
    }

    /// The sorted vertex triple.
    pub fn vertices(&self) -> [VertexId; 3] {
        self.vertices
    }

    /// `true` when `v` is a vertex of this triangle.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// The three edges of the triangle as canonical `(u, v)` pairs with
    /// `u < v`.
    pub fn edges(&self) -> [(VertexId, VertexId); 3] {
        let [a, b, c] = self.vertices;
        [(a, b), (a, c), (b, c)]
    }

    /// Probability that the triangle exists in a sampled possible world of
    /// `graph` (product of its edge probabilities).
    ///
    /// Returns `None` when one of the edges is missing from `graph`.
    pub fn probability(&self, graph: &UncertainGraph) -> Option<f64> {
        let [a, b, c] = self.vertices;
        graph.triangle_probability(a, b, c).ok()
    }
}

impl std::fmt::Display for Triangle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c] = self.vertices;
        write!(f, "({a}, {b}, {c})")
    }
}

/// One edge-ordered triangle pass over a graph: the graph and every
/// vertex's forward offset, found once per pass.
struct TrianglePass<'g> {
    graph: &'g UncertainGraph,
    /// `forward[x]`: the first flat adjacency slot of `x` whose neighbour
    /// exceeds `x` (the end of `x`'s slice when there is none).
    forward: Vec<usize>,
}

impl<'g> TrianglePass<'g> {
    fn new(graph: &'g UncertainGraph) -> Self {
        let (offsets, neighbors, _, _) = graph.csr_parts();
        let forward = offsets
            .windows(2)
            .enumerate()
            .map(|(x, w)| w[0] + neighbors[w[0]..w[1]].partition_point(|&y| y as usize <= x))
            .collect();
        TrianglePass { graph, forward }
    }

    /// Cleared marks for [`TrianglePass::for_each`]: one per vertex.
    fn marks(&self) -> Vec<u32> {
        vec![0; self.graph.num_vertices()]
    }

    /// The pass over `edges`: for every canonical edge `e = (u, v)` in
    /// the range, calls `emit(e, [u, v, w], [iuv, iuw, ivw])` for each
    /// common neighbour `w > v`, ascending, where `iuv`, `iuw` and `ivw`
    /// are the flat adjacency slots of `v` in `u`'s list, of `w` in
    /// `u`'s and of `w` in `v`'s.  `marks` must come in cleared and is
    /// left cleared; while `u`'s edges are scanned, `marks[w]` is one
    /// past the position of `w` among `u`'s forward neighbours.
    fn for_each<F>(&self, marks: &mut [u32], edges: Range<usize>, mut emit: F)
    where
        F: FnMut(EdgeId, [VertexId; 3], [usize; 3]),
    {
        let (offsets, neighbors, _, slot_edges) = self.graph.csr_parts();
        let table = self.graph.edges();
        let mut e = edges.start;
        while e < edges.end {
            let u = table[e].u;
            // `u`'s forward slots hold its edges `(u, v)` in id order,
            // starting with edge `first_edge`.
            let (first, end) = (self.forward[u as usize], offsets[u as usize + 1]);
            let first_edge = slot_edges[first] as usize;
            let run_end = (first_edge + (end - first)).min(edges.end);
            for (k, &w) in (1..).zip(&neighbors[first..end]) {
                marks[w as usize] = k;
            }
            for (e, edge) in (e..run_end).zip(&table[e..run_end]) {
                let (v, iuv) = (edge.v, first + (e - first_edge));
                let (fv, ev) = (self.forward[v as usize], offsets[v as usize + 1]);
                for (ivw, &w) in (fv..ev).zip(&neighbors[fv..ev]) {
                    let k = marks[w as usize];
                    if k != 0 {
                        emit(e as EdgeId, [u, v, w], [iuv, first + k as usize - 1, ivw]);
                    }
                }
            }
            for &w in &neighbors[first..end] {
                marks[w as usize] = 0;
            }
            e = run_end;
        }
    }

    /// Appends the triangles the pass emits from `edges`.
    fn push_triangles(&self, marks: &mut [u32], edges: Range<usize>, out: &mut Vec<Triangle>) {
        self.for_each(marks, edges, |_, vertices, _| {
            out.push(Triangle { vertices });
        });
    }
}

/// Enumerates every triangle of `graph` exactly once, in lexicographic
/// order (the dense-id order of [`TriangleIndex`]).
///
/// The enumeration is the edge-ordered pass described in the module
/// docs: each triangle is reported from its lexicographically smallest
/// edge only.
pub fn enumerate_triangles(graph: &UncertainGraph) -> Vec<Triangle> {
    enumerate_triangles_with(graph, Parallelism::Sequential)
}

/// [`enumerate_triangles`] with an explicit [`Parallelism`] setting.
///
/// Edges are scanned in parallel chunks; per-chunk results are merged in
/// edge order, so the output is identical to the sequential enumeration
/// for every thread count.
pub fn enumerate_triangles_with(graph: &UncertainGraph, parallelism: Parallelism) -> Vec<Triangle> {
    let pass = TrianglePass::new(graph);
    par::par_extend_init(
        parallelism,
        graph.num_edges(),
        || pass.marks(),
        |marks, range, out| pass.push_triangles(marks, range, out),
    )
}

/// Dense id ↔ triangle index over all triangles of a graph.
///
/// # Example
///
/// ```
/// use ugraph::{GraphBuilder, TriangleIndex, Triangle};
///
/// let mut b = GraphBuilder::new();
/// for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
///     b.add_edge(u, v, 1.0).unwrap();
/// }
/// let g = b.build();
/// let idx = TriangleIndex::build(&g);
/// assert_eq!(idx.len(), 4); // K4 has 4 triangles
/// let t = Triangle::new(0, 1, 2);
/// let id = idx.id_of(&t).unwrap();
/// assert_eq!(idx.triangle(id), t);
/// ```
#[derive(Debug, Clone)]
pub struct TriangleIndex {
    /// Sorted lexicographically; a triangle's dense id is its position.
    triangles: Vec<Triangle>,
}

impl TriangleIndex {
    /// Enumerates the triangles of `graph` and builds the index.
    ///
    /// # Panics
    ///
    /// Panics when the graph holds more than `2^32` triangles; use
    /// [`TriangleIndex::try_build_with`] for the typed error.
    pub fn build(graph: &UncertainGraph) -> Self {
        Self::build_with(graph, Parallelism::Sequential)
    }

    /// [`TriangleIndex::build`] with an explicit [`Parallelism`] setting.
    /// The resulting index is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when the graph holds more than `2^32` triangles; use
    /// [`TriangleIndex::try_build_with`] for the typed error.
    pub fn build_with(graph: &UncertainGraph, parallelism: Parallelism) -> Self {
        Self::try_build_with(graph, parallelism).expect("triangle count exceeds the u32 id space")
    }

    /// Fallible [`TriangleIndex::build_with`]: surfaces the id-space
    /// overflow as a typed [`IdOverflow`] instead of panicking.
    pub fn try_build_with(
        graph: &UncertainGraph,
        parallelism: Parallelism,
    ) -> Result<Self, IdOverflow> {
        Self::from_sorted(enumerate_triangles_with(graph, parallelism))
    }

    /// Sequential build that walks the edge table in chunks of
    /// `chunk_edges` edges.
    ///
    /// The edge-ordered pass emits triangles already in lexicographic
    /// order, so chunks append straight into the index array: the result
    /// is the exact array [`TriangleIndex::build`] produces (no global
    /// sort, no id drift) for every chunk size.  Besides the growing
    /// index, the pass holds one forward offset (`usize`) and one mark
    /// (`u32`) per vertex, allocated once per call; it keeps no per-edge
    /// or per-chunk scratch.
    pub fn try_build_streaming(
        graph: &UncertainGraph,
        chunk_edges: usize,
    ) -> Result<Self, IdOverflow> {
        let (m, chunk) = (graph.num_edges(), chunk_edges.max(1));
        let pass = TrianglePass::new(graph);
        let mut marks = pass.marks();
        let mut triangles = Vec::new();
        for start in (0..m).step_by(chunk) {
            pass.push_triangles(&mut marks, start..(start + chunk).min(m), &mut triangles);
        }
        Self::from_sorted(triangles)
    }

    /// Builds an index over an explicit set of triangles (used for
    /// subgraph-restricted decompositions).
    ///
    /// # Panics
    ///
    /// Panics past `2^32` triangles (see [`TriangleIndex::build`]).
    pub fn from_triangles(mut triangles: Vec<Triangle>) -> Self {
        triangles.sort_unstable();
        triangles.dedup();
        Self::from_sorted(triangles).expect("triangle count exceeds the u32 id space")
    }

    /// Wraps an already-sorted, deduplicated triangle array (checked in
    /// debug builds), applying the checked id narrowing.
    pub fn from_sorted(triangles: Vec<Triangle>) -> Result<Self, IdOverflow> {
        debug_assert!(triangles.windows(2).all(|w| w[0] < w[1]));
        if let Some(last) = triangles.len().checked_sub(1) {
            checked_id("triangle", last)?;
        }
        Ok(TriangleIndex { triangles })
    }

    /// Number of indexed triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// `true` when the graph has no triangles.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// The triangle with dense id `id`.
    pub fn triangle(&self, id: TriangleId) -> Triangle {
        self.triangles[id as usize]
    }

    /// Dense id of `t`, or `None` when `t` is not indexed.
    ///
    /// Binary search over the sorted triangle array: `O(log T)` with no
    /// auxiliary structure to keep resident.
    pub fn id_of(&self, t: &Triangle) -> Option<TriangleId> {
        self.triangles
            .binary_search(t)
            .ok()
            .map(|i| i as TriangleId)
    }

    /// Dense id of the triangle `(a, b, c)`, or `None` when absent.
    pub fn id_of_vertices(&self, a: VertexId, b: VertexId, c: VertexId) -> Option<TriangleId> {
        self.id_of(&Triangle::new(a, b, c))
    }

    /// Iterator over `(id, triangle)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TriangleId, Triangle)> + '_ {
        self.triangles
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TriangleId, *t))
    }

    /// All triangles in id order.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }
}

/// Every triangle of a graph in id (= lexicographic) order, with its
/// three edge ids and edge probabilities, plus each edge's run of
/// triangle ids — the one table both support builds are assembled from.
///
/// For triangle `t = (a, b, c)`:
///
/// * [`edge_ids(t)`](Self::edge_ids) is `[e(a,b), e(a,c), e(b,c)]`;
/// * [`probs(t)`](Self::probs) is `[p(a,b), p(a,c), p(b,c)]`, the values
///   [`UncertainGraph::edge_probability`] returns for those pairs;
/// * `t` lies in the [`run`](Self::run) of `e(a,b)`: the ids of the
///   triangles `(a, b, w)`, ascending in `w`.
///
/// # Example
///
/// ```
/// use ugraph::{GraphBuilder, Triangle};
/// use ugraph::triangles::TriangleTable;
/// use ugraph::Parallelism;
///
/// let mut b = GraphBuilder::new();
/// for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
///     b.add_edge(u, v, 0.5).unwrap();
/// }
/// let g = b.build();
/// let table = TriangleTable::build(&g, Parallelism::Sequential);
/// assert_eq!(table.len(), 4);
/// // Edge (0, 1) completes to (0, 1, 2) and (0, 1, 3): ids 0 and 1.
/// assert_eq!(table.run(g.edge_id(0, 1).unwrap()), 0..2);
/// assert_eq!(table.triangle(1), Triangle::new(0, 1, 3));
/// assert_eq!(table.probs(1), [0.5; 3]);
/// ```
#[derive(Debug, Clone)]
pub struct TriangleTable {
    triangles: Vec<Triangle>,
    edge_ids: Vec<[EdgeId; 3]>,
    probs: Vec<[f64; 3]>,
    /// `runs[e]..runs[e + 1]` are the triangles emitted from edge `e`.
    runs: Vec<usize>,
}

/// The per-triangle rows of a [`TriangleTable`] under construction: one
/// chunk's worth, before the runs are derived.
#[derive(Default)]
struct Rows {
    triangles: Vec<Triangle>,
    edge_ids: Vec<[EdgeId; 3]>,
    probs: Vec<[f64; 3]>,
}

impl Rows {
    fn push(&mut self, t: Triangle, edge_ids: [EdgeId; 3], probs: [f64; 3]) {
        self.triangles.push(t);
        self.edge_ids.push(edge_ids);
        self.probs.push(probs);
    }
}

impl TriangleTable {
    /// Runs the edge-ordered pass over `graph`.  Edges are scanned in
    /// parallel chunks merged in edge order, so the table is identical
    /// for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when the graph holds more than `2^32` triangles.
    pub fn build(graph: &UncertainGraph, parallelism: Parallelism) -> Self {
        let (_, _, probs, edges) = graph.csr_parts();
        let pass = TrianglePass::new(graph);
        let parts = par::par_extend_init(
            parallelism,
            graph.num_edges(),
            || pass.marks(),
            |marks, range, out| {
                let mut part = Rows::default();
                pass.for_each(marks, range, |e, vertices, [iuv, iuw, ivw]| {
                    part.push(
                        Triangle { vertices },
                        [e, edges[iuw], edges[ivw]],
                        [probs[iuv], probs[iuw], probs[ivw]],
                    );
                });
                out.push(part);
            },
        );
        Self::concat(parts, graph.num_edges())
    }

    /// Concatenates per-chunk rows in chunk order (a single part — the
    /// sequential case — is taken as is), checks the id space and
    /// derives the per-edge runs from the triangles' smallest edges,
    /// which are non-decreasing in id order.
    fn concat(mut parts: Vec<Rows>, num_edges: usize) -> Self {
        let rows = if parts.len() == 1 {
            parts.pop().unwrap_or_default()
        } else {
            let mut rows = Rows::default();
            for part in parts {
                rows.triangles.extend_from_slice(&part.triangles);
                rows.edge_ids.extend_from_slice(&part.edge_ids);
                rows.probs.extend_from_slice(&part.probs);
            }
            rows
        };
        debug_assert!(rows.triangles.windows(2).all(|w| w[0] < w[1]));
        if let Some(last) = rows.triangles.len().checked_sub(1) {
            checked_id("triangle", last).expect("triangle count exceeds the u32 id space");
        }
        let mut runs = vec![0usize; num_edges + 1];
        for &[e, _, _] in &rows.edge_ids {
            runs[e as usize + 1] += 1;
        }
        for e in 0..num_edges {
            runs[e + 1] += runs[e];
        }
        TriangleTable {
            triangles: rows.triangles,
            edge_ids: rows.edge_ids,
            probs: rows.probs,
            runs,
        }
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// `true` when the graph has no triangles.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// All triangles in id order.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// The triangle with dense id `t`.
    pub fn triangle(&self, t: TriangleId) -> Triangle {
        self.triangles[t as usize]
    }

    /// Edge ids `[e(a,b), e(a,c), e(b,c)]` of triangle `t = (a, b, c)`.
    pub fn edge_ids(&self, t: TriangleId) -> [EdgeId; 3] {
        self.edge_ids[t as usize]
    }

    /// Edge probabilities `[p(a,b), p(a,c), p(b,c)]` of triangle
    /// `t = (a, b, c)`.
    pub fn probs(&self, t: TriangleId) -> [f64; 3] {
        self.probs[t as usize]
    }

    /// The run of edge `e = (u, v)`: the ids of the triangles
    /// `(u, v, w)`, ascending in `w`.
    pub fn run(&self, e: EdgeId) -> Range<usize> {
        self.runs[e as usize]..self.runs[e as usize + 1]
    }

    /// Splits the table into its triangle index and its per-triangle
    /// edge ids and probabilities; the runs are dropped.
    pub fn into_parts(self) -> (TriangleIndex, Vec<[EdgeId; 3]>, Vec<[f64; 3]>) {
        (
            TriangleIndex {
                triangles: self.triangles,
            },
            self.edge_ids,
            self.probs,
        )
    }
}

/// Counts triangles per vertex; entry `v` is the number of triangles
/// containing `v`.  Useful for clustering-coefficient style statistics.
pub fn triangle_counts_per_vertex(graph: &UncertainGraph) -> Vec<usize> {
    let mut counts = vec![0usize; graph.num_vertices()];
    for t in enumerate_triangles(graph) {
        for v in t.vertices() {
            counts[v as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn k4() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn triangle_requires_distinct_vertices() {
        let _ = Triangle::new(1, 1, 2);
    }

    #[test]
    fn triangle_normalizes_order() {
        let t = Triangle::new(5, 2, 9);
        assert_eq!(t.vertices(), [2, 5, 9]);
        assert!(t.contains(5));
        assert!(!t.contains(3));
        assert_eq!(t.edges(), [(2, 5), (2, 9), (5, 9)]);
        assert_eq!(t.to_string(), "(2, 5, 9)");
    }

    #[test]
    fn enumerate_k4_triangles() {
        let g = k4();
        let ts = enumerate_triangles(&g);
        assert_eq!(ts.len(), 4);
        let expected = [
            Triangle::new(0, 1, 2),
            Triangle::new(0, 1, 3),
            Triangle::new(0, 2, 3),
            Triangle::new(1, 2, 3),
        ];
        for t in expected {
            assert!(ts.contains(&t));
        }
    }

    #[test]
    fn enumerate_no_duplicates_on_dense_graph() {
        // K6: 20 triangles.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                b.add_edge(u, v, 0.9).unwrap();
            }
        }
        let g = b.build();
        let mut ts = enumerate_triangles(&g);
        let before = ts.len();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(before, ts.len());
        assert_eq!(before, 20);
    }

    #[test]
    fn triangle_probability_matches_edges() {
        let g = k4();
        let t = Triangle::new(0, 1, 2);
        assert!((t.probability(&g).unwrap() - 0.125).abs() < 1e-12);
        let missing = Triangle::new(0, 1, 5);
        assert_eq!(missing.probability(&g), None);
    }

    #[test]
    fn index_round_trip() {
        let g = k4();
        let idx = TriangleIndex::build(&g);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        for (id, t) in idx.iter() {
            assert_eq!(idx.id_of(&t), Some(id));
            assert_eq!(idx.triangle(id), t);
        }
        assert_eq!(
            idx.id_of_vertices(2, 1, 0),
            idx.id_of(&Triangle::new(0, 1, 2))
        );
        assert_eq!(idx.id_of(&Triangle::new(0, 1, 4)), None);
    }

    #[test]
    fn index_from_explicit_triangles_dedups() {
        let ts = vec![
            Triangle::new(0, 1, 2),
            Triangle::new(2, 1, 0),
            Triangle::new(1, 2, 3),
        ];
        let idx = TriangleIndex::from_triangles(ts);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn per_vertex_triangle_counts() {
        let g = k4();
        let counts = triangle_counts_per_vertex(&g);
        assert_eq!(counts, vec![3, 3, 3, 3]);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        // K8 has 56 triangles; exercise multiple chunked workers.
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in (u + 1)..8u32 {
                b.add_edge(u, v, 0.7).unwrap();
            }
        }
        let g = b.build();
        let sequential = enumerate_triangles(&g);
        for threads in [1, 2, 8] {
            let par = enumerate_triangles_with(&g, Parallelism::fixed(threads));
            assert_eq!(par, sequential, "threads = {threads}");
            let idx = TriangleIndex::build_with(&g, Parallelism::fixed(threads));
            assert_eq!(idx.triangles(), TriangleIndex::build(&g).triangles());
        }
    }

    fn assert_same_table(a: &TriangleTable, b: &TriangleTable) {
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.edge_ids, b.edge_ids);
        assert_eq!(a.runs, b.runs);
        let bits = |t: &TriangleTable| -> Vec<[u64; 3]> {
            t.probs.iter().map(|p| p.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn table_rows_match_edge_lookups_and_runs_partition_the_ids() {
        // Isolated highest vertex ids: runs must still cover every edge.
        let mut b = GraphBuilder::with_vertices(10);
        for u in 0..7u32 {
            for v in (u + 1)..7u32 {
                if (u * 3 + v) % 4 != 0 {
                    b.add_edge(u, v, 0.1 + 0.05 * f64::from(u + v)).unwrap();
                }
            }
        }
        let g = b.build();
        let table = TriangleTable::build(&g, Parallelism::Sequential);
        assert_eq!(table.triangles(), enumerate_triangles(&g).as_slice());
        for (t, tri) in table.triangles().iter().enumerate() {
            let t = t as TriangleId;
            let [(a, b0), (a1, c), (b1, c1)] = tri.edges();
            assert_eq!(
                table.edge_ids(t),
                [
                    g.edge_id(a, b0).unwrap(),
                    g.edge_id(a1, c).unwrap(),
                    g.edge_id(b1, c1).unwrap()
                ]
            );
            assert_eq!(
                table.probs(t),
                [
                    g.edge_probability(a, b0).unwrap(),
                    g.edge_probability(a1, c).unwrap(),
                    g.edge_probability(b1, c1).unwrap()
                ]
            );
            assert!(table.run(table.edge_ids(t)[0]).contains(&(t as usize)));
        }
        let mut covered = 0;
        for e in 0..g.num_edges() as EdgeId {
            let run = table.run(e);
            assert_eq!(run.start, covered);
            covered = run.end;
        }
        assert_eq!(covered, table.len());
        for threads in [2, 8] {
            assert_same_table(
                &TriangleTable::build(&g, Parallelism::fixed(threads)),
                &table,
            );
        }
        let (index, edge_ids, probs) = table.clone().into_parts();
        assert_eq!(index.triangles(), table.triangles());
        assert_eq!((edge_ids.len(), probs.len()), (table.len(), table.len()));
    }

    #[test]
    fn streaming_build_matches_full_build_for_every_chunk_size() {
        // A mixed graph: K6 fused with a path and a pendant, so chunks
        // cut through dense and sparse regions alike.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                b.add_edge(u, v, 0.9).unwrap();
            }
        }
        for &(u, v) in &[(5, 6), (6, 7), (7, 8), (2, 8)] {
            b.add_edge(u, v, 0.4).unwrap();
        }
        let g = b.build();
        let full = TriangleIndex::build(&g);
        for chunk in [0, 1, 2, 3, 7, 100] {
            let streamed = TriangleIndex::try_build_streaming(&g, chunk).unwrap();
            assert_eq!(streamed.triangles(), full.triangles(), "chunk = {chunk}");
            for (id, t) in full.iter() {
                assert_eq!(streamed.id_of(&t), Some(id));
            }
        }
    }

    #[test]
    fn enumeration_order_is_already_lexicographic() {
        // The invariant the streaming build rests on: the canonical
        // smallest-edge enumeration emits triangles in sorted order.
        let mut b = GraphBuilder::new();
        for u in 0..9u32 {
            for v in (u + 1)..9u32 {
                if (u + v) % 3 != 0 {
                    b.add_edge(u, v, 0.5).unwrap();
                }
            }
        }
        let g = b.build();
        let ts = enumerate_triangles(&g);
        assert!(!ts.is_empty());
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn triangle_free_graph() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        assert!(enumerate_triangles(&g).is_empty());
        assert!(TriangleIndex::build(&g).is_empty());
    }
}
