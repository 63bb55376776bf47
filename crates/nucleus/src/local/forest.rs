//! The nucleus forest: every maximal ℓ-(k,θ)-nucleus of one
//! decomposition point, for every `k` at once.
//!
//! The nuclei of one point nest.  A 4-clique whose triangles all score
//! ≥ k + 1 also qualifies at `k`, so every (k+1)-nucleus lies inside one
//! k-nucleus, and the nuclei of all `k` form a forest (Sarıyüce,
//! Seshadhri, Pinar and Çatalyürek, "Finding the hierarchy of dense
//! subgraphs using nucleus decompositions", WWW 2015).
//! [`NucleusForest::build`] constructs it in one pass, after Sarıyüce
//! and Pinar, "Fast hierarchy construction for dense subgraphs"
//! (PVLDB 10(3), 2016):
//!
//! * a 4-clique's *level* is the minimum score of its four triangles,
//!   the highest `k` at which it belongs to a nucleus;
//! * the cliques are added in descending level order to one union-find
//!   over cliques, where two cliques sharing a triangle join;
//! * after each level, every component that gained a clique (or merged)
//!   becomes a new node, whose children are the components it absorbed.
//!   A component that neither gains a clique nor merges is the same
//!   nucleus at the next lower `k`, so one node covers a range of `k`.
//!
//! Level 0 is included: at `k = 0` every 4-clique qualifies, including
//! those with a zero-score triangle.  Each node's cliques (its own plus
//! its descendants') sit contiguously in one array, and nodes are
//! numbered in ascending order of their smallest clique, the order
//! [`extract_k_nuclei`] lists the nuclei of one `k` in.  The forest reads
//! the support and the scores only, never the graph: a vertex outside
//! every 4-clique of the support belongs to no node.
//!
//! At every `k`, [`NucleusForest::at`] lists exactly the nuclei
//! [`extract_k_nuclei`] extracts, in the same order, with the same
//! vertices ([`NucleusForest::vertices`]) and distinct edge counts
//! ([`NucleusForest::num_edges`]), without materializing a subgraph;
//! [`NucleusForest::ranked`] orders every node at every `k ≥ 1` by
//! density, and [`NucleusForest::home`] names the highest-k node holding
//! a vertex.
//!
//! [`extract_k_nuclei`]: super::nuclei::extract_k_nuclei

use std::cmp::Ordering;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

use ugraph::{FourClique, VertexId};

use crate::support::SupportStructure;

/// A node of a [`NucleusForest`].  Ids ascend with the node's smallest
/// 4-clique.
pub type NodeId = u32;

/// No node, clique or mark.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// The node is a maximal nucleus at every `k` in `k_lo..=k_hi`.
    k_lo: u32,
    k_hi: u32,
    parent: NodeId,
    /// The node's smallest 4-clique.
    first: FourClique,
    /// The node's cliques are `layout[start..start + len]`; the first
    /// `own` of them are its own, added at level `k_hi`, the rest its
    /// children's.
    start: u32,
    len: u32,
    own: u32,
}

/// The hierarchy of the maximal ℓ-(k,θ)-nuclei of one decomposition
/// point; see the [module docs](self).
#[derive(Debug)]
pub struct NucleusForest {
    nodes: Vec<Node>,
    layout: Vec<FourClique>,
    /// Per vertex of the support's cliques: the node of highest `k`
    /// containing it, ties to the smaller id.
    home: Vec<NodeId>,
    /// Distinct (vertex, edge) counts of every node, for the ranking.
    sizes: OnceLock<Vec<(u32, u32)>>,
}

/// Counting sort of `(key, value)` items by key: the values of key `k`
/// are `values[offsets[k]..offsets[k + 1]]`, in input order.
fn buckets<T: Copy + Default>(num_keys: usize, items: &[(u32, T)]) -> (Vec<usize>, Vec<T>) {
    let mut offsets = vec![0usize; num_keys + 1];
    for &(key, _) in items {
        offsets[key as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    let mut fill = offsets.clone();
    let mut values = vec![T::default(); items.len()];
    for &(key, value) in items {
        values[fill[key as usize]] = value;
        fill[key as usize] += 1;
    }
    (offsets, values)
}

/// The root of `x` in the union-find forest `parent`, halving its path.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grandparent = parent[parent[x as usize] as usize];
        parent[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

impl NucleusForest {
    /// Builds the forest of the point whose per-triangle scores are
    /// `scores`, over the 4-cliques of `support`.
    pub fn build(support: &SupportStructure, scores: &[u32]) -> Self {
        let records = support.cliques();
        let levels: Vec<(u32, u32)> = records
            .iter()
            .zip(0u32..)
            .map(|(r, c)| {
                let level = r.triangles.iter().map(|&t| scores[t as usize]).min();
                (level.unwrap_or(0), c)
            })
            .collect();
        let num_levels = levels
            .iter()
            .map(|&(l, _)| l as usize + 1)
            .max()
            .unwrap_or(0);
        let (level_at, order) = buckets(num_levels, &levels);

        // Components are unions of cliques: a triangle joins every later
        // clique through it to the first clique added through it.  Nodes
        // are made in descending level order, so a child comes before its
        // parent; `made[n].start` holds a clique of the node until the
        // layout below.
        let mut made: Vec<Node> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let mut uf: Vec<u32> = (0..records.len() as u32).collect();
        let mut via_triangle = vec![NONE; support.num_triangles()];
        let mut node_at_root = vec![NONE; records.len()];
        let mut attach = vec![NONE; records.len()];
        let mut touched = Vec::new();
        for level in (0..num_levels).rev() {
            let cliques = &order[level_at[level]..level_at[level + 1]];
            let level = level as u32;
            // Merge, noting first every component of the levels above a
            // clique touches: those become children of this level's new
            // nodes.
            touched.clear();
            for &c in cliques {
                for t in records[c as usize].triangles {
                    let other = &mut via_triangle[t as usize];
                    if *other == NONE {
                        *other = c;
                        continue;
                    }
                    let (root, own) = (find(&mut uf, *other), find(&mut uf, c));
                    let n = node_at_root[root as usize];
                    if n != NONE && seen[n as usize] != level {
                        seen[n as usize] = level;
                        touched.push(n);
                    }
                    uf[own as usize] = root;
                }
            }
            let first_new = made.len() as NodeId;
            for &c in cliques {
                let clique = records[c as usize].clique;
                let root = find(&mut uf, c);
                let n = match node_at_root[root as usize] {
                    n if n != NONE && n >= first_new => n,
                    _ => {
                        made.push(Node {
                            k_lo: 0,
                            k_hi: level,
                            parent: NONE,
                            first: clique,
                            start: c,
                            len: 0,
                            own: 0,
                        });
                        seen.push(NONE);
                        node_at_root[root as usize] = made.len() as NodeId - 1;
                        made.len() as NodeId - 1
                    }
                };
                let node = &mut made[n as usize];
                node.own += 1;
                node.first = node.first.min(clique);
                attach[c as usize] = n;
            }
            for &n in &touched {
                let node = &mut made[n as usize];
                node.k_lo = level + 1;
                node.parent = node_at_root[find(&mut uf, node.start) as usize];
            }
        }

        // Subtree sizes and smallest cliques, children before parents;
        // then subtree ranges, parents before children: a node's own
        // cliques, then its children's subtrees.
        for n in 0..made.len() {
            made[n].len += made[n].own;
            let (parent, len, first) = (made[n].parent, made[n].len, made[n].first);
            if parent != NONE {
                let parent = &mut made[parent as usize];
                parent.len += len;
                parent.first = parent.first.min(first);
            }
        }
        let mut next = vec![0u32; made.len()];
        let mut next_root = 0u32;
        for n in (0..made.len()).rev() {
            let slot = match made[n].parent {
                NONE => &mut next_root,
                parent => &mut next[parent as usize],
            };
            made[n].start = *slot;
            *slot += made[n].len;
            next[n] = made[n].start + made[n].own;
        }
        let mut fill: Vec<u32> = made.iter().map(|n| n.start).collect();
        let mut layout = vec![FourClique::new(0, 1, 2, 3); records.len()];
        for (record, &n) in records.iter().zip(&attach) {
            layout[fill[n as usize] as usize] = record.clique;
            fill[n as usize] += 1;
        }

        // Renumber by smallest clique.  Nodes alive at one k are
        // disjoint, so their smallest cliques differ.
        let mut by_first: Vec<usize> = (0..made.len()).collect();
        by_first.sort_unstable_by_key(|&n| (made[n].first, made[n].k_hi));
        let mut id = vec![NONE; made.len()];
        for (&n, new) in by_first.iter().zip(0u32..) {
            id[n] = new;
        }
        let nodes: Vec<Node> = by_first
            .iter()
            .map(|&n| Node {
                // A root's parent, NONE, is past every id.
                parent: id.get(made[n].parent as usize).copied().unwrap_or(NONE),
                ..made[n].clone()
            })
            .collect();

        // A vertex's home is among the nodes owning its cliques: every
        // other node containing it is an ancestor of one, at lower k.
        // Visiting owners by descending k, then ascending id, the first
        // visit wins.
        let num_vertices = records
            .iter()
            .map(|r| r.clique.vertices()[3] as usize + 1)
            .max()
            .unwrap_or(0);
        let mut home = vec![NONE; num_vertices];
        let by_k: Vec<(u32, NodeId)> = nodes.iter().zip(0u32..).map(|(n, i)| (n.k_hi, i)).collect();
        let (offsets, owners) = buckets(num_levels, &by_k);
        for level in (0..num_levels).rev() {
            for &n in &owners[offsets[level]..offsets[level + 1]] {
                let node = &nodes[n as usize];
                let own = &layout[node.start as usize..(node.start + node.own) as usize];
                for v in own.iter().flat_map(|q| q.vertices()) {
                    if home[v as usize] == NONE {
                        home[v as usize] = n;
                    }
                }
            }
        }

        NucleusForest {
            nodes,
            layout,
            home,
            sizes: OnceLock::new(),
        }
    }

    /// The `k` at which `node` is a maximal nucleus.
    pub fn k_range(&self, node: NodeId) -> RangeInclusive<u32> {
        let n = &self.nodes[node as usize];
        n.k_lo..=n.k_hi
    }

    /// The node `node` becomes part of below its lowest `k`, or `None`
    /// for a root (a nucleus at `k = 0`).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        Some(self.nodes[node as usize].parent).filter(|&p| p != NONE)
    }

    /// The smallest 4-clique of `node`.
    fn first_clique(&self, node: NodeId) -> FourClique {
        self.nodes[node as usize].first
    }

    /// The 4-cliques of `node`, its descendants' included, unsorted.
    fn cliques(&self, node: NodeId) -> &[FourClique] {
        let n = &self.nodes[node as usize];
        &self.layout[n.start as usize..(n.start + n.len) as usize]
    }

    /// The maximal nuclei at `k`, in ascending order of their smallest
    /// 4-clique; empty above the highest level.
    pub fn at(&self, k: u32) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as NodeId).filter(move |&n| self.k_range(n).contains(&k))
    }

    /// The node of highest `k` containing `vertex`, ties broken by the
    /// smaller smallest 4-clique, or `None` when no 4-clique of the
    /// support contains it.
    pub fn home(&self, vertex: VertexId) -> Option<NodeId> {
        self.home
            .get(vertex as usize)
            .copied()
            .filter(|&n| n != NONE)
    }

    /// The distinct vertices of `node`, ascending.
    pub fn vertices(&self, node: NodeId) -> Vec<VertexId> {
        let mut vertices: Vec<VertexId> = self
            .cliques(node)
            .iter()
            .flat_map(|q| q.vertices())
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        vertices
    }

    /// The number of distinct edges of `node`.
    pub fn num_edges(&self, node: NodeId) -> usize {
        let mut edges: Vec<u64> = self
            .cliques(node)
            .iter()
            .flat_map(|q| q.edges())
            .map(|(u, v)| u64::from(u) << 32 | u64::from(v))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges.len()
    }

    /// Every `(node, k)` pair with `k ≥ 1`, densest first: descending
    /// edge density (`edges / vertices`), then descending `k`, then more
    /// edges, then the smaller smallest vertex, then the smaller
    /// smallest 4-clique.  The first call counts every node's distinct
    /// vertices and edges.
    pub fn ranked(&self) -> Vec<(NodeId, u32)> {
        let sizes = self.sizes.get_or_init(|| self.count_sizes());
        let density = |n: NodeId| {
            let (vertices, edges) = sizes[n as usize];
            edges as f64 / vertices as f64
        };
        let mut ranked: Vec<(NodeId, u32)> = (0..self.nodes.len() as NodeId)
            .flat_map(|n| {
                let Node { k_lo, k_hi, .. } = self.nodes[n as usize];
                (k_lo.max(1)..=k_hi).map(move |k| (n, k))
            })
            .collect();
        ranked.sort_unstable_by(|&(a, ka), &(b, kb)| {
            let min_vertex = |n: NodeId| self.first_clique(n).vertices()[0];
            density(b)
                .partial_cmp(&density(a))
                .unwrap_or(Ordering::Equal)
                .then(kb.cmp(&ka))
                .then(sizes[b as usize].1.cmp(&sizes[a as usize].1))
                .then(min_vertex(a).cmp(&min_vertex(b)))
                .then(a.cmp(&b))
        });
        ranked
    }

    /// Every node's distinct vertex and edge counts, one mark per node
    /// over its range of cliques: the layout's edges get dense ids first,
    /// bucketed by their smaller endpoint `u` with one mark per larger
    /// endpoint naming each distinct `(u, v)` once.
    fn count_sizes(&self) -> Vec<(u32, u32)> {
        let num_vertices = self.home.len();
        // `buckets` inlined: the edges are read off the layout twice
        // instead of being collected first.
        let mut offsets = vec![0usize; num_vertices + 1];
        for q in &self.layout {
            for (u, _) in q.edges() {
                offsets[u as usize + 1] += 1;
            }
        }
        for u in 0..num_vertices {
            offsets[u + 1] += offsets[u];
        }
        let mut fill = offsets.clone();
        let num_slots = 6 * self.layout.len();
        u32::try_from(num_slots).expect("6 edge slots per 4-clique fit the 32-bit slot ids");
        let mut slots = vec![(0, 0); num_slots];
        for (q, c) in self.layout.iter().zip(0u32..) {
            for ((u, v), j) in q.edges().into_iter().zip(0u32..) {
                slots[fill[u as usize]] = (v, 6 * c + j);
                fill[u as usize] += 1;
            }
        }
        let mut edge_ids = vec![0u32; slots.len()];
        let mut marked_for = vec![NONE; num_vertices];
        let mut id_of = vec![0u32; num_vertices];
        let mut num_ids = 0u32;
        for u in 0..num_vertices {
            for &(v, slot) in &slots[offsets[u]..offsets[u + 1]] {
                if marked_for[v as usize] != u as u32 {
                    marked_for[v as usize] = u as u32;
                    id_of[v as usize] = num_ids;
                    num_ids += 1;
                }
                edge_ids[slot as usize] = id_of[v as usize];
            }
        }

        let mut vertex_mark = vec![NONE; num_vertices];
        let mut edge_mark = vec![NONE; num_ids as usize];
        let mark = |marks: &mut [u32], key: u32, n: u32| {
            let fresh = marks[key as usize] != n;
            marks[key as usize] = n;
            u32::from(fresh)
        };
        (0u32..)
            .zip(&self.nodes)
            .map(|(n, node)| {
                let range = node.start as usize..(node.start + node.len) as usize;
                let vertices = self.layout[range.clone()]
                    .iter()
                    .flat_map(|q| q.vertices())
                    .map(|v| mark(&mut vertex_mark, v, n))
                    .sum();
                let edges = edge_ids[6 * range.start..6 * range.end]
                    .iter()
                    .map(|&e| mark(&mut edge_mark, e, n))
                    .sum();
                (vertices, edges)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use ugraph::{GraphBuilder, UncertainGraph};

    use super::*;
    use crate::local::nuclei::extract_k_nuclei;
    use crate::{DecompConfig, Decomposition};

    /// Planted cliques of 4–6 vertices, every edge of one clique at one
    /// probability, each fresh, overlapping the previous one in one or
    /// two vertices, or sharing vertex 0; the first is planted again on
    /// vertex 0, so equal nuclei tie on density, `k`, edges and smallest
    /// vertex.  Background edges join random vertices.
    fn arb_planted_graph() -> impl Strategy<Value = UncertainGraph> {
        (
            proptest::collection::vec((4u32..=6, 0.05f64..=1.0, 0u32..4), 1..5),
            proptest::collection::vec((0u32..20, 0u32..20, 0.05f64..=1.0), 0..24),
        )
            .prop_map(|(mut blocks, background)| {
                blocks.push((blocks[0].0, blocks[0].1, 3));
                let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
                let mut end = 0u32;
                for (size, p, placement) in blocks {
                    let members: Vec<u32> = match placement {
                        3 => {
                            let fresh = end.max(1);
                            std::iter::once(0).chain(fresh..fresh + size - 1).collect()
                        }
                        overlap => (end.saturating_sub(overlap)..)
                            .take(size as usize)
                            .collect(),
                    };
                    end = end.max(members[members.len() - 1] + 1);
                    for (i, &u) in members.iter().enumerate() {
                        for &v in &members[i + 1..] {
                            edges.insert((u.min(v), u.max(v)), p);
                        }
                    }
                }
                for (u, v, p) in background {
                    if u != v {
                        edges.entry((u.min(v), u.max(v))).or_insert(p);
                    }
                }
                let mut b = GraphBuilder::new();
                for ((u, v), p) in edges {
                    b.add_edge(u, v, p).unwrap();
                }
                b.build()
            })
    }

    fn two_k5s_sharing_vertex(p: f64, q: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for (members, p) in [([0u32, 1, 2, 3, 4], p), ([0, 5, 6, 7, 8], q)] {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    b.add_edge(u, v, p).unwrap();
                }
            }
        }
        b.build()
    }

    fn forest_of(g: &UncertainGraph, theta: f64) -> (Decomposition, NucleusForest) {
        let d = Decomposition::compute(g, &DecompConfig::nucleus(theta)).unwrap();
        let forest = NucleusForest::build(d.nucleus_support().unwrap(), d.scores());
        (d, forest)
    }

    #[test]
    fn an_unchanged_component_is_one_node_across_k() {
        // Both K5s reach k = 2 at θ = 0.1; nothing joins them below, so
        // each is one node spanning k = 0..=2.
        let (_, forest) = forest_of(&two_k5s_sharing_vertex(0.9, 0.9), 0.1);
        assert_eq!(forest.nodes.len(), 2);
        for n in 0..2 {
            assert_eq!(forest.k_range(n), 0..=2);
            assert_eq!(forest.parent(n), None);
            assert_eq!((forest.vertices(n).len(), forest.num_edges(n)), (5, 10));
        }
        assert_eq!(forest.vertices(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(forest.vertices(1), vec![0, 5, 6, 7, 8]);
        // Vertex 0 is in both at k = 2: its home is the smaller first
        // clique.  Vertex 9 is in no clique.
        assert_eq!(forest.home(0), Some(0));
        assert_eq!(forest.home(6), Some(1));
        assert_eq!(forest.home(9), None);
        // The equal pair ranks by smallest clique at each k, highest k
        // first.
        let ranked: Vec<(NodeId, u32)> = forest.ranked();
        assert_eq!(ranked, vec![(0, 2), (1, 2), (0, 1), (1, 1)]);
    }

    #[test]
    fn a_weaker_clique_sits_below_a_stronger_one() {
        // At θ = 0.3 the strong K5 scores 2 and the weak one less, so the
        // weak one's nodes start lower.
        let (d, forest) = forest_of(&two_k5s_sharing_vertex(0.95, 0.4), 0.3);
        assert_eq!(d.max_score(), 2);
        let strong = forest.home(1).unwrap();
        assert_eq!(forest.k_range(strong), 0..=2);
        let weak = forest.home(6).unwrap();
        assert!(*forest.k_range(weak).end() < 2);
        assert_eq!(forest.home(0), Some(strong));
        assert_eq!(forest.at(3).count(), 0);
    }

    proptest! {
        // Default config: 64 cases, scaled up via PROPTEST_CASES in CI's
        // thorough job.
        #![proptest_config(ProptestConfig::default())]

        /// Every node at every k from 0 to max + 1 against extraction —
        /// order, cliques, vertices, edge counts and the counted sizes —
        /// plus the ranked list and every vertex's home against scans of
        /// the extracted nuclei.
        #[test]
        fn forest_matches_extraction(g in arb_planted_graph(), theta in 0.02f64..0.9) {
            let (d, forest) = forest_of(&g, theta);
            let support = d.nucleus_support().unwrap();
            let max = d.max_score();
            let extracted: Vec<_> = (0..=max + 1)
                .map(|k| extract_k_nuclei(&g, support, d.scores(), k))
                .collect();
            let sizes = forest.count_sizes();
            for (k, nuclei) in extracted.iter().enumerate() {
                let nodes: Vec<NodeId> = forest.at(k as u32).collect();
                prop_assert_eq!(nodes.len(), nuclei.len(), "k = {}", k);
                for (&n, nucleus) in nodes.iter().zip(nuclei) {
                    let mut cliques = forest.cliques(n).to_vec();
                    cliques.sort_unstable();
                    prop_assert_eq!(&cliques, &nucleus.cliques, "k = {}", k);
                    prop_assert_eq!(forest.first_clique(n), nucleus.cliques[0]);
                    prop_assert_eq!(forest.vertices(n), nucleus.subgraph.original_vertices());
                    prop_assert_eq!(forest.num_edges(n), nucleus.num_edges());
                    prop_assert_eq!(sizes[n as usize], (nucleus.num_vertices() as u32, nucleus.num_edges() as u32));
                }
            }
            for n in 0..forest.nodes.len() as NodeId {
                if let Some(p) = forest.parent(n) {
                    prop_assert_eq!(*forest.k_range(p).end() + 1, *forest.k_range(n).start());
                }
            }

            // The ranking the server applied to extracted nuclei: pushed
            // in ascending k and extraction order, stably sorted.
            let mut scan: Vec<(f64, u32, usize, u32, FourClique)> = Vec::new();
            for (k, nuclei) in extracted.iter().enumerate().take(max as usize + 1).skip(1) {
                for n in nuclei {
                    let density = n.num_edges() as f64 / n.num_vertices() as f64;
                    let first_vertex = n.subgraph.original_vertices()[0];
                    scan.push((density, k as u32, n.num_edges(), first_vertex, n.cliques[0]));
                }
            }
            scan.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(Ordering::Equal)
                    .then(b.1.cmp(&a.1))
                    .then(b.2.cmp(&a.2))
                    .then(a.3.cmp(&b.3))
            });
            let ranked: Vec<(u32, FourClique)> = forest
                .ranked()
                .into_iter()
                .map(|(n, k)| (k, forest.first_clique(n)))
                .collect();
            let expected: Vec<(u32, FourClique)> = scan.iter().map(|e| (e.1, e.4)).collect();
            prop_assert_eq!(ranked, expected);

            for v in 0..g.num_vertices() as VertexId + 1 {
                let expected = (0..=max as usize).rev().find_map(|k| {
                    extracted[k]
                        .iter()
                        .find(|n| n.subgraph.original_vertices().contains(&v))
                        .map(|n| (k as u32, n.cliques[0]))
                });
                let home = forest
                    .home(v)
                    .map(|n| (*forest.k_range(n).end(), forest.first_clique(n)));
                prop_assert_eq!(home, expected, "vertex {}", v);
            }
        }
    }
}
