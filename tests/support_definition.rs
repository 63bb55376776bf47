//! Definitional oracle for the (2,3) and (3,4) support builds.
//!
//! Both supports are assembled from one edge-ordered triangle pass whose
//! 4-cliques are extensions along per-edge triangle runs; nothing in
//! that assembly looks a triangle id or an edge probability up.  This
//! suite checks the result against a construction taken straight from
//! the definition, bit for bit:
//!
//! * triangles and 4-cliques come from the slow recursive
//!   [`enumerate_k_cliques`], and an id is the position in that sorted
//!   list;
//! * every probability is a product of [`UncertainGraph::edge_probability`]
//!   values in the documented order — `Pr(△(a,b,c)) = p(a,b)·p(b,c)·p(a,c)`;
//!   for a 4-clique, each triangle's three vertices joined to the
//!   completing vertex, left to right; for a truss cell, the two other
//!   edges of the triangle, `{a,b}` before `{a,c}` before `{b,c}`;
//! * every incidence list is the ascending ids of the cells that contain
//!   the element.
//!
//! Graphs are random with random probabilities, plus the shapes that
//! break index arithmetic: edgeless, triangle-free, complete, and graphs
//! whose highest vertex ids are isolated.  Each is built at
//! `Sequential` and at two threads.  The sequential build is then
//! patched around a random valid update batch (the supports' `repair`),
//! which must equal the same construction on the updated graph.
//!
//! Case counts scale with `PROPTEST_CASES` (64 by default).

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::SupportStructure;
use prob_nucleus_repro::ugraph::cliques::enumerate_k_cliques;
use prob_nucleus_repro::ugraph::rs::{RsSupport, TrussSupport};
use prob_nucleus_repro::ugraph::{
    apply_edge_updates, EdgeUpdate, GraphBuilder, Parallelism, UncertainGraph, VertexId,
};

/// Parallelism settings every build is checked at.
fn settings() -> [Parallelism; 2] {
    [Parallelism::Sequential, Parallelism::fixed(2)]
}

/// Largest vertex count drawn (before isolated padding).
const MAX_N: u32 = 9;
/// Number of vertex pairs of `MAX_N` vertices.
const MAX_PAIRS: usize = (MAX_N * (MAX_N - 1) / 2) as usize;

/// Builds one of four graph shapes on `n` vertices, padded with
/// `isolated` edgeless vertices at the top of the id range:
/// `0` random with the given density, `1` edgeless, `2` bipartite
/// (even–odd pairs only, hence triangle-free), `3` complete.
fn shaped_graph(
    shape: u32,
    n: u32,
    isolated: usize,
    density: f64,
    coins: &[f64],
    probs: &[f64],
) -> UncertainGraph {
    let mut b = GraphBuilder::with_vertices(n as usize + isolated);
    let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
    for (i, (u, v)) in pairs.enumerate() {
        let keep = match shape {
            0 => coins[i] < density,
            1 => false,
            2 => (u + v) % 2 == 1 && coins[i] < density.max(0.5),
            _ => true,
        };
        if keep {
            b.add_edge(u, v, probs[i]).unwrap();
        }
    }
    b.build()
}

fn arb_graph() -> impl Strategy<Value = UncertainGraph> {
    (
        0u32..4,
        1u32..=MAX_N,
        0usize..3,
        0.3f64..0.95,
        (
            proptest::collection::vec(0.0f64..1.0, MAX_PAIRS),
            proptest::collection::vec(0.01f64..=1.0, MAX_PAIRS),
        ),
    )
        .prop_map(|(shape, n, isolated, density, (coins, probs))| {
            shaped_graph(shape, n, isolated, density, &coins, &probs)
        })
}

/// A graph plus a valid-by-construction batch: each edge deleted or
/// reweighted with probability 0.2 each, each absent pair inserted with
/// probability 0.25 (the empty batch occurs naturally).
fn arb_graph_and_batch() -> impl Strategy<Value = (UncertainGraph, Vec<EdgeUpdate>)> {
    (
        arb_graph(),
        proptest::collection::vec(0.0f64..1.0, 2 * MAX_PAIRS),
        proptest::collection::vec(0.01f64..=1.0, 2 * MAX_PAIRS),
    )
        .prop_map(|(g, coins, probs)| {
            let n = g.num_vertices() as u32;
            let mut batch = Vec::new();
            let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
            for (i, (u, v)) in pairs.enumerate() {
                let (coin, p) = (coins[i % coins.len()], probs[i % probs.len()]);
                if g.has_edge(u, v) {
                    if coin < 0.2 {
                        batch.push(EdgeUpdate::Delete { u, v });
                    } else if coin < 0.4 {
                        batch.push(EdgeUpdate::Reweight { u, v, p });
                    }
                } else if coin < 0.25 {
                    batch.push(EdgeUpdate::Insert { u, v, p });
                }
            }
            (g, batch)
        })
}

fn p(g: &UncertainGraph, x: VertexId, y: VertexId) -> f64 {
    g.edge_probability(x, y).expect("clique edge exists")
}

/// Ascending ids of the cells containing each of `num_elements`
/// elements, given every cell's members.
fn incidence<const K: usize>(num_elements: usize, cells: &[[u32; K]]) -> Vec<Vec<u32>> {
    (0..num_elements as u32)
        .map(|t| {
            (0..cells.len() as u32)
                .filter(|&c| cells[c as usize].contains(&t))
                .collect()
        })
        .collect()
}

/// The sorted k-cliques of `g` as fixed-size arrays.
fn k_cliques<const K: usize>(g: &UncertainGraph) -> Vec<[VertexId; K]> {
    let mut cliques: Vec<[VertexId; K]> = enumerate_k_cliques(g, K)
        .into_iter()
        .map(|c| c.try_into().expect("k-clique has k vertices"))
        .collect();
    cliques.sort_unstable();
    cliques
}

/// The (3,4) support, from the definition.
struct NucleusDef {
    triangles: Vec<[VertexId; 3]>,
    triangle_probs: Vec<f64>,
    cliques: Vec<[VertexId; 4]>,
    clique_triangles: Vec<[u32; 4]>,
    completion: Vec<[f64; 4]>,
    cliques_of: Vec<Vec<u32>>,
}

fn nucleus_def(g: &UncertainGraph) -> NucleusDef {
    let triangles = k_cliques::<3>(g);
    let id = |t: [VertexId; 3]| triangles.binary_search(&t).expect("indexed") as u32;
    let triangle_probs = triangles
        .iter()
        .map(|&[a, b, c]| p(g, a, b) * p(g, b, c) * p(g, a, c))
        .collect();
    let cliques = k_cliques::<4>(g);
    let mut clique_triangles = Vec::new();
    let mut completion = Vec::new();
    for &[a, b, c, d] in &cliques {
        // Slot order [abc, abd, acd, bcd]; each completed by the one
        // clique vertex it lacks.
        let slots = [
            ([a, b, c], d),
            ([a, b, d], c),
            ([a, c, d], b),
            ([b, c, d], a),
        ];
        clique_triangles.push(slots.map(|(t, _)| id(t)));
        completion.push(slots.map(|([x, y, w], z)| p(g, x, z) * p(g, y, z) * p(g, w, z)));
    }
    let cliques_of = incidence(triangles.len(), &clique_triangles);
    NucleusDef {
        triangles,
        triangle_probs,
        cliques,
        clique_triangles,
        completion,
        cliques_of,
    }
}

fn assert_nucleus_matches(s: &SupportStructure, def: &NucleusDef, what: &str) {
    assert_eq!(
        s.num_triangles(),
        def.triangles.len(),
        "{what}: triangle count"
    );
    assert_eq!(s.num_cliques(), def.cliques.len(), "{what}: 4-clique count");
    for (t, tri) in def.triangles.iter().enumerate() {
        let id = t as u32;
        assert_eq!(&s.triangle(id).vertices(), tri, "{what}: triangle {t}");
        assert_eq!(
            s.triangle_prob(id).to_bits(),
            def.triangle_probs[t].to_bits(),
            "{what}: Pr of triangle {t}"
        );
        assert_eq!(
            s.cliques_of(id),
            def.cliques_of[t].as_slice(),
            "{what}: cliques of {t}"
        );
    }
    for (c, clique) in def.cliques.iter().enumerate() {
        let record = s.clique(c as u32);
        assert_eq!(&record.clique.vertices(), clique, "{what}: clique {c}");
        assert_eq!(
            record.triangles, def.clique_triangles[c],
            "{what}: triangles of {c}"
        );
        assert_eq!(
            record.completion_probs.map(f64::to_bits),
            def.completion[c].map(f64::to_bits),
            "{what}: completion probabilities of clique {c}"
        );
    }
}

/// The (2,3) support, from the definition.
struct TrussDef {
    edge_probs: Vec<f64>,
    cell_elements: Vec<[u32; 3]>,
    completion: Vec<[f64; 3]>,
    cells_of: Vec<Vec<u32>>,
}

fn truss_def(g: &UncertainGraph) -> TrussDef {
    let triangles = k_cliques::<3>(g);
    let e = |x, y| g.edge_id(x, y).expect("triangle edge exists");
    let cell_elements: Vec<[u32; 3]> = triangles
        .iter()
        .map(|&[a, b, c]| [e(a, b), e(a, c), e(b, c)])
        .collect();
    let completion = triangles
        .iter()
        .map(|&[a, b, c]| {
            let (pab, pac, pbc) = (p(g, a, b), p(g, a, c), p(g, b, c));
            [pac * pbc, pab * pbc, pab * pac]
        })
        .collect();
    TrussDef {
        edge_probs: g.edges().iter().map(|e| e.p).collect(),
        cells_of: incidence(g.num_edges(), &cell_elements),
        cell_elements,
        completion,
    }
}

fn assert_truss_matches(s: &TrussSupport, def: &TrussDef, what: &str) {
    assert_eq!(s.num_elements(), def.edge_probs.len(), "{what}: edge count");
    assert_eq!(
        s.num_cells(),
        def.cell_elements.len(),
        "{what}: triangle count"
    );
    for (e, &pe) in def.edge_probs.iter().enumerate() {
        let id = e as u32;
        assert_eq!(
            s.element_prob(id).to_bits(),
            pe.to_bits(),
            "{what}: Pr of edge {e}"
        );
        assert_eq!(
            s.cells_of(id),
            def.cells_of[e].as_slice(),
            "{what}: cells of edge {e}"
        );
    }
    for (c, members) in def.cell_elements.iter().enumerate() {
        let id = c as u32;
        assert_eq!(
            s.cell_elements(id),
            members,
            "{what}: members of triangle {c}"
        );
        for (slot, &m) in members.iter().enumerate() {
            assert_eq!(
                s.completion_prob(id, m).to_bits(),
                def.completion[c][slot].to_bits(),
                "{what}: completion of triangle {c} for edge {m}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Fresh builds equal the definition at every parallelism setting.
    #[test]
    fn builds_match_the_definition(g in arb_graph()) {
        let (nucleus, truss) = (nucleus_def(&g), truss_def(&g));
        for par in settings() {
            let what = format!("build at {par}");
            assert_nucleus_matches(&SupportStructure::build_with(&g, par), &nucleus, &what);
            assert_truss_matches(&TrussSupport::build(&g, par), &truss, &what);
        }
    }

    /// Supports patched after a random batch equal the definition on the
    /// updated graph.
    #[test]
    fn repairs_match_the_definition(case in arb_graph_and_batch()) {
        let (g, batch) = case;
        let delta = apply_edge_updates(&g, &batch).expect("batch is valid by construction");
        let (nucleus, truss) = (nucleus_def(&delta.graph), truss_def(&delta.graph));
        let what = format!("repair of batch {batch:?}");
        let repaired = SupportStructure::build(&g).repair(&g, &delta).support;
        assert_nucleus_matches(&repaired, &nucleus, &what);
        let repaired = TrussSupport::build(&g, Parallelism::Sequential).repair(&g, &delta).support;
        assert_truss_matches(&repaired, &truss, &what);
    }
}
