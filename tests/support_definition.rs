//! Definitional oracle for the edge-ordered triangle pass and the (1,2),
//! (2,3) and (3,4) support builds.
//!
//! The (2,3) and (3,4) supports are assembled from one edge-ordered
//! triangle pass whose 4-cliques are extensions along per-edge triangle
//! runs; nothing in that assembly looks a triangle id or an edge
//! probability up.  The (1,2) support is a scan of the edge table.  This
//! suite checks the pass and the results against a construction taken
//! straight from the definition, bit for bit:
//!
//! * triangles and 4-cliques come from the slow recursive
//!   [`enumerate_k_cliques`], and an id is the position in that sorted
//!   list;
//! * a triangle's edge ids and probabilities are [`UncertainGraph::edge_id`]
//!   and [`UncertainGraph::edge_probability`] lookups, and an edge's run
//!   holds the ids of the triangles whose smallest edge it is;
//! * every probability is a product of [`UncertainGraph::edge_probability`]
//!   values in the documented order — `Pr(△(a,b,c)) = p(a,b)·p(b,c)·p(a,c)`;
//!   for a 4-clique, each triangle's three vertices joined to the
//!   completing vertex, left to right; for a truss cell, the two other
//!   edges of the triangle, `{a,b}` before `{a,c}` before `{b,c}`;
//! * every incidence list is the ascending ids of the cells that contain
//!   the element;
//! * a vertex's cells are its incident edges in ascending neighbour
//!   order, each holding the edge's two endpoints and completed with the
//!   edge's probability, and a vertex itself exists with probability 1.
//!
//! Graphs are random with random probabilities, plus the shapes that
//! break index arithmetic: edgeless, triangle-free, complete, "hubs
//! first" (the two smallest ids joined to every other vertex, as in the
//! benchmark generators) and graphs whose highest vertex ids are
//! isolated.  Each is built at `Sequential`, at two threads and at eight
//! (one edge per chunk at these sizes, so chunks begin inside vertices'
//! edge runs).  The sequential build is then patched around a random
//! valid update batch (the supports' `repair`), which must equal the
//! same construction on the updated graph.
//!
//! Case counts scale with `PROPTEST_CASES` (64 by default).

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::SupportStructure;
use prob_nucleus_repro::ugraph::cliques::enumerate_k_cliques;
use prob_nucleus_repro::ugraph::rs::{CoreSupport, RsSupport, TrussSupport};
use prob_nucleus_repro::ugraph::triangles::{enumerate_triangles_with, TriangleTable};
use prob_nucleus_repro::ugraph::{
    apply_edge_updates, EdgeUpdate, FourCliqueEnumerator, GraphBuilder, Parallelism, Triangle,
    TriangleIndex, UncertainGraph, VertexId,
};

/// Parallelism settings every build is checked at.
fn settings() -> [Parallelism; 3] {
    [
        Parallelism::Sequential,
        Parallelism::fixed(2),
        Parallelism::fixed(8),
    ]
}

/// Largest vertex count drawn (before isolated padding).
const MAX_N: u32 = 9;
/// Number of vertex pairs of `MAX_N` vertices.
const MAX_PAIRS: usize = (MAX_N * (MAX_N - 1) / 2) as usize;

/// Builds one of five graph shapes on `n` vertices, padded with
/// `isolated` edgeless vertices at the top of the id range:
/// `0` random with the given density, `1` edgeless, `2` bipartite
/// (even–odd pairs only, hence triangle-free), `3` complete, `4` hubs
/// first (vertices 0 and 1 joined to every other vertex, the rest
/// random).
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
            3 => true,
            _ => u < 2 || coins[i] < density,
        };
        if keep {
            b.add_edge(u, v, probs[i]).unwrap();
        }
    }
    b.build()
}

fn arb_graph() -> impl Strategy<Value = UncertainGraph> {
    (
        0u32..5,
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

/// The (1,2) support, from the definition.
struct CoreDef {
    cells_of: Vec<Vec<u32>>,
    cell_elements: Vec<[VertexId; 2]>,
    completion: Vec<f64>,
}

fn core_def(g: &UncertainGraph) -> CoreDef {
    let n = g.num_vertices() as VertexId;
    let e = |x, y| g.edge_id(x, y).expect("edge exists");
    let mut cell_elements = vec![[0, 0]; g.num_edges()];
    let mut completion = vec![0.0; g.num_edges()];
    for u in 0..n {
        for v in (u + 1)..n {
            if g.has_edge(u, v) {
                cell_elements[e(u, v) as usize] = [u, v];
                completion[e(u, v) as usize] = p(g, u, v);
            }
        }
    }
    let cells_of = (0..n)
        .map(|v| {
            (0..n)
                .filter(|&w| g.has_edge(v, w))
                .map(|w| e(v, w))
                .collect()
        })
        .collect();
    CoreDef {
        cells_of,
        cell_elements,
        completion,
    }
}

fn assert_core_matches(s: &CoreSupport, def: &CoreDef, what: &str) {
    assert_eq!(s.num_elements(), def.cells_of.len(), "{what}: vertex count");
    assert_eq!(s.num_cells(), def.cell_elements.len(), "{what}: edge count");
    for (v, cells) in def.cells_of.iter().enumerate() {
        let id = v as u32;
        assert_eq!(s.element_prob(id), 1.0, "{what}: Pr of vertex {v}");
        assert_eq!(s.cells_of(id), cells.as_slice(), "{what}: cells of {v}");
    }
    for (c, members) in def.cell_elements.iter().enumerate() {
        let id = c as u32;
        assert_eq!(s.cell_elements(id), members, "{what}: members of edge {c}");
        for &m in members {
            assert_eq!(
                s.completion_prob(id, m).to_bits(),
                def.completion[c].to_bits(),
                "{what}: completion of edge {c} for vertex {m}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The triangle pass equals the definition at every parallelism
    /// setting and streaming chunk size: the table's triangles, edge ids,
    /// probability bits and runs, the plain enumeration, the streamed
    /// index and the 4-cliques extended from the table.
    #[test]
    fn triangle_table_matches_the_definition(g in arb_graph()) {
        let triangles = k_cliques::<3>(&g);
        let e = |x, y| g.edge_id(x, y).expect("triangle edge exists");
        let edge_ids: Vec<[u32; 3]> = triangles
            .iter()
            .map(|&[a, b, c]| [e(a, b), e(a, c), e(b, c)])
            .collect();
        let probs: Vec<[u64; 3]> = triangles
            .iter()
            .map(|&[a, b, c]| [p(&g, a, b), p(&g, a, c), p(&g, b, c)].map(f64::to_bits))
            .collect();
        let runs: Vec<Vec<usize>> = (0..g.num_edges() as u32)
            .map(|x| {
                (0..triangles.len())
                    .filter(|&t| edge_ids[t].iter().min() == Some(&x))
                    .collect()
            })
            .collect();
        let cliques = k_cliques::<4>(&g);
        let vertices = |ts: &[Triangle]| ts.iter().map(Triangle::vertices).collect::<Vec<_>>();
        for par in settings() {
            let table = TriangleTable::build(&g, par);
            prop_assert_eq!(vertices(table.triangles()), triangles.clone(), "table at {}", par);
            for t in 0..triangles.len() {
                let id = t as u32;
                prop_assert_eq!(table.edge_ids(id), edge_ids[t], "edge ids of {} at {}", t, par);
                prop_assert_eq!(
                    table.probs(id).map(f64::to_bits),
                    probs[t],
                    "probabilities of {} at {}",
                    t,
                    par
                );
            }
            for (x, run) in runs.iter().enumerate() {
                let got: Vec<usize> = table.run(x as u32).collect();
                prop_assert_eq!(&got, run, "run of edge {} at {}", x, par);
            }
            prop_assert_eq!(
                vertices(&enumerate_triangles_with(&g, par)),
                triangles.clone(),
                "enumeration at {}",
                par
            );
            let four: Vec<[VertexId; 4]> = FourCliqueEnumerator::with_parallelism(&g, par)
                .cliques()
                .iter()
                .map(|c| c.vertices())
                .collect();
            prop_assert_eq!(&four, &cliques, "4-cliques at {}", par);
        }
        for chunk in [1, 2, 3, 7, g.num_edges()] {
            let index = TriangleIndex::try_build_streaming(&g, chunk).expect("few triangles");
            prop_assert_eq!(
                vertices(index.triangles()),
                triangles.clone(),
                "streaming at chunk {}",
                chunk
            );
        }
    }

    /// Fresh builds equal the definition at every parallelism setting.
    #[test]
    fn builds_match_the_definition(g in arb_graph()) {
        let (nucleus, truss) = (nucleus_def(&g), truss_def(&g));
        assert_core_matches(&CoreSupport::build(&g), &core_def(&g), "build");
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
        let repaired = CoreSupport::repair(&g, &delta).support;
        assert_core_matches(&repaired, &core_def(&delta.graph), &what);
    }
}
