//! The server's nucleus answers against the handlers they replaced.
//!
//! `k_nuclei_at`, `top_nuclei` and `community` answer from one nucleus
//! forest per cached point.  Before the forest, each ran
//! `extract_k_nuclei` once per `k` it looked at; this file keeps a copy of
//! those handlers and compares response bytes on random small graphs with
//! planted equal cliques (ties on density, `k`, edges and smallest vertex)
//! and cliques with zero-score triangles (`k = 0` nuclei).

use std::collections::BTreeMap;

use proptest::prelude::*;

use nd_server::client::obj;
use nd_server::proto::ok_response;
use nd_server::{Json, ServerConfig, ServerCore};
use nucleus::local::nuclei::extract_k_nuclei;
use nucleus::{DecompConfig, Decomposition, SupportStructure};
use ugraph::{GraphBuilder, Parallelism, UncertainGraph};

/// Planted cliques of 4–6 vertices, every edge of one clique at one
/// probability, each fresh, overlapping the previous one in one or two
/// vertices, or sharing vertex 0; the first is planted again on vertex 0.
/// Background edges join random vertices, and the top vertex is isolated.
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
                        edges.insert((u, v), p);
                    }
                }
            }
            for (u, v, p) in background {
                if u != v {
                    edges.entry((u.min(v), u.max(v))).or_insert(p);
                }
            }
            let mut b = GraphBuilder::with_vertices(end.max(20) as usize + 1);
            for ((u, v), p) in edges {
                b.add_edge(u, v, p).unwrap();
            }
            b.build()
        })
}

/// One nucleus of an answer, as the handlers printed it.
fn summary(k: u32, vertices: &[u32], num_edges: usize) -> Json {
    obj(vec![
        ("k", Json::num(k as f64)),
        ("num_vertices", Json::num(vertices.len() as f64)),
        ("num_edges", Json::num(num_edges as f64)),
        (
            "vertices",
            Json::Arr(vertices.iter().map(|&v| Json::num(v as f64)).collect()),
        ),
    ])
}

/// The point a handler answered from.
struct Point<'a> {
    graph: &'a UncertainGraph,
    support: &'a SupportStructure,
    scores: &'a [u32],
    max_score: u32,
    theta: f64,
}

impl Point<'_> {
    /// `k_nuclei_at`: one extraction at `k`.
    fn k_nuclei_at(&self, k: u32) -> Json {
        let nuclei = extract_k_nuclei(self.graph, self.support, self.scores, k);
        let list = nuclei
            .iter()
            .map(|n| summary(n.k, n.subgraph.original_vertices(), n.num_edges()))
            .collect();
        obj(vec![
            ("theta", Json::num(self.theta)),
            ("k", Json::num(k as f64)),
            ("count", Json::num(nuclei.len() as f64)),
            ("nuclei", Json::Arr(list)),
        ])
    }

    /// `top_nuclei`: an extraction at every `k` from 1 to the maximum
    /// score, candidates pushed in ascending `k` and extraction order,
    /// then stably sorted.
    fn top_nuclei(&self, limit: usize) -> Json {
        let mut ranked: Vec<(f64, u32, usize, u32, Json)> = Vec::new();
        for k in 1..=self.max_score {
            for n in extract_k_nuclei(self.graph, self.support, self.scores, k) {
                let vertices = n.subgraph.original_vertices();
                let density = n.num_edges() as f64 / n.num_vertices() as f64;
                let first_vertex = vertices.iter().copied().min().unwrap_or(0);
                let entry = summary(k, vertices, n.num_edges());
                ranked.push((density, k, n.num_edges(), first_vertex, entry));
            }
        }
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
                .then(b.2.cmp(&a.2))
                .then(a.3.cmp(&b.3))
        });
        ranked.truncate(limit);
        let list: Vec<Json> = ranked
            .into_iter()
            .map(|(density, _, _, _, mut entry)| {
                if let Json::Obj(members) = &mut entry {
                    members.push(("density".to_string(), Json::num(density)));
                }
                entry
            })
            .collect();
        obj(vec![
            ("theta", Json::num(self.theta)),
            ("count", Json::num(list.len() as f64)),
            ("nuclei", Json::Arr(list)),
        ])
    }

    /// `community`: extractions from the maximum score down to 1, the
    /// first nucleus holding the vertex.
    fn community(&self, vertex: u32) -> Json {
        let mut answer = vec![
            ("theta", Json::num(self.theta)),
            ("vertex", Json::num(vertex as f64)),
        ];
        for k in (1..=self.max_score).rev() {
            let nuclei = extract_k_nuclei(self.graph, self.support, self.scores, k);
            if let Some(n) = nuclei
                .iter()
                .find(|n| n.subgraph.original_vertices().contains(&vertex))
            {
                let community = summary(n.k, n.subgraph.original_vertices(), n.num_edges());
                answer.push(("found", Json::Bool(true)));
                answer.push(("community", community));
                return obj(answer);
            }
        }
        answer.push(("found", Json::Bool(false)));
        obj(answer)
    }
}

/// The response body of one call, as text.
fn ask(core: &ServerCore, method: &str, params: Vec<(&str, Json)>) -> String {
    let body = obj(vec![
        ("id", Json::num(1.0)),
        ("method", Json::str(method)),
        ("params", obj(params)),
    ]);
    String::from_utf8(core.handle_body(body.to_json_string().as_bytes())).unwrap()
}

fn expected(result: Json) -> String {
    ok_response(1, result).to_json_string()
}

proptest! {
    // Default config: 64 cases, scaled up via PROPTEST_CASES in CI's
    // thorough job.
    #![proptest_config(ProptestConfig::default())]

    /// `k_nuclei_at` at every k from 0 to max + 1, `top_nuclei` at limits
    /// 0, 1, 5 and past the candidate count, and `community` for every
    /// vertex; then `community` for the isolated top vertex once an
    /// update gives it an edge, on the point the update left cached.
    #[test]
    fn nucleus_answers_match_extraction(g in arb_planted_graph(), theta in 0.02f64..0.9) {
        let config = ServerConfig {
            parallelism: Parallelism::Sequential,
            ..ServerConfig::default()
        };
        let core = ServerCore::new(g.clone(), config);
        let opened = ask(&core, "open", vec![
            ("rank", Json::str("nucleus")),
            ("thetas", Json::Arr(vec![Json::num(theta)])),
        ]);
        prop_assert!(opened.contains("\"session\":1"), "{}", opened);
        let at = |extra: Vec<(&'static str, Json)>| {
            let mut params = vec![("session", Json::num(1.0)), ("theta", Json::num(theta))];
            params.extend(extra);
            params
        };

        let decomp = Decomposition::compute(&g, &DecompConfig::nucleus(theta)).unwrap();
        let point = Point {
            graph: &g,
            support: decomp.nucleus_support().unwrap(),
            scores: decomp.scores(),
            max_score: decomp.max_score(),
            theta,
        };
        for k in 0..=point.max_score + 1 {
            let wire = ask(&core, "k_nuclei_at", at(vec![("k", Json::num(k as f64))]));
            prop_assert_eq!(wire, expected(point.k_nuclei_at(k)), "k = {}", k);
        }
        let candidates: usize = (1..=point.max_score)
            .map(|k| extract_k_nuclei(&g, point.support, point.scores, k).len())
            .sum();
        for limit in [0, 1, 5, candidates + 1] {
            let wire = ask(&core, "top_nuclei", at(vec![("limit", Json::num(limit as f64))]));
            prop_assert_eq!(wire, expected(point.top_nuclei(limit)), "limit = {}", limit);
        }
        for vertex in 0..g.num_vertices() as u32 {
            let wire = ask(&core, "community", at(vec![("vertex", Json::num(vertex as f64))]));
            prop_assert_eq!(wire, expected(point.community(vertex)), "vertex = {}", vertex);
        }

        // An edge to the isolated top vertex makes no triangle: the
        // nucleus rank keeps its support and the cached point, forest
        // included, and the vertex lies outside every 4-clique of both.
        let fresh = g.num_vertices() as u32 - 1;
        let applied = ask(&core, "apply_updates", vec![(
            "updates",
            Json::Arr(vec![obj(vec![
                ("op", Json::str("insert")),
                ("u", Json::num(0.0)),
                ("v", Json::num(fresh as f64)),
                ("p", Json::num(0.5)),
            ])]),
        )]);
        prop_assert!(applied.contains("\"cache_invalidations\":0"), "{}", applied);
        let updated = core.graph();
        let point = Point { graph: &updated, ..point };
        for vertex in [0, fresh] {
            let wire = ask(&core, "community", at(vec![("vertex", Json::num(vertex as f64))]));
            prop_assert_eq!(wire, expected(point.community(vertex)), "vertex = {}", vertex);
        }
        let wire = ask(&core, "community", at(vec![("vertex", Json::num(fresh as f64))]));
        prop_assert!(wire.contains("\"found\":false"), "{}", wire);
        prop_assert_eq!(core.stats().cache_misses, 1);
    }
}
