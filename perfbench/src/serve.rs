//! `serve`: one resident graph behind a `ServerCore`, driven in-process
//! by a single closed-loop client.
//!
//! The support of each rank is built once in set-up and shared, so the
//! op path is the peel on cache misses, answer shaping, the per-θ cache
//! and — on every 25th request — an edge-update batch that repairs both
//! resident supports.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use nd_server::{Json, ServerConfig, ServerCore, StatsSnapshot};
use nucleus::{DecompConfig, DecompHandle, Rank};
use ugraph::io;

use crate::gen::{self, Deck, GraphShape, Rng};
use crate::run::{
    median_or_zero, parse, repeat_setup, report_support_layers, Ctx, Outcome, PeelTally, SEQ,
    SETUP_ROUNDS,
};
use crate::verify::Digest;

/// About 74k edges, 58k triangles and 15k 4-cliques.  Communities of
/// nearly one size keep those counts within 2% across seeds.
pub const SHAPE: GraphShape = GraphShape {
    vertices: 10_000,
    attach: 5,
    closure: 0.6,
    communities: 240,
    community_size: (20, 24),
    density: 0.45,
};

/// Both sessions' threshold grid.  Each session deals θ from a deck of
/// [`GRID_COPIES`] copies of it: every seed requests each θ equally
/// often, and repeats within a deck let the two sessions' 16 keys
/// compete for [`CACHE_CAPACITY`] slots with about the hit ratio of
/// uniform draws rather than the near-zero one of a strict cycle.
pub const GRID: [f64; 8] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5];
pub const GRID_COPIES: usize = 3;
pub const CACHE_CAPACITY: usize = 4;
/// Every this many requests, one is an update batch.
pub const UPDATE_EVERY: usize = 25;
pub const UPDATE_BATCH: usize = 16;

/// Requests per second of `--seconds`, sized so one run takes about
/// `--seconds` on a nominal host.
pub const OPS_PER_SECOND: f64 = 55.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    MaxScoreAt,
    ScoresAt,
    KNucleiAt,
    TopNuclei,
    Community,
    ApplyUpdates,
}

impl Method {
    const ALL: [Method; 6] = [
        Method::MaxScoreAt,
        Method::ScoresAt,
        Method::KNucleiAt,
        Method::TopNuclei,
        Method::Community,
        Method::ApplyUpdates,
    ];

    fn wire_name(self) -> &'static str {
        match self {
            Method::MaxScoreAt => "max_score_at",
            Method::ScoresAt => "scores_at",
            Method::KNucleiAt => "k_nuclei_at",
            Method::TopNuclei => "top_nuclei",
            Method::Community => "community",
            Method::ApplyUpdates => "apply_updates",
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Method::MaxScoreAt => "serve.max_score_at_ms",
            Method::ScoresAt => "serve.scores_at_ms",
            Method::KNucleiAt => "serve.k_nuclei_at_ms",
            Method::TopNuclei => "serve.top_nuclei_ms",
            Method::Community => "serve.community_ms",
            Method::ApplyUpdates => "serve.apply_updates_ms",
        }
    }

    /// The read mix — scores_at 50%, max_score_at 15%, k_nuclei_at 15%,
    /// community 15%, top_nuclei 5% — as a deck of 20, so every seed runs
    /// the same mix.  Nucleus-rank misses of `scores_at` are the median
    /// class.
    fn read_deck() -> Deck<Method> {
        Deck::new(
            [
                (Method::ScoresAt, 10),
                (Method::MaxScoreAt, 3),
                (Method::KNucleiAt, 3),
                (Method::Community, 3),
                (Method::TopNuclei, 1),
            ]
            .iter()
            .flat_map(|&(m, n)| std::iter::repeat_n(m, n))
            .collect(),
        )
    }
}

/// The client's copy of the resident edge set, so every update batch it
/// sends is valid against the server's current graph.
struct Mirror {
    edges: Vec<(u32, u32)>,
    position: HashMap<(u32, u32), usize>,
}

impl Mirror {
    fn new(edges: &gen::EdgeList) -> Self {
        let edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let position = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Mirror { edges, position }
    }

    fn random_edge(&self, rng: &mut Rng) -> (u32, u32) {
        self.edges[rng.below(self.edges.len())]
    }

    /// A vertex drawn in proportion to its degree.
    fn random_vertex(&self, rng: &mut Rng) -> u32 {
        let (u, v) = self.random_edge(rng);
        if rng.chance(0.5) {
            u
        } else {
            v
        }
    }

    fn insert(&mut self, e: (u32, u32)) {
        self.position.insert(e, self.edges.len());
        self.edges.push(e);
    }

    fn remove(&mut self, e: (u32, u32)) {
        let i = self.position.remove(&e).expect("removed edge is present");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.position.insert(moved, i);
        }
    }

    /// A batch of distinct-edge updates — inserts of absent edges
    /// between degree-weighted endpoints, deletes and reweights of
    /// present ones — applied to the mirror as it is drawn.
    fn update_batch(&mut self, rng: &mut Rng) -> String {
        let mut used: HashSet<(u32, u32)> = HashSet::new();
        let mut items: Vec<String> = Vec::with_capacity(UPDATE_BATCH);
        let (inserts, deletes) = (UPDATE_BATCH * 5 / 16, UPDATE_BATCH * 5 / 16);
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        while inserted.len() < inserts {
            let (a, b) = (self.random_vertex(rng), self.random_vertex(rng));
            let e = (a.min(b), a.max(b));
            if a != b && !self.position.contains_key(&e) && used.insert(e) {
                let p = gen::strong_probability(rng);
                items.push(format!(
                    "{{\"op\":\"insert\",\"u\":{},\"v\":{},\"p\":{p}}}",
                    e.0, e.1
                ));
                inserted.push(e);
            }
        }
        while items.len() < UPDATE_BATCH {
            let e = self.random_edge(rng);
            if !used.insert(e) {
                continue;
            }
            if deleted.len() < deletes {
                items.push(format!("{{\"op\":\"delete\",\"u\":{},\"v\":{}}}", e.0, e.1));
                deleted.push(e);
            } else {
                let p = gen::weak_probability(rng);
                items.push(format!(
                    "{{\"op\":\"reweight\",\"u\":{},\"v\":{},\"p\":{p}}}",
                    e.0, e.1
                ));
            }
        }
        deleted.into_iter().for_each(|e| self.remove(e));
        inserted.into_iter().for_each(|e| self.insert(e));
        format!("{{\"updates\":[{}]}}", items.join(","))
    }
}

/// The fixed, seeded request sequence.
struct Requests {
    rng: Rng,
    mirror: Mirror,
    reads: Deck<Method>,
    /// θ decks of the nucleus and the truss session.
    thetas: [Deck<f64>; 2],
    ks: Deck<u32>,
    /// Session ids of the nucleus and the truss session.
    sessions: [u64; 2],
    triangles: usize,
}

impl Requests {
    fn new(seed: u64, edges: &gen::EdgeList, sessions: [u64; 2], triangles: usize) -> Self {
        Requests {
            rng: Rng::new(seed, 201),
            mirror: Mirror::new(edges),
            reads: Method::read_deck(),
            thetas: [theta_deck(), theta_deck()],
            ks: Deck::new(vec![1, 2, 3, 4]),
            sessions,
            triangles,
        }
    }

    /// Request `i`, drawn in order.
    fn next(&mut self, i: usize) -> (Method, String) {
        let rng = &mut self.rng;
        if (i + 1).is_multiple_of(UPDATE_EVERY) {
            let params = self.mirror.update_batch(rng);
            return (
                Method::ApplyUpdates,
                call_body(i, Method::ApplyUpdates, &params),
            );
        }
        let method = self.reads.draw(rng);
        let rank = usize::from(method == Method::MaxScoreAt);
        let session = self.sessions[rank];
        let theta = self.thetas[rank].draw(rng);
        let params = match method {
            Method::ScoresAt => {
                // Ids well below the triangle count at set-up, so they
                // stay valid while update batches add and remove
                // triangles.
                let bound = self.triangles * 4 / 5;
                let ids: Vec<String> = (0..32).map(|_| rng.below(bound).to_string()).collect();
                format!(
                    "{{\"session\":{session},\"theta\":{theta},\"elements\":[{}]}}",
                    ids.join(",")
                )
            }
            Method::KNucleiAt => {
                let k = self.ks.draw(rng);
                format!("{{\"session\":{session},\"theta\":{theta},\"k\":{k}}}")
            }
            Method::TopNuclei => {
                format!("{{\"session\":{session},\"theta\":{theta},\"limit\":5}}")
            }
            Method::Community => {
                let vertex = self.mirror.random_vertex(rng);
                format!("{{\"session\":{session},\"theta\":{theta},\"vertex\":{vertex}}}")
            }
            Method::MaxScoreAt => format!("{{\"session\":{session},\"theta\":{theta}}}"),
            Method::ApplyUpdates => unreachable!("update batches return early"),
        };
        (method, call_body(i, method, &params))
    }
}

fn theta_deck() -> Deck<f64> {
    Deck::new(GRID.repeat(GRID_COPIES))
}

/// The wire body of request `i`.
fn call_body(i: usize, method: Method, params: &str) -> String {
    format!(
        "{{\"id\":{},\"method\":\"{}\",\"params\":{params}}}",
        i + 1,
        method.wire_name()
    )
}

fn open_body(id: u64, rank: &str) -> String {
    let grid: Vec<String> = GRID.iter().map(f64::to_string).collect();
    format!(
        "{{\"id\":{id},\"method\":\"open\",\"params\":{{\"rank\":\"{rank}\",\"thetas\":[{}]}}}}",
        grid.join(",")
    )
}

/// The `result` of a response, or why the response is not a success.
fn result_of(response: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(response).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if let Some(error) = doc.get("error") {
        return Err(format!("error response {}", error.to_json_string()));
    }
    doc.get("result")
        .cloned()
        .ok_or_else(|| "response carries no result".to_string())
}

/// Shape checks a response must pass on any input.
fn check_response(method: Method, response: &[u8]) -> Result<Json, String> {
    let result = result_of(response)?;
    let ok = match method {
        Method::MaxScoreAt => result.get("max_score").is_some(),
        Method::ScoresAt => result
            .get("scores")
            .and_then(Json::as_array)
            .is_some_and(|s| s.len() == 32),
        Method::KNucleiAt | Method::TopNuclei => result.get("nuclei").is_some(),
        Method::Community => result.get("found").is_some(),
        Method::ApplyUpdates => result.get("applied").and_then(Json::as_bool) == Some(true),
    };
    if ok {
        Ok(result)
    } else {
        Err(format!("malformed {} result", method.wire_name()))
    }
}

fn session_id(response: &[u8]) -> u64 {
    result_of(response)
        .ok()
        .and_then(|r| r.get("session").and_then(Json::as_f64))
        .expect("open succeeds on a generated graph") as u64
}

/// A per-process snapshot path in the work directory.
fn snapshot_path(work_dir: &Path, seed: u64) -> PathBuf {
    work_dir.join(format!("serve-seed{seed}-{}.ugsnap", std::process::id()))
}

/// Removes the run's snapshot when the run ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    run_with(ctx, &SHAPE)
}

pub(crate) fn run_with(ctx: &mut Ctx, shape: &GraphShape) -> Outcome {
    let edges = gen::graph(shape, &mut Rng::new(ctx.seed, 200));
    let text = gen::to_text(&edges);
    let snapshot = TempFile(snapshot_path(&ctx.work_dir, ctx.seed));
    io::write_snapshot_file(&parse(&text), &snapshot.0).expect("snapshot written");

    let config = ServerConfig {
        cache_capacity: CACHE_CAPACITY,
        parallelism: SEQ,
        ..ServerConfig::default()
    };
    let ((core, sessions, triangles), setup) = repeat_setup(ctx, SETUP_ROUNDS, |tracer| {
        let id = tracer.open_setup("setup");
        let source = tracer.child("ingest.open", id, || {
            io::open_snapshot(&snapshot.0).expect("snapshot just written")
        });
        let core = tracer.child("server.new", id, || {
            ServerCore::new(source.into_graph(), config.clone())
        });
        let opened = tracer.child("support.build", id, || {
            [
                core.handle_body(open_body(1, "nucleus").as_bytes()),
                core.handle_body(open_body(2, "truss").as_bytes()),
            ]
        });
        tracer.close(id);
        let triangles = result_of(&opened[0])
            .ok()
            .and_then(|r| r.get("num_elements").and_then(Json::as_f64))
            .expect("nucleus session reports its triangle count") as usize;
        let sessions = [session_id(&opened[0]), session_id(&opened[1])];
        ((core, sessions, triangles), id)
    });
    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };

    let mut requests = Requests::new(ctx.seed, &edges, sessions, triangles);
    let mut by_method: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let (mut affected, mut region) = (0.0, 0.0);
    let start_stats = core.stats();
    for i in 0..ctx.ops {
        let (method, body) = requests.next(i);
        let before = core.stats();
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, response), timed) = cal.measure(|| {
            // The op is this one call, so its span is its only leaf.
            let id = tracer.open_op(method.wire_name(), i);
            let response = core.handle_body(body.as_bytes());
            tracer.close(id);
            (id, response)
        });
        ctx.tracer.set_factor(id, timed.factor());
        out.ops.push(timed);
        let after = core.stats();

        let mut digest = Digest::default();
        digest.bytes(&response);
        let verdict = check_response(method, &response);
        if let Ok(result) = &verdict {
            if method == Method::ApplyUpdates {
                let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                affected += count("affected_elements");
                region += count("region_elements");
            }
        }
        ctx.verifier.check(digest.finish(), verdict.map(drop));

        by_method
            .entry(method.layer())
            .or_default()
            .push(timed.cal_ms);
        if after.cache_misses > before.cache_misses {
            misses.push(timed.cal_ms);
        } else if after.cache_hits > before.cache_hits {
            hits.push(timed.cal_ms);
        }
    }

    if ctx.tracer.enabled() {
        report_layers(ctx, &mut out, &text, &by_method, (&hits, &misses));
        let delta = |f: fn(&StatsSnapshot) -> u64| (f(&core.stats()) - f(&start_stats)) as f64;
        let (h, m) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
        out.layer(
            "cache.hit_ratio",
            if h + m > 0.0 { h / (h + m) } else { 0.0 },
        );
        out.layer("cache.evictions", delta(|s| s.cache_evictions));
        out.layer("cache.invalidations", delta(|s| s.cache_invalidations));
        out.layer("repair.affected_elements", affected);
        out.layer("repair.region_elements", region);
    }
    out
}

fn report_layers(
    ctx: &mut Ctx,
    out: &mut Outcome,
    text: &str,
    by_method: &HashMap<&'static str, Vec<f64>>,
    (hits, misses): (&[f64], &[f64]),
) {
    for method in Method::ALL {
        let times = by_method.get(method.layer()).map_or(&[][..], Vec::as_slice);
        out.layer(method.layer(), median_or_zero(times));
    }
    out.layer("serve.hit_ms", median_or_zero(hits));
    out.layer("serve.miss_ms", median_or_zero(misses));
    out.layer(
        "ingest.open_ms",
        median_or_zero(&ctx.tracer.call_ms("ingest.open")),
    );

    // Derived probes on the set-up graph, parsed again untimed: its peel
    // at every grid point, then its two enumerations.
    let graph = parse(text);
    let handle = DecompHandle::build(&graph, Rank::Nucleus, SEQ);
    let mut peel = PeelTally::default();
    for theta in GRID {
        let (tracer, cal) = (&mut ctx.tracer, &mut ctx.cal);
        let ((id, point), timed) = cal.measure(|| {
            let id = tracer.open_derived("derived.peel");
            let config = DecompConfig::nucleus(theta).with_parallelism(SEQ);
            let point = tracer.child("peel.compute_at", id, || handle.compute_at(&config));
            tracer.close(id);
            (id, point)
        });
        ctx.tracer.set_factor(id, timed.factor());
        if let Ok(point) = point {
            peel.add(&point);
        }
    }
    report_support_layers(ctx, out, [&graph], &peel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::ctx;

    const SMALL: GraphShape = GraphShape {
        vertices: 600,
        attach: 3,
        closure: 0.6,
        communities: 20,
        community_size: (6, 16),
        density: 0.5,
    };

    #[test]
    fn requests_including_updates_all_succeed_and_repeat() {
        let mut first = ctx(5, 60, Vec::new());
        run_with(&mut first, &SMALL);
        assert_eq!(
            first.verifier.success_rate(),
            1.0,
            "{:?}",
            first.verifier.first_failures()
        );
        let digests = crate::verify::parse_digests(&first.verifier.recorded_text("t")).unwrap();
        let mut second = ctx(5, 60, digests);
        run_with(&mut second, &SMALL);
        assert_eq!(
            (second.verifier.attempted(), second.verifier.failed()),
            (60, 0)
        );
    }

    #[test]
    fn mirror_tracks_inserts_and_deletes() {
        let edges: gen::EdgeList = (0..50u32).map(|i| (i, i + 1, 0.5)).collect();
        let mut mirror = Mirror::new(&edges);
        let mut rng = Rng::new(1, 1);
        let body = mirror.update_batch(&mut rng);
        assert_eq!(body.matches("\"op\"").count(), UPDATE_BATCH);
        assert_eq!(mirror.edges.len(), 50);
        assert_eq!(mirror.position.len(), 50);
        for (i, e) in mirror.edges.iter().enumerate() {
            assert_eq!(mirror.position[e], i);
        }
    }
}
