//! Scripted self-test: boot a server, drive it over real TCP, compare
//! every answer bit-for-bit against direct library calls.
//!
//! This is what `experiments serve --oneshot` (and the CI `serve-smoke`
//! job) runs.  The script is fixed, so every [`crate::ServerStats`]
//! counter it
//! produces is a deterministic function of the graph and θ grid —
//! `bench-compare` gates them at tolerance 0.  The script deliberately
//! sends **no** malformed frames: `protocol_errors` must end at 0, which
//! is itself one of the gates.

use std::sync::Arc;

use nucleus::{DecompSweep, SweepConfig};
use ugraph::{apply_edge_updates, EdgeUpdate, Parallelism, UncertainGraph};

use crate::client::{obj, Client, ClientError};
use crate::json::Json;
use crate::proto::ErrorCode;
use crate::server::{nucleus_json, Server, ServerConfig, ServerCore};
use crate::stats::StatsSnapshot;

/// Options of a oneshot run.
#[derive(Debug, Clone)]
pub struct OneshotOptions {
    /// The θ grid the scripted session pins (needs ≥ 2 points).
    pub thetas: Vec<f64>,
    /// LRU capacity of the server under test.
    pub cache_capacity: usize,
    /// Worker-pool size and support-build parallelism.
    pub parallelism: Parallelism,
}

impl Default for OneshotOptions {
    fn default() -> Self {
        OneshotOptions {
            thetas: vec![0.1, 0.3],
            cache_capacity: 32,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Outcome of a oneshot run.
#[derive(Debug, Clone)]
pub struct OneshotReport {
    /// Vertices of the served graph.
    pub vertices: usize,
    /// Edges of the served graph.
    pub edges: usize,
    /// The θ grid the script used.
    pub thetas: Vec<f64>,
    /// `true` when every wire answer matched the direct library call
    /// bit-for-bit.
    pub bit_identical: bool,
    /// Names of failed checks (empty on success).
    pub failures: Vec<String>,
    /// Final deterministic counters of the drained server.
    pub stats: StatsSnapshot,
}

impl OneshotReport {
    /// `true` when the self-test passed end to end.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

struct Checker {
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failures.push(name.to_string());
        }
    }
}

fn scores_from_json(result: &Json) -> Option<Vec<u32>> {
    result
        .get("scores")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map(|n| n as u32))
        .collect()
}

/// A `top_nuclei` entry split into its nucleus and its trailing density.
fn split_density(entry: &Json) -> Option<(Json, f64)> {
    let Json::Obj(members) = entry else {
        return None;
    };
    let ((key, density), nucleus) = members.split_last()?;
    if key != "density" {
        return None;
    }
    Some((Json::Obj(nucleus.to_vec()), density.as_f64()?))
}

/// Runs the scripted session against a freshly booted server and
/// returns the verdicts plus final counters.
pub fn run_oneshot(
    graph: &UncertainGraph,
    options: &OneshotOptions,
) -> Result<OneshotReport, ClientError> {
    assert!(
        options.thetas.len() >= 2,
        "the oneshot script needs a grid of at least 2 thetas"
    );

    // Ground truth: one sweep over the same grid, straight through the
    // library.  The server must reproduce it bit-for-bit.
    let sweep_config = SweepConfig::exact(options.thetas.clone());
    let sweep = DecompSweep::compute(graph, &sweep_config).expect("oneshot grid must be valid");

    // The update leg: a deterministic batch derived from the graph
    // itself (reweight the first edge, delete the last one), with a
    // fresh sweep over the updated graph as its ground truth.
    let edges = graph.edges();
    assert!(
        !edges.is_empty(),
        "the oneshot script needs a graph with at least one edge"
    );
    let first = edges[0];
    let mut batch = vec![EdgeUpdate::Reweight {
        u: first.u,
        v: first.v,
        p: first.p * 0.5,
    }];
    if edges.len() > 1 {
        let last = edges[edges.len() - 1];
        batch.push(EdgeUpdate::Delete {
            u: last.u,
            v: last.v,
        });
    }
    let delta = apply_edge_updates(graph, &batch).expect("scripted update batch is valid");
    let post_sweep =
        DecompSweep::compute(&delta.graph, &sweep_config).expect("post-update grid must be valid");
    let truth = UpdateTruth {
        batch: &batch,
        removed: delta.removed,
        reweighted: delta.reweighted,
        edges_after: delta.graph.num_edges(),
        // Both scripted grid points are resident when the update lands
        // (unless the capacity cannot hold them), and the update touches
        // the only resident rank, so exactly those entries drop.
        expected_invalidations: options.cache_capacity.min(2),
        post_sweep: &post_sweep,
    };

    let core = ServerCore::new(
        graph.clone(),
        ServerConfig {
            cache_capacity: options.cache_capacity,
            parallelism: options.parallelism,
            ..ServerConfig::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core)).map_err(ClientError::Io)?;
    let addr = server.local_addr().map_err(ClientError::Io)?;

    let (checker, stats) = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let script = run_script(addr, &sweep, graph, &truth);
        // Belt and braces: the script's last call is `shutdown`, but if
        // it errored out early the server must still come down.
        core.request_shutdown();
        let stats = runner.join().expect("server thread must not panic");
        script.map(|checker| (checker, stats))
    })?;

    let bit_identical = !checker
        .failures
        .iter()
        .any(|f| f.starts_with("bit-identity"));
    Ok(OneshotReport {
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        thetas: options.thetas.clone(),
        bit_identical,
        failures: checker.failures,
        stats,
    })
}

/// The scripted update batch plus everything its outcome is checked
/// against: the library-side net effect and a fresh sweep over the
/// updated graph.
struct UpdateTruth<'a> {
    batch: &'a [EdgeUpdate],
    removed: usize,
    reweighted: usize,
    edges_after: usize,
    expected_invalidations: usize,
    post_sweep: &'a DecompSweep,
}

fn update_json(update: &EdgeUpdate) -> Json {
    match *update {
        EdgeUpdate::Insert { u, v, p } => obj(vec![
            ("op", Json::str("insert")),
            ("u", Json::num(u as f64)),
            ("v", Json::num(v as f64)),
            ("p", Json::num(p)),
        ]),
        EdgeUpdate::Delete { u, v } => obj(vec![
            ("op", Json::str("delete")),
            ("u", Json::num(u as f64)),
            ("v", Json::num(v as f64)),
        ]),
        EdgeUpdate::Reweight { u, v, p } => obj(vec![
            ("op", Json::str("reweight")),
            ("u", Json::num(u as f64)),
            ("v", Json::num(v as f64)),
            ("p", Json::num(p)),
        ]),
    }
}

fn run_script(
    addr: std::net::SocketAddr,
    sweep: &DecompSweep,
    graph: &UncertainGraph,
    truth: &UpdateTruth<'_>,
) -> Result<Checker, ClientError> {
    let mut c = Checker {
        failures: Vec::new(),
    };
    let mut client = Client::connect(addr)?;
    // The script queries the first two grid points, looked up once.
    let (at0, at1) = (&sweep.points()[0], &sweep.points()[1]);
    let (theta0, theta1) = (at0.config().threshold, at1.config().threshold);
    let post = truth.post_sweep.points();

    // 1: liveness.
    let pong = client.call("ping", Json::Null)?;
    c.check(
        "ping",
        pong.get("pong").and_then(Json::as_bool) == Some(true),
    );

    // 2: the server describes the graph it loaded.
    let info = client.call("info", Json::Null)?;
    c.check(
        "info",
        info.get("vertices").and_then(Json::as_f64) == Some(graph.num_vertices() as f64)
            && info.get("edges").and_then(Json::as_f64) == Some(graph.num_edges() as f64),
    );

    // 3: open the session (first support build).
    let opened = client.call(
        "open",
        obj(vec![
            ("rank", Json::str("nucleus")),
            (
                "thetas",
                Json::Arr(sweep.thresholds().iter().map(|&t| Json::num(t)).collect()),
            ),
        ]),
    )?;
    let session = opened
        .get("session")
        .and_then(Json::as_f64)
        .expect("open returns a session id");
    c.check(
        "open",
        opened.get("num_elements").and_then(Json::as_f64) == Some(at0.num_elements() as f64),
    );
    let with_session = |extra: Vec<(&str, Json)>| {
        let mut members = vec![("session", Json::num(session))];
        members.extend(extra);
        obj(members)
    };

    // 4-6: two misses, then a hit; all bit-identical to the sweep.
    let wire0 = client.call(
        "scores_at",
        with_session(vec![("theta", Json::num(theta0))]),
    )?;
    c.check(
        "bit-identity: scores theta0",
        scores_from_json(&wire0).as_deref() == Some(at0.scores()),
    );
    let wire0_again = client.call(
        "scores_at",
        with_session(vec![("theta", Json::num(theta0))]),
    )?;
    c.check("cache: repeat query equal", wire0 == wire0_again);
    let wire1 = client.call(
        "scores_at",
        with_session(vec![("theta", Json::num(theta1))]),
    )?;
    c.check(
        "bit-identity: scores theta1",
        scores_from_json(&wire1).as_deref() == Some(at1.scores()),
    );

    // 7: max score.
    let max0 = client.call(
        "max_score_at",
        with_session(vec![("theta", Json::num(theta0))]),
    )?;
    c.check(
        "bit-identity: max_score theta0",
        max0.get("max_score").and_then(Json::as_f64) == Some(f64::from(at0.max_score())),
    );

    // 8: a batch answered in order (a max-score and an element subset).
    let batch = client.call_batch(&[
        (
            "max_score_at",
            with_session(vec![("theta", Json::num(theta1))]),
        ),
        (
            "scores_at",
            with_session(vec![
                ("theta", Json::num(theta0)),
                ("elements", Json::Arr(vec![Json::num(0.0)])),
            ]),
        ),
    ])?;
    let batch_max_ok = matches!(
        batch[0].as_ref(),
        Ok(r) if r.get("max_score").and_then(Json::as_f64)
            == Some(f64::from(at1.max_score()))
    );
    let expected_first = at0.scores().first().copied();
    let batch_subset_ok = matches!(
        batch[1].as_ref(),
        Ok(r) if scores_from_json(r).as_deref().and_then(|s| s.first().copied())
            == expected_first
    );
    c.check("bit-identity: batch max_score theta1", batch_max_ok);
    c.check("bit-identity: batch element subset", batch_subset_ok);

    // 9-11: the nucleus answers match the library's extraction: every
    // nucleus at k = 1, each ranked entry (an extracted nucleus at its
    // k, densest first) and the highest-k nucleus holding vertex 0.
    let extracted = |k: u32| -> Vec<Json> {
        let nuclei = at0
            .k_nuclei(graph, k)
            .expect("nucleus sweep extracts nuclei");
        nuclei
            .iter()
            .map(|n| nucleus_json(n.k, n.subgraph.original_vertices(), n.num_edges()))
            .collect()
    };
    let lib_nuclei = extracted(1);
    let wire_nuclei = client.call(
        "k_nuclei_at",
        with_session(vec![("theta", Json::num(theta0)), ("k", Json::num(1.0))]),
    )?;
    c.check(
        "bit-identity: k_nuclei_at",
        wire_nuclei.get("count").and_then(Json::as_f64) == Some(lib_nuclei.len() as f64)
            && wire_nuclei.get("nuclei").and_then(Json::as_array) == Some(&lib_nuclei[..]),
    );

    let max0 = at0.max_score();
    let by_k: Vec<Vec<Json>> = (1..=max0).map(extracted).collect();
    let limit = 3;
    let top = client.call(
        "top_nuclei",
        with_session(vec![
            ("theta", Json::num(theta0)),
            ("limit", Json::num(limit as f64)),
        ]),
    )?;
    let entries = top.get("nuclei").and_then(Json::as_array).unwrap_or(&[]);
    let densities: Vec<Option<f64>> = entries
        .iter()
        .map(|entry| {
            let (nucleus, density) = split_density(entry)?;
            let k = nucleus.get("k")?.as_f64()? as usize;
            let count = |key| nucleus.get(key).and_then(Json::as_f64);
            let exact = density == count("num_edges")? / count("num_vertices")?;
            (exact && by_k.get(k.checked_sub(1)?)?.contains(&nucleus)).then_some(density)
        })
        .collect();
    let candidates: usize = by_k.iter().map(Vec::len).sum();
    c.check(
        "bit-identity: top_nuclei",
        entries.len() == candidates.min(limit)
            && densities.iter().all(Option::is_some)
            && densities.windows(2).all(|w| w[0] >= w[1]),
    );

    let community = client.call(
        "community",
        with_session(vec![
            ("theta", Json::num(theta0)),
            ("vertex", Json::num(0.0)),
        ]),
    )?;
    let home = by_k.iter().rev().find_map(|nuclei| {
        let holds_zero = |n: &&Json| {
            let vertices = n.get("vertices").and_then(Json::as_array);
            vertices.is_some_and(|vs| vs.contains(&Json::num(0.0)))
        };
        nuclei.iter().find(holds_zero)
    });
    c.check(
        "bit-identity: community",
        community.get("found").and_then(Json::as_bool) == Some(home.is_some())
            && community.get("community") == home,
    );

    // 12: typed errors, none of which may kill the connection.
    let off_grid = client
        .call(
            "scores_at",
            with_session(vec![("theta", Json::num(0.987654))]),
        )
        .expect_err("off-grid theta must fail");
    c.check("error: off-grid", off_grid.is_code(ErrorCode::OffGrid));
    let unknown_method = client
        .call("frobnicate", Json::Null)
        .expect_err("unknown method must fail");
    c.check(
        "error: unknown-method",
        unknown_method.is_code(ErrorCode::UnknownMethod),
    );
    let unknown_session = client
        .call(
            "scores_at",
            obj(vec![
                ("session", Json::num(999_999.0)),
                ("theta", Json::num(theta0)),
            ]),
        )
        .expect_err("unknown session must fail");
    c.check(
        "error: unknown-session",
        unknown_session.is_code(ErrorCode::UnknownSession),
    );
    let deadline = client
        .call_with_deadline("ping", Json::Null, Some(0))
        .expect_err("a zero deadline must fail");
    c.check(
        "error: deadline-exceeded",
        deadline.is_code(ErrorCode::DeadlineExceeded),
    );

    // 13-14: a second session shares the support (no new build) and its
    // queries hit the warm cache.
    let opened2 = client.call(
        "open",
        obj(vec![
            ("rank", Json::str("nucleus")),
            (
                "thetas",
                Json::Arr(sweep.thresholds().iter().map(|&t| Json::num(t)).collect()),
            ),
        ]),
    )?;
    let session2 = opened2
        .get("session")
        .and_then(Json::as_f64)
        .expect("open returns a session id");
    let warm = client.call(
        "scores_at",
        obj(vec![
            ("session", Json::num(session2)),
            ("theta", Json::num(theta0)),
        ]),
    )?;
    c.check("cache: second session warm", warm == wire0);

    // 15: a semantically invalid batch (deleting the same edge twice)
    // is rejected atomically with the typed update-rejected error.
    let (du, dv) = truth.batch[0].endpoints();
    let double_delete = obj(vec![
        ("op", Json::str("delete")),
        ("u", Json::num(du as f64)),
        ("v", Json::num(dv as f64)),
    ]);
    let rejected = client
        .call(
            "apply_updates",
            obj(vec![(
                "updates",
                Json::Arr(vec![double_delete.clone(), double_delete]),
            )]),
        )
        .expect_err("an invalid batch must be rejected");
    c.check(
        "error: update-rejected",
        rejected.is_code(ErrorCode::UpdateRejected),
    );

    // 16: a malformed update body (unknown op) is the typed parameter
    // error, not a rejection and not a dead process.
    let malformed = client
        .call(
            "apply_updates",
            obj(vec![(
                "updates",
                Json::Arr(vec![obj(vec![
                    ("op", Json::str("smite")),
                    ("u", Json::num(0.0)),
                    ("v", Json::num(1.0)),
                ])]),
            )]),
        )
        .expect_err("a malformed update body must fail");
    c.check(
        "error: update invalid-params",
        malformed.is_code(ErrorCode::InvalidParams),
    );

    // 17: neither refusal changed the world: θ0 still answers with the
    // pre-update scores (from the still-warm cache).
    let still = client.call(
        "scores_at",
        with_session(vec![("theta", Json::num(theta0))]),
    )?;
    c.check("update: rejection left the world untouched", still == wire0);

    // 18: the valid batch applies; its echoed net effect and cache
    // invalidation count are deterministic.
    let applied = client.call(
        "apply_updates",
        obj(vec![(
            "updates",
            Json::Arr(truth.batch.iter().map(update_json).collect()),
        )]),
    )?;
    c.check(
        "update: applied with the expected net effect",
        applied.get("applied").and_then(Json::as_bool) == Some(true)
            && applied.get("removed").and_then(Json::as_f64) == Some(truth.removed as f64)
            && applied.get("reweighted").and_then(Json::as_f64) == Some(truth.reweighted as f64)
            && applied.get("edges").and_then(Json::as_f64) == Some(truth.edges_after as f64)
            && applied.get("repaired_ranks").and_then(Json::as_f64) == Some(1.0),
    );
    c.check(
        "update: exact cache invalidation count",
        applied.get("cache_invalidations").and_then(Json::as_f64)
            == Some(truth.expected_invalidations as f64),
    );

    // 19-20: the sessions opened before the update now answer about the
    // updated graph, bit-identical to a fresh sweep over it.
    let post0 = client.call(
        "scores_at",
        with_session(vec![("theta", Json::num(theta0))]),
    )?;
    c.check(
        "bit-identity: post-update scores theta0",
        scores_from_json(&post0).as_deref() == Some(post[0].scores()),
    );
    let post_max1 = client.call(
        "max_score_at",
        with_session(vec![("theta", Json::num(theta1))]),
    )?;
    c.check(
        "bit-identity: post-update max_score theta1",
        post_max1.get("max_score").and_then(Json::as_f64) == Some(f64::from(post[1].max_score())),
    );

    // 21: close both sessions.
    for id in [session, session2] {
        let closed = client.call("close", obj(vec![("session", Json::num(id))]))?;
        c.check(
            "close",
            closed.get("closed").and_then(Json::as_bool) == Some(true),
        );
    }

    // 22: counters over the wire (exact values are gated via the final
    // snapshot; here just require the call to answer).
    let stats = client.call("stats", Json::Null)?;
    c.check(
        "stats: protocol errors zero",
        stats.get("protocol_errors").and_then(Json::as_f64) == Some(0.0),
    );

    // 23: graceful shutdown.
    let bye = client.call("shutdown", Json::Null)?;
    c.check(
        "shutdown",
        bye.get("shutting_down").and_then(Json::as_bool) == Some(true),
    );
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn clique(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn oneshot_passes_on_a_clique_and_counts_deterministically() {
        let graph = clique(6, 0.8);
        let report = run_oneshot(&graph, &OneshotOptions::default()).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.bit_identical);
        let stats = report.stats;
        assert_eq!(stats.protocol_errors, 0, "{stats:?}");
        assert_eq!(stats.support_builds, 1, "{stats:?}");
        assert_eq!(stats.sessions_opened, 2, "{stats:?}");
        assert_eq!(stats.sessions_closed, 2, "{stats:?}");
        // 2 pre-update misses, then the update drops both resident
        // points and the 2 post-update queries miss again.
        assert_eq!(stats.cache_misses, 4, "{stats:?}");
        assert!(stats.cache_hits >= 5, "{stats:?}");
        assert_eq!(stats.deadlines_exceeded, 1, "{stats:?}");
        assert_eq!(stats.batches, 1, "{stats:?}");
        assert_eq!(stats.request_errors, 6, "{stats:?}");
        // One applied batch repaired the single resident rank in place
        // (support_builds stays 1) and invalidated exactly the resident
        // per-θ entries.
        assert_eq!(stats.updates_applied, 1, "{stats:?}");
        assert_eq!(stats.supports_repaired, 1, "{stats:?}");
        assert_eq!(stats.cache_invalidations, 2, "{stats:?}");

        // The whole script is deterministic: a second run lands on the
        // exact same counters.
        let report2 = run_oneshot(&graph, &OneshotOptions::default()).unwrap();
        assert_eq!(report2.stats, stats);
    }
}
